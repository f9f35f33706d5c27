//! The blocking client: one TCP connection, pipelined request frames.
//!
//! [`NetClient::batch`] is the simple call-and-wait form. A pipelining caller
//! uses the split [`NetClient::send`] / [`NetClient::recv`] pair instead: it
//! issues requests on its own schedule (regardless of whether earlier replies
//! have arrived) and drains replies as they come back, which is what gives
//! the server-side coalescer multiple in-flight requests to merge.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use txkv::{KvOp, KvReply};

use crate::error::{NetError, ProtocolError, RemoteError};
use crate::frame::{decode_frame, encode_frame, FrameDecode, DEFAULT_MAX_FRAME_LEN};
use crate::proto;

/// A client connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    read_buf: Vec<u8>,
    next_req: u64,
    max_frame_len: u32,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            read_buf: Vec::new(),
            next_req: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        })
    }

    /// Sets a read timeout for [`NetClient::recv`] (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request batch without waiting for its reply; returns the
    /// request-id its reply will carry. Requests pipeline: any number may be
    /// in flight, and replies arrive in server-execution order.
    ///
    /// # Errors
    ///
    /// Transport failures only — nothing is decoded on this path.
    pub fn send(&mut self, ops: &[KvOp]) -> Result<u64, NetError> {
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = encode_frame(req_id, &proto::encode_request(ops));
        self.stream.write_all(&frame)?;
        Ok(req_id)
    }

    /// Receives the next reply: `(request_id, result)`, where the result is
    /// the request's [`KvReply`] list or the server's typed error for it.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on transport failure or server close,
    /// [`NetError::Protocol`] if the server's stream is corrupt.
    pub fn recv(&mut self) -> Result<(u64, Result<Vec<KvReply>, RemoteError>), NetError> {
        loop {
            match decode_frame(&self.read_buf, self.max_frame_len)? {
                FrameDecode::Frame {
                    req_id,
                    payload,
                    consumed,
                } => {
                    // The payload borrows `read_buf`: decode, then drain.
                    let reply = proto::decode_reply(payload);
                    self.read_buf.drain(..consumed);
                    return Ok((req_id, reply?));
                }
                FrameDecode::Incomplete => {
                    let mut scratch = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut scratch)?;
                    if n == 0 {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        )));
                    }
                    self.read_buf.extend_from_slice(&scratch[..n]);
                }
            }
        }
    }

    /// Executes one batch and waits for its reply (send + recv + match).
    ///
    /// # Errors
    ///
    /// See [`NetClient::recv`]; additionally [`NetError::Remote`] when the
    /// server answered with a typed error, and
    /// [`ProtocolError::UnexpectedReply`] if the reply stream delivered a
    /// different request's reply (only possible if calls were pipelined with
    /// [`NetClient::send`] and their replies not yet drained).
    pub fn batch(&mut self, ops: &[KvOp]) -> Result<Vec<KvReply>, NetError> {
        let req_id = self.send(ops)?;
        let (got, result) = self.recv()?;
        if got != req_id {
            return Err(NetError::Protocol(ProtocolError::UnexpectedReply(got)));
        }
        result.map_err(NetError::Remote)
    }

    /// Convenience single-key read over [`NetClient::batch`].
    ///
    /// # Errors
    ///
    /// See [`NetClient::batch`].
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u64>>, NetError> {
        match self.batch(&[KvOp::Get { key }])?.pop() {
            Some(KvReply::Value(v)) => Ok(v),
            _ => Err(NetError::Protocol(ProtocolError::Malformed)),
        }
    }

    /// Convenience single-key write over [`NetClient::batch`]. Returns
    /// `true` on fresh insert.
    ///
    /// # Errors
    ///
    /// See [`NetClient::batch`].
    pub fn put(&mut self, key: u64, value: Vec<u64>) -> Result<bool, NetError> {
        match self.batch(&[KvOp::Put { key, value }])?.pop() {
            Some(KvReply::Inserted(fresh)) => Ok(fresh),
            _ => Err(NetError::Protocol(ProtocolError::Malformed)),
        }
    }

    /// Raw access to the underlying stream — test hooks (sending
    /// deliberately corrupt bytes) only.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
