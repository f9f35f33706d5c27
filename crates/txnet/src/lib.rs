//! # txnet — the network serving front-end
//!
//! Turns the in-process [`txkv`] store into a middleware something can call
//! over a wire: a pipelined, length-prefixed binary protocol served by a
//! hand-rolled thread-per-core nonblocking TCP server, generic over any
//! [`txmem::TxRuntime`].
//!
//! ```text
//!   clients ──TCP──▶ serving thread ──┐   per iteration: one coalesced
//!   clients ──TCP──▶ serving thread ──┤   round = one store batch
//!                      poll loop      │   (durable: one LSN, one WAL
//!                      (accept/read/  ├─▶  record), committed in memory;
//!                       decode/exec/  │   replies parked until the WAL's
//!                       park/release) │   durable watermark covers them
//!   clients ──TCP──▶ serving thread ──┘
//! ```
//!
//! Three pieces:
//!
//! * [`frame`] — the wire framing: [`txlog::frame`]'s codec under the magic
//!   `"TXNT"` (`magic | len | request-id | crc | payload`), so torn and
//!   bit-flipped frames are detected exactly like torn WAL tails.
//! * [`proto`] — request/reply payload codecs; a request's operations are
//!   encoded by [`txkv::encode_op`], like a WAL record's. Decoders never
//!   panic on arbitrary bytes and classify every violation as frame-level
//!   (close) or payload-level (typed error reply on the live connection)
//!   via [`ProtocolError::is_frame_level`].
//! * [`server`] / [`client`] — the nonblocking poll-loop server whose
//!   serving threads **coalesce** every request decoded in one poll
//!   iteration (across all of the thread's connections) into a single store
//!   batch — N clients share one STM commit and, on the durable path, one
//!   WAL record — and **pipeline** durability: a round is committed in
//!   memory ([`txkv::DurableKvSession::submit`]), its replies wait in a
//!   per-thread FIFO for the durable watermark, and the thread executes the
//!   next round meanwhile, so the rounds committed while one fsync is in
//!   flight share the next. And the blocking pipelined client the open-loop
//!   load generator drives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::NetClient;
pub use error::{NetError, ProtocolError, RemoteError};
pub use frame::{
    decode_frame, encode_frame, encode_frame_into, FrameDecode, DEFAULT_MAX_FRAME_LEN,
    FRAME_HEADER_LEN, FRAME_MAGIC,
};
pub use proto::{
    decode_reply, decode_request, decode_request_into, encode_err_reply, encode_err_reply_into,
    encode_ok_reply, encode_ok_reply_into, encode_request, ERR_REPLY_TOO_LARGE, ERR_WAL,
    PROTO_VERSION,
};
pub use server::{
    NetServer, NetServerConfig, PARKED_ROUNDS_LIMIT, WRITE_BUF_HARD_LIMIT, WRITE_BUF_SOFT_LIMIT,
};
