//! Request and reply payload codecs.
//!
//! A request payload is one client batch — a list of [`KvOp`]s executed as
//! one atomic transaction: the version byte, a `u32` op count, then each
//! operation in [`txkv::ops`]'s encoding ([`txkv::encode_op`], the one the
//! WAL's redo records use), so the protocol adds framing and nothing else.
//! A reply payload is either the matching [`KvReply`] list or a typed error.
//!
//! Decoders never panic on arbitrary bytes: every structural violation is a
//! typed payload-level [`ProtocolError`], which the server answers on the
//! still-live connection (the frame around the payload was CRC-valid, so
//! the request-id is trustworthy).
//!
//! Each codec has one implementation, its `_into` form, which appends to a
//! caller's buffer: the server decodes a request straight into its round's
//! operation list ([`decode_request_into`]) and encodes a reply straight
//! into its round's reply buffer ([`encode_ok_reply_into`],
//! [`encode_err_reply_into`]). [`decode_request`], [`encode_ok_reply`] and
//! [`encode_err_reply`] wrap them for callers that want a fresh `Vec`.

use txkv::{decode_op, encode_op, KvOp, KvReply};
use txlog::codec::{put_words, Cursor};

use crate::error::{ProtocolError, RemoteError};

/// Version byte leading every request and reply payload. Version 2 took
/// its operation tags from [`txkv::ops`].
pub const PROTO_VERSION: u8 = 2;

/// Error-reply code for a durability (WAL) failure — the request was
/// well-formed but could not be made durable. Protocol failures use
/// [`ProtocolError::wire_code`] values (1..=7) instead.
pub const ERR_WAL: u8 = 32;

/// Error-reply code for a reply that would not fit in one frame: the
/// request **was executed** (its writes stand), only its answer is withheld.
pub const ERR_REPLY_TOO_LARGE: u8 = 33;

const REPLY_VALUE: u8 = 1;
const REPLY_INSERTED: u8 = 2;
const REPLY_REMOVED: u8 = 3;
const REPLY_SWAPPED: u8 = 4;
const REPLY_SCAN: u8 = 5;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Reads the version byte every payload starts with.
fn read_version(cur: &mut Cursor<'_>) -> Result<(), ProtocolError> {
    match cur.u8() {
        Some(PROTO_VERSION) => Ok(()),
        Some(other) => Err(ProtocolError::BadVersion(other)),
        None => Err(ProtocolError::Malformed),
    }
}

/// Encodes one request batch.
pub fn encode_request(ops: &[KvOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ops.len() * 16);
    out.push(PROTO_VERSION);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        encode_op(&mut out, op);
    }
    out
}

/// Decodes one request batch (convenience over [`decode_request_into`]).
///
/// # Errors
///
/// All returned errors are payload-level (the connection stays live).
pub fn decode_request(payload: &[u8]) -> Result<Vec<KvOp>, ProtocolError> {
    let mut ops = Vec::new();
    decode_request_into(payload, &mut ops).map(|()| ops)
}

/// Decodes one request batch, appending its operations to `ops`. On an
/// error `ops` is left exactly as it was: no operation of a rejected
/// request — not even a prefix that decoded — may execute.
///
/// # Errors
///
/// All returned errors are payload-level (the connection stays live).
pub fn decode_request_into(payload: &[u8], ops: &mut Vec<KvOp>) -> Result<(), ProtocolError> {
    let start = ops.len();
    let decoded = append_ops(payload, ops);
    if decoded.is_err() {
        ops.truncate(start);
    }
    decoded
}

/// [`decode_request_into`] without the rollback: on an error, the
/// operations decoded so far stay appended.
fn append_ops(payload: &[u8], ops: &mut Vec<KvOp>) -> Result<(), ProtocolError> {
    let mut cur = Cursor::new(payload);
    read_version(&mut cur)?;
    let n_ops = cur.u32().ok_or(ProtocolError::Malformed)? as usize;
    if n_ops > payload.len() {
        return Err(ProtocolError::Malformed);
    }
    ops.reserve(n_ops);
    for _ in 0..n_ops {
        ops.push(decode_op(&mut cur)?);
    }
    if !cur.done() {
        return Err(ProtocolError::Malformed);
    }
    Ok(())
}

/// Encodes a success reply (convenience over [`encode_ok_reply_into`]).
pub fn encode_ok_reply(replies: &[KvReply]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + replies.len() * 8);
    encode_ok_reply_into(&mut out, replies);
    out
}

/// Appends a success reply to `out`: one [`KvReply`] per request operation.
pub fn encode_ok_reply_into(out: &mut Vec<u8>, replies: &[KvReply]) {
    out.push(PROTO_VERSION);
    out.push(STATUS_OK);
    out.extend_from_slice(&(replies.len() as u32).to_le_bytes());
    for reply in replies {
        match reply {
            KvReply::Value(value) => {
                out.push(REPLY_VALUE);
                match value {
                    None => out.push(0),
                    Some(words) => {
                        out.push(1);
                        put_words(out, words);
                    }
                }
            }
            KvReply::Inserted(fresh) => {
                out.push(REPLY_INSERTED);
                out.push(u8::from(*fresh));
            }
            KvReply::Removed(existed) => {
                out.push(REPLY_REMOVED);
                out.push(u8::from(*existed));
            }
            KvReply::Swapped(swapped) => {
                out.push(REPLY_SWAPPED);
                out.push(u8::from(*swapped));
            }
            KvReply::Scan(hits) => {
                out.push(REPLY_SCAN);
                out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                for (key, checksum) in hits {
                    out.extend_from_slice(&key.to_le_bytes());
                    out.extend_from_slice(&checksum.to_le_bytes());
                }
            }
        }
    }
}

/// Encodes an error reply (convenience over [`encode_err_reply_into`]).
pub fn encode_err_reply(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + message.len().min(u16::MAX as usize));
    encode_err_reply_into(&mut out, code, message);
    out
}

/// Appends an error reply carrying `code` and a human-readable message
/// (cut at `u16::MAX` bytes) to `out`.
pub fn encode_err_reply_into(out: &mut Vec<u8>, code: u8, message: &str) {
    let bytes = message.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.push(PROTO_VERSION);
    out.push(STATUS_ERR);
    out.push(code);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Decodes a reply payload into either the reply list or the server's typed
/// error.
///
/// # Errors
///
/// [`ProtocolError`] when the payload itself violates the wire format.
pub fn decode_reply(payload: &[u8]) -> Result<Result<Vec<KvReply>, RemoteError>, ProtocolError> {
    let mut cur = Cursor::new(payload);
    read_version(&mut cur)?;
    match cur.u8().ok_or(ProtocolError::Malformed)? {
        STATUS_OK => {}
        STATUS_ERR => {
            let code = cur.u8().ok_or(ProtocolError::Malformed)?;
            let len_bytes = cur.take(2).ok_or(ProtocolError::Malformed)?;
            let len = u16::from_le_bytes(len_bytes.try_into().expect("2-byte slice"));
            let bytes = cur.take(len as usize).ok_or(ProtocolError::Malformed)?;
            if !cur.done() {
                return Err(ProtocolError::Malformed);
            }
            let message = String::from_utf8_lossy(bytes).into_owned();
            return Ok(Err(RemoteError { code, message }));
        }
        other => return Err(ProtocolError::UnknownTag(other)),
    }
    let n_replies = cur.u32().ok_or(ProtocolError::Malformed)? as usize;
    if n_replies > payload.len() {
        return Err(ProtocolError::Malformed);
    }
    let mut replies = Vec::with_capacity(n_replies);
    for _ in 0..n_replies {
        let reply = match cur.u8().ok_or(ProtocolError::Malformed)? {
            REPLY_VALUE => match cur.u8().ok_or(ProtocolError::Malformed)? {
                0 => KvReply::Value(None),
                1 => KvReply::Value(Some(cur.words().ok_or(ProtocolError::Malformed)?)),
                other => return Err(ProtocolError::UnknownTag(other)),
            },
            REPLY_INSERTED => KvReply::Inserted(cur.u8().ok_or(ProtocolError::Malformed)? != 0),
            REPLY_REMOVED => KvReply::Removed(cur.u8().ok_or(ProtocolError::Malformed)? != 0),
            REPLY_SWAPPED => KvReply::Swapped(cur.u8().ok_or(ProtocolError::Malformed)? != 0),
            REPLY_SCAN => {
                let n_hits = cur.u32().ok_or(ProtocolError::Malformed)? as usize;
                if n_hits > payload.len() {
                    return Err(ProtocolError::Malformed);
                }
                let mut hits = Vec::with_capacity(n_hits);
                for _ in 0..n_hits {
                    let key = cur.u64().ok_or(ProtocolError::Malformed)?;
                    let checksum = cur.u64().ok_or(ProtocolError::Malformed)?;
                    hits.push((key, checksum));
                }
                KvReply::Scan(hits)
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        replies.push(reply);
    }
    if !cur.done() {
        return Err(ProtocolError::Malformed);
    }
    Ok(Ok(replies))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<KvOp> {
        vec![
            KvOp::Get { key: 7 },
            KvOp::Put {
                key: 9,
                value: vec![1, 2, 3],
            },
            KvOp::Delete { key: 11 },
            KvOp::Cas {
                key: 13,
                expected: vec![],
                new: vec![u64::MAX],
            },
            KvOp::Scan {
                lo: 0,
                hi: 100,
                limit: 8,
            },
        ]
    }

    fn sample_replies() -> Vec<KvReply> {
        vec![
            KvReply::Value(None),
            KvReply::Value(Some(vec![4, 5])),
            KvReply::Inserted(true),
            KvReply::Removed(false),
            KvReply::Swapped(true),
            KvReply::Scan(vec![(1, 111), (2, 222)]),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let ops = sample_ops();
        assert_eq!(decode_request(&encode_request(&ops)), Ok(ops));
        assert_eq!(decode_request(&encode_request(&[])), Ok(Vec::new()));
    }

    #[test]
    fn replies_round_trip() {
        let replies = sample_replies();
        assert_eq!(
            decode_reply(&encode_ok_reply(&replies)),
            Ok(Ok(replies.clone()))
        );
        assert_eq!(
            decode_reply(&encode_err_reply(ERR_WAL, "log crashed")),
            Ok(Err(RemoteError {
                code: ERR_WAL,
                message: "log crashed".into(),
            }))
        );
    }

    #[test]
    fn every_truncation_of_a_request_is_a_typed_error() {
        let payload = encode_request(&sample_ops());
        // A list that already holds another request's operations, as a
        // round's does: a rejected request must leave it as it found it.
        let prefilled = vec![KvOp::Delete { key: 3 }, KvOp::Get { key: 4 }];
        for cut in 0..payload.len() {
            let got = decode_request(&payload[..cut]);
            assert!(got.is_err(), "cut at {cut} decoded as {got:?}");
            assert!(!got.unwrap_err().is_frame_level(), "cut at {cut}");
            let mut ops = prefilled.clone();
            let got = decode_request_into(&payload[..cut], &mut ops);
            assert!(got.is_err(), "cut at {cut} decoded into the list");
            assert_eq!(ops, prefilled, "cut at {cut} left a decoded prefix");
        }
    }

    #[test]
    fn every_truncation_of_a_reply_is_a_typed_error() {
        for payload in [
            encode_ok_reply(&sample_replies()),
            encode_err_reply(3, "boom"),
        ] {
            for cut in 0..payload.len() {
                assert!(
                    decode_reply(&payload[..cut]).is_err(),
                    "cut at {cut} of {payload:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut padded = encode_request(&sample_ops());
        padded.push(0);
        assert_eq!(decode_request(&padded), Err(ProtocolError::Malformed));

        let mut wrong_version = encode_request(&sample_ops());
        wrong_version[0] = 9;
        assert_eq!(
            decode_request(&wrong_version),
            Err(ProtocolError::BadVersion(9))
        );

        let mut bad_tag = encode_request(&[KvOp::Get { key: 1 }]);
        bad_tag[5] = 200;
        assert_eq!(
            decode_request(&bad_tag),
            Err(ProtocolError::UnknownTag(200))
        );
    }

    #[test]
    fn corrupt_counts_do_not_allocate_wildly() {
        // A request claiming u32::MAX ops must fail fast, not reserve.
        let mut payload = vec![PROTO_VERSION];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(ProtocolError::Malformed));

        let mut reply = vec![PROTO_VERSION, STATUS_OK];
        reply.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_reply(&reply), Err(ProtocolError::Malformed));
    }

    #[test]
    fn error_messages_are_length_capped() {
        let long = "x".repeat(100_000);
        let payload = encode_err_reply(1, &long);
        let Ok(Err(remote)) = decode_reply(&payload) else {
            panic!("error reply must decode");
        };
        assert_eq!(remote.message.len(), u16::MAX as usize);
    }
}
