//! The typed error vocabulary of the network protocol.
//!
//! Two layers of failure, with different blast radii:
//!
//! * [`ProtocolError`] — a violation of the wire format. Frame-level
//!   violations ([`ProtocolError::is_frame_level`]) mean the byte stream
//!   itself can no longer be trusted (a flipped magic byte leaves no way to
//!   find the next frame boundary), so the server closes the connection
//!   cleanly. Payload-level violations are scoped to one CRC-valid frame:
//!   the request-id is known, so the server answers it with a typed error
//!   reply and the connection stays live.
//! * [`NetError`] — everything a client call can fail with: transport I/O,
//!   a protocol violation it detected locally, or a typed error reply the
//!   server sent back ([`NetError::Remote`]).

use std::fmt;
use std::io;

use txkv::OpDecodeError;

/// A violation of the wire protocol, detected by either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The four magic bytes at a frame boundary were wrong — the stream is
    /// desynced beyond recovery.
    BadMagic([u8; 4]),
    /// A frame header claimed a payload longer than the configured maximum
    /// (a corrupt length would otherwise stall the stream waiting for bytes
    /// that never come).
    Oversized(u32),
    /// The frame's CRC did not match its contents.
    BadCrc {
        /// The request-id the corrupt frame claimed (untrustworthy — for
        /// diagnostics only, never for routing a reply).
        claimed_request: u64,
    },
    /// A CRC-valid payload did not decode: wrong protocol version.
    BadVersion(u8),
    /// A CRC-valid payload did not decode: unknown operation or reply tag.
    UnknownTag(u8),
    /// A CRC-valid payload did not decode: it ended mid-field or carried
    /// trailing bytes.
    Malformed,
    /// A reply referenced a request-id this connection never sent (client
    /// side only — the pipelining invariant broke).
    UnexpectedReply(u64),
}

impl ProtocolError {
    /// `true` if the violation invalidates the byte stream itself (the
    /// server must close the connection); `false` if it is scoped to one
    /// well-framed request (the server replies with a typed error and keeps
    /// serving the connection).
    pub fn is_frame_level(&self) -> bool {
        matches!(
            self,
            ProtocolError::BadMagic(_) | ProtocolError::Oversized(_) | ProtocolError::BadCrc { .. }
        )
    }

    /// The wire code carried by error replies (see [`crate::proto`]).
    pub fn wire_code(&self) -> u8 {
        match self {
            ProtocolError::BadMagic(_) => 1,
            ProtocolError::Oversized(_) => 2,
            ProtocolError::BadCrc { .. } => 3,
            ProtocolError::BadVersion(_) => 4,
            ProtocolError::UnknownTag(_) => 5,
            ProtocolError::Malformed => 6,
            ProtocolError::UnexpectedReply(_) => 7,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(found) => write!(f, "bad frame magic {found:02X?}"),
            ProtocolError::Oversized(len) => write!(f, "frame payload length {len} over limit"),
            ProtocolError::BadCrc { claimed_request } => {
                write!(f, "frame CRC mismatch (claimed request {claimed_request})")
            }
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown wire tag {tag}"),
            ProtocolError::Malformed => write!(f, "malformed payload"),
            ProtocolError::UnexpectedReply(id) => write!(f, "reply for unknown request {id}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<OpDecodeError> for ProtocolError {
    fn from(error: OpDecodeError) -> Self {
        match error {
            OpDecodeError::UnknownTag(tag) => ProtocolError::UnknownTag(tag),
            OpDecodeError::Truncated => ProtocolError::Malformed,
        }
    }
}

/// An error reply the server sent back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// The server-assigned error code: [`ProtocolError::wire_code`] values
    /// for request decoding failures, [`crate::proto::ERR_WAL`] for a
    /// durability failure, [`crate::proto::ERR_REPLY_TOO_LARGE`] for an
    /// executed request whose reply exceeds the frame limit.
    pub code: u8,
    /// Human-readable description from the server.
    pub message: String,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for RemoteError {}

/// Everything a client-side call can fail with.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (includes the server closing the connection).
    Io(io::Error),
    /// The client detected a protocol violation in the server's stream.
    Protocol(ProtocolError),
    /// The server answered the request with a typed error reply.
    Remote(RemoteError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_level_violations_are_distinguished_from_payload_level() {
        assert!(ProtocolError::BadMagic(*b"XXXX").is_frame_level());
        assert!(ProtocolError::Oversized(u32::MAX).is_frame_level());
        assert!(ProtocolError::BadCrc { claimed_request: 1 }.is_frame_level());
        assert!(!ProtocolError::BadVersion(9).is_frame_level());
        assert!(!ProtocolError::UnknownTag(200).is_frame_level());
        assert!(!ProtocolError::Malformed.is_frame_level());
    }

    #[test]
    fn wire_codes_are_distinct() {
        let codes = [
            ProtocolError::BadMagic(*b"XXXX").wire_code(),
            ProtocolError::Oversized(0).wire_code(),
            ProtocolError::BadCrc { claimed_request: 0 }.wire_code(),
            ProtocolError::BadVersion(0).wire_code(),
            ProtocolError::UnknownTag(0).wire_code(),
            ProtocolError::Malformed.wire_code(),
            ProtocolError::UnexpectedReply(0).wire_code(),
        ];
        let mut unique = codes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
    }
}
