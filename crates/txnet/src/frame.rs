//! The wire framing: [`txlog::frame`]'s codec under the magic `"TXNT"`, the
//! request-id in the header word. A socket is not a file: a prefix of a frame
//! is [`FrameDecode::Incomplete`] (read more bytes), and every other
//! rejection is the matching frame-level [`ProtocolError`] (close the
//! connection). A decoded frame borrows its payload from the caller's
//! buffer: the payload is never copied out, and the caller decodes it before
//! it drops the frame's bytes.

use txlog::frame::{self, FrameError};

use crate::error::ProtocolError;

pub use txlog::frame::FRAME_HEADER_LEN;

/// Frame magic: marks the start of every protocol frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TXNT";

/// Default upper bound on a frame's payload length. A corrupt length claim
/// above the limit is rejected immediately instead of stalling the stream
/// waiting for bytes that will never arrive.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Appends one encoded frame for `(req_id, payload)` to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, req_id: u64, payload: &[u8]) {
    frame::encode_frame_into(out, FRAME_MAGIC, req_id, payload);
}

/// One encoded frame (convenience over [`encode_frame_into`]).
pub fn encode_frame(req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, req_id, payload);
    out
}

/// The outcome of attempting to decode one frame from a stream buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecode<'a> {
    /// A complete, CRC-valid frame. The caller must drop the first
    /// `consumed` bytes of its buffer before the next attempt — after it is
    /// done with `payload`, which borrows them.
    Frame {
        /// The request-id the frame carries.
        req_id: u64,
        /// The validated payload, borrowed from the decoded buffer.
        payload: &'a [u8],
        /// Total frame size in the buffer (header + payload).
        consumed: usize,
    },
    /// The buffer holds only a prefix of a frame — read more bytes.
    Incomplete,
}

/// Attempts to decode the frame at the start of `buf`. Never panics on
/// arbitrary input.
///
/// # Errors
///
/// All returned [`ProtocolError`]s are frame-level: the stream can no longer
/// be trusted and the connection should be closed.
pub fn decode_frame(buf: &[u8], max_frame_len: u32) -> Result<FrameDecode<'_>, ProtocolError> {
    match frame::decode_frame(buf, FRAME_MAGIC, max_frame_len) {
        Ok(frame) => Ok(FrameDecode::Frame {
            req_id: frame.word,
            payload: frame.payload,
            consumed: frame.len,
        }),
        Err(FrameError::Incomplete) => Ok(FrameDecode::Incomplete),
        Err(FrameError::BadMagic(found)) => Err(ProtocolError::BadMagic(found)),
        Err(FrameError::Oversized(len)) => Err(ProtocolError::Oversized(len)),
        Err(FrameError::BadCrc { word }) => Err(ProtocolError::BadCrc {
            claimed_request: word,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_are_incomplete_not_errors() {
        let buf = encode_frame(42, b"some payload");
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut], DEFAULT_MAX_FRAME_LEN),
                Ok(FrameDecode::Incomplete),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_reshapes_the_frame() {
        let frame = encode_frame(3, b"payload!");
        for i in 0..frame.len() {
            for bit in 0..8u8 {
                let mut corrupt = frame.clone();
                corrupt[i] ^= 1 << bit;
                match decode_frame(&corrupt, DEFAULT_MAX_FRAME_LEN) {
                    // Magic / CRC / length violations: typed error.
                    Err(e) => assert!(e.is_frame_level(), "flip {i}.{bit}: {e:?}"),
                    // A flip that *grows* the length claim makes the frame
                    // incomplete — the stream then stalls or the CRC fails
                    // once the claimed bytes arrive; never silent success.
                    Ok(FrameDecode::Incomplete) => {
                        let claimed = u32::from_le_bytes(corrupt[4..8].try_into().unwrap());
                        assert!((4..8).contains(&i), "flip {i}.{bit} claimed {claimed}");
                        assert!(claimed as usize > frame.len() - FRAME_HEADER_LEN);
                    }
                    Ok(FrameDecode::Frame { .. }) => {
                        panic!("flip {i}.{bit} produced a valid frame")
                    }
                }
            }
        }
    }
}
