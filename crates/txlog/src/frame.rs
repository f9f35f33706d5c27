//! The frame format of the log and the wire:
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬─────────┬──────────────────┐
//! │ magic   │ len     │ word    │ crc32   │ payload          │
//! │ 4 bytes │ u32 LE  │ u64 LE  │ u32 LE  │ len bytes        │
//! └─────────┴─────────┴─────────┴─────────┴──────────────────┘
//! ```
//!
//! The magic names the stream: [`FRAME_MAGIC`] `"TXLG"` marks a log record,
//! whose word is its LSN; `txnet`'s `"TXNT"` marks a request or reply, whose
//! word is its request-id. The CRC covers `len | word | payload`, so a bit
//! flip anywhere in a frame fails validation, and the magic catches a
//! desynced stream — or the other stream's frame — at its first wrong byte.
//!
//! [`decode_frame`] is the one decoder. A mere prefix of a frame is
//! [`FrameError::Incomplete`] (a socket reads more bytes); anything else it
//! rejects is corruption. [`read_frames`] scans a segment with it and stops
//! at the first frame it rejects, which is the torn-tail rule: everything
//! before that frame is trusted, everything from it on is discarded.

use std::fmt;

/// Frame magic of a log record.
pub const FRAME_MAGIC: [u8; 4] = *b"TXLG";

/// Size of the fixed frame header (magic + len + word + crc).
pub const FRAME_HEADER_LEN: usize = 20;

/// Folds `bytes` into a raw (pre-inverted) CRC-32 state — the streaming
/// step, so multi-part inputs hash without being copied into one buffer.
///
/// Slicing-by-8 (Kounavis & Berry, ISCC '05): `TABLES[0]` is the bytewise
/// table of the reflected polynomial, and `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight input bytes fold in one step of
/// eight independent lookups. The bytes left over fold one at a time.
fn crc32_fold(state: u32, bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            let (done, rest) = tables.split_at_mut(k);
            for (slot, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *slot = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        tables
    });
    let [t0, t1, t2, t3, t4, t5, t6, t7] = tables;
    let byte = |word: u64, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk")) ^ u64::from(crc);
        // The upper four lookups do not depend on `crc`, so they need not
        // wait for the previous step.
        crc = (t3[byte(word, 32)] ^ t2[byte(word, 40)] ^ t1[byte(word, 48)] ^ t0[byte(word, 56)])
            ^ (t7[byte(word, 0)] ^ t6[byte(word, 8)] ^ t5[byte(word, 16)] ^ t4[byte(word, 24)]);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t0[byte(u64::from(crc ^ u32::from(b)), 0)];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_fold(!0, bytes)
}

/// The CRC a frame with this `word` and `payload` must carry. Hashed in two
/// streaming steps (stack header, payload in place) — no allocation or copy
/// on the group-commit write path.
fn frame_crc(word: u64, payload: &[u8]) -> u32 {
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&word.to_le_bytes());
    !crc32_fold(crc32_fold(!0, &header), payload)
}

/// Appends one encoded frame for `(word, payload)` under `magic` to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, magic: [u8; 4], word: u64, payload: &[u8]) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&word.to_le_bytes());
    out.extend_from_slice(&frame_crc(word, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One CRC-valid frame, its payload borrowed from the decoded buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The header word: an LSN in a log segment, a request-id on the wire.
    pub word: u64,
    /// The validated payload.
    pub payload: &'a [u8],
    /// Total frame size (header + payload): where the next frame starts.
    pub len: usize,
}

/// Why [`decode_frame`] returned no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer holds only a prefix of a frame (possibly none of it).
    Incomplete,
    /// The magic bytes present are not the expected ones (zero-padded).
    BadMagic([u8; 4]),
    /// The header claims a payload longer than the caller's limit.
    Oversized(u32),
    /// The CRC does not match the frame's contents.
    BadCrc {
        /// The header word the corrupt frame claims (untrustworthy).
        word: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Incomplete => f.write_str("incomplete frame"),
            FrameError::BadMagic(found) => write!(f, "bad frame magic {found:02X?}"),
            FrameError::Oversized(len) => write!(f, "frame payload length {len} over limit"),
            FrameError::BadCrc { word } => write!(f, "frame CRC mismatch (claimed word {word})"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Decodes the `magic` frame at the start of `buf`, rejecting a payload
/// length claim above `max_len`. Never panics on arbitrary input.
///
/// # Errors
///
/// [`FrameError::Incomplete`] for a prefix of a frame; every other variant
/// means the bytes are not a frame of this stream.
pub fn decode_frame(buf: &[u8], magic: [u8; 4], max_len: u32) -> Result<Frame<'_>, FrameError> {
    // The magic prefix present so far must match: catching a desync at the
    // first wrong byte beats waiting for a header that will never parse.
    let seen = buf.len().min(4);
    if buf[..seen] != magic[..seen] {
        let mut found = [0u8; 4];
        found[..seen].copy_from_slice(&buf[..seen]);
        return Err(FrameError::BadMagic(found));
    }
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Incomplete);
    }
    let payload_len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if payload_len > max_len {
        return Err(FrameError::Oversized(payload_len));
    }
    let word = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    let len = FRAME_HEADER_LEN + payload_len as usize;
    let payload = buf
        .get(FRAME_HEADER_LEN..len)
        .ok_or(FrameError::Incomplete)?;
    if frame_crc(word, payload) != crc {
        return Err(FrameError::BadCrc { word });
    }
    Ok(Frame { word, payload, len })
}

/// The result of scanning a byte buffer for frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// The valid `(lsn, payload)` records, in file order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// How many leading bytes of the buffer hold valid frames. Truncating
    /// the file to this length removes the torn/corrupt tail.
    pub valid_bytes: usize,
    /// Why the scan stopped early, if it did not consume the whole buffer.
    pub truncation: Option<String>,
}

/// Scans `bytes` as a sequence of log frames, stopping at the first torn or
/// corrupt frame. Never panics on arbitrary input.
pub fn read_frames(bytes: &[u8]) -> FrameScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let truncation = loop {
        if offset == bytes.len() {
            break None;
        }
        match decode_frame(&bytes[offset..], FRAME_MAGIC, u32::MAX) {
            Ok(frame) => {
                records.push((frame.word, frame.payload.to_vec()));
                offset += frame.len;
            }
            Err(error) => break Some(format!("{error} at byte {offset}")),
        }
    };
    FrameScan {
        records,
        valid_bytes: offset,
        truncation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log's magic and the wire's (`txnet::FRAME_MAGIC`).
    const MAGICS: [[u8; 4]; 2] = [FRAME_MAGIC, *b"TXNT"];

    const MAX_LEN: u32 = 1 << 20;

    fn frame(magic: [u8; 4], word: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(&mut out, magic, word, payload);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Bit-at-a-time CRC-32 straight from the polynomial: the reference
    /// the table-driven form must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "len {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn folding_a_split_input_equals_the_one_shot_crc() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 5) as u8).collect();
        let whole = crc32(&bytes);
        for split in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(split);
            assert_eq!(
                !crc32_fold(crc32_fold(!0, head), tail),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn streaming_frame_crc_equals_the_buffered_form() {
        for (word, payload) in [(0u64, &b""[..]), (7, b"x"), (u64::MAX, b"hello frame")] {
            let mut buffered = (payload.len() as u32).to_le_bytes().to_vec();
            buffered.extend_from_slice(&word.to_le_bytes());
            buffered.extend_from_slice(payload);
            assert_eq!(frame_crc(word, payload), crc32(&buffered));
        }
    }

    #[test]
    fn frames_round_trip() {
        let cases = [(0u64, &b""[..]), (7, b"x"), (u64::MAX, &[0xAB; 300])];
        let mut segment = Vec::new();
        for magic in MAGICS {
            for (word, payload) in cases {
                let buf = frame(magic, word, payload);
                let len = buf.len();
                assert_eq!(
                    decode_frame(&buf, magic, MAX_LEN),
                    Ok(Frame { word, payload, len })
                );
                if magic == FRAME_MAGIC {
                    segment.extend_from_slice(&buf);
                }
            }
        }
        let scan = read_frames(&segment);
        assert_eq!((scan.valid_bytes, scan.truncation), (segment.len(), None));
        let records: Vec<_> = cases.iter().map(|&(w, p)| (w, p.to_vec())).collect();
        assert_eq!(scan.records, records);
    }

    #[test]
    fn every_truncation_of_the_last_frame_is_detected() {
        // Every prefix of a frame is `Incomplete` to the decoder — a socket
        // reads on — and a torn tail to the segment scan.
        for magic in MAGICS {
            let good = frame(magic, 1, b"torn tail record");
            for cut in 0..good.len() {
                let got = decode_frame(&good[..cut], magic, MAX_LEN);
                assert_eq!(got, Err(FrameError::Incomplete), "cut at {cut}");
            }
        }
        let mut segment = frame(FRAME_MAGIC, 0, b"stable");
        let keep = segment.len();
        segment.extend_from_slice(&frame(FRAME_MAGIC, 1, b"torn tail record"));
        for cut in keep + 1..segment.len() {
            let scan = read_frames(&segment[..cut]);
            assert_eq!(
                (scan.records.len(), scan.valid_bytes),
                (1, keep),
                "cut at {cut}"
            );
            assert!(scan.truncation.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_flip_in_a_frame_is_detected() {
        for magic in MAGICS {
            let good = frame(magic, 1, b"payload!");
            for (i, bit) in (0..good.len()).flat_map(|i| (0..8).map(move |bit| (i, bit))) {
                let mut corrupt = good.clone();
                corrupt[i] ^= 1 << bit;
                match decode_frame(&corrupt, magic, MAX_LEN) {
                    Ok(_) => panic!("flip {i}.{bit} produced a valid frame"),
                    // Only a flip that grows the length claim leaves the
                    // frame incomplete; its CRC fails once the bytes arrive.
                    Err(FrameError::Incomplete) => assert!((4..8).contains(&i), "flip {i}.{bit}"),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn oversized_length_claims_fail_fast() {
        let mut buf = frame(*b"TXNT", 1, b"ok");
        buf[4..8].copy_from_slice(&(MAX_LEN + 1).to_le_bytes());
        let got = decode_frame(&buf, *b"TXNT", MAX_LEN);
        assert_eq!(got, Err(FrameError::Oversized(MAX_LEN + 1)));
    }

    #[test]
    fn desync_is_caught_before_a_full_header_arrives() {
        for magic in MAGICS {
            for (buf, want) in [
                (&b"JUNK"[..], FrameError::BadMagic(*b"JUNK")),
                // Even a single wrong byte is enough ...
                (b"X", FrameError::BadMagic(*b"X\0\0\0")),
                // ... while a correct partial magic is just incomplete.
                (b"TX", FrameError::Incomplete),
            ] {
                assert_eq!(decode_frame(buf, magic, MAX_LEN), Err(want), "{buf:?}");
            }
        }
    }

    #[test]
    fn log_and_wire_frames_never_pass_for_each_other() {
        let mut segment = frame(FRAME_MAGIC, 0, b"record");
        let keep = segment.len();
        // A log frame on a socket is a desync: the connection closes.
        let got = decode_frame(&segment, *b"TXNT", MAX_LEN);
        assert_eq!(got, Err(FrameError::BadMagic(FRAME_MAGIC)));
        // A wire frame inside a segment is a torn tail.
        segment.extend_from_slice(&frame(*b"TXNT", 1, b"request"));
        let scan = read_frames(&segment);
        assert_eq!((scan.records.len(), scan.valid_bytes), (1, keep));
        assert!(scan.truncation.is_some());
    }

    #[test]
    fn back_to_back_frames_decode_sequentially() {
        let mut buf = frame(*b"TXNT", 1, b"first");
        encode_frame_into(&mut buf, *b"TXNT", 2, b"second");
        let first = decode_frame(&buf, *b"TXNT", MAX_LEN).expect("first frame");
        let second = decode_frame(&buf[first.len..], *b"TXNT", MAX_LEN).expect("second frame");
        assert_eq!(
            (first.word, second.word, second.payload),
            (1, 2, &b"second"[..])
        );
        assert_eq!(first.len + second.len, buf.len());
    }

    #[test]
    fn empty_input_is_a_clean_scan() {
        let scan = read_frames(&[]);
        assert_eq!(
            (scan.records, scan.valid_bytes, scan.truncation),
            (vec![], 0, None)
        );
    }
}
