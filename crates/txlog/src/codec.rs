//! Defensive little-endian decoding shared by everything that parses
//! recovered or received bytes (the snapshot reader here, the `KvOp` codec
//! of `txkv::ops`, the record/snapshot payloads of `txkv::durable` and the
//! wire payloads of `txnet::proto`), plus [`put_words`], the writing twin of
//! [`Cursor::words`].
//!
//! Recovery code must never panic on arbitrary disk content, so every read
//! is bounds-checked and returns `None` past the end — one audited cursor
//! instead of hand-rolled slice indexing at each call site.

/// Appends `words` as a `u32`-length-prefixed list of little-endian `u64`s,
/// the layout [`Cursor::words`] reads back.
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// A bounds-checked little-endian reading cursor over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Takes the next `n` raw bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Next `u32`-length-prefixed list of little-endian `u64` words. The
    /// claimed length is validated against the remaining bytes *before* any
    /// allocation, so a corrupt prefix cannot trigger a huge reserve.
    pub fn words(&mut self) -> Option<Vec<u64>> {
        let len = self.u32()? as usize;
        if len > self.remaining() / 8 {
            return None;
        }
        (0..len).map(|_| self.u64()).collect()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// `true` once every byte has been consumed (decoders should require
    /// this — trailing garbage means a framing bug or corruption).
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_and_bounds_checks() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xABCD_u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        put_words(&mut bytes, &[1, 2]);
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u8(), Some(7));
        assert_eq!(cur.u32(), Some(0xABCD));
        assert_eq!(cur.u64(), Some(u64::MAX));
        assert_eq!(cur.words(), Some(vec![1, 2]));
        assert!(cur.done());
        assert_eq!(cur.u8(), None, "reads past the end fail");
        // Truncation at every offset never panics.
        for cut in 0..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            let _ = cur.u8();
            let _ = cur.u32();
            let _ = cur.u64();
            let _ = cur.words();
        }
    }

    #[test]
    fn corrupt_word_count_is_rejected_before_allocating() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(Cursor::new(&bytes).words(), None);
    }
}
