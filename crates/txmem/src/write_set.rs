//! The log-structured transactional write set.
//!
//! SwissTM-style STMs keep the write set *log-structured*: an append-only
//! array of write entries in program order, plus a small index so
//! read-after-write checks stay cheap. This module provides that structure
//! for SwissTM (TLSTM's write log is its tasks' chain entries,
//! [`crate::chain`]), replacing the former `HashMap<u64, u64>` buffers:
//!
//! * **Append-only log** — one [`WriteEntry`] per distinct written word, in
//!   first-write program order. A later write to the same word updates the
//!   entry's value in place, so commit write-back applies every word exactly
//!   once, with its final (last-write-wins) value, in a deterministic order.
//! * **Bloom summary** — a 64-bit filter over the written addresses. The
//!   dominant read path ("was this address written by me?" — almost always
//!   *no*) is answered by two bit tests on one word, with no hash-table
//!   machinery touched at all.
//! * **Adaptive index** — small write sets (the common case) are probed with
//!   a branch-friendly linear scan; past [`SMALL_SCAN_MAX`] entries an
//!   open-addressed table of entry indices takes over. The table is
//!   generation-stamped, so [`WriteSet::clear`] is O(1) and never releases
//!   memory: a recycled write set reaches a steady state where transactions
//!   allocate nothing.

use crate::addr::WordAddr;

/// Write sets at most this large answer lookups by linear scan instead of
/// consulting the open-addressed index.
pub const SMALL_SCAN_MAX: usize = 8;

/// Multiplier of the Fibonacci (multiplicative) hash used for both the bloom
/// signature and the index slot; a single `u64` multiply, far cheaper than the
/// SipHash of `std` `HashMap`.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One buffered transactional write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// The written word.
    pub addr: WordAddr,
    /// The buffered (most recent) value.
    pub value: u64,
}

/// A recyclable, log-structured write set.
///
/// See the [module docs](self) for the layout. All storage is retained across
/// [`clear`](Self::clear), so a long-lived write set stops allocating once it
/// has grown to the workload's steady-state size.
#[derive(Debug, Default)]
pub struct WriteSet {
    /// The write log, in first-write program order.
    log: Vec<WriteEntry>,
    /// Bloom summary of every written address.
    bloom: u64,
    /// Open-addressed index: each slot packs `(generation << 32) | (log index
    /// + 1)`; a slot whose generation differs from `gen` is empty. Allocated
    /// lazily the first time the log outgrows [`SMALL_SCAN_MAX`].
    slots: Box<[u64]>,
    /// Current index generation (starts at 1 so zeroed slots read as empty).
    gen: u32,
}

impl WriteSet {
    /// Creates an empty write set. No storage is allocated until writes occur.
    pub fn new() -> Self {
        WriteSet {
            log: Vec::new(),
            bloom: 0,
            slots: Box::new([]),
            gen: 1,
        }
    }

    /// Number of distinct words written.
    #[inline]
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The two-bit bloom signature of an address.
    #[inline]
    fn signature(addr: WordAddr) -> u64 {
        let h = addr.index().wrapping_mul(HASH_MULT);
        (1u64 << (h >> 58)) | (1u64 << ((h >> 52) & 63))
    }

    /// `true` if `addr` *may* have been written (bloom probe; false positives
    /// possible, false negatives not).
    #[inline]
    pub fn maybe_written(&self, addr: WordAddr) -> bool {
        let sig = Self::signature(addr);
        self.bloom & sig == sig
    }

    /// Position of `addr` in the log, if present. Assumes the bloom probe
    /// already passed (it is re-run by the public entry points).
    #[inline]
    fn position(&self, addr: WordAddr) -> Option<usize> {
        if self.log.len() <= SMALL_SCAN_MAX {
            return self.log.iter().position(|e| e.addr == addr);
        }
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut slot = (addr.index().wrapping_mul(HASH_MULT) >> 32) as usize & mask;
        loop {
            let packed = self.slots[slot];
            if (packed >> 32) as u32 != self.gen || packed as u32 == 0 {
                return None;
            }
            let idx = (packed as u32 - 1) as usize;
            if self.log[idx].addr == addr {
                return Some(idx);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The buffered value of `addr`, if this set wrote it.
    ///
    /// The bloom filter makes the dominant "not written by me" answer cost
    /// two bit tests; only bloom-positive addresses proceed to the scan/index.
    #[inline]
    pub fn lookup(&self, addr: WordAddr) -> Option<u64> {
        if !self.maybe_written(addr) {
            return None;
        }
        self.position(addr).map(|i| self.log[i].value)
    }

    /// Updates the buffered value of `addr` if it is already in the set.
    /// Returns `false` (definitely absent) otherwise.
    #[inline]
    pub fn update(&mut self, addr: WordAddr, value: u64) -> bool {
        if !self.maybe_written(addr) {
            return false;
        }
        match self.position(addr) {
            Some(i) => {
                self.log[i].value = value;
                true
            }
            None => false,
        }
    }

    /// Appends a write of a word **not yet present** in the set (the caller
    /// established absence via [`update`](Self::update) or
    /// [`lookup`](Self::lookup) returning negative).
    pub fn insert_new(&mut self, addr: WordAddr, value: u64) {
        debug_assert!(
            self.position_slow(addr).is_none(),
            "insert_new called for an address already in the write set"
        );
        self.bloom |= Self::signature(addr);
        self.log.push(WriteEntry { addr, value });
        if self.log.len() > SMALL_SCAN_MAX {
            // The first crossing of the scan threshold must (re-)index the
            // entries appended while scanning was in force — even when the
            // slot table is already large from a previous generation.
            if self.log.len() == SMALL_SCAN_MAX + 1 || self.log.len() * 2 > self.slots.len() {
                self.rebuild_index();
            } else {
                self.index_insert(self.log.len() - 1);
            }
        }
    }

    /// Exhaustive scan, used only by debug assertions.
    fn position_slow(&self, addr: WordAddr) -> Option<usize> {
        self.log.iter().position(|e| e.addr == addr)
    }

    /// (Re-)indexes every log entry, growing the slot table as needed.
    fn rebuild_index(&mut self) {
        let needed = (self.log.len() * 4).next_power_of_two().max(32);
        if self.slots.len() < needed {
            self.slots = vec![0u64; needed].into_boxed_slice();
            self.gen = 1;
        } else {
            self.bump_generation();
        }
        for i in 0..self.log.len() {
            self.index_insert(i);
        }
    }

    /// Inserts log entry `i` into the open-addressed index.
    fn index_insert(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        let addr = self.log[i].addr;
        let mut slot = (addr.index().wrapping_mul(HASH_MULT) >> 32) as usize & mask;
        loop {
            let packed = self.slots[slot];
            if (packed >> 32) as u32 != self.gen || packed as u32 == 0 {
                self.slots[slot] = (u64::from(self.gen) << 32) | (i as u64 + 1);
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Advances the index generation, wiping the slots only on the (every
    /// four billion clears) generation wrap-around.
    fn bump_generation(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.fill(0);
            self.gen = 1;
        }
    }

    /// Empties the set in O(1), retaining all storage for reuse.
    pub fn clear(&mut self) {
        self.log.clear();
        self.bloom = 0;
        if !self.slots.is_empty() {
            self.bump_generation();
        }
    }

    /// The write log in first-write program order; each written word appears
    /// exactly once, carrying its final value. Commit write-back iterates
    /// this, which makes the applied order deterministic.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &WriteEntry> {
        self.log.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> WordAddr {
        WordAddr::new(i)
    }

    #[test]
    fn lookup_update_insert_round_trip() {
        let mut ws = WriteSet::new();
        assert!(ws.is_empty());
        assert_eq!(ws.lookup(a(5)), None);
        assert!(!ws.update(a(5), 1));
        ws.insert_new(a(5), 1);
        assert_eq!(ws.lookup(a(5)), Some(1));
        assert!(ws.update(a(5), 2));
        assert_eq!(ws.lookup(a(5)), Some(2));
        assert_eq!(ws.len(), 1, "update must not append a second entry");
        assert_eq!(ws.lookup(a(6)), None);
    }

    #[test]
    fn log_preserves_first_write_order_with_final_values() {
        let mut ws = WriteSet::new();
        for (addr, v) in [(3u64, 30u64), (1, 10), (2, 20)] {
            ws.insert_new(a(addr), v);
        }
        assert!(ws.update(a(3), 33));
        assert!(ws.update(a(1), 11));
        let entries: Vec<(u64, u64)> = ws.iter().map(|e| (e.addr.index(), e.value)).collect();
        assert_eq!(entries, vec![(3, 33), (1, 11), (2, 20)]);
    }

    #[test]
    fn large_sets_promote_to_the_index_and_stay_correct() {
        let mut ws = WriteSet::new();
        let n = 1000u64;
        for i in 0..n {
            // Spread addresses to mix bloom/index slots.
            ws.insert_new(a(i * 37 + 5), i);
        }
        assert_eq!(ws.len(), n as usize);
        for i in 0..n {
            assert_eq!(ws.lookup(a(i * 37 + 5)), Some(i), "entry {i} lost");
        }
        assert_eq!(ws.lookup(a(1)), None);
        assert!(ws.update(a(5), 999));
        assert_eq!(ws.lookup(a(5)), Some(999));
    }

    #[test]
    fn clear_is_complete_and_recycles_storage() {
        let mut ws = WriteSet::new();
        for i in 0..100u64 {
            ws.insert_new(a(i), i);
        }
        let slots_before = ws.slots.len();
        let cap_before = ws.log.capacity();
        ws.clear();
        assert!(ws.is_empty());
        for i in 0..100u64 {
            assert_eq!(ws.lookup(a(i)), None, "stale entry {i} after clear");
        }
        assert_eq!(ws.slots.len(), slots_before, "index storage released");
        assert_eq!(ws.log.capacity(), cap_before, "log storage released");
        // The recycled set is fully usable.
        ws.insert_new(a(7), 70);
        assert_eq!(ws.lookup(a(7)), Some(70));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn recycled_set_indexes_pre_threshold_entries() {
        // Regression: after a clear, the slot table is already allocated, so
        // the threshold-crossing rebuild must still re-index the entries
        // appended while the set was in linear-scan mode — otherwise updates
        // miss them and writes duplicate.
        let mut ws = WriteSet::new();
        for i in 0..100u64 {
            ws.insert_new(a(i), i);
        }
        ws.clear();
        for round in 0..3 {
            for i in 0..40u64 {
                if !ws.update(a(i), i + round) {
                    ws.insert_new(a(i), i + round);
                }
            }
            assert_eq!(ws.len(), 40, "round {round} duplicated entries");
            for i in 0..40u64 {
                assert_eq!(ws.lookup(a(i)), Some(i + round));
            }
            ws.clear();
        }
    }

    #[test]
    fn generation_wrap_wipes_the_slots() {
        let mut ws = WriteSet::new();
        for i in 0..32u64 {
            ws.insert_new(a(i), i);
        }
        ws.gen = u32::MAX;
        ws.clear(); // wraps to 0 -> wiped, reset to 1
        assert_eq!(ws.gen, 1);
        assert!(ws.slots.iter().all(|&s| s == 0));
        ws.insert_new(a(3), 3);
        assert_eq!(ws.lookup(a(3)), Some(3));
    }

    #[test]
    fn bloom_never_reports_false_negatives() {
        let mut ws = WriteSet::new();
        for i in (0..500u64).step_by(7) {
            ws.insert_new(a(i), i);
            assert!(ws.maybe_written(a(i)));
        }
        for i in (0..500u64).step_by(7) {
            assert!(ws.maybe_written(a(i)));
        }
    }
}
