//! The locks under which a task holds speculative chain entries.
//!
//! Every speculative write asks "do I already have a chain entry under this
//! lock?", so the answer must cost a constant however many locks the task
//! holds: a long traversal acquires well over a thousand. [`AcquiredLocks`]
//! keeps the locks twice — as the ordered list commit and rollback iterate,
//! and in a generation-stamped open-addressed index over that list (the same
//! scheme as [`txmem::WriteSet`]'s index): `clear` is O(1), storage grows by
//! use and is retained, so a recycled set allocates nothing in steady state.

use txmem::LockIndex;

/// Multiplier of the Fibonacci hash that picks a lock's home slot.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots of the first index table; the table doubles whenever it would
/// become more than half full.
const FIRST_TABLE_SLOTS: usize = 32;

/// An insertion-ordered set of lock indices with O(1) membership.
#[derive(Debug)]
pub(crate) struct AcquiredLocks {
    /// The locks in acquisition order.
    list: Vec<LockIndex>,
    /// Each slot packs `(generation << 32) | lock index`; a slot whose
    /// generation differs from `gen` is empty.
    slots: Box<[u64]>,
    /// Current generation (never 0, so zeroed slots read as empty).
    gen: u32,
}

impl Default for AcquiredLocks {
    fn default() -> Self {
        AcquiredLocks {
            list: Vec::new(),
            slots: Box::new([]),
            gen: 1,
        }
    }
}

impl AcquiredLocks {
    /// `true` if no lock is held.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The held locks in acquisition order.
    pub fn as_slice(&self) -> &[LockIndex] {
        &self.list
    }

    /// A live slot's contents for `idx`.
    fn pack(&self, idx: LockIndex) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(idx.0)
    }

    /// The slot holding `idx`, or the empty slot where it would be inserted.
    /// The table must be non-empty; it is never full (load stays below ½).
    fn probe(&self, idx: LockIndex) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut slot = (u64::from(idx.0).wrapping_mul(HASH_MULT) >> 32) as usize & mask;
        loop {
            let packed = self.slots[slot];
            if (packed >> 32) as u32 != self.gen {
                return (slot, false);
            }
            if packed as u32 == idx.0 {
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// `true` if `idx` is in the set.
    #[inline]
    pub fn holds(&self, idx: LockIndex) -> bool {
        !self.slots.is_empty() && self.probe(idx).1
    }

    /// Adds `idx`; returns `false` if it was already present.
    pub fn insert(&mut self, idx: LockIndex) -> bool {
        if (self.list.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (slot, present) = self.probe(idx);
        if !present {
            self.slots[slot] = self.pack(idx);
            self.list.push(idx);
        }
        !present
    }

    /// Doubles the index table and re-indexes the list into it.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(FIRST_TABLE_SLOTS);
        self.slots = vec![0u64; slots].into_boxed_slice();
        self.gen = 1;
        for i in 0..self.list.len() {
            let idx = self.list[i];
            let (slot, _) = self.probe(idx);
            self.slots[slot] = self.pack(idx);
        }
    }

    /// Empties the set in O(1), retaining all storage. The slots are wiped
    /// only when the generation wraps (every four billion clears).
    pub fn clear(&mut self) {
        self.list.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.fill(0);
            self.gen = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lock indices spread like a traversal's: runs of neighbours plus far
    /// jumps, so both clustered and scattered home slots are exercised.
    fn lock(i: u32) -> LockIndex {
        LockIndex(i.wrapping_mul(2_654_435_761) % (1 << 20) + (i & 3))
    }

    #[test]
    fn insert_reports_novelty_and_keeps_acquisition_order() {
        let mut set = AcquiredLocks::default();
        assert!(set.is_empty());
        assert!(!set.holds(LockIndex(7)), "empty table must not probe");
        assert!(set.insert(LockIndex(7)));
        assert!(set.insert(LockIndex(3)));
        assert!(!set.insert(LockIndex(7)));
        assert!(set.holds(LockIndex(3)) && set.holds(LockIndex(7)));
        assert!(!set.holds(LockIndex(4)));
        assert_eq!(set.as_slice(), &[LockIndex(7), LockIndex(3)]);
    }

    #[test]
    fn growth_past_the_first_table_loses_no_member() {
        let mut set = AcquiredLocks::default();
        let n = 5_000u32;
        let mut distinct = Vec::new();
        for i in 0..n {
            if set.insert(lock(i)) {
                distinct.push(lock(i));
            }
            // Every member so far stays visible across each growth step.
            if i % 97 == 0 {
                assert!(distinct.iter().all(|&l| set.holds(l)), "after {i}");
            }
        }
        assert!(set.slots.len() > FIRST_TABLE_SLOTS);
        assert!(set.slots.len() >= 2 * distinct.len(), "load above one half");
        assert_eq!(set.as_slice(), distinct.as_slice());
        assert!(distinct.iter().all(|&l| set.holds(l)));
        assert!(distinct.iter().all(|&l| !set.insert(l)));
    }

    #[test]
    fn clear_forgets_everything_and_keeps_the_storage() {
        let mut set = AcquiredLocks::default();
        for round in 0..50u32 {
            // Overlapping membership between rounds: a stale slot of the
            // previous generation must read as empty, a live one as present.
            for i in round * 10..round * 10 + 300 {
                set.insert(lock(i));
            }
            for i in round * 10..round * 10 + 300 {
                assert!(set.holds(lock(i)), "round {round}: lost {i}");
            }
            let slots = set.slots.len();
            let capacity = set.list.capacity();
            set.clear();
            assert!(set.is_empty());
            for i in round * 10..round * 10 + 300 {
                assert!(!set.holds(lock(i)), "round {round}: stale {i}");
            }
            assert_eq!(set.slots.len(), slots, "index storage released");
            assert_eq!(set.list.capacity(), capacity, "list storage released");
        }
    }

    #[test]
    fn generation_wrap_wipes_the_slots() {
        let mut set = AcquiredLocks::default();
        for i in 0..100 {
            set.insert(lock(i));
        }
        // The slots above carry generation 1. Wrapping back to generation 1
        // without wiping them would resurrect every one of them.
        set.gen = u32::MAX;
        set.clear();
        assert_eq!(set.gen, 1);
        assert!(set.slots.iter().all(|&s| s == 0));
        for i in 0..100 {
            assert!(!set.holds(lock(i)));
        }
        assert!(set.insert(lock(3)));
        assert!(set.holds(lock(3)));
        assert!(!set.holds(lock(4)));
        assert_eq!(set.as_slice(), &[lock(3)]);
    }
}
