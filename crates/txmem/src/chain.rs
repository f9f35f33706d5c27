//! Speculative write chains (the per-location "redo-log" of TLSTM).
//!
//! In TLSTM a location's write lock, when held, points to the location's
//! redo-log: a chain of write-log entries belonging to tasks of the owning
//! user-thread, linked from the most speculative entry back to the oldest
//! (`previous-entry` in Algorithm 1/2). A task reading a location locked by
//! its own user-thread walks this chain to find the most recent value written
//! by itself or by a task from its past.
//!
//! This module models the chain as a [`WriteChain`]: a small vector of
//! [`SpecEntry`] values kept sorted by task serial number. The chain is only
//! touched by writers and by same-user-thread speculative readers, which is
//! exactly the set of accesses that dereference `w-lock` in the paper, so
//! guarding it with the lock entry's mutex preserves the algorithm's
//! contention behaviour.
//! The entries are a TLSTM task's only copy of its writes.
//!
//! An entry names its task's serial but not its user-thread: the w-lock
//! does. A task adds an entry only while its user-thread holds the w-lock,
//! which is released only once the chain is empty, under the chain's mutex
//! (SwissTM adds none). So, under the mutex, a non-empty chain belongs to the
//! w-lock's holder, whose token is unique per lock table.

use crate::addr::WordAddr;
use crate::owner::OwnerHandle;

/// One TLSTM task's speculative write entry for a given lock.
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// Serial number of the writer task within its user-thread.
    pub serial: u64,
    /// Contention-manager handle of the writer's user-transaction.
    pub owner: OwnerHandle,
    /// Speculative values written under this lock, as `(address, value)`
    /// pairs in insertion order. Later writes to the same address overwrite
    /// the earlier pair.
    pub writes: Vec<(WordAddr, u64)>,
}

impl SpecEntry {
    /// Returns the speculative value this entry holds for `addr`, if any.
    pub fn value_of(&self, addr: WordAddr) -> Option<u64> {
        self.writes
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|(_, v)| *v)
    }

    /// Records a write of `value` to `addr`, overwriting any previous write of
    /// the same address by this entry.
    pub fn record_write(&mut self, addr: WordAddr, value: u64) {
        if let Some(slot) = self.writes.iter_mut().find(|(a, _)| *a == addr) {
            slot.1 = value;
        } else {
            self.writes.push((addr, value));
        }
    }
}

/// Result of probing a chain for the value visible to a reader task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRead {
    /// The reader's own entry holds the value (reads-from-own-writes).
    Own(u64),
    /// A past task's entry holds the value; carries the writer's serial so the
    /// reader can record it in its task-read-log and validate against it.
    Past {
        /// Serial of the past writer task.
        writer_serial: u64,
        /// The speculative value.
        value: u64,
    },
    /// No entry at or before the reader's serial wrote this address; the
    /// reader must fall back to the committed value in memory.
    Committed,
}

/// Maximum number of recycled per-entry write buffers a chain retains.
/// Bounded so an idle chain pins at most a few small vectors.
const MAX_SPARE_BUFFERS: usize = 8;

/// The speculative write chain attached to one lock-table entry.
///
/// Entries are kept sorted by ascending task serial. There is at most one
/// entry per active task of the owning user-thread (so at most `SPECDEPTH`).
///
/// Chains live as long as the lock table, so they recycle the write buffers
/// of removed entries (`spare`): in steady state, installing a new entry pops
/// a previously used buffer instead of allocating. Only the buffer storage is
/// retained — the removed entry's owner handle is dropped immediately, so a
/// pooled chain never pins a finished transaction's state.
#[derive(Debug, Default)]
pub struct WriteChain {
    entries: Vec<SpecEntry>,
    spare: Vec<Vec<(WordAddr, u64)>>,
}

impl WriteChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        WriteChain {
            entries: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Retains a removed entry's write buffer for reuse (bounded).
    fn recycle(&mut self, mut writes: Vec<(WordAddr, u64)>) {
        if self.spare.len() < MAX_SPARE_BUFFERS && writes.capacity() > 0 {
            writes.clear();
            self.spare.push(writes);
        }
    }

    /// `true` if the chain holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries in the chain.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The most speculative (highest-serial) entry, if any. This is what the
    /// raw `w-lock` pointer refers to in the paper.
    pub fn newest(&self) -> Option<&SpecEntry> {
        self.entries.last()
    }

    /// The highest serial present in the chain, if any.
    pub fn newest_serial(&self) -> Option<u64> {
        self.entries.last().map(|e| e.serial)
    }

    /// The entry belonging to exactly `serial`, if present.
    pub fn entry_for_serial(&self, serial: u64) -> Option<&SpecEntry> {
        self.entries.iter().find(|e| e.serial == serial)
    }

    /// Iterates over all entries in ascending serial order.
    pub fn iter(&self) -> impl Iterator<Item = &SpecEntry> {
        self.entries.iter()
    }

    /// Resolves the value of `addr` visible to a reader task with serial
    /// `reader_serial`, following the paper's read rule: walk from the most
    /// speculative entry towards the past, skip entries from the reader's
    /// future, and take the first entry (own or past) that actually wrote this
    /// address.
    pub fn read_visible(&self, addr: WordAddr, reader_serial: u64) -> ChainRead {
        for entry in self.entries.iter().rev() {
            if entry.serial > reader_serial {
                continue;
            }
            if let Some(value) = entry.value_of(addr) {
                if entry.serial == reader_serial {
                    return ChainRead::Own(value);
                }
                return ChainRead::Past {
                    writer_serial: entry.serial,
                    value,
                };
            }
        }
        ChainRead::Committed
    }

    /// Records a speculative write by task `serial` of the w-lock's holder,
    /// creating its entry if necessary. Returns `true` if a new entry was
    /// created.
    pub fn record_write(
        &mut self,
        serial: u64,
        owner: &OwnerHandle,
        addr: WordAddr,
        value: u64,
    ) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.serial == serial) {
            entry.record_write(addr, value);
            return false;
        }
        let mut writes = self.spare.pop().unwrap_or_default();
        writes.push((addr, value));
        let entry = SpecEntry {
            serial,
            owner: OwnerHandle::clone(owner),
            writes,
        };
        let pos = self
            .entries
            .iter()
            .position(|e| e.serial > serial)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
        true
    }

    /// Removes the entry belonging to task `serial` (single-task rollback).
    /// Returns `true` if an entry was removed.
    pub fn remove_serial(&mut self, serial: u64) -> bool {
        match self.entries.iter().position(|e| e.serial == serial) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                self.recycle(entry.writes);
                true
            }
            None => false,
        }
    }

    /// Removes every entry whose serial falls in `[start_serial, commit_serial]`
    /// (user-transaction rollback or commit write-back). Returns the number of
    /// entries removed.
    pub fn remove_transaction(&mut self, start_serial: u64, commit_serial: u64) -> usize {
        let before = self.entries.len();
        let mut i = 0;
        while i < self.entries.len() {
            let serial = self.entries[i].serial;
            if serial >= start_serial && serial <= commit_serial {
                let entry = self.entries.remove(i);
                self.recycle(entry.writes);
            } else {
                i += 1;
            }
        }
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::LockOwner;
    use std::sync::Arc;

    #[derive(Debug)]
    struct DummyOwner;
    impl LockOwner for DummyOwner {
        fn signal_abort(&self) {}
        fn is_finishing(&self) -> bool {
            false
        }
        fn completed_progress(&self) -> u64 {
            0
        }
        fn cm_priority(&self) -> u64 {
            u64::MAX
        }
    }

    fn owner() -> OwnerHandle {
        Arc::new(DummyOwner)
    }

    fn addr(i: u64) -> WordAddr {
        WordAddr::new(i)
    }

    #[test]
    fn record_and_read_own_write() {
        let mut chain = WriteChain::new();
        let o = owner();
        assert!(chain.record_write(5, &o, addr(1), 42));
        assert_eq!(chain.read_visible(addr(1), 5), ChainRead::Own(42));
        // overwrite
        assert!(!chain.record_write(5, &o, addr(1), 43));
        assert_eq!(chain.read_visible(addr(1), 5), ChainRead::Own(43));
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn future_entries_are_invisible_to_past_readers() {
        let mut chain = WriteChain::new();
        let o = owner();
        chain.record_write(7, &o, addr(1), 70);
        assert_eq!(chain.read_visible(addr(1), 5), ChainRead::Committed);
        assert_eq!(
            chain.read_visible(addr(1), 9),
            ChainRead::Past {
                writer_serial: 7,
                value: 70
            }
        );
    }

    #[test]
    fn reader_sees_most_recent_past_writer() {
        let mut chain = WriteChain::new();
        let o = owner();
        chain.record_write(2, &o, addr(1), 20);
        chain.record_write(4, &o, addr(1), 40);
        chain.record_write(6, &o, addr(1), 60);
        assert_eq!(
            chain.read_visible(addr(1), 5),
            ChainRead::Past {
                writer_serial: 4,
                value: 40
            }
        );
        assert_eq!(
            chain.read_visible(addr(1), 7),
            ChainRead::Past {
                writer_serial: 6,
                value: 60
            }
        );
    }

    #[test]
    fn chain_falls_back_to_committed_for_unwritten_addresses() {
        let mut chain = WriteChain::new();
        let o = owner();
        chain.record_write(2, &o, addr(1), 20);
        assert_eq!(chain.read_visible(addr(9), 5), ChainRead::Committed);
    }

    #[test]
    fn entries_stay_sorted_regardless_of_insertion_order() {
        let mut chain = WriteChain::new();
        let o = owner();
        chain.record_write(6, &o, addr(1), 60);
        chain.record_write(2, &o, addr(1), 20);
        chain.record_write(4, &o, addr(1), 40);
        let serials: Vec<u64> = chain.iter().map(|e| e.serial).collect();
        assert_eq!(serials, vec![2, 4, 6]);
        assert_eq!(chain.newest_serial(), Some(6));
        assert_eq!(
            chain.entry_for_serial(4).unwrap().value_of(addr(1)),
            Some(40)
        );
    }

    #[test]
    fn remove_serial_and_transaction() {
        let mut chain = WriteChain::new();
        let o = owner();
        for s in [2, 3, 4, 7] {
            chain.record_write(s, &o, addr(s), s * 10);
        }
        assert!(chain.remove_serial(3));
        assert!(!chain.remove_serial(3));
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.remove_transaction(2, 4), 2);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.newest_serial(), Some(7));
        assert!(chain.remove_serial(7));
        assert!(chain.is_empty());
    }

    #[test]
    fn removed_entries_recycle_their_write_buffers() {
        let mut chain = WriteChain::new();
        let o = owner();
        // Grow an entry's write buffer, remove it, and re-install: the new
        // entry must reuse the retained buffer capacity.
        for i in 0..16 {
            chain.record_write(1, &o, addr(i), i);
        }
        assert!(chain.remove_serial(1));
        assert_eq!(chain.spare.len(), 1);
        let spare_cap = chain.spare[0].capacity();
        assert!(spare_cap >= 16);
        assert!(chain.record_write(2, &o, addr(0), 1));
        assert!(
            chain.spare.is_empty(),
            "new entry must pop the spare buffer"
        );
        assert_eq!(chain.newest().unwrap().writes.capacity(), spare_cap);
        // Recycling never changes observable behaviour.
        assert_eq!(chain.read_visible(addr(0), 2), ChainRead::Own(1));
        assert!(chain.remove_serial(2));
        assert!(chain.is_empty());
        assert_eq!(chain.spare.len(), 1);
    }
}
