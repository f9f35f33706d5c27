//! The global counters of a substrate: the commit clock (`commit-ts`), owner
//! ids and greedy contention-manager tickets.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The global commit counter (`commit-ts` in SwissTM / TLSTM).
///
/// Every non-read-only user-transaction increments the clock at commit time;
/// the value after the increment is the commit timestamp written into the
/// r-locks of the committed locations.
#[derive(Debug, Default)]
pub struct GlobalClock {
    commit_ts: AtomicU64,
}

impl GlobalClock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        GlobalClock {
            commit_ts: AtomicU64::new(0),
        }
    }

    /// Current value of `commit-ts`.
    #[inline]
    pub fn now(&self) -> u64 {
        self.commit_ts.load(Ordering::Acquire)
    }

    /// Atomically increments `commit-ts` and returns the *new* value
    /// (the `increment&get` of Algorithm 3).
    ///
    /// Only [`commit_locked`](crate::commit_locked) ticks, after locking its
    /// r-locks: the commit's validation skip relies on it.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.commit_ts.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// Allocates small dense identifiers for user-threads / transactions.
///
/// One allocator per lock table ([`crate::TxSubstrate::ids`]), so the owner
/// tokens the table stores are unique across runtime handles.
#[derive(Debug, Default)]
pub struct ThreadIdAllocator {
    next: AtomicU32,
}

impl ThreadIdAllocator {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        ThreadIdAllocator {
            next: AtomicU32::new(0),
        }
    }

    /// Returns a fresh identifier, unique for the lifetime of the allocator.
    pub fn allocate(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of identifiers handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

/// Source of two-phase greedy contention-manager tickets, one per lock table
/// ([`crate::TxSubstrate::tickets`]).
#[derive(Debug, Default)]
pub struct GreedyTicket {
    next: AtomicU64,
}

impl GreedyTicket {
    /// Creates a ticket source.
    pub fn new() -> Self {
        GreedyTicket {
            next: AtomicU64::new(0),
        }
    }

    /// Draws the next ticket (smaller = older = stronger).
    pub fn draw(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tick_is_monotonic_and_returns_new_value() {
        let clock = GlobalClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.tick(), 1);
        assert_eq!(clock.tick(), 2);
        assert_eq!(clock.now(), 2);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let clock = Arc::new(GlobalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| clock.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
        assert_eq!(clock.now(), 4000);
    }

    #[test]
    fn thread_ids_are_dense_and_unique() {
        let alloc = ThreadIdAllocator::new();
        let ids: Vec<u32> = (0..10).map(|_| alloc.allocate()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(alloc.allocated(), 10);
    }

    #[test]
    fn tickets_are_unique_and_increasing() {
        let t = GreedyTicket::new();
        let a = t.draw();
        let b = t.draw();
        assert!(b > a);
    }
}
