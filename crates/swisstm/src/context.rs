//! The reusable per-thread transaction context.
//!
//! A [`TxContext`] owns every piece of speculative state a SwissTM
//! transaction needs — the [`Snapshot`] (`valid-ts` and read log), the
//! log-structured write set, the acquired-locks log and the shared
//! [`TxDescriptor`] — and is **recycled across attempts and transactions**
//! of its thread. [`SwisstmThread`] (see [`crate::runtime`]) creates one
//! context at registration time and threads a `&mut` borrow of it through
//! every [`Transaction`] it runs, so steady-state transactions build their
//! state entirely inside retained capacity and perform **zero heap
//! allocations** on the read, write, commit and rollback paths.
//!
//! [`SwisstmThread`]: crate::runtime::SwisstmThread
//! [`Transaction`]: crate::transaction::Transaction
//! [`TxDescriptor`]: txmem::TxDescriptor
//! [`Snapshot`]: txmem::Snapshot

use std::sync::Arc;

use txmem::{LockIndex, Snapshot, TxDescriptor, WriteSet};

/// Recyclable speculative state of one thread's transactions.
///
/// All vectors and the write set retain their capacity across
/// `reset_for_attempt`; the descriptor is a single long-lived allocation
/// shared with contending threads through the substrate's owner registry.
#[derive(Debug)]
pub struct TxContext {
    /// The thread's long-lived descriptor (re-armed per attempt, never
    /// reallocated), also published in the substrate's owner registry.
    pub(crate) descriptor: Arc<TxDescriptor>,
    /// `valid-ts` and the read log.
    pub(crate) snapshot: Snapshot,
    /// Log-structured buffered writes.
    pub(crate) write_set: WriteSet,
    /// Write locks acquired by the current transaction, paired with the
    /// r-lock version observed when commit locked them (filled at commit
    /// time; replaces the former `old_versions` hash map).
    pub(crate) acquired: Vec<(LockIndex, u64)>,
}

impl TxContext {
    /// Creates the context for a newly registered thread.
    pub(crate) fn new() -> Self {
        TxContext {
            descriptor: Arc::default(),
            snapshot: Snapshot::default(),
            write_set: WriteSet::new(),
            acquired: Vec::new(),
        }
    }

    /// Empties all speculative state (keeping capacity) and re-arms the
    /// descriptor for an attempt running at `priority`.
    pub(crate) fn reset_for_attempt(&mut self, priority: u64) {
        self.snapshot.clear();
        self.write_set.clear();
        self.acquired.clear();
        self.descriptor.reset_for_attempt(priority);
    }

    /// `true` if the context carries no speculative state — what a freshly
    /// created context looks like, and what a recycled context must look like
    /// after a commit plus reset or a rollback plus reset (used by the
    /// context-reuse tests).
    pub fn is_clean(&self) -> bool {
        self.snapshot.reads().is_empty()
            && self.write_set.is_empty()
            && self.acquired.is_empty()
            && !self.descriptor.abort_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::{LockOwner, TxConfig, TxSubstrate, WordAddr};

    /// Logs a committed read of each of the words `1..=n` through the
    /// snapshot's read rule.
    fn read_words(ctx: &mut TxContext, n: u64) {
        let sub = TxSubstrate::new(TxConfig::small());
        sub.heap.alloc(n).unwrap();
        for i in 1..=n {
            let addr = WordAddr::new(i);
            let (idx, entry) = sub.locks.lookup(addr);
            let stats = sub.stats.shard(0);
            ctx.snapshot
                .read_committed(&sub, stats, idx, entry, addr, || Ok(()))
                .unwrap();
        }
    }

    #[test]
    fn reset_scrubs_all_speculative_state() {
        let mut ctx = TxContext::new();
        assert!(ctx.is_clean());
        read_words(&mut ctx, 1);
        ctx.write_set.insert_new(WordAddr::new(9), 1);
        ctx.acquired.push((LockIndex(1), 0));
        ctx.descriptor.signal_abort();
        assert!(!ctx.is_clean());
        ctx.reset_for_attempt(42);
        assert!(ctx.is_clean());
        assert_eq!(ctx.descriptor.priority(), 42);
    }

    #[test]
    fn reset_retains_capacity() {
        let mut ctx = TxContext::new();
        read_words(&mut ctx, 64);
        for i in 0..64 {
            ctx.acquired.push((LockIndex(i), 0));
        }
        let read_cap = ctx.snapshot.capacity();
        let acq_cap = ctx.acquired.capacity();
        ctx.reset_for_attempt(0);
        assert_eq!(ctx.snapshot.capacity(), read_cap);
        assert_eq!(ctx.acquired.capacity(), acq_cap);
    }
}
