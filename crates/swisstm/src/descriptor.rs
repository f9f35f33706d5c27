//! Per-transaction descriptors.
//!
//! A [`TxDescriptor`] is the shared handle other threads see when they hit one
//! of this transaction's write locks. It carries the abort-request flag and
//! the contention-manager priority. Contenders reach it (type-erased as a
//! [`txmem::LockOwner`]) through the substrate's owner registry, keyed by the
//! thread id encoded in the write lock's owner token.
//!
//! Descriptors are **allocated once per thread and recycled** across every
//! attempt and every transaction of that thread (SwissTM's reused-descriptor
//! design): [`TxDescriptor::reset_for_attempt`] re-arms the flags instead of
//! allocating a fresh descriptor. A contender that races with the reset can at
//! worst deliver one stale abort signal to the thread's *next* attempt, which
//! then retries — the same spurious-abort tolerance the original SwissTM
//! accepts in exchange for an allocation-free hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use txmem::{Abort, AbortReason, LockOwner};

use crate::cm::TIMID;

/// Shared state of one running SwissTM transaction.
#[derive(Debug)]
pub struct TxDescriptor {
    /// Identifier of the thread running the transaction.
    thread_id: u32,
    /// Set by the contention manager when another thread decides this
    /// transaction must abort.
    abort_requested: AtomicBool,
    /// Two-phase greedy priority ([`TIMID`] until the transaction turns
    /// greedy; smaller = stronger).
    priority: AtomicU64,
    /// Set once the transaction has entered its commit or abort sequence; at
    /// that point contenders should simply wait for the locks to be released.
    finishing: AtomicBool,
}

impl TxDescriptor {
    /// Creates a descriptor for a transaction run by `thread_id` with the
    /// given contention-manager priority.
    pub fn new(thread_id: u32, priority: u64) -> Self {
        TxDescriptor {
            thread_id,
            abort_requested: AtomicBool::new(false),
            priority: AtomicU64::new(priority),
            finishing: AtomicBool::new(false),
        }
    }

    /// Creates a descriptor still in the timid phase.
    pub fn timid(thread_id: u32) -> Self {
        Self::new(thread_id, TIMID)
    }

    /// Re-arms this (recycled) descriptor for a new transaction attempt:
    /// clears the abort-request and finishing flags and installs the
    /// attempt's contention-manager priority.
    pub fn reset_for_attempt(&self, priority: u64) {
        self.priority.store(priority, Ordering::Relaxed);
        self.finishing.store(false, Ordering::Release);
        self.abort_requested.store(false, Ordering::Release);
    }

    /// `true` if another thread asked this transaction to abort.
    pub fn abort_requested(&self) -> bool {
        self.abort_requested.load(Ordering::Acquire)
    }

    /// [`AbortReason::TransactionAbortSignal`] if another thread asked this
    /// transaction to abort.
    pub(crate) fn check_abort(&self) -> Result<(), Abort> {
        if self.abort_requested() {
            Err(Abort::new(AbortReason::TransactionAbortSignal))
        } else {
            Ok(())
        }
    }

    /// Marks the transaction as entering commit/abort; contenders will wait
    /// instead of repeatedly signalling it.
    pub fn set_finishing(&self) {
        self.finishing.store(true, Ordering::Release);
    }

    /// Current contention-manager priority.
    pub fn priority(&self) -> u64 {
        self.priority.load(Ordering::Relaxed)
    }

    /// Thread that runs this transaction.
    pub fn thread_id(&self) -> u32 {
        self.thread_id
    }
}

impl LockOwner for TxDescriptor {
    fn signal_abort(&self) {
        self.abort_requested.store(true, Ordering::Release);
    }

    fn is_finishing(&self) -> bool {
        self.finishing.load(Ordering::Acquire) || self.abort_requested()
    }

    fn completed_progress(&self) -> u64 {
        // A SwissTM transaction is a single implicit task; it never has
        // completed sub-tasks. This makes plain transactions the "most
        // speculative" party under TLSTM's task-aware rule.
        0
    }

    fn cm_priority(&self) -> u64 {
        self.priority()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_signal_round_trip() {
        let d = TxDescriptor::timid(3);
        assert!(!d.abort_requested());
        assert!(!d.is_finishing());
        d.signal_abort();
        assert!(d.abort_requested());
        assert!(d.is_finishing());
    }

    #[test]
    fn finishing_flag_independent_of_abort() {
        let d = TxDescriptor::timid(0);
        d.set_finishing();
        assert!(d.is_finishing());
        assert!(!d.abort_requested());
    }

    #[test]
    fn reset_rearms_a_recycled_descriptor() {
        let d = TxDescriptor::timid(5);
        d.signal_abort();
        d.set_finishing();
        d.reset_for_attempt(17);
        assert!(!d.abort_requested());
        assert!(!d.is_finishing());
        assert_eq!(d.priority(), 17);
        assert_eq!(d.thread_id(), 5, "identity survives the reset");
    }

    #[test]
    fn priority_reported_to_cm() {
        let d = TxDescriptor::new(1, 42);
        assert_eq!(d.cm_priority(), 42);
        assert_eq!(TxDescriptor::timid(1).cm_priority(), TIMID);
        assert_eq!(d.completed_progress(), 0);
    }
}
