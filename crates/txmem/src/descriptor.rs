//! The contention state of one transaction, shared by both runtimes.
//!
//! A [`TxDescriptor`] carries what a contender may read or change of a
//! transaction that holds a write lock: the abort request, the finishing
//! flag and the two-phase greedy priority. It *is* a SwissTM transaction's
//! [`LockOwner`] (a single implicit task, so progress 0), published through
//! the substrate's [`OwnerRegistry`](crate::OwnerRegistry); a TLSTM
//! user-transaction embeds one and adds its task progress.
//!
//! SwissTM **allocates a descriptor once per thread and recycles it** across
//! every attempt and every transaction of that thread (SwissTM's
//! reused-descriptor design): [`TxDescriptor::reset_for_attempt`] re-arms
//! the flags instead of allocating a fresh descriptor. A contender that races
//! with the reset can at worst deliver one stale abort signal to the thread's
//! *next* attempt, which then retries — the same spurious-abort tolerance the
//! original SwissTM accepts in exchange for an allocation-free hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::clock::GreedyTicket;
use crate::cm::TIMID;
use crate::error::{Abort, AbortReason};
use crate::owner::LockOwner;

/// Abort request, finishing flag and greedy priority of one transaction.
///
/// It fills a cache line of its own: every access of every task reads the
/// abort flag, and the reference count of the `Arc` that holds a TLSTM
/// transaction, which the descriptor would otherwise share a line with,
/// changes with each chain entry the transaction's tasks add or remove
/// (sharing it cost `tx-long-tlstm` 7 % in p50 latency on a 2-vCPU Xeon).
#[derive(Debug)]
#[repr(align(64))]
pub struct TxDescriptor {
    /// Set by the contention manager when another thread decides this
    /// transaction must abort.
    abort_requested: AtomicBool,
    /// Set once the transaction has entered its commit or abort sequence; at
    /// that point contenders should simply wait for the locks to be released.
    finishing: AtomicBool,
    /// Two-phase greedy priority ([`TIMID`] until the transaction turns
    /// greedy; smaller = stronger).
    priority: AtomicU64,
}

impl Default for TxDescriptor {
    fn default() -> Self {
        Self::new(TIMID)
    }
}

impl TxDescriptor {
    /// Creates a descriptor with the given contention-manager priority.
    pub fn new(priority: u64) -> Self {
        TxDescriptor {
            abort_requested: AtomicBool::new(false),
            finishing: AtomicBool::new(false),
            priority: AtomicU64::new(priority),
        }
    }

    /// Re-arms this (recycled) descriptor for a new transaction attempt:
    /// installs the attempt's priority and clears both flags.
    #[inline]
    pub fn reset_for_attempt(&self, priority: u64) {
        self.priority.store(priority, Ordering::Relaxed);
        self.clear_flags();
    }

    /// Clears the finishing and abort-request flags, keeping the priority
    /// (a TLSTM transaction keeps its ticket across rollbacks).
    #[inline]
    pub fn clear_flags(&self) {
        self.finishing.store(false, Ordering::Release);
        self.abort_requested.store(false, Ordering::Release);
    }

    /// `true` if another thread asked this transaction to abort.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.abort_requested.load(Ordering::Acquire)
    }

    /// [`AbortReason::TransactionAbortSignal`] if another thread asked this
    /// transaction to abort.
    #[inline]
    pub fn check_abort(&self) -> Result<(), Abort> {
        if self.abort_requested() {
            Err(Abort::new(AbortReason::TransactionAbortSignal))
        } else {
            Ok(())
        }
    }

    /// Marks the transaction as entering commit/abort; contenders will wait
    /// instead of repeatedly signalling it.
    #[inline]
    pub fn set_finishing(&self) {
        self.finishing.store(true, Ordering::Release);
    }

    /// Current contention-manager priority.
    #[inline]
    pub fn priority(&self) -> u64 {
        self.priority.load(Ordering::Relaxed)
    }

    /// Draws a greedy ticket from `tickets` unless the transaction already
    /// holds one (a concurrent draw keeps the stronger ticket).
    pub fn turn_greedy(&self, tickets: &GreedyTicket) {
        if self.priority() == TIMID {
            self.priority.fetch_min(tickets.draw(), Ordering::Relaxed);
        }
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
        // completed sub-tasks, which makes it the most speculative party
        // under the task-aware rule.
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
    fn descriptor_fills_one_cache_line() {
        assert_eq!(std::mem::align_of::<TxDescriptor>(), 64);
        assert_eq!(std::mem::size_of::<TxDescriptor>(), 64);
    }

    #[test]
    fn abort_signal_round_trip() {
        let d = TxDescriptor::default();
        assert!(!d.abort_requested());
        assert!(!d.is_finishing());
        assert!(d.check_abort().is_ok());
        d.signal_abort();
        assert!(d.abort_requested());
        assert!(d.is_finishing());
        assert_eq!(
            d.check_abort().unwrap_err().reason,
            AbortReason::TransactionAbortSignal
        );
    }

    #[test]
    fn finishing_flag_independent_of_abort() {
        let d = TxDescriptor::default();
        d.set_finishing();
        assert!(d.is_finishing());
        assert!(!d.abort_requested());
    }

    #[test]
    fn reset_rearms_a_recycled_descriptor() {
        let d = TxDescriptor::default();
        d.signal_abort();
        d.set_finishing();
        d.reset_for_attempt(17);
        assert!(!d.abort_requested());
        assert!(!d.is_finishing());
        assert_eq!(d.priority(), 17);
        // Clearing the flags alone keeps the ticket.
        d.signal_abort();
        d.clear_flags();
        assert!(!d.is_finishing());
        assert_eq!(d.priority(), 17);
    }

    #[test]
    fn priority_reported_to_cm() {
        let d = TxDescriptor::new(42);
        assert_eq!(d.cm_priority(), 42);
        assert_eq!(TxDescriptor::default().cm_priority(), TIMID);
        assert_eq!(d.completed_progress(), 0);
        // A held ticket is kept; a timid descriptor draws one.
        let tickets = GreedyTicket::new();
        tickets.draw();
        d.turn_greedy(&tickets);
        assert_eq!(d.priority(), 42);
        let timid = TxDescriptor::default();
        timid.turn_greedy(&tickets);
        assert_eq!(timid.priority(), 1);
    }
}
