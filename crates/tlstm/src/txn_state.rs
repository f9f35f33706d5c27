//! Shared per-user-transaction state.
//!
//! Every task of a user-transaction shares one [`TxnShared`]. It plays two
//! roles:
//!
//! 1. it is the **contention-manager handle** other user-threads reach through
//!    the lock table (the `w-lock.owner` of the paper) — hence the
//!    [`txmem::LockOwner`] implementation: a [`TxDescriptor`], as a SwissTM
//!    transaction has, plus the transaction's task progress;
//! 2. it carries the **abort-transaction flag** of the "all tasks of the
//!    transaction restart together" protocol of §3.2, which the commit-task
//!    drives, and the transaction's rollback count.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use txmem::{LockIndex, LockOwner, TxDescriptor, WordAddr};

use crate::uthread_state::UThreadShared;

/// One entry of a task-read-log: the task read a speculative value that a
/// *past* task of the same user-thread wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskReadEntry {
    /// Lock covering the address.
    pub lock: LockIndex,
    /// The address that was read.
    pub addr: WordAddr,
    /// Serial of the past writer task whose value was observed.
    pub writer_serial: u64,
}

/// Panics unless a user-transaction of `n_tasks` tasks can run on a
/// user-thread of speculative depth `spec_depth`.
pub(crate) fn assert_task_count(n_tasks: u64, spec_depth: usize) {
    assert!(n_tasks > 0, "a user-transaction needs at least one task");
    assert!(
        n_tasks as usize <= spec_depth,
        "a user-transaction with {n_tasks} tasks cannot run under speculative depth {spec_depth}"
    );
}

/// State shared by all tasks of one user-transaction.
#[derive(Debug)]
pub struct TxnShared {
    uthread: Arc<UThreadShared>,
    start_serial: u64,
    commit_serial: u64,
    /// `abort-transaction` (the whole user-transaction must roll back), the
    /// commit-task's write-back having begun (contenders should simply
    /// wait), and the transaction's two-phase greedy priority.
    descriptor: TxDescriptor,
    /// The user-transaction has committed.
    committed: AtomicBool,
    /// Number of times the transaction has been rolled back so far.
    rollbacks: AtomicU32,
    /// Individual task aborts decided by the inter-thread contention manager
    /// against this transaction. Unlike whole-transaction rollbacks these can
    /// accumulate without the transaction ever restarting as a unit, so they
    /// must also drive the two-phase greedy escalation: with symmetric
    /// conflict cycles both sides stay timid, keep self-aborting and deadlock
    /// unless one of them eventually draws a ticket.
    cm_retries: AtomicU32,
    /// A task of the transaction lost to its own past (intra-thread WAR or
    /// WAW, or an abort signal from a past writer). Raised on the abort path
    /// only; its user-thread folds it into its admission history.
    lost_to_past: AtomicBool,
}

impl TxnShared {
    /// Creates the shared state of a user-transaction spanning the serial
    /// range `[start_serial, commit_serial]`.
    ///
    /// # Panics
    ///
    /// Panics if the serial range is empty or exceeds the user-thread's
    /// speculative depth (such a transaction could never complete, because all
    /// of its tasks must be simultaneously active at commit time).
    pub fn new(uthread: Arc<UThreadShared>, start_serial: u64, commit_serial: u64) -> Self {
        assert_task_count(
            (commit_serial + 1).saturating_sub(start_serial),
            uthread.spec_depth(),
        );
        TxnShared {
            uthread,
            start_serial,
            commit_serial,
            descriptor: TxDescriptor::default(),
            committed: AtomicBool::new(false),
            rollbacks: AtomicU32::new(0),
            cm_retries: AtomicU32::new(0),
            lost_to_past: AtomicBool::new(false),
        }
    }

    /// Serial of the transaction's first task (`tx-start-serial`).
    pub fn start_serial(&self) -> u64 {
        self.start_serial
    }

    /// Serial of the transaction's last task (`tx-commit-serial`).
    pub fn commit_serial(&self) -> u64 {
        self.commit_serial
    }

    /// Number of tasks in the transaction.
    pub fn n_tasks(&self) -> u64 {
        self.commit_serial - self.start_serial + 1
    }

    /// `true` once the transaction has committed.
    pub fn is_committed(&self) -> bool {
        self.committed.load(Ordering::Acquire)
    }

    /// Marks the transaction as committed and wakes all waiting tasks.
    pub fn mark_committed(&self) {
        self.committed.store(true, Ordering::Release);
        self.uthread.notify();
    }

    /// The transaction's abort request, finishing flag and greedy priority.
    #[inline]
    pub fn descriptor(&self) -> &TxDescriptor {
        &self.descriptor
    }

    /// Requests the abort of the whole transaction (used by the task-aware
    /// contention manager and by internal escalation).
    pub fn request_abort(&self) {
        self.descriptor.signal_abort();
        self.uthread.notify();
    }

    /// Number of rollbacks suffered so far.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Records one contention-manager self-abort of a task of this
    /// transaction and returns the running total.
    pub fn note_cm_self_abort(&self) -> u32 {
        self.cm_retries.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Notes that a task of the transaction lost to its own past.
    pub fn note_lost_to_past(&self) {
        self.lost_to_past.store(true, Ordering::Relaxed);
    }

    /// `true` if a task of the transaction lost to its own past.
    pub fn lost_to_past(&self) -> bool {
        self.lost_to_past.load(Ordering::Relaxed)
    }

    /// Completes a rollback: called by the commit-task once it has
    /// dismantled the transaction's speculative state. Counts the rollback,
    /// clears the abort request and wakes everyone.
    pub fn finish_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.descriptor.clear_flags();
        self.uthread.notify();
    }
}

impl LockOwner for TxnShared {
    fn signal_abort(&self) {
        self.request_abort();
    }

    fn is_finishing(&self) -> bool {
        self.descriptor.is_finishing() || self.committed.load(Ordering::Acquire)
    }

    fn completed_progress(&self) -> u64 {
        // Number of this transaction's tasks that have already completed
        // (the task-aware contention manager's progress measure).
        self.uthread
            .completed_task()
            .saturating_sub(self.start_serial.saturating_sub(1))
            .min(self.n_tasks())
    }

    fn cm_priority(&self) -> u64 {
        self.descriptor.priority()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::{resolve, CmDecision, TxConfig, TxSubstrate, TIMID};

    fn txn(depth: usize, start: u64, commit: u64) -> TxnShared {
        TxnShared::new(Arc::new(UThreadShared::new(7, depth)), start, commit)
    }

    #[test]
    fn progress_counts_completed_tasks_of_this_txn_only() {
        let u = Arc::new(UThreadShared::new(0, 4));
        let t = TxnShared::new(Arc::clone(&u), 5, 7);
        assert_eq!(t.completed_progress(), 0);
        u.mark_completed(4, false); // a previous transaction's task
        assert_eq!(t.completed_progress(), 0);
        u.mark_completed(5, false);
        assert_eq!(t.completed_progress(), 1);
        u.mark_completed(6, true);
        assert_eq!(t.completed_progress(), 2);
        // Progress is capped at the transaction size.
        u.mark_completed(9, false);
        assert_eq!(t.completed_progress(), 3);
    }

    #[test]
    fn abort_and_rollback_cycle() {
        let t = txn(4, 1, 3);
        assert!(!t.descriptor().abort_requested());
        t.request_abort();
        assert!(t.descriptor().abort_requested());
        assert!(t.is_finishing());
        t.finish_rollback();
        assert!(!t.descriptor().abort_requested());
        assert!(!t.is_finishing());
        assert_eq!(t.rollbacks(), 1);
    }

    #[test]
    fn priority_keeps_strongest_ticket() {
        let t = txn(2, 1, 1);
        assert_eq!(t.cm_priority(), TIMID);
        let tickets = &TxSubstrate::new(TxConfig::small()).tickets;
        t.descriptor().turn_greedy(tickets);
        t.descriptor().turn_greedy(tickets);
        assert_eq!(t.cm_priority(), 0);
        // The ticket survives a rollback.
        t.request_abort();
        t.finish_rollback();
        assert_eq!(t.cm_priority(), 0);
    }

    /// The one rule between a TLSTM transaction and a SwissTM descriptor:
    /// completed tasks win in both directions, and a tie goes to greedy.
    #[test]
    fn resolves_against_a_swisstm_descriptor() {
        let u = Arc::new(UThreadShared::new(0, 2));
        let t = TxnShared::new(Arc::clone(&u), 1, 2);
        let swiss = TxDescriptor::new(0);
        assert_eq!(
            resolve(&t, &swiss),
            CmDecision::AbortSelf,
            "tie: older ticket"
        );
        assert_eq!(resolve(&swiss, &t), CmDecision::AbortOwner);
        assert!(t.descriptor().abort_requested());
        t.finish_rollback();
        u.mark_completed(1, true);
        assert_eq!(resolve(&swiss, &t), CmDecision::AbortSelf);
        assert!(!t.is_finishing());
        assert_eq!(resolve(&t, &swiss), CmDecision::AbortOwner);
        assert!(swiss.abort_requested());
    }

    #[test]
    fn committed_flag_reported_through_lock_owner() {
        let t = txn(2, 1, 1);
        assert!(!t.is_finishing());
        t.mark_committed();
        assert!(t.is_committed());
        assert!(t.is_finishing());
    }

    #[test]
    #[should_panic(expected = "cannot run under speculative depth")]
    fn oversized_transaction_rejected() {
        let _ = txn(2, 1, 5);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_transaction_rejected() {
        let _ = txn(4, 5, 4);
    }
}
