//! Shared per-user-transaction state.
//!
//! Every task of a user-transaction shares one [`TxnShared`]. It plays three
//! roles:
//!
//! 1. it is the **contention-manager handle** other user-threads reach through
//!    the lock table (the `w-lock.owner` of the paper) — hence the
//!    [`txmem::LockOwner`] implementation;
//! 2. it carries the **abort-transaction flag** and the rollback coordination
//!    state (acknowledgement counter + rollback epoch) that drive the
//!    "all tasks of the transaction restart together" protocol of §3.2;
//! 3. it is the **mailbox where completed intermediate tasks lend their
//!    buffers** (moved, never copied), so the commit-task can validate every
//!    task's reads and write back every task's writes in place at
//!    transaction commit (Algorithm 3); each task takes its buffers back
//!    once the transaction has committed or started its rollback.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use swisstm::cm::TIMID;
use txmem::{LockIndex, LockOwner, WordAddr};

use crate::task::TaskBufs;
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
    /// `abort-transaction`: the whole user-transaction must roll back.
    abort_requested: AtomicBool,
    /// The commit-task has started the rollback protocol. Completed
    /// intermediate tasks dismantle their speculative state only when this is
    /// set (not on `abort_requested` alone), which keeps them from racing with
    /// a commit-task that decided to commit before the request arrived.
    rollback_started: AtomicBool,
    /// The commit-task has begun write-back (contenders should simply wait).
    finishing: AtomicBool,
    /// The user-transaction has committed.
    committed: AtomicBool,
    /// Number of times the transaction has been rolled back so far.
    rollbacks: AtomicU32,
    /// Rollback epoch: incremented after every completed rollback cleanup;
    /// restarting tasks wait for it to advance before re-executing.
    epoch: AtomicU64,
    /// Tasks that have acknowledged the current abort request.
    acks: AtomicU32,
    /// Individual task aborts decided by the inter-thread contention manager
    /// against this transaction. Unlike whole-transaction rollbacks these can
    /// accumulate without the transaction ever restarting as a unit, so they
    /// must also drive the two-phase greedy escalation: with symmetric
    /// conflict cycles both sides stay timid, keep self-aborting and deadlock
    /// unless one of them eventually draws a ticket.
    cm_retries: AtomicU32,
    /// Two-phase greedy priority of the whole user-transaction.
    priority: AtomicU64,
    /// Buffers lent by completed intermediate tasks, keyed by serial.
    mailbox: Mutex<Vec<(u64, TaskBufs)>>,
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
            abort_requested: AtomicBool::new(false),
            rollback_started: AtomicBool::new(false),
            finishing: AtomicBool::new(false),
            committed: AtomicBool::new(false),
            rollbacks: AtomicU32::new(0),
            epoch: AtomicU64::new(0),
            acks: AtomicU32::new(0),
            cm_retries: AtomicU32::new(0),
            priority: AtomicU64::new(TIMID),
            mailbox: Mutex::new(Vec::new()),
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

    /// The user-thread this transaction belongs to.
    pub fn uthread(&self) -> &Arc<UThreadShared> {
        &self.uthread
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

    /// `true` if the whole transaction has been asked to abort.
    pub fn abort_requested(&self) -> bool {
        self.abort_requested.load(Ordering::Acquire)
    }

    /// Requests the abort of the whole transaction (used by the task-aware
    /// contention manager and by internal escalation).
    pub fn request_abort(&self) {
        self.abort_requested.store(true, Ordering::Release);
        self.uthread.notify();
    }

    /// Marks the transaction as entering its commit write-back phase.
    pub fn set_finishing(&self) {
        self.finishing.store(true, Ordering::Release);
    }

    /// `true` once the commit-task has started the rollback protocol for the
    /// current abort request.
    pub fn rollback_started(&self) -> bool {
        self.rollback_started.load(Ordering::Acquire)
    }

    /// Begins the rollback protocol (called by the commit-task before it
    /// waits for the other tasks' acknowledgements).
    pub fn start_rollback(&self) {
        self.rollback_started.store(true, Ordering::Release);
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

    /// Current greedy priority.
    pub fn priority(&self) -> u64 {
        self.priority.load(Ordering::Relaxed)
    }

    /// Installs a greedy priority ticket (keeps the strongest if called twice).
    pub fn set_priority(&self, ticket: u64) {
        self.priority.fetch_min(ticket, Ordering::Relaxed);
    }

    // --- rollback coordination --------------------------------------------

    /// Current rollback epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A non-commit task acknowledges the pending abort after having removed
    /// its own speculative chain entries.
    pub fn ack_abort(&self) {
        self.acks.fetch_add(1, Ordering::AcqRel);
        self.uthread.notify();
    }

    /// Number of tasks that have acknowledged the pending abort.
    pub fn acks(&self) -> u32 {
        self.acks.load(Ordering::Acquire)
    }

    /// Completes a rollback: called by the commit-task once every other task
    /// has acknowledged. Resets the coordination state, bumps the epoch and
    /// wakes everyone so they re-execute.
    pub fn finish_rollback(&self) {
        debug_assert!(
            self.mailbox.lock().is_empty(),
            "every task takes its buffers back before it acknowledges"
        );
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.acks.store(0, Ordering::Release);
        self.finishing.store(false, Ordering::Release);
        self.rollback_started.store(false, Ordering::Release);
        self.abort_requested.store(false, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.uthread.notify();
    }

    // --- the mailbox ------------------------------------------------------

    /// Lends the buffers of completed task `serial` to the commit-task.
    pub(crate) fn publish(&self, serial: u64, bufs: TaskBufs) {
        self.mailbox.lock().push((serial, bufs));
    }

    /// Takes back the buffers task `serial` lent.
    ///
    /// # Panics
    ///
    /// Panics if the task lent none.
    pub(crate) fn take_back(&self, serial: u64) -> TaskBufs {
        let mut mailbox = self.mailbox.lock();
        let pos = mailbox
            .iter()
            .position(|&(s, _)| s == serial)
            .expect("a task takes back only the buffers it lent");
        mailbox.swap_remove(pos).1
    }

    /// The lent buffers, locked for the commit-task to read in place. The
    /// guard must be dropped before the outcome is announced, so the woken
    /// tasks can take their buffers back.
    pub(crate) fn published(&self) -> MutexGuard<'_, Vec<(u64, TaskBufs)>> {
        self.mailbox.lock()
    }
}

impl LockOwner for TxnShared {
    fn signal_abort(&self) {
        self.request_abort();
    }

    fn is_finishing(&self) -> bool {
        self.finishing.load(Ordering::Acquire)
            || self.committed.load(Ordering::Acquire)
            || self.abort_requested()
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
        self.priority()
    }

    fn owner_id(&self) -> u32 {
        self.uthread.ptid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!t.abort_requested());
        t.request_abort();
        assert!(t.abort_requested());
        assert!(t.is_finishing());
        t.ack_abort();
        t.ack_abort();
        assert_eq!(t.acks(), 2);
        let epoch = t.epoch();
        t.finish_rollback();
        assert_eq!(t.epoch(), epoch + 1);
        assert_eq!(t.acks(), 0);
        assert!(!t.abort_requested());
        assert_eq!(t.rollbacks(), 1);
    }

    #[test]
    fn lent_buffers_round_trip_by_serial() {
        let t = txn(4, 1, 3);
        for serial in [2, 1] {
            let mut bufs = TaskBufs::default();
            bufs.acquired.push(LockIndex(serial as u32 * 10));
            t.publish(serial, bufs);
        }
        assert_eq!(t.published().len(), 2);
        assert_eq!(t.take_back(2).acquired, [LockIndex(20)]);
        assert_eq!(t.take_back(1).acquired, [LockIndex(10)]);
        assert!(t.published().is_empty());
        // An empty mailbox is what a rollback expects.
        t.request_abort();
        t.finish_rollback();
    }

    #[test]
    fn priority_keeps_strongest_ticket() {
        let t = txn(2, 1, 1);
        assert_eq!(t.priority(), TIMID);
        t.set_priority(10);
        t.set_priority(20);
        assert_eq!(t.priority(), 10);
    }

    #[test]
    fn committed_flag_reported_through_lock_owner() {
        let t = txn(2, 1, 1);
        assert!(!t.is_finishing());
        t.mark_committed();
        assert!(t.is_committed());
        assert!(t.is_finishing());
        assert_eq!(t.owner_id(), 7);
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
