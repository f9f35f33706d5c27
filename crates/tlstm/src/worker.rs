//! Task execution: the claim loop every lane runs.
//!
//! Each [`UThread::execute`] that claims a helper publishes its tasks as one
//! `Batch` and runs the claim loop on the calling thread; the pool helpers
//! it wakes run it too. (One that claims none runs its batch solo, on
//! SwissTM's transaction, and never gets here.) A lane claims the lowest
//! unclaimed serial `s` of the oldest
//! transaction that has one, while `s < r + SPECDEPTH` for the lowest
//! unretired serial `r`: the paper's admission rule, which also keeps every
//! unretired task in an `owners[]` slot of its own. A completed task leaves
//! its state in its slot for the commit-task and frees its lane. If no
//! helper wakes in time, the caller runs every task itself, in order.
//!
//! * **Individual task rollback** (intra-thread WAR/WAW, losing an
//!   inter-thread conflict): remove the task's chain entries and re-run the
//!   body — after an intra-thread loss, only once its whole past completed.
//! * **User-transaction rollback**: a running task that sees the abort
//!   request removes its entries and gives its claim back. The commit-task
//!   drives the rollback alone: once no other task of the transaction runs,
//!   it dismantles the completed tasks' entries, resets the user-thread
//!   counters, re-arms the transaction and re-opens all of its claims.
//!
//! [`UThread::execute`]: crate::UThread::execute

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use txmem::{should_turn_greedy, AbortReason, OwnerToken, TxSubstrate};

use crate::pool::Claim;
use crate::task::{remove_chain_entries, TaskCtx};
use crate::txn_state::TxnShared;
use crate::uthread_state::UThreadShared;
use crate::TaskFn;

/// After this many rollbacks of the same user-transaction, its tasks fall back
/// to executing in program order (each task waits for all past tasks to
/// complete before running its body). Intra-thread livelock no longer needs
/// it — a task that loses to its past restarts in program order anyway — but
/// under heavy *inter-thread* contention it does: a transaction that other
/// user-threads have already rolled back twice re-acquires its locks one
/// task at a time instead of speculating into the same conflict (64
/// committers × 4 tasks on 2 vCPUs lose ~15 % of their throughput, with
/// more rollbacks, without it; EXPERIMENTS.md, "borrowed lanes").
const PESSIMISTIC_AFTER_ROLLBACKS: u32 = 2;

/// After this many *individual task* aborts decided by the inter-thread
/// contention manager, the whole user-transaction turns greedy. Without this
/// escalation two transactions whose tasks hold each other's write locks can
/// self-abort in a symmetric-timid cycle forever: neither ever suffers a
/// whole-transaction rollback (the locks they already hold stay held), so
/// [`txmem::GREEDY_AFTER_ABORTS`] rollbacks alone never break the tie.
const GREEDY_AFTER_CM_SELF_ABORTS: u32 = 3;

/// Where a task of the batch stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Unclaimed: the next lane that reaches it within the bound runs it.
    Open,
    /// A lane runs it.
    Running,
    /// Completed; its state waits in its slot for the commit-task.
    Done,
}

/// One user-transaction of a batch: its shared state and its task bodies.
pub(crate) struct BatchTxn<'a> {
    pub txn: Arc<TxnShared>,
    pub bodies: Vec<TaskFn<'a>>,
}

/// The transactions of one `execute`, in program order (their serials
/// consecutive), with the claim state of every task.
pub(crate) struct Batch<'a> {
    pub txns: Vec<BatchTxn<'a>>,
    claims: Mutex<Claims>,
}

struct Claims {
    /// One state per serial of the batch.
    tasks: Vec<TaskState>,
    /// How many transactions of the batch have committed (a prefix).
    retired: usize,
}

/// What a lane does next.
enum Next<'b, 'a> {
    Run(&'b Arc<TxnShared>, u64, &'b TaskFn<'a>),
    Wait,
    Done,
}

impl<'a> Batch<'a> {
    /// Publishes `txns`, whose serials are consecutive.
    pub(crate) fn new(txns: Vec<BatchTxn<'a>>) -> Self {
        let tasks = vec![TaskState::Open; txns.iter().map(|t| t.bodies.len()).sum()];
        let claims = Mutex::new(Claims { tasks, retired: 0 });
        Batch { txns, claims }
    }

    fn index(&self, serial: u64) -> usize {
        (serial - self.txns[0].txn.start_serial()) as usize
    }

    /// Claims the lowest open serial below `r + depth`. A transaction whose
    /// abort is pending hands out only its commit-task, which drives the
    /// rollback.
    fn claim(&self, depth: u64) -> Next<'_, 'a> {
        let mut claims = self.claims.lock();
        let Claims { tasks, retired } = &mut *claims;
        let committed = self.txns[*retired..]
            .iter()
            .take_while(|t| t.txn.is_committed());
        *retired += committed.count();
        let Some(oldest) = self.txns.get(*retired) else {
            return Next::Done;
        };
        let bound = oldest.txn.start_serial() + depth;
        for BatchTxn { txn, bodies } in &self.txns[*retired..] {
            let pending = txn.descriptor().abort_requested();
            for (serial, body) in (txn.start_serial()..).zip(bodies) {
                if serial >= bound {
                    return Next::Wait;
                }
                let state = &mut tasks[self.index(serial)];
                if *state == TaskState::Open && (!pending || serial == txn.commit_serial()) {
                    *state = TaskState::Running;
                    return Next::Run(txn, serial, body);
                }
            }
        }
        Next::Wait
    }

    /// Records that the lane running `serial` completed it or gave it back.
    fn settle(&self, serial: u64, completed: bool) {
        self.claims.lock().tasks[self.index(serial)] = if completed {
            TaskState::Done
        } else {
            TaskState::Open
        };
    }

    /// Once no task of `txn` but its commit-task runs, re-opens the claims
    /// of its completed tasks and returns their serials: a prefix of the
    /// transaction, since tasks complete in order. The abort still pending
    /// keeps them unclaimed until it is cleared. `None` while a task runs.
    fn reopen_completed(&self, txn: &TxnShared) -> Option<Range<u64>> {
        let mut claims = self.claims.lock();
        let (start, mut end) = (txn.start_serial(), txn.start_serial());
        if (start..txn.commit_serial()).any(|s| claims.tasks[self.index(s)] == TaskState::Running) {
            return None;
        }
        for serial in start..txn.commit_serial() {
            let state = &mut claims.tasks[self.index(serial)];
            if *state == TaskState::Done {
                debug_assert_eq!(serial, end, "completed tasks form a prefix");
                *state = TaskState::Open;
                end = serial + 1;
            }
        }
        Some(start..end)
    }
}

/// Everything needed to run tasks of one user-thread: the caller's context,
/// cloned into each job it hands to a helper.
#[derive(Clone, Debug)]
pub(crate) struct Worker {
    pub substrate: Arc<TxSubstrate>,
    pub uthread: Arc<UThreadShared>,
    /// How the user-thread's helpers are claimed (its registration decided).
    pub claim: Claim,
}

impl Worker {
    /// The claim loop: claims and runs `batch`'s tasks. The calling thread
    /// (`caller`) stays until every transaction of the batch has committed;
    /// a helper leaves as soon as it finds nothing to claim, rather than
    /// park where every task completion would have to wake it.
    pub(crate) fn run_batch(&self, batch: &Batch<'_>, caller: bool) {
        let depth = self.uthread.spec_depth() as u64;
        loop {
            let mut next = batch.claim(depth);
            if let (Next::Wait, true) = (&next, caller) {
                self.uthread.wait_until(|| {
                    next = batch.claim(depth);
                    !matches!(next, Next::Wait)
                });
            }
            let Next::Run(txn, serial, body) = next else {
                return;
            };
            let completed = self.run_task(txn, serial, body);
            if !completed && serial == txn.commit_serial() {
                self.roll_back(batch, txn);
            }
            batch.settle(serial, completed);
            // A claim given back may be another lane's next one; a completion
            // matters to a commit-task waiting to roll back.
            if !completed || txn.descriptor().abort_requested() {
                self.uthread.notify();
            }
        }
    }

    /// Executes task `serial` of `txn` until it completes (`true`) or, its
    /// transaction's rollback pending, leaves with its chain entries removed
    /// (`false`), building its speculative state in its slot's buffers. This
    /// is the one attempt/abort loop of the runtime.
    fn run_task(&self, txn: &Arc<TxnShared>, serial: u64, body: &TaskFn<'_>) -> bool {
        // Every lane counts into the owning user-thread's shard: a helper
        // lane serves whichever user-thread borrows it and has no thread id
        // of its own in this substrate.
        let stats = self.substrate.stats.shard(self.uthread.ptid());
        stats.task_starts.inc();
        let mut bufs = self.uthread.slot(serial).bufs.lock();
        let mut ctx = TaskCtx::new(
            &self.substrate,
            &self.uthread,
            Arc::clone(txn),
            serial,
            &mut bufs,
        );
        let mut attempt = 0u32;
        loop {
            attempt = attempt.wrapping_add(1);
            // Pessimistic fallback: after repeated transaction rollbacks, run
            // the tasks of this transaction in program order.
            if txn.rollbacks() >= PESSIMISTIC_AFTER_ROLLBACKS {
                self.wait_for_past(txn, serial);
            }
            if txn.descriptor().abort_requested() {
                return false;
            }
            ctx.spec().reset_for_attempt();
            let outcome = body(&mut ctx).and_then(|()| ctx.spec().task_commit());
            let Err(abort) = outcome else {
                stats.task_commits.inc();
                ctx.spec().flush_op_counters();
                return true;
            };
            stats.task_aborts.inc();
            stats.record_abort_reason(abort.reason);
            if matches!(
                abort.reason,
                AbortReason::IntraThreadWar
                    | AbortReason::IntraThreadWaw
                    | AbortReason::TaskAbortSignal
            ) {
                txn.note_lost_to_past();
            }
            txobs::tx_abort(abort.reason.trace_cause());
            ctx.spec().remove_chain_entries();
            if abort.reason == AbortReason::InterThreadWriteConflict
                && txn.note_cm_self_abort() >= GREEDY_AFTER_CM_SELF_ABORTS
            {
                txn.descriptor().turn_greedy(&self.substrate.tickets);
            }
            if abort.reason == AbortReason::TransactionAbortSignal
                || txn.descriptor().abort_requested()
            {
                return false;
            }
            // Re-execute only once the cause of the abort has passed, holding
            // no locks or chain entries meanwhile.
            match abort.reason {
                // The task lost to a task of its own past. Re-running before
                // that task completes can only lose again (and a signalled
                // future task that re-acquires the contested lock faster than
                // the past writer re-samples it livelocks the pair), so the
                // restart waits for the event it lost to — the rule
                // Algorithm 1 line 11 applies to a read of a running writer.
                // With its whole past complete the task cannot suffer a
                // second intra-thread conflict.
                AbortReason::IntraThreadWar
                | AbortReason::IntraThreadWaw
                | AbortReason::TaskAbortSignal => self.wait_for_past(txn, serial),
                // Other user-threads (and user retries) offer no completion
                // event to wait for: back off for a while instead.
                _ => Self::abort_backoff(attempt),
            }
        }
    }

    /// Blocks until every past task of the user-thread has completed, or
    /// until `txn` must first be rolled back.
    fn wait_for_past(&self, txn: &TxnShared, serial: u64) {
        self.uthread.wait_until(|| {
            self.uthread.completed_task() >= serial.saturating_sub(1)
                || txn.descriptor().abort_requested()
        });
    }

    /// Exponential backoff between re-execution attempts of a task aborted
    /// by an inter-thread conflict, a failed read validation or a user
    /// retry: the first few retries only yield, later ones sleep for
    /// exponentially longer (capped).
    fn abort_backoff(attempt: u32) {
        match attempt {
            0..=2 => std::thread::yield_now(),
            n => {
                let micros = 1u64 << n.saturating_sub(3).min(6);
                std::thread::sleep(std::time::Duration::from_micros(micros));
            }
        }
    }

    /// The commit-task's rollback of `txn`: waits until no other task of it
    /// runs (each one that sees the abort gives its claim back), dismantles
    /// the completed tasks' chain entries from their slots, resets the
    /// user-thread counters and re-arms the transaction. The completed tasks'
    /// claims re-open while the abort is still pending, so no lane claims
    /// them before their entries are gone. It then backs off, so the other
    /// user-thread that asked for the rollback can take the locks it
    /// released before the tasks re-acquire them.
    fn roll_back(&self, batch: &Batch<'_>, txn: &TxnShared) {
        let uthread = &*self.uthread;
        // Already raised by whatever aborted the commit-task; raised again so
        // the precondition does not depend on it.
        txn.request_abort();
        let mut completed = None;
        uthread.wait_until(|| {
            completed = batch.reopen_completed(txn);
            completed.is_some()
        });
        let token = OwnerToken::from_id(uthread.ptid());
        for serial in completed.unwrap_or_default() {
            let mut bufs = uthread.slot(serial).bufs.lock();
            remove_chain_entries(&self.substrate, token, serial, &mut bufs.acquired);
        }
        uthread.reset_after_rollback(txn.start_serial());
        self.substrate.stats.shard(uthread.ptid()).tx_aborts.inc();
        // The rollback in progress counts: the SwissTM two-phase policy,
        // applied per user-transaction.
        if should_turn_greedy(txn.rollbacks() + 1) {
            txn.descriptor().turn_greedy(&self.substrate.tickets);
        }
        txn.finish_rollback();
        Self::abort_backoff(txn.rollbacks());
    }
}
