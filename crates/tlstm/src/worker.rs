//! Task execution: the attempt/abort/rollback loop every lane runs.
//!
//! A user-thread owns no threads. Each [`UThread::execute`] runs on a *crew*:
//! the calling thread as lane 0 plus the helpers it borrows from the
//! process-wide pool. Task `serial` runs on lane `serial mod crew`, which
//! starts its next task only once this one has *retired* (its
//! user-transaction committed): at most `crew ≤ SPECDEPTH` tasks of the
//! user-thread are active at any time, the paper's admission rule.
//!
//! `Worker::run_task` implements the rollback protocols:
//!
//! * **individual task rollback** (intra-thread WAR/WAW, losing an
//!   inter-thread conflict): remove the task's speculative chain entries,
//!   reset its logs and re-run the body — after an intra-thread loss, only
//!   once every past task has completed;
//! * **user-transaction rollback**: every task removes its own entries and
//!   acknowledges; the commit-task waits for all acknowledgements, resets the
//!   user-thread counters, bumps the rollback epoch and everyone re-executes.
//!
//! [`UThread::execute`]: crate::UThread::execute

use std::sync::Arc;

use txmem::{should_turn_greedy, AbortReason, TxSubstrate};

use crate::pool::Claim;
use crate::task::{TaskBufs, TaskCtx};
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

/// One task of one user-transaction, queued on a lane.
pub(crate) struct WorkItem<'a> {
    /// Serial number of the task.
    pub serial: u64,
    /// Shared state of the enclosing user-transaction.
    pub txn: Arc<TxnShared>,
    /// The task's bodies, run in program order: one, or a contiguous group
    /// of the transaction's tasks merged onto this lane.
    pub bodies: Vec<TaskFn<'a>>,
}

/// Everything needed to run tasks of one user-thread: the caller's lane-0
/// context, cloned into each job it hands to a helper.
#[derive(Clone, Debug)]
pub(crate) struct Worker {
    pub substrate: Arc<TxSubstrate>,
    pub uthread: Arc<UThreadShared>,
    /// How the user-thread's crews are claimed (its registration decided).
    pub claim: Claim,
}

impl Worker {
    /// Runs one lane's tasks in serial order, each until it retires.
    pub(crate) fn run_lane(&self, items: Vec<WorkItem<'_>>, bufs: &mut TaskBufs) {
        for item in items {
            self.run_task(&item, bufs);
        }
    }

    /// Executes task `serial` of `txn` until it retires (its
    /// user-transaction commits), building its speculative state inside the
    /// recycled `bufs`. This is the one attempt/abort/rollback loop of the
    /// runtime: the caller's lane and every helper lane run it.
    fn run_task(&self, item: &WorkItem<'_>, bufs: &mut TaskBufs) {
        let &WorkItem {
            serial,
            ref txn,
            ref bodies,
        } = item;
        // Every lane counts into the owning user-thread's shard: a helper
        // lane serves whichever user-thread borrows it and has no thread id
        // of its own in this substrate.
        let stats = self.substrate.stats.shard(self.uthread.ptid());
        stats.task_starts.inc();
        let mut ctx = TaskCtx::new(
            &self.substrate,
            &self.uthread,
            Arc::clone(txn),
            serial,
            bufs,
        );
        let mut attempt = 0u32;
        loop {
            attempt = attempt.wrapping_add(1);
            // If a rollback of this transaction is already pending, join it
            // before (re-)executing the body.
            if txn.descriptor().abort_requested() {
                self.participate_in_rollback(txn, serial);
            }
            // Pessimistic fallback: after repeated transaction rollbacks, run
            // the tasks of this transaction in program order.
            if txn.rollbacks() >= PESSIMISTIC_AFTER_ROLLBACKS {
                self.wait_for_past(txn, serial);
                if txn.descriptor().abort_requested() {
                    continue;
                }
            }
            ctx.reset_for_attempt();
            let outcome = bodies
                .iter()
                .try_for_each(|body| body(&mut ctx))
                .and_then(|()| ctx.task_commit());
            let Err(abort) = outcome else {
                stats.task_commits.inc();
                ctx.flush_op_counters();
                return;
            };
            stats.task_aborts.inc();
            stats.record_abort_reason(abort.reason);
            txobs::tx_abort(abort.reason.trace_cause());
            ctx.remove_chain_entries();
            if abort.reason == AbortReason::InterThreadWriteConflict
                && txn.note_cm_self_abort() >= GREEDY_AFTER_CM_SELF_ABORTS
            {
                txn.descriptor().turn_greedy(&self.substrate.tickets);
            }
            if abort.reason == AbortReason::TransactionAbortSignal
                || txn.descriptor().abort_requested()
            {
                self.participate_in_rollback(txn, serial);
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

    /// Joins the coordinated rollback of the task's user-transaction.
    ///
    /// Non-commit tasks acknowledge and wait for the rollback epoch to
    /// advance; the commit-task drives the protocol (waits for every other
    /// task, resets the user-thread counters and re-arms the transaction).
    fn participate_in_rollback(&self, txn: &TxnShared, serial: u64) {
        let uthread = &self.uthread;
        if serial == txn.commit_serial() {
            txn.start_rollback();
            let needed = (txn.n_tasks() - 1) as u32;
            uthread.wait_until(|| txn.acks() >= needed);
            uthread.reset_after_rollback(txn.start_serial());
            let stats = self.substrate.stats.shard(uthread.ptid());
            stats.tx_aborts.inc();
            // The rollback in progress counts: the SwissTM two-phase policy,
            // applied per user-transaction.
            if should_turn_greedy(txn.rollbacks() + 1) {
                txn.descriptor().turn_greedy(&self.substrate.tickets);
            }
            txn.finish_rollback();
        } else {
            let epoch = txn.epoch();
            txn.ack_abort();
            uthread.wait_until(|| txn.epoch() > epoch);
        }
    }
}
