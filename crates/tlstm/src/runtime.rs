//! The TLSTM runtime and the user-thread handle.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use txmem::{
    Abort, DirectMem, StatsSnapshot, Transaction, TxConfig, TxContext, TxHeap, TxSubstrate,
};

use crate::admission::Admission;
use crate::pool::{self, AbortOnUnwind, Claim};
use crate::task::TaskCtx;
use crate::txn_state::{assert_task_count, TxnShared};
use crate::uthread_state::UThreadShared;
use crate::worker::{Batch, BatchTxn, Worker};
use crate::TaskFn;

/// Wraps a closure into a [`TaskFn`] (convenience for building [`TxnSpec`]s).
pub fn task<'a, F>(f: F) -> TaskFn<'a>
where
    F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'a,
{
    Arc::new(f)
}

/// Specification of one user-transaction: the ordered list of speculative
/// tasks it decomposes into.
///
/// The decomposition itself (how a transaction body is split into tasks) is
/// the caller's responsibility — the paper treats it as an orthogonal
/// compile-time/runtime concern — but the number of tasks must not exceed the
/// user-thread's speculative depth.
#[derive(Clone)]
pub struct TxnSpec<'a> {
    tasks: Vec<TaskFn<'a>>,
}

impl<'a> TxnSpec<'a> {
    /// Builds a user-transaction from its tasks, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(tasks: Vec<TaskFn<'a>>) -> Self {
        assert!(
            !tasks.is_empty(),
            "a user-transaction needs at least one task"
        );
        TxnSpec { tasks }
    }

    /// Builds a user-transaction consisting of a single task (i.e. a plain
    /// STM transaction).
    pub fn single<F>(f: F) -> Self
    where
        F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'a,
    {
        TxnSpec::new(vec![task(f)])
    }

    /// Number of tasks in the transaction.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the transaction has no tasks (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl std::fmt::Debug for TxnSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnSpec")
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

/// Outcome of one committed user-transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Serial of the transaction's first task.
    pub start_serial: u64,
    /// Serial of the transaction's last task (the commit-task).
    pub commit_serial: u64,
    /// Number of whole-transaction rollbacks suffered before committing.
    pub rollbacks: u32,
}

/// The TLSTM runtime: owns the shared substrate and registers user-threads.
/// User-thread ids and greedy tickets are the substrate's, shared by every
/// handle over it.
#[derive(Debug)]
pub struct TlstmRuntime {
    substrate: Arc<TxSubstrate>,
}

impl TlstmRuntime {
    /// Creates a runtime with a fresh substrate built from `config`.
    pub fn new(config: TxConfig) -> Arc<Self> {
        Self::with_substrate(Arc::new(TxSubstrate::new(config)))
    }

    /// Creates a runtime over an existing substrate (see
    /// [`TxRuntime::with_substrate`] for what sharing guarantees).
    ///
    /// [`TxRuntime::with_substrate`]: txmem::TxRuntime::with_substrate
    pub fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        Arc::new(TlstmRuntime { substrate })
    }

    /// The shared substrate.
    pub fn substrate(&self) -> &Arc<TxSubstrate> {
        &self.substrate
    }

    /// The transactional heap (for non-transactional initialisation).
    pub fn heap(&self) -> &TxHeap {
        &self.substrate.heap
    }

    /// A [`DirectMem`] handle for non-transactional initialisation.
    pub fn direct(&self) -> DirectMem<'_> {
        DirectMem::new(&self.substrate.heap)
    }

    /// Snapshot of the global statistics counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.substrate.stats.snapshot()
    }

    /// Registers a user-thread with the substrate's default speculative
    /// depth, letting the host and the user-thread's history decide how many
    /// lanes its tasks run on. Each [`UThread::execute`] claims only helpers
    /// idle in the process-wide pool, and all such user-threads together
    /// hold at most `cores − 1` at once ([`txmem::pause::cores`]); and it
    /// claims none for a batch whose transactions' task counts are all
    /// closed, because the last speculative transaction with that many tasks
    /// had a task lose to its past (a closed count is re-probed after an
    /// interval that doubles with each losing probe, up to a constant cap).
    /// So the helper count is `min(spec_depth, tasks) − 1` at most, not
    /// always. A batch that claims no helper runs solo: on the calling
    /// thread, each transaction as one SwissTM transaction. A one-core host
    /// thus runs everything solo, and on any host a single-task transaction
    /// never leaves the calling thread. This is the constructor behind
    /// [`TxRuntime::session`], i.e. the one everything that serves traffic
    /// uses.
    ///
    /// [`TxRuntime::session`]: txmem::TxRuntime::session
    pub fn register_uthread_default(self: &Arc<Self>) -> UThread {
        self.new_uthread(self.substrate.config.spec_depth, Claim::Idle)
    }

    /// Registers a user-thread with an explicit speculative depth
    /// (`SPECDEPTH`): the maximum number of simultaneously active tasks. Here
    /// the caller decides: each [`UThread::execute`] gets one helper per task
    /// beyond the first (up to `spec_depth − 1`), spawning pool helpers when
    /// too few are idle, so its tasks can overlap whatever the host looks
    /// like and whatever they did before (protocol tests rely on that). Only
    /// a batch of one single-task transaction, or any batch at depth 1, gets
    /// none, and runs solo.
    ///
    /// # Panics
    ///
    /// Panics if `spec_depth` is zero.
    pub fn register_uthread(self: &Arc<Self>, spec_depth: usize) -> UThread {
        self.new_uthread(spec_depth, Claim::Full)
    }

    fn new_uthread(self: &Arc<Self>, spec_depth: usize, claim: Claim) -> UThread {
        let solo = TxContext::new(self.substrate.ids.allocate());
        self.substrate.owners.register(solo.id(), solo.owner());
        let shared = Arc::new(UThreadShared::new(solo.id(), spec_depth));
        UThread {
            solo: RefCell::new(solo),
            history: RefCell::new(Admission::new(spec_depth)),
            runtime: Arc::clone(self),
            worker: Worker {
                substrate: Arc::clone(&self.substrate),
                uthread: Arc::clone(&shared),
                claim,
            },
            shared,
            next_serial: Cell::new(1),
        }
    }
}

/// A TLSTM user-thread: the handle the application uses to submit
/// user-transactions. It owns no threads: each [`execute`](UThread::execute)
/// runs its tasks on the calling thread and on helpers borrowed from a
/// process-wide pool.
///
/// The handle is `Send` (it can be moved to the application thread that drives
/// it) but not `Sync`; each user-thread is driven by one application thread,
/// exactly as in the paper's model.
#[derive(Debug)]
pub struct UThread {
    runtime: Arc<TlstmRuntime>,
    shared: Arc<UThreadShared>,
    /// The calling thread's lane context, cloned into every helper job.
    worker: Worker,
    next_serial: Cell<u64>,
    /// The transaction every batch that claims no helper runs on, its
    /// descriptor registered under the user-thread's token.
    solo: RefCell<TxContext>,
    /// Which task counts a default session may run ahead.
    history: RefCell<Admission>,
}

impl UThread {
    /// The user-thread identifier.
    pub fn ptid(&self) -> u32 {
        self.shared.ptid()
    }

    /// The speculative depth of this user-thread.
    pub fn spec_depth(&self) -> usize {
        self.shared.spec_depth()
    }

    /// The runtime this user-thread belongs to.
    pub fn runtime(&self) -> &Arc<TlstmRuntime> {
        &self.runtime
    }

    /// Submits a batch of user-transactions for (speculative, pipelined)
    /// execution and blocks until every one of them has committed.
    ///
    /// Transactions in the batch are executed in program order. When this
    /// call claims pool helpers — `min(spec_depth, tasks) − 1` at most; the
    /// registration, the host and, for a default session, the user-thread's
    /// history decide how many, possibly none — their tasks, including tasks
    /// of *future* transactions, run speculatively in parallel: the calling
    /// thread and the helpers claim them one at a time, in program order.
    /// The calling thread starts at once, so if no helper wakes in time it
    /// runs every task itself; a helper job not yet started when the batch
    /// has committed is taken back.
    ///
    /// When it claims no helper, the batch runs *solo* on the calling thread:
    /// each transaction in turn as one SwissTM transaction
    /// ([`txmem::TxContext::atomic`]), its bodies in program order and a
    /// rollback re-running them all. A task start is counted per body run
    /// and a task commit per body committed, as on the speculative path.
    ///
    /// The call is *scoped*: task bodies may borrow the caller's state, since
    /// every body has been run and dropped by the time it returns.
    ///
    /// A panicking task body unwinds out of a call that started no helper
    /// and aborts the process otherwise: no lane could retire its
    /// transaction.
    ///
    /// # Panics
    ///
    /// Panics, before running anything, if any transaction has more tasks
    /// than the speculative depth (such a transaction could never commit).
    pub fn execute<'a>(&self, txns: Vec<TxnSpec<'a>>) -> Vec<TxnOutcome> {
        let depth = self.shared.spec_depth();
        for spec in &txns {
            assert_task_count(spec.tasks.len() as u64, depth);
        }
        let tasks = txns.iter().map(TxnSpec::len).sum();
        let helpers = self.claim_helpers(tasks, txns.iter().map(TxnSpec::len));
        if helpers.is_empty() {
            // Collected in place: the outcomes reuse the specs' buffer.
            return txns
                .into_iter()
                .map(|spec| {
                    let ((), outcome) = self.solo(spec.len(), |tx| {
                        spec.tasks
                            .iter()
                            .try_for_each(|body| body(&mut TaskCtx::solo(tx.reborrow())))
                    });
                    outcome
                })
                .collect();
        }
        self.speculate(txns, helpers)
    }

    /// Claims the helpers for a batch of `tasks` tasks whose transactions
    /// have the task counts `shapes`: `min(spec_depth, tasks) − 1`, unless
    /// this is a default session and every one of those counts is closed
    /// (then none), and as many of those as the pool lends.
    pub(crate) fn claim_helpers(
        &self,
        tasks: usize,
        mut shapes: impl Iterator<Item = usize>,
    ) -> Vec<Arc<pool::Helper>> {
        let admitted = matches!(self.worker.claim, Claim::Full) || {
            let history = self.history.borrow();
            shapes.any(|n| history.admits(n))
        };
        let want = if admitted {
            tasks.min(self.spec_depth()).saturating_sub(1)
        } else {
            0
        };
        pool::claim(want, self.worker.claim)
    }

    /// Runs one transaction of `tasks` task bodies solo, on the calling
    /// thread: `body` runs them in program order inside one SwissTM
    /// transaction ([`TxContext::atomic`]), and a rollback re-runs them all.
    /// Counts a task start and a task commit per body.
    pub(crate) fn solo<T>(
        &self,
        tasks: usize,
        body: impl FnMut(&mut Transaction<'_>) -> Result<T, Abort>,
    ) -> (T, TxnOutcome) {
        let substrate = &*self.runtime.substrate;
        let stats = substrate.stats.shard(self.shared.ptid());
        let (start_serial, commit_serial) = self.take_serials(tasks);
        stats.task_starts.add(tasks as u64);
        let (value, rollbacks) = self.solo.borrow_mut().atomic(substrate, body);
        stats.task_commits.add(tasks as u64);
        self.history.borrow_mut().after_solo(tasks);
        self.shared.complete_solo(commit_serial);
        let outcome = TxnOutcome {
            start_serial,
            commit_serial,
            rollbacks,
        };
        (value, outcome)
    }

    /// Runs a batch on `helpers` (at least one) and the calling thread: the
    /// speculative path.
    pub(crate) fn speculate<'a>(
        &self,
        txns: Vec<TxnSpec<'a>>,
        helpers: Vec<Arc<pool::Helper>>,
    ) -> Vec<TxnOutcome> {
        let stats = self.runtime.substrate.stats.shard(self.shared.ptid());
        let txns = txns
            .into_iter()
            .map(|spec| {
                stats.tx_starts.inc();
                txobs::tx_begin();
                let (start_serial, commit_serial) = self.take_serials(spec.len());
                BatchTxn {
                    txn: Arc::new(TxnShared::new(
                        Arc::clone(&self.shared),
                        start_serial,
                        commit_serial,
                    )),
                    bodies: spec.tasks,
                }
            })
            .collect();
        let mut batch = Arc::new(Batch::new(txns));
        // Slots stay `serial mod spec_depth`. A lane claims serial s only
        // while s < r + spec_depth, r being the lowest unretired serial, so
        // the claimed and completed-but-unretired serials all lie in
        // r .. r + spec_depth − 1 and occupy distinct slots: serial
        // s + spec_depth reinstalls s's slot only once r > s, i.e. after s's
        // transaction has committed.
        let _abort = AbortOnUnwind;
        // Helpers are pooled `'static` threads, so the batch they claim from
        // travels with its borrow `'a` erased.
        //
        // SAFETY: no helper holds or uses the batch once this call returns,
        // while `'a` is still live:
        // 1. a job taken back below is dropped unstarted, with its clone;
        // 2. a helper that started drops its clone when it leaves
        //    `run_batch` (`Helper::serve`);
        // 3. `speculate` returns only once its clone is the last one
        //    (`Arc::get_mut`, whose acquire load sees every other clone's
        //    release drop), and then drops it, and with it the bodies;
        // 4. `_abort` is live from the first `start` until that wait returns,
        //    so no unwind can skip the wait: a panic aborts the process.
        // Only the lifetimes change, so the layouts are identical.
        // `tests/helper_pool.rs` checks 2 and 3 by counting body references.
        #[allow(unsafe_code)]
        let published = unsafe {
            std::mem::transmute::<Arc<Batch<'a>>, Arc<Batch<'static>>>(Arc::clone(&batch))
        };
        for helper in &helpers {
            helper.start(self.worker.clone(), Arc::clone(&published));
        }
        drop(published);
        self.worker.run_batch(&batch, true);
        for helper in &helpers {
            helper.take_back();
        }
        self.shared
            .wait_until(|| Arc::get_mut(&mut batch).is_some());
        pool::release(helpers, self.worker.claim);
        let mut history = self.history.borrow_mut();
        batch
            .txns
            .iter()
            .map(|BatchTxn { txn, .. }| {
                debug_assert!(txn.is_committed());
                history.after_speculative(txn.n_tasks() as usize, txn.lost_to_past());
                TxnOutcome {
                    start_serial: txn.start_serial(),
                    commit_serial: txn.commit_serial(),
                    rollbacks: txn.rollbacks(),
                }
            })
            .collect()
    }

    /// Hands out the serials of a transaction of `tasks` tasks.
    fn take_serials(&self, tasks: usize) -> (u64, u64) {
        let start_serial = self.next_serial.get();
        let commit_serial = start_serial + tasks as u64 - 1;
        self.next_serial.set(commit_serial + 1);
        (start_serial, commit_serial)
    }

    /// Runs a single user-transaction decomposed into `tasks` and blocks until
    /// it commits.
    pub fn run_transaction(&self, tasks: Vec<TaskFn<'_>>) -> TxnOutcome {
        self.execute(vec![TxnSpec::new(tasks)])
            .pop()
            .expect("execute returns one outcome per submitted transaction")
    }

    /// Runs a single-task user-transaction (a plain STM transaction) and
    /// blocks until it commits.
    pub fn atomic<F>(&self, body: F) -> TxnOutcome
    where
        F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync,
    {
        self.execute(vec![TxnSpec::single(body)])
            .pop()
            .expect("execute returns one outcome per submitted transaction")
    }
}

impl Drop for UThread {
    fn drop(&mut self) {
        // Retire the solo descriptor; late contenders then wait for the
        // (already released) locks.
        self.runtime.substrate.owners.unregister(self.shared.ptid());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::TxMem;

    fn runtime() -> Arc<TlstmRuntime> {
        TlstmRuntime::new(TxConfig::small())
    }

    #[test]
    fn single_task_transaction_commits() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        let outcome = u.atomic(move |ctx| {
            let v = ctx.read(counter)?;
            ctx.write(counter, v + 1)?;
            Ok(())
        });
        assert_eq!(rt.heap().load_committed(counter), 1);
        assert_eq!(outcome.start_serial, 1);
        assert_eq!(outcome.commit_serial, 1);
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, 1);
        assert_eq!(stats.task_commits, 1);
    }

    #[test]
    fn multi_task_transaction_sees_past_task_writes() {
        let rt = runtime();
        let a = rt.heap().alloc(2).unwrap();
        let u = rt.register_uthread(3);
        // Task 1 writes 5 to word0; task 2 must read that speculative value
        // and double it into word1; task 3 commits.
        let t1 = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, 5));
        let t2 = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a)?;
            ctx.write(a.offset(1), v * 2)
        });
        let t3 = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a.offset(1))?;
            ctx.write(a.offset(1), v + 1)
        });
        u.run_transaction(vec![t1, t2, t3]);
        assert_eq!(rt.heap().load_committed(a), 5);
        assert_eq!(rt.heap().load_committed(a.offset(1)), 11);
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, 1);
        assert_eq!(stats.task_commits, 3);
    }

    #[test]
    fn sequential_semantics_across_many_tasks() {
        // Each task increments the same counter; the result must equal the
        // task count even though tasks run speculatively out of order.
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(4);
        let bump = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(counter)?;
            ctx.write(counter, v + 1)
        });
        let txns: Vec<TxnSpec> = (0..8)
            .map(|_| TxnSpec::new(vec![bump.clone(), bump.clone()]))
            .collect();
        let outcomes = u.execute(txns);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(rt.heap().load_committed(counter), 16);
        assert_eq!(rt.stats().tx_commits, 8);
    }

    #[test]
    fn pipelined_transactions_commit_in_order() {
        let rt = runtime();
        let log = rt.heap().alloc(8).unwrap();
        let cursor = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        // Each transaction appends its id to a log; program order must be
        // preserved even with speculative execution of future transactions.
        let txns: Vec<TxnSpec> = (0..6u64)
            .map(|id| {
                TxnSpec::single(move |ctx: &mut TaskCtx<'_>| {
                    let pos = ctx.read(cursor)?;
                    ctx.write(log.offset(pos), id + 100)?;
                    ctx.write(cursor, pos + 1)
                })
            })
            .collect();
        u.execute(txns);
        assert_eq!(rt.heap().load_committed(cursor), 6);
        for i in 0..6 {
            assert_eq!(rt.heap().load_committed(log.offset(i)), 100 + i);
        }
    }

    #[test]
    fn read_only_transactions_return_consistent_values() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        rt.heap().store_committed(a, 77);
        let u = rt.register_uthread(3);
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let t = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a)?;
            seen2.store(v, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        });
        u.run_transaction(vec![t.clone(), t.clone(), t]);
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 77);
        assert_eq!(rt.stats().tx_commits, 1);
    }

    #[test]
    fn intra_thread_waw_is_resolved_in_program_order() {
        // Two tasks of the same transaction write the same word; the later
        // task's value must win regardless of speculative scheduling.
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        for round in 0..10u64 {
            let first = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, round * 10 + 1));
            let second = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, round * 10 + 2));
            u.run_transaction(vec![first, second]);
            assert_eq!(rt.heap().load_committed(a), round * 10 + 2);
        }
    }

    #[test]
    fn inter_thread_conflicts_preserve_atomicity() {
        // Two TLSTM user-threads hammer the same counter with 2-task
        // transactions; the final count must be exact.
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let per_thread = 100u64;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let u = rt.register_uthread(2);
                    let bump = task(move |ctx: &mut TaskCtx<'_>| {
                        let v = ctx.read(counter)?;
                        ctx.write(counter, v + 1)
                    });
                    for _ in 0..per_thread {
                        u.run_transaction(vec![bump.clone(), bump.clone()]);
                    }
                });
            }
        });
        assert_eq!(rt.heap().load_committed(counter), 2 * 2 * per_thread);
    }

    #[test]
    fn user_retry_aborts_and_reexecutes_the_transaction() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        let attempts = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let attempts2 = Arc::clone(&attempts);
        let t = task(move |ctx: &mut TaskCtx<'_>| {
            let n = attempts2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ctx.write(a, n)?;
            if n == 0 {
                return Err(Abort::user_retry());
            }
            Ok(())
        });
        u.run_transaction(vec![t]);
        assert!(attempts.load(std::sync::atomic::Ordering::Relaxed) >= 2);
        assert!(rt.heap().load_committed(a) >= 1);
    }

    #[test]
    fn oversized_transaction_panics() {
        // Whatever helpers it would get, a transaction the speculative depth
        // cannot hold — or an empty one — is refused with the same message,
        // and a batch that holds one commits nothing.
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let t = task(|_ctx: &mut TaskCtx<'_>| Ok(()));
        let ok = TxnSpec::single(move |ctx: &mut TaskCtx<'_>| ctx.write(a, 1));
        for claim in [Claim::Full, Claim::Idle] {
            for (tasks, expected) in [
                (vec![t.clone(); 3], "cannot run under speculative depth 2"),
                (Vec::new(), "needs at least one task"),
            ] {
                let u = rt.new_uthread(2, claim);
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    u.execute(vec![ok.clone(), TxnSpec { tasks }]);
                }))
                .expect_err("a malformed transaction must be refused");
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .expect("assertion message");
                assert!(message.contains(expected), "{claim:?}: {message}");
                assert_eq!(rt.heap().load_committed(a), 0, "{claim:?}");
            }
        }
    }

    #[test]
    fn uthread_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<UThread>();
    }

    #[test]
    fn only_default_registration_consults_the_host() {
        // An explicit depth always gets every helper it asks for; a default
        // session gets idle helpers only, at most `cores − 1` of them out at
        // once. Either way every task runs as its own task.
        let full = pool::claim(3, Claim::Full);
        assert_eq!(full.len(), 3);
        pool::release(full, Claim::Full);
        let cap = txmem::pause::cores() - 1;
        let idle = pool::claim(cap + 3, Claim::Idle);
        assert!(
            idle.len() <= cap,
            "{} idle helpers over a cap of {cap}",
            idle.len()
        );
        pool::release(idle, Claim::Idle);
        let rt = runtime();
        let t = task(|_ctx: &mut TaskCtx<'_>| Ok(()));
        for u in [rt.register_uthread(3), rt.register_uthread_default()] {
            let before = rt.stats();
            u.run_transaction(vec![t.clone(); 3]);
            let window = rt.stats().delta_since(&before);
            assert_eq!((window.tx_commits, window.task_commits), (1, 3));
        }
    }

    #[test]
    fn merged_tasks_preserve_program_order_semantics() {
        // The tasks of one transaction commit as one, in program order. A
        // default session gets at most `cores − 1` helpers (none under
        // `taskset -c 0`), yet a transaction of `cores + 1` tasks still runs
        // as that many tasks: the lanes there are claim them one by one. The
        // second task's write must win over the first's.
        let k = txmem::pause::cores() + 1;
        let rt = TlstmRuntime::new(TxConfig {
            spec_depth: k,
            ..TxConfig::small()
        });
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread_default();
        let mut tasks = vec![task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, 1))];
        tasks.push(task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a)?;
            ctx.write(a, v + 41)
        }));
        tasks.resize(k, task(|_ctx: &mut TaskCtx<'_>| Ok(())));
        for round in 1..=20u64 {
            let before = rt.stats();
            let outcome = u.run_transaction(tasks.clone());
            let window = rt.stats().delta_since(&before);
            assert_eq!(rt.heap().load_committed(a), 42, "round {round}");
            assert_eq!(outcome.commit_serial - outcome.start_serial + 1, k as u64);
            assert_eq!(window.tx_commits, 1, "round {round}");
            assert_eq!(window.task_commits, k as u64, "round {round}");
        }
    }

    #[test]
    fn a_commit_task_rollback_reopens_the_completed_tasks_claims() {
        // Task 1 reads `x` and writes `y`, and completes. The commit-task then
        // has another user-thread commit a write to `x` (first attempt only),
        // so the transaction's commit-time validation fails with task 1
        // completed and holding its write: the commit-task rolls back alone,
        // dismantles task 1's entry and re-opens its claim.
        for registration in [Claim::Full, Claim::Idle] {
            let rt = runtime();
            // A lock each, so the other user-thread's write meets no lock
            // of this one.
            let stride = txmem::WORDS_PER_LOCK;
            let words = rt.heap().alloc(3 * stride).unwrap();
            let (x, y, z) = (words, words.offset(stride), words.offset(2 * stride));
            let other = parking_lot::Mutex::new(rt.register_uthread(1));
            let u = rt.new_uthread(2, registration);
            let first_runs = std::sync::atomic::AtomicU64::new(0);
            let commit_runs = std::sync::atomic::AtomicU64::new(0);
            let before = rt.stats();
            let first = task(|ctx: &mut TaskCtx<'_>| {
                let v = ctx.read(x)?;
                ctx.write(y, v + 10)?;
                first_runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(())
            });
            let commit = task(|ctx: &mut TaskCtx<'_>| {
                if commit_runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    // Task 1 has read `x` once this attempt sees `y`.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while first_runs.load(std::sync::atomic::Ordering::SeqCst) == 0
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    other.lock().atomic(move |ctx| ctx.write(x, 1));
                }
                let v = ctx.read(y)?;
                ctx.write(z, v * 2)
            });
            let outcome = u.run_transaction(vec![first, commit]);
            let window = rt.stats().delta_since(&before);
            assert_eq!(rt.heap().load_committed(y), 11, "{registration:?}");
            assert_eq!(rt.heap().load_committed(z), 22, "{registration:?}");
            assert_eq!(window.tx_aborts, 1, "{registration:?}: {window}");
            assert_eq!(outcome.rollbacks, 1, "{registration:?}");
            assert_eq!(
                first_runs.into_inner(),
                2,
                "{registration:?}: task 1 re-ran once"
            );
            // The other user-thread's transaction and this one.
            assert_eq!(window.tx_commits, 2, "{registration:?}");
        }
    }
}
