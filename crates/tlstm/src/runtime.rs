//! The TLSTM runtime and the user-thread handle.

use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use swisstm::cm::GreedyTicket;
use txmem::{Abort, DirectMem, StatsSnapshot, ThreadIdAllocator, TxConfig, TxHeap, TxSubstrate};

use crate::cm::TaskAwareCm;
use crate::task::TaskCtx;
use crate::txn_state::TxnShared;
use crate::uthread_state::UThreadShared;
use crate::worker::{WorkItem, Worker};
use crate::TaskFn;

/// Wraps a closure into a [`TaskFn`] (convenience for building [`TxnSpec`]s).
pub fn task<F>(f: F) -> TaskFn
where
    F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'static,
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
pub struct TxnSpec {
    tasks: Vec<TaskFn>,
}

impl TxnSpec {
    /// Builds a user-transaction from its tasks, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(tasks: Vec<TaskFn>) -> Self {
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
        F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'static,
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

impl std::fmt::Debug for TxnSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnSpec")
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

/// Consecutive stormy batches (at least one whole-transaction rollback in
/// the batch) before [`UThread::execute`] falls back to sequential plan
/// execution. Chosen low: on a single core a rollback storm has no upside,
/// and one merged batch re-probes speculation cheaply after the cooldown.
const STORM_STREAK_THRESHOLD: u32 = 3;

/// Batches executed sequentially (tasks merged) before speculation is
/// re-probed. Amortises the cost of the occasional stormy re-probe without
/// permanently giving up on speculative execution.
const STORM_COOLDOWN_BATCHES: u32 = 64;

/// Upper bound on the geometrically-escalating cooldown window (see
/// [`UThread::arm_storm_cooldown`]). A workload that storms on every
/// re-probe settles into sequential stretches of this many batches.
const STORM_COOLDOWN_MAX: u32 = 32 * 1024;

/// Whole-transaction rollbacks of a single in-flight batch that trip the
/// detector mid-batch (the batch is re-executing wholesale).
const STORM_BATCH_ROLLBACKS: u32 = 2;

/// Contention-manager self-aborts of a single in-flight transaction that
/// trip the detector mid-batch. A livelocked `c64`-style batch racks these
/// up at tens per millisecond, so this threshold fires within a few tens of
/// milliseconds while healthy batches stay far below it.
const STORM_CM_RETRIES: u32 = 512;

/// After a batch has been in flight this long, lower-grade churn (any
/// rollback, or [`STORM_PATIENCE_CM_RETRIES`] CM self-aborts) also counts as
/// a storm. Pure slowness without churn never trips the detector.
const STORM_PATIENCE: std::time::Duration = std::time::Duration::from_millis(250);

/// CM self-abort floor for the patience-based trip.
const STORM_PATIENCE_CM_RETRIES: u32 = 64;

/// `true` if any in-flight transaction of the batch shows storm-grade churn.
fn batch_storming(pending: &[Arc<TxnShared>], elapsed: std::time::Duration) -> bool {
    let patient = elapsed >= STORM_PATIENCE;
    pending.iter().any(|txn| {
        !txn.is_committed()
            && (txn.rollbacks() >= STORM_BATCH_ROLLBACKS
                || txn.cm_retries() >= STORM_CM_RETRIES
                || (patient
                    && (txn.rollbacks() > 0 || txn.cm_retries() >= STORM_PATIENCE_CM_RETRIES)))
    })
}

/// Merges a transaction's tasks into one composite task that runs the bodies
/// in program order. Sequential semantics are unchanged — tasks already
/// observe earlier tasks' writes, and an abort re-executes every body — but
/// the merged form cannot suffer intra-transaction conflicts, which is what
/// the abort-storm fallback needs.
fn merge_sequential(spec: TxnSpec) -> TxnSpec {
    if spec.tasks.len() <= 1 {
        return spec;
    }
    let tasks = spec.tasks;
    TxnSpec {
        tasks: vec![Arc::new(move |ctx: &mut TaskCtx<'_>| {
            for body in &tasks {
                body(ctx)?;
            }
            Ok(())
        })],
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
#[derive(Debug)]
pub struct TlstmRuntime {
    substrate: Arc<TxSubstrate>,
    ptids: ThreadIdAllocator,
    tickets: Arc<GreedyTicket>,
    cm: TaskAwareCm,
}

impl TlstmRuntime {
    /// Creates a runtime with a fresh substrate built from `config`.
    pub fn new(config: TxConfig) -> Arc<Self> {
        Self::with_substrate(Arc::new(TxSubstrate::new(config)))
    }

    /// Creates a runtime over an existing substrate.
    pub fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        Arc::new(TlstmRuntime {
            substrate,
            ptids: ThreadIdAllocator::new(),
            tickets: Arc::new(GreedyTicket::new()),
            cm: TaskAwareCm::default(),
        })
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

    /// Per-shard statistics snapshots: entry `i` aggregates the activity of
    /// the user-threads whose `ptid` is `i` modulo the shard count (worker
    /// threads attribute their task activity to the owning user-thread).
    pub fn stats_per_shard(&self) -> Vec<StatsSnapshot> {
        self.substrate.stats.shard_snapshots()
    }

    /// Resets the global statistics counters.
    pub fn reset_stats(&self) {
        self.substrate.stats.reset();
    }

    /// Registers a user-thread with the substrate's default speculative depth.
    pub fn register_uthread_default(self: &Arc<Self>) -> UThread {
        self.register_uthread(self.substrate.config.spec_depth)
    }

    /// Registers a user-thread with an explicit speculative depth
    /// (`SPECDEPTH`): the maximum number of simultaneously active tasks, and
    /// therefore also the number of worker threads spawned for it.
    ///
    /// # Panics
    ///
    /// Panics if `spec_depth` is zero.
    pub fn register_uthread(self: &Arc<Self>, spec_depth: usize) -> UThread {
        let ptid = self.ptids.allocate();
        let shared = Arc::new(UThreadShared::new(ptid, spec_depth));
        let new_worker = || Worker {
            substrate: Arc::clone(&self.substrate),
            uthread: Arc::clone(&shared),
            cm: self.cm,
            tickets: Arc::clone(&self.tickets),
        };
        let mut senders = Vec::with_capacity(spec_depth);
        let mut workers = Vec::with_capacity(spec_depth);
        for lane in 0..spec_depth {
            let (tx, rx): (Sender<WorkItem>, Receiver<WorkItem>) = unbounded();
            let worker = new_worker();
            let handle = std::thread::Builder::new()
                .name(format!("tlstm-u{ptid}-w{lane}"))
                .spawn(move || worker.run(rx))
                .expect("failed to spawn TLSTM worker thread");
            senders.push(tx);
            workers.push(handle);
        }
        let (done_tx, done_rx) = unbounded();
        UThread {
            runtime: Arc::clone(self),
            inline: new_worker(),
            shared,
            senders,
            workers,
            next_serial: Cell::new(1),
            done_tx,
            done_rx,
            // Speculation on a single core cannot overlap tasks on other
            // cores, so a rollback storm there is pure livelock; on
            // multi-core hosts the fallback stays disarmed and speculative
            // execution is never degraded.
            storm_enabled: Cell::new(!txmem::pause::multi_core()),
            storm_streak: Cell::new(0),
            storm_cooldown: Cell::new(0),
            storm_cooldown_len: Cell::new(STORM_COOLDOWN_BATCHES),
            storm_fallbacks: Cell::new(0),
        }
    }
}

/// A TLSTM user-thread: the handle the application uses to submit
/// user-transactions, which the runtime decomposes onto `SPECDEPTH` worker
/// threads.
///
/// The handle is `Send` (it can be moved to the application thread that drives
/// it) but not `Sync`; each user-thread is driven by one application thread,
/// exactly as in the paper's model.
#[derive(Debug)]
pub struct UThread {
    runtime: Arc<TlstmRuntime>,
    shared: Arc<UThreadShared>,
    /// Runs the sequential-fallback transactions on the driving thread.
    inline: Worker,
    senders: Vec<Sender<WorkItem>>,
    workers: Vec<JoinHandle<()>>,
    next_serial: Cell<u64>,
    done_tx: Sender<u64>,
    done_rx: Receiver<u64>,
    // Abort-storm fallback state. Plain `Cell`s: a `UThread` is `Send` but
    // not `Sync`, so these are only ever touched by the driving thread.
    storm_enabled: Cell<bool>,
    storm_streak: Cell<u32>,
    storm_cooldown: Cell<u32>,
    storm_cooldown_len: Cell<u32>,
    storm_fallbacks: Cell<u64>,
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

    /// Whether the abort-storm sequential fallback is armed. Defaults to
    /// armed only on single-core hosts (where a rollback storm is livelock
    /// by construction); on multi-core hosts the fallback is unreachable.
    pub fn storm_fallback_enabled(&self) -> bool {
        self.storm_enabled.get()
    }

    /// Overrides the abort-storm fallback arming (tests and experiments).
    /// Disarming also clears any in-progress streak or cooldown, so the next
    /// batch runs fully speculative.
    pub fn set_storm_fallback(&self, enabled: bool) {
        self.storm_enabled.set(enabled);
        if !enabled {
            self.storm_streak.set(0);
            self.storm_cooldown.set(0);
            self.storm_cooldown_len.set(STORM_COOLDOWN_BATCHES);
        }
    }

    /// `true` while the user-thread is inside a sequential-fallback cooldown
    /// window (the next [`execute`](UThread::execute) call merges tasks).
    pub fn storm_active(&self) -> bool {
        self.storm_cooldown.get() > 0
    }

    /// Number of batches this user-thread has executed sequentially because
    /// the abort-storm detector tripped.
    pub fn storm_fallbacks(&self) -> u64 {
        self.storm_fallbacks.get()
    }

    /// Submits a batch of user-transactions for (speculative, pipelined)
    /// execution and blocks until every one of them has committed.
    ///
    /// Transactions in the batch are executed in program order, but their
    /// tasks — including tasks of *future* transactions — run speculatively in
    /// parallel up to the speculative depth.
    ///
    /// On single-core hosts an abort-storm detector watches for consecutive
    /// batches that suffer whole-transaction rollbacks; after
    /// `STORM_STREAK_THRESHOLD` stormy batches in a row the next
    /// `STORM_COOLDOWN_BATCHES` batches run with each transaction's tasks
    /// merged into one (sequential plan execution, identical semantics),
    /// which breaks the intra-batch conflict livelock. Speculation is
    /// re-probed when the cooldown expires.
    ///
    /// # Panics
    ///
    /// Panics if any transaction has more tasks than the speculative depth
    /// (such a transaction could never commit).
    pub fn execute(&self, txns: Vec<TxnSpec>) -> Vec<TxnOutcome> {
        if self.storm_enabled.get() && self.storm_cooldown.get() > 0 {
            self.storm_cooldown.set(self.storm_cooldown.get() - 1);
            self.storm_fallbacks.set(self.storm_fallbacks.get() + 1);
            return self.execute_sequential(txns);
        }
        let stats = self.runtime.substrate.stats.shard(self.shared.ptid());
        let mut pending: Vec<Arc<TxnShared>> = Vec::with_capacity(txns.len());
        // When the storm detector is armed, keep each transaction's bodies
        // (cheap `Arc` clones): if the detector abandons the batch mid-flight
        // the transactions are re-run sequentially from these.
        let mut retained: Vec<Vec<TaskFn>> = Vec::new();
        if self.storm_enabled.get() {
            retained.reserve(txns.len());
        }
        let mut total_tasks = 0usize;
        for spec in txns {
            stats.bump(&stats.tx_starts);
            txobs::tx_begin();
            if self.storm_enabled.get() {
                retained.push(spec.tasks.clone());
            }
            let n = spec.tasks.len() as u64;
            let start_serial = self.next_serial.get();
            let commit_serial = start_serial + n - 1;
            self.next_serial.set(commit_serial + 1);
            let txn = Arc::new(TxnShared::new(
                Arc::clone(&self.shared),
                start_serial,
                commit_serial,
            ));
            for (offset, body) in spec.tasks.into_iter().enumerate() {
                let serial = start_serial + offset as u64;
                let item = WorkItem {
                    serial,
                    txn: Arc::clone(&txn),
                    body,
                    done: self.done_tx.clone(),
                };
                let lane = (serial as usize) % self.senders.len();
                self.senders[lane]
                    .send(item)
                    .expect("TLSTM worker thread terminated unexpectedly");
                total_tasks += 1;
            }
            pending.push(txn);
        }
        let mut received = 0usize;
        let mut idle_spins = 0u32;
        let batch_started = std::time::Instant::now();
        let mut storm_tripped = false;
        // Spinning before the blocking receive only pays off when the worker
        // threads can retire tasks on other cores in the meantime.
        let spin_budget = if txmem::pause::multi_core() {
            4_000u32
        } else {
            0
        };
        while received < total_tasks {
            // Spin briefly first: task retirement is usually imminent, and a
            // blocking receive would put an OS wake-up on every transaction's
            // critical path.
            match self.done_rx.try_recv() {
                Ok(_) => {
                    received += 1;
                    idle_spins = 0;
                    continue;
                }
                Err(crossbeam::channel::TryRecvError::Empty) => {}
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    panic!("TLSTM worker channels disconnected unexpectedly");
                }
            }
            idle_spins += 1;
            if idle_spins < spin_budget {
                if idle_spins % 256 == 255 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            // A livelocked batch retires tasks rarely, so an armed detector
            // must wake often enough to sample the in-flight transactions; a
            // healthy or already-tripped batch can sleep the full watchdog
            // interval.
            let slice = if self.storm_enabled.get() && !storm_tripped {
                std::time::Duration::from_millis(10)
            } else {
                std::time::Duration::from_millis(500)
            };
            match self.done_rx.recv_timeout(slice) {
                Ok(_) => {
                    received += 1;
                    idle_spins = 0;
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    // A panicking worker would otherwise turn into a silent
                    // hang: surface it as a loud failure instead.
                    if self.workers.iter().any(|w| w.is_finished()) {
                        panic!("a TLSTM worker thread terminated unexpectedly (task panicked?)");
                    }
                    if self.storm_enabled.get()
                        && !storm_tripped
                        && batch_storming(&pending, batch_started.elapsed())
                    {
                        // The batch is livelocking right now: abandon
                        // speculative execution of everything still in
                        // flight. The requested rollback dismantles the
                        // tasks' speculative state (releasing every held
                        // write lock), the workers then vacate their tasks,
                        // and once the lanes have drained the transactions
                        // are re-run sequentially below.
                        storm_tripped = true;
                        self.storm_streak.set(STORM_STREAK_THRESHOLD);
                        self.arm_storm_cooldown();
                        for txn in &pending {
                            if !txn.is_committed() {
                                txn.set_abandoned();
                                txn.request_abort();
                            }
                        }
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    panic!("TLSTM worker channels disconnected unexpectedly");
                }
            }
        }
        let outcomes: Vec<TxnOutcome> = if storm_tripped {
            self.finish_abandoned(pending, retained)
        } else {
            pending
                .into_iter()
                .map(|txn| {
                    debug_assert!(txn.is_committed());
                    TxnOutcome {
                        start_serial: txn.start_serial(),
                        commit_serial: txn.commit_serial(),
                        rollbacks: txn.rollbacks(),
                    }
                })
                .collect()
        };
        if self.storm_enabled.get() {
            // A "stormy" batch is one that needed at least one whole-batch
            // re-execution. Streaks only accumulate over speculative batches
            // (cooldown batches neither extend nor reset them), and tripping
            // does not clear the streak: if the re-probe after a cooldown
            // storms again, the fallback re-engages after a single batch.
            if outcomes.iter().any(|o| o.rollbacks > 0) {
                let streak = self.storm_streak.get().saturating_add(1);
                self.storm_streak.set(streak);
                if streak >= STORM_STREAK_THRESHOLD && self.storm_cooldown.get() == 0 {
                    self.arm_storm_cooldown();
                }
            } else {
                self.storm_streak.set(0);
            }
        }
        outcomes
    }

    /// Completes a batch whose speculative execution the storm detector
    /// abandoned: transactions that still managed to commit keep their
    /// outcome, and the abandoned ones (fully rolled back, their worker
    /// lanes vacated) are re-run sequentially on this thread in program
    /// order.
    fn finish_abandoned(
        &self,
        pending: Vec<Arc<TxnShared>>,
        retained: Vec<Vec<TaskFn>>,
    ) -> Vec<TxnOutcome> {
        debug_assert_eq!(pending.len(), retained.len());
        let mut bufs = crate::task::TaskBufs::default();
        let mut outcomes = Vec::with_capacity(pending.len());
        for (txn, bodies) in pending.into_iter().zip(retained) {
            if txn.is_committed() {
                // A batch-mate's rollback may have clamped the completion
                // counter below this transaction's (already committed)
                // serials; restore it so later replacements and the next
                // batch observe their predecessors as complete.
                self.shared.mark_completed(txn.commit_serial(), false);
                outcomes.push(TxnOutcome {
                    start_serial: txn.start_serial(),
                    commit_serial: txn.commit_serial(),
                    rollbacks: txn.rollbacks(),
                });
                continue;
            }
            debug_assert!(txn.abandoned());
            // The transaction's own serials were rolled back and its tasks
            // vacated; run its replacement as a single merged task at the
            // original commit serial, skipping the vacated intermediate
            // serials so the commit-order invariant (`completed_task >=
            // serial - 1`) holds for the replacement and for later
            // transactions of the batch.
            let commit_serial = txn.commit_serial();
            self.shared.mark_completed(commit_serial - 1, false);
            let merged = merge_sequential(TxnSpec { tasks: bodies });
            let replacement = Arc::new(TxnShared::new(
                Arc::clone(&self.shared),
                commit_serial,
                commit_serial,
            ));
            self.inline
                .run_task(&replacement, commit_serial, &merged.tasks[0], &mut bufs);
            debug_assert!(replacement.is_committed());
            outcomes.push(TxnOutcome {
                start_serial: txn.start_serial(),
                commit_serial,
                rollbacks: txn.rollbacks().saturating_add(replacement.rollbacks()),
            });
        }
        outcomes
    }

    /// Arms (or re-arms) a sequential-fallback cooldown window. Each re-trip
    /// lengthens the next window geometrically: a workload that keeps
    /// storming every time speculation is re-probed converges to long
    /// sequential stretches with rare, cheap probes, instead of paying a
    /// collapse-and-drain cycle every [`STORM_COOLDOWN_BATCHES`] batches.
    fn arm_storm_cooldown(&self) {
        let len = self.storm_cooldown_len.get();
        self.storm_cooldown.set(len);
        self.storm_cooldown_len
            .set(len.saturating_mul(8).min(STORM_COOLDOWN_MAX));
        self.storm_fallbacks.set(self.storm_fallbacks.get() + 1);
    }

    /// Executes a cooldown batch sequentially: every transaction is merged
    /// into a single task and run start-to-commit on the calling thread.
    ///
    /// Semantics are identical to speculative execution (tasks already
    /// observe earlier tasks' writes, aborts re-execute the whole
    /// transaction), but there are no cross-thread task handoffs — on the
    /// saturated single-core hosts where the abort-storm fallback engages,
    /// those handoffs cost more than the transactions themselves.
    fn execute_sequential(&self, txns: Vec<TxnSpec>) -> Vec<TxnOutcome> {
        let stats = self.runtime.substrate.stats.shard(self.shared.ptid());
        let mut bufs = crate::task::TaskBufs::default();
        let mut outcomes = Vec::with_capacity(txns.len());
        for spec in txns {
            let spec = merge_sequential(spec);
            stats.bump(&stats.tx_starts);
            txobs::tx_begin();
            let start_serial = self.next_serial.get();
            self.next_serial.set(start_serial + 1);
            let txn = Arc::new(TxnShared::new(
                Arc::clone(&self.shared),
                start_serial,
                start_serial,
            ));
            self.inline
                .run_task(&txn, start_serial, &spec.tasks[0], &mut bufs);
            debug_assert!(txn.is_committed());
            outcomes.push(TxnOutcome {
                start_serial,
                commit_serial: start_serial,
                rollbacks: txn.rollbacks(),
            });
        }
        outcomes
    }

    /// Runs a single user-transaction decomposed into `tasks` and blocks until
    /// it commits.
    pub fn run_transaction(&self, tasks: Vec<TaskFn>) -> TxnOutcome {
        self.execute(vec![TxnSpec::new(tasks)])
            .pop()
            .expect("execute returns one outcome per submitted transaction")
    }

    /// Runs a single-task user-transaction (a plain STM transaction) and
    /// blocks until it commits.
    pub fn atomic<F>(&self, body: F) -> TxnOutcome
    where
        F: Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'static,
    {
        self.execute(vec![TxnSpec::single(body)])
            .pop()
            .expect("execute returns one outcome per submitted transaction")
    }
}

impl Drop for UThread {
    fn drop(&mut self) {
        // Closing the queues makes the workers' `recv` fail and terminates
        // their loops.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
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
        let mut drivers = Vec::new();
        for _ in 0..2 {
            let rt = Arc::clone(&rt);
            drivers.push(std::thread::spawn(move || {
                let u = rt.register_uthread(2);
                let bump = task(move |ctx: &mut TaskCtx<'_>| {
                    let v = ctx.read(counter)?;
                    ctx.write(counter, v + 1)
                });
                for _ in 0..per_thread {
                    u.run_transaction(vec![bump.clone(), bump.clone()]);
                }
            }));
        }
        for d in drivers {
            d.join().unwrap();
        }
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
        let rt = runtime();
        let u = rt.register_uthread(2);
        let t = task(|_ctx: &mut TaskCtx<'_>| Ok(()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.run_transaction(vec![t.clone(), t.clone(), t.clone()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn uthread_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<UThread>();
    }

    /// One batch whose only transaction suffers exactly one
    /// whole-transaction rollback: the single (commit) task aborts with the
    /// transaction-abort signal on its first execution, which makes it drive
    /// the rollback protocol itself, then succeeds on the retry.
    fn run_stormy_batch(u: &UThread, counter: txmem::WordAddr) -> TxnOutcome {
        let aborted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let outcome = u
            .execute(vec![TxnSpec::single(move |ctx: &mut TaskCtx<'_>| {
                if !aborted.swap(true, std::sync::atomic::Ordering::Relaxed) {
                    return Err(Abort::new(txmem::AbortReason::TransactionAbortSignal));
                }
                let v = ctx.read(counter)?;
                ctx.write(counter, v + 1)
            })])
            .pop()
            .unwrap();
        assert!(outcome.rollbacks >= 1, "batch must have been stormy");
        outcome
    }

    #[test]
    fn abort_storm_trips_the_sequential_fallback() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        u.set_storm_fallback(true);
        assert!(!u.storm_active());
        for _ in 0..STORM_STREAK_THRESHOLD {
            assert!(!u.storm_active());
            run_stormy_batch(&u, counter);
        }
        assert!(
            u.storm_active(),
            "K consecutive stormy batches must trip it"
        );
        // Fallback batches run with merged tasks but identical semantics.
        let bump = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(counter)?;
            ctx.write(counter, v + 1)
        });
        let txns: Vec<TxnSpec> = (0..4)
            .map(|_| TxnSpec::new(vec![bump.clone(), bump.clone()]))
            .collect();
        let outcomes = u.execute(txns);
        assert_eq!(outcomes.len(), 4);
        assert!(u.storm_fallbacks() >= 1);
        assert_eq!(
            rt.heap().load_committed(counter),
            STORM_STREAK_THRESHOLD as u64 + 8
        );
        // The cooldown expires after STORM_COOLDOWN_BATCHES batches and
        // speculation is re-probed.
        for _ in 0..STORM_COOLDOWN_BATCHES {
            let _ = u.execute(vec![TxnSpec::single(move |ctx: &mut TaskCtx<'_>| {
                let v = ctx.read(counter)?;
                ctx.write(counter, v + 1)
            })]);
            if !u.storm_active() {
                break;
            }
        }
        assert!(!u.storm_active(), "cooldown must expire");
    }

    #[test]
    fn interrupted_storms_do_not_trip_the_fallback() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        u.set_storm_fallback(true);
        // Clean batches between stormy ones reset the streak.
        for _ in 0..3 {
            run_stormy_batch(&u, counter);
            run_stormy_batch(&u, counter);
            u.atomic(move |ctx| {
                let v = ctx.read(counter)?;
                ctx.write(counter, v + 1)
            });
            assert!(!u.storm_active());
        }
    }

    #[test]
    fn disarmed_detector_never_falls_back() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        u.set_storm_fallback(false);
        assert!(!u.storm_fallback_enabled());
        for _ in 0..4 * STORM_STREAK_THRESHOLD {
            run_stormy_batch(&u, counter);
        }
        assert!(!u.storm_active());
        assert_eq!(u.storm_fallbacks(), 0);
    }

    #[test]
    fn merged_tasks_preserve_program_order_semantics() {
        // Force the fallback on and re-run the write-after-write pattern:
        // the later task's value must still win inside the merged task.
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        u.set_storm_fallback(true);
        for _ in 0..STORM_STREAK_THRESHOLD {
            run_stormy_batch(&u, counter);
        }
        assert!(u.storm_active());
        let first = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, 1));
        let second = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a)?;
            ctx.write(a, v + 41)
        });
        u.run_transaction(vec![first, second]);
        assert_eq!(rt.heap().load_committed(a), 42);
    }
}
