//! The TLSTM runtime and the user-thread handle.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use swisstm::cm::GreedyTicket;
use txmem::{Abort, DirectMem, StatsSnapshot, ThreadIdAllocator, TxConfig, TxHeap, TxSubstrate};

use crate::cm::TaskAwareCm;
use crate::task::{TaskBufs, TaskCtx};
use crate::txn_state::{assert_task_count, TxnShared};
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

/// Merges a transaction's tasks into one composite task that runs the bodies
/// in program order. Sequential semantics are unchanged — tasks already
/// observe earlier tasks' writes, and an abort re-executes every body — but
/// the merged form needs no task hand-off and cannot suffer
/// intra-transaction conflicts.
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

    /// Registers a user-thread with the substrate's default speculative
    /// depth, letting the host decide where its tasks run: with a spare core
    /// ([`txmem::pause::multi_core`]) it gets `spec_depth` worker lanes and
    /// speculates; without one it gets none, and [`UThread::execute`] runs
    /// every transaction's tasks merged in program order on the calling
    /// thread — speculation that cannot overlap anything only adds hand-offs
    /// and conflicts. This is the constructor behind [`TxRuntime::session`],
    /// i.e. the one everything that serves traffic uses.
    ///
    /// [`TxRuntime::session`]: txmem::TxRuntime::session
    pub fn register_uthread_default(self: &Arc<Self>) -> UThread {
        self.new_uthread(self.substrate.config.spec_depth, txmem::pause::multi_core())
    }

    /// Registers a user-thread with an explicit speculative depth
    /// (`SPECDEPTH`): the maximum number of simultaneously active tasks, and
    /// therefore also the number of worker threads spawned for it. Here the
    /// caller decides: the user-thread speculates on exactly `spec_depth`
    /// lanes whatever the host looks like (protocol tests and ablation
    /// benchmarks rely on that).
    ///
    /// # Panics
    ///
    /// Panics if `spec_depth` is zero.
    pub fn register_uthread(self: &Arc<Self>, spec_depth: usize) -> UThread {
        self.new_uthread(spec_depth, true)
    }

    /// Builds a user-thread of depth `spec_depth` with one worker lane per
    /// task slot (`lanes`), or with none.
    fn new_uthread(self: &Arc<Self>, spec_depth: usize, lanes: bool) -> UThread {
        let ptid = self.ptids.allocate();
        let shared = Arc::new(UThreadShared::new(ptid, spec_depth));
        let new_worker = || Worker {
            substrate: Arc::clone(&self.substrate),
            uthread: Arc::clone(&shared),
            cm: self.cm,
            tickets: Arc::clone(&self.tickets),
        };
        let n_lanes = if lanes { spec_depth } else { 0 };
        let mut senders = Vec::with_capacity(n_lanes);
        let mut workers = Vec::with_capacity(n_lanes);
        for lane in 0..n_lanes {
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
            inline_bufs: RefCell::default(),
            shared,
            senders,
            workers,
            next_serial: Cell::new(1),
            done_tx,
            done_rx,
        }
    }
}

/// A TLSTM user-thread: the handle the application uses to submit
/// user-transactions, which the runtime decomposes onto `SPECDEPTH` worker
/// threads — or, when it was registered without lanes (see
/// [`TlstmRuntime::register_uthread_default`]), runs on the calling thread.
///
/// The handle is `Send` (it can be moved to the application thread that drives
/// it) but not `Sync`; each user-thread is driven by one application thread,
/// exactly as in the paper's model.
#[derive(Debug)]
pub struct UThread {
    runtime: Arc<TlstmRuntime>,
    shared: Arc<UThreadShared>,
    /// Runs the transactions of a lane-less user-thread on the driving
    /// thread, in `inline_bufs` (recycled across batches, as a lane worker
    /// recycles its own).
    inline: Worker,
    inline_bufs: RefCell<TaskBufs>,
    /// One queue per worker lane; empty for a lane-less user-thread.
    senders: Vec<Sender<WorkItem>>,
    workers: Vec<JoinHandle<()>>,
    next_serial: Cell<u64>,
    done_tx: Sender<u64>,
    done_rx: Receiver<u64>,
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
    /// Transactions in the batch are executed in program order, but their
    /// tasks — including tasks of *future* transactions — run speculatively in
    /// parallel up to the speculative depth.
    ///
    /// Whether the tasks speculate was decided when the user-thread was
    /// registered, not here: a user-thread without worker lanes runs each
    /// transaction's tasks merged into one, in program order, on the calling
    /// thread (identical semantics, no hand-offs, no intra-transaction
    /// conflicts).
    ///
    /// # Panics
    ///
    /// Panics if any transaction has more tasks than the speculative depth
    /// (such a transaction could never commit).
    pub fn execute(&self, txns: Vec<TxnSpec>) -> Vec<TxnOutcome> {
        if self.senders.is_empty() {
            return self.execute_sequential(txns);
        }
        let stats = self.runtime.substrate.stats.shard(self.shared.ptid());
        let mut pending: Vec<Arc<TxnShared>> = Vec::with_capacity(txns.len());
        let mut total_tasks = 0usize;
        for spec in txns {
            stats.bump(&stats.tx_starts);
            txobs::tx_begin();
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
            match self
                .done_rx
                .recv_timeout(std::time::Duration::from_millis(500))
            {
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
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    panic!("TLSTM worker channels disconnected unexpectedly");
                }
            }
        }
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
    }

    /// [`execute`](UThread::execute) for a user-thread without worker lanes:
    /// every transaction is merged into a single task and run
    /// start-to-commit on the calling thread.
    ///
    /// Semantics are identical to speculative execution (tasks already
    /// observe earlier tasks' writes, aborts re-execute the whole
    /// transaction), but there are no cross-thread task handoffs — on a host
    /// without a spare core those cost more than the transactions themselves.
    fn execute_sequential(&self, txns: Vec<TxnSpec>) -> Vec<TxnOutcome> {
        let stats = self.runtime.substrate.stats.shard(self.shared.ptid());
        let mut bufs = self.inline_bufs.borrow_mut();
        let mut outcomes = Vec::with_capacity(txns.len());
        for spec in txns {
            // The merged transaction is one task whatever it was built from;
            // hold it to the limits its speculative form would have met.
            assert_task_count(spec.tasks.len() as u64, self.shared.spec_depth());
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
        // With worker lanes or without, a transaction the speculative depth
        // cannot hold — or an empty one — is refused with the same message.
        let rt = runtime();
        let t = task(|_ctx: &mut TaskCtx<'_>| Ok(()));
        for lanes in [true, false] {
            for (tasks, expected) in [
                (vec![t.clone(); 3], "cannot run under speculative depth 2"),
                (Vec::new(), "needs at least one task"),
            ] {
                let u = rt.new_uthread(2, lanes);
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    u.execute(vec![TxnSpec { tasks }]);
                }))
                .expect_err("a malformed transaction must be refused");
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .expect("assertion message");
                assert!(message.contains(expected), "lanes={lanes}: {message}");
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
        let rt = runtime();
        assert_eq!(rt.register_uthread(3).workers.len(), 3);
        let expected = if txmem::pause::multi_core() {
            rt.substrate().config.spec_depth
        } else {
            0
        };
        assert_eq!(rt.register_uthread_default().workers.len(), expected);
        assert_eq!(rt.new_uthread(3, false).workers.len(), 0);
    }

    #[test]
    fn merged_tasks_preserve_program_order_semantics() {
        // A lane-less user-thread merges the tasks; re-run the
        // write-after-write pattern: the later task's value must still win
        // inside the merged task.
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.new_uthread(2, false);
        let first = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, 1));
        let second = task(move |ctx: &mut TaskCtx<'_>| {
            let v = ctx.read(a)?;
            ctx.write(a, v + 41)
        });
        let outcome = u.run_transaction(vec![first, second]);
        assert_eq!(rt.heap().load_committed(a), 42);
        assert_eq!(outcome.start_serial, outcome.commit_serial);
        assert_eq!(rt.stats().task_commits, 1);
    }
}
