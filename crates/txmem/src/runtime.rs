//! The uniform *inter*-transaction runtime interface.
//!
//! [`TxMem`] (see [`crate::traits`]) is the intra-transaction surface: how a
//! body reads and writes words once a transaction is running. This module adds
//! the missing counterpart — how transactions are *started, retried, split
//! into speculative tasks and accounted* — so that code generic over a
//! runtime can be written once:
//!
//! ```text
//! TxRuntime  — construction (TxConfig / shared TxSubstrate), stats access
//!    └─ TxSession  — one per driving thread: `run` (retry loop) and
//!       │           `run_split` (one transaction split into ordered tasks)
//!       └─ &mut Self::Mem — what a body sees while it executes
//! ```
//!
//! Three runtimes implement the interface:
//!
//! * `swisstm::SwisstmRuntime` — the SwissTM baseline;
//! * `tlstm::TlstmRuntime` — the unified STM+TLS runtime; its `run_split`
//!   runs every task index as one speculative task of one user-transaction;
//! * [`crate::SeqRefRuntime`] — a global-lock sequential reference runtime
//!   used as the conformance baseline of the benchmark matrix.
//!
//! The two sequential runtimes keep [`TxSession::run_split`]'s provided
//! body: the task bodies run in index order inside one `run` transaction.
//!
//! Bodies must obey the usual STM contract: they may be re-executed any
//! number of times (aborted attempts roll back), so they must be idempotent
//! apart from their transactional reads/writes, and their results travel in
//! their return values, not in captured buffers.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Abort;
use crate::stats::StatsSnapshot;
use crate::traits::{DirectMem, TxMem};
use crate::{TxConfig, TxHeap, TxSubstrate};

/// One type-erased task body of a [`TxSession::run_tasks`] group. A body
/// may be re-executed, so it must reset any captured output buffer when it
/// starts; [`TxSession::run_split`] returns task results instead.
pub type TaskBody<'a> = &'a mut (dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send);

/// An owned task body; see [`TaskBody`]. Callers that build a group
/// dynamically collect `BoxedTaskBody`s and submit them with
/// [`run_boxed_tasks`].
pub type BoxedTaskBody<'a> = Box<dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send + 'a>;

/// Submits a dynamically built group of owned bodies as one transaction
/// (the [`TxSession::run_tasks`] contract applies unchanged).
pub fn run_boxed_tasks<S: TxSession + ?Sized>(session: &mut S, bodies: &mut [BoxedTaskBody<'_>]) {
    // Shortens the box's trait-object lifetime bound to the borrow's (a
    // built-in coercion, but one the closure-return position won't apply).
    fn shorten<'s, 'a>(
        body: &'s mut (dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send + 'a),
    ) -> TaskBody<'s> {
        body
    }
    let mut group: Vec<TaskBody<'_>> = bodies.iter_mut().map(|body| shorten(&mut **body)).collect();
    session.run_tasks(&mut group);
}

/// A per-thread session handle of a [`TxRuntime`].
///
/// Sessions are `Send` but not `Sync`: each driving OS thread opens its own
/// session (exactly the paper's user-thread model).
pub trait TxSession {
    /// The concrete [`TxMem`] handle bodies receive.
    ///
    /// Exposing the concrete type (rather than `&mut dyn TxMem`) keeps bodies
    /// fully monomorphized: their memory operations inline into the
    /// transaction loop exactly as the runtimes' inherent APIs do.
    type Mem<'t>: TxMem;

    /// Runs `body` as one atomic transaction, retrying until it commits, and
    /// returns the body's result.
    ///
    /// The body accesses shared state exclusively through the [`TxMem`]
    /// handle it receives and may be re-executed an arbitrary number of
    /// times.
    fn run<T, F>(&mut self, body: F) -> T
    where
        T: Send,
        F: for<'t> Fn(&mut Self::Mem<'t>) -> Result<T, Abort> + Send + Sync;

    /// Runs `tasks` ordered task bodies as *one* atomic transaction and
    /// returns each task's committed value, in task order.
    ///
    /// `body(i, mem)` is task `i`: it observes the writes of tasks `0..i`.
    /// The provided body, which both sequential runtimes keep, runs the
    /// tasks in order inside one [`TxSession::run`] transaction; TLSTM runs
    /// one speculative task per index. Each execution of a task overwrites
    /// its result, so the values returned are the committed execution's.
    /// Zero tasks run no transaction.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` exceeds the session's speculative depth on a
    /// runtime with bounded depth (such a transaction could never commit).
    fn run_split<T, F>(&mut self, tasks: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: for<'t> Fn(usize, &mut Self::Mem<'t>) -> Result<T, Abort> + Send + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        self.run(|mem| {
            let mut values = Vec::with_capacity(tasks);
            for i in 0..tasks {
                values.push(body(i, mem)?);
            }
            Ok(values)
        })
    }

    /// Runs an ordered group of type-erased task bodies as one
    /// [`TxSession::run_split`] transaction, one task per body. An empty
    /// group is a no-op.
    fn run_tasks(&mut self, tasks: &mut [TaskBody<'_>]) {
        // A task's executions never overlap, so its lock is never contended:
        // it only turns the `&mut` body into a shared one.
        let bodies: Vec<Mutex<&mut TaskBody<'_>>> = tasks.iter_mut().map(Mutex::new).collect();
        self.run_split(bodies.len(), |i, mem| (bodies[i].lock())(mem));
    }
}

/// A pluggable transactional runtime over the shared [`TxSubstrate`].
///
/// The trait captures what `txkv`, the workload suite and the benchmark
/// matrix need from a runtime: construction, per-thread sessions
/// ([`TxSession`]), and statistics access. Concrete runtimes keep their richer
/// inherent APIs (explicit speculative depth, task specs, ...); generic
/// consumers only rely on this surface.
pub trait TxRuntime: Send + Sync + fmt::Debug + 'static {
    /// The per-thread session handle.
    type Session: TxSession + Send + fmt::Debug;

    /// Identifier used in benchmark reports, CLI selectors and scenario
    /// names (`"swisstm"`, `"tlstm"`, `"seqref"`).
    const LABEL: &'static str;

    /// `true` if the runtime executes the tasks of a [`TxSession::run_split`]
    /// as parallel speculative tasks (so the benchmark matrix expands
    /// it over the task-split axis); `false` for sequential runtimes.
    const SPECULATIVE: bool;

    /// Creates a runtime with a fresh substrate built from `config`.
    fn new(config: TxConfig) -> Arc<Self>;

    /// Creates a runtime over an existing substrate (shared with other
    /// runtimes or with non-transactional initialisation code).
    ///
    /// Owner ids come from [`TxSubstrate::ids`], so no two sessions of any
    /// handles share an owner token (`tlstm/tests/shared_substrate.rs`):
    /// * handles of any runtime kinds may share a substrate;
    /// * mixed SwissTM and TLSTM handles resolve lock cycles through one
    ///   rule: both conflict paths call [`TxSubstrate::contend`], which sees
    ///   either runtime's owners ([`TxSubstrate::owner_of`]);
    /// * a seqref handle's gate serialises only its own sessions.
    fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self>;

    /// The shared substrate.
    fn substrate(&self) -> &Arc<TxSubstrate>;

    /// Opens a session for the calling thread.
    ///
    /// Runtimes with a speculative-depth notion size the session from the
    /// substrate's [`TxConfig::spec_depth`].
    fn session(self: &Arc<Self>) -> Self::Session;

    /// The transactional heap (for non-transactional setup of data).
    fn heap(&self) -> &TxHeap {
        &self.substrate().heap
    }

    /// A [`DirectMem`] handle for non-transactional initialisation.
    fn direct(&self) -> DirectMem<'_> {
        DirectMem::new(&self.substrate().heap)
    }

    /// Snapshot of the global statistics counters.
    fn stats(&self) -> StatsSnapshot {
        self.substrate().stats.snapshot()
    }
}

/// Statically asserts that [`TxMem`] stays object-safe: every task body
/// ([`TaskBody`]) works through a `&mut dyn TxMem` trait object, so losing
/// object safety is an API break.
pub fn assert_txmem_object_safe(mem: &mut dyn TxMem) -> Result<u64, Abort> {
    let word = mem.alloc(1)?;
    mem.write(word, 1)?;
    mem.read(word)
}

/// Convenience: runs `body` through a session of a freshly constructed
/// runtime (tests and examples). The body takes `&mut dyn TxMem`, so one
/// closure works for every `R`.
pub fn run_once<R, T, F>(config: TxConfig, body: F) -> T
where
    R: TxRuntime,
    T: Send,
    F: Fn(&mut dyn TxMem) -> Result<T, Abort> + Send + Sync,
{
    R::new(config).session().run(move |mem| body(mem))
}
