//! # tlstm — a unified STM + thread-level-speculation runtime
//!
//! This crate is a from-scratch Rust implementation of **TLSTM**, the system
//! described in *"Unifying Thread-Level Speculation and Transactional Memory"*
//! (Barreto, Dragojević, Ferreira, Filipe, Guerraoui — Middleware 2012).
//!
//! ## The model
//!
//! Programmers hand-parallelise their application into **user-threads** whose
//! critical sections are **user-transactions** (ordinary STM transactions).
//! TLSTM then decomposes each user-thread further into **speculative tasks**
//! that run out of order on a small pool of worker threads (at most
//! `SPECDEPTH` simultaneously active tasks per user-thread) and *commit in
//! program order*. Here that pool is process-wide and the user-thread's own
//! thread is one of its lanes ([`UThread::execute`]); a transaction with more
//! tasks than the lanes it can borrow runs them merged, in program order. A
//! user-transaction is a consecutive sequence of one or more tasks; its last
//! task (the *commit-task*) commits the whole transaction on behalf of all of
//! them.
//!
//! The runtime guarantees:
//!
//! * **sequential semantics within a user-thread** — a task observes all
//!   writes of tasks from its past and none from its future (intra-thread
//!   write-after-read and write-after-write conflicts are detected and
//!   resolved by rolling individual tasks back);
//! * **opacity across user-transactions** — exactly as the underlying
//!   SwissTM algorithm provides, extended with a *task-aware* contention
//!   manager that aborts the more speculative of two conflicting
//!   user-transactions.
//!
//! ## Example
//!
//! ```rust
//! use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
//! use txmem::{TxConfig, TxMem};
//!
//! let runtime = TlstmRuntime::new(TxConfig::small());
//! let counter = runtime.heap().alloc(1)?;
//!
//! // One user-thread, speculative depth 2.
//! let uthread = runtime.register_uthread(2);
//!
//! // A user-transaction made of two tasks: each adds `step` to the counter.
//! // Task bodies may borrow the caller's locals, because `execute` returns
//! // only once every task has retired.
//! let step = 3;
//! let bump = |ctx: &mut TaskCtx<'_>| {
//!     let v = ctx.read(counter)?;
//!     ctx.write(counter, v + step)?;
//!     Ok(())
//! };
//! let txn = TxnSpec::new(vec![task(bump), task(bump)]);
//! uthread.execute(vec![txn]);
//!
//! assert_eq!(runtime.heap().load_committed(counter), 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod cm;
mod pool;
pub mod runtime;
pub mod session;
pub mod task;
pub mod txn_state;
pub mod uthread_state;
pub mod worker;

pub use cm::TaskAwareCm;
pub use runtime::{task, TlstmRuntime, TxnOutcome, TxnSpec, UThread};
pub use task::TaskCtx;
pub use txn_state::TxnShared;
pub use uthread_state::UThreadShared;

// Re-export the substrate types users interact with.
pub use txmem::{Abort, AbortReason, StatsSnapshot, TxConfig, TxMem, WordAddr};

/// The type of a speculative task body.
///
/// A task body may be re-executed an arbitrary number of times (after
/// intra-thread or inter-thread conflicts), so it must confine its side
/// effects to transactional memory accessed through the [`TaskCtx`]. It may
/// borrow for `'a`: [`UThread::execute`] returns only once every task it was
/// given has retired.
pub type TaskFn<'a> =
    std::sync::Arc<dyn Fn(&mut TaskCtx<'_>) -> Result<(), Abort> + Send + Sync + 'a>;
