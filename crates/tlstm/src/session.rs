//! The [`TxRuntime`]/[`TxSession`] implementation for TLSTM.
//!
//! The generic session API hands bodies in by *borrowed* closure
//! (`&impl Fn` / `&mut dyn FnMut` — no `'static`, no `Arc`), while a TLSTM
//! task may run on a pool helper, a `'static` thread, and so travels as
//! `Arc<dyn Fn + Send + Sync + 'static>` ([`TaskFn`]). Bridging the two
//! without forcing every caller to clone its state into `'static` closures
//! is what this module's small dose of `unsafe` buys: the borrowed bodies
//! are smuggled into `'static` tasks as raw pointers, which is sound because
//! [`UThread::execute`] is *scoped* — it blocks until every submitted task
//! has retired.
//!
//! # Safety argument
//!
//! The erased pointers are dereferenced only inside task bodies, and the
//! crew model (`crate::worker`) guarantees for every task (a merged group of
//! bodies is one task):
//!
//! 1. it runs on exactly one lane — the calling thread or one claimed
//!    helper, fixed by its serial — never on two threads at once;
//! 2. re-executions are strictly sequential on that lane;
//! 3. no body is invoked after the task retires, and `execute` returns only
//!    after the caller has run its own lane and every helper has reported
//!    its lane finished;
//! 4. nor can `execute` unwind early: a panic on any lane while helpers are
//!    out aborts the process (`crate::pool::AbortOnUnwind`).
//!
//! Hence every dereference happens-before `execute` returns, while the
//! borrowed closures and result slot are still alive on the caller's stack.
//! The `Arc<TaskFn>` clones a lane may still hold after retirement are
//! only dropped, never called — and dropping a closure that captures raw
//! pointers runs no user code.

use std::sync::{Arc, Mutex};

use txmem::{Abort, TaskBody, TxConfig, TxMem, TxRuntime, TxSession, TxSubstrate};

use crate::runtime::{TlstmRuntime, TxnSpec, UThread};
use crate::task::TaskCtx;
use crate::TaskFn;

/// A `Send + Sync` wrapper for the raw pointers smuggled into a task.
///
/// Safety: see the module-level argument — the pointees outlive every
/// dereference, and the crew model serialises all accesses to them.
struct Smuggled<T: ?Sized>(*const T);

unsafe impl<T: ?Sized> Send for Smuggled<T> {}
unsafe impl<T: ?Sized> Sync for Smuggled<T> {}

/// Like [`Smuggled`], but mutable: one task body owns one group closure
/// exclusively (each [`TaskBody`] is a distinct `&mut`), and the crew model
/// serialises that task's executions.
struct SmuggledMut<T: ?Sized>(*mut T);

unsafe impl<T: ?Sized> Send for SmuggledMut<T> {}
unsafe impl<T: ?Sized> Sync for SmuggledMut<T> {}

/// The `'static` `dyn FnMut` type group bodies are erased to. The transmute
/// in [`erase_group_body`] only changes the trait object's lifetime bound;
/// see the module-level safety argument for why the shorter real lifetime is
/// never exceeded.
type ErasedGroupBody = dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send;

/// The monomorphised-thunk shape [`TxSession::run`] erases its body to: a
/// plain `fn` pointer mentioning neither the body type nor the result type.
type ErasedThunk = unsafe fn(&Smuggled<()>, &Smuggled<()>, &mut TaskCtx<'_>) -> Result<(), Abort>;

/// Widens a borrowed group body's trait-object lifetime bound to `'static`.
///
/// # Safety
///
/// The returned pointer must not be dereferenced after the borrow it was
/// created from ends — upheld by [`TxSession::run_tasks`], which keeps the
/// borrow alive across the blocking [`UThread::execute`] call that performs
/// every dereference.
unsafe fn erase_group_body<'a, 'b>(
    body: &'b mut (dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send + 'a),
) -> *mut ErasedGroupBody {
    let short: *mut (dyn FnMut(&mut dyn TxMem) -> Result<(), Abort> + Send + 'a) = body;
    // SAFETY: both are fat pointers of identical layout; only the trait
    // object's lifetime bound changes.
    unsafe { std::mem::transmute(short) }
}

impl TxRuntime for TlstmRuntime {
    type Session = UThread;

    const LABEL: &'static str = "tlstm";
    const SPECULATIVE: bool = true;

    fn new(config: TxConfig) -> Arc<Self> {
        TlstmRuntime::new(config)
    }

    fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        TlstmRuntime::with_substrate(substrate)
    }

    fn substrate(&self) -> &Arc<TxSubstrate> {
        TlstmRuntime::substrate(self)
    }

    /// Registers a user-thread whose speculative depth is the substrate's
    /// [`TxConfig::spec_depth`] — callers that submit task groups size the
    /// config accordingly (e.g. `KvServerConfig` raises it to the batch's
    /// group count). The caller decides the depth; the host decides how much
    /// of it is used: a task group runs on the calling thread plus the pool
    /// helpers that are idle, merged in program order onto that crew — on a
    /// one-core host, all on the calling thread
    /// ([`TlstmRuntime::register_uthread_default`]).
    fn session(self: &Arc<Self>) -> UThread {
        self.register_uthread_default()
    }
}

impl TxSession for UThread {
    type Mem<'t> = TaskCtx<'t>;

    fn run<T, F>(&mut self, body: F) -> T
    where
        T: Send,
        F: for<'t> Fn(&mut TaskCtx<'t>) -> Result<T, Abort> + Send + Sync,
    {
        // The committed execution writes the slot last (re-executions of an
        // aborted attempt simply overwrite earlier values), so after
        // `execute` returns the slot holds the committed body's result.
        let slot: Mutex<Option<T>> = Mutex::new(None);
        let body_ptr = Smuggled((&body as *const F).cast::<()>());
        let slot_ptr = Smuggled((&slot as *const Mutex<Option<T>>).cast::<()>());
        // Monomorphised thunk that reconstitutes the erased pointers; the fn
        // pointer itself mentions neither `F` nor `T`, so the task closure
        // below is `'static` as `TaskFn` requires.
        unsafe fn call<T, F>(
            body: &Smuggled<()>,
            slot: &Smuggled<()>,
            ctx: &mut TaskCtx<'_>,
        ) -> Result<(), Abort>
        where
            F: for<'t> Fn(&mut TaskCtx<'t>) -> Result<T, Abort>,
        {
            let body = unsafe { &*body.0.cast::<F>() };
            let slot = unsafe { &*slot.0.cast::<Mutex<Option<T>>>() };
            let value = body(ctx)?;
            *slot.lock().expect("tlstm session result slot poisoned") = Some(value);
            Ok(())
        }
        let thunk: ErasedThunk = call::<T, F>;
        let task: TaskFn = Arc::new(move |ctx: &mut TaskCtx<'_>| {
            // SAFETY: module-level argument — `execute` below blocks until
            // this task retires, so the stack-borrowed body and slot are
            // alive for every invocation.
            unsafe { thunk(&body_ptr, &slot_ptr, ctx) }
        });
        self.execute(vec![TxnSpec::new(vec![task])]);
        slot.into_inner()
            .expect("result slot poisoned")
            .expect("committed transaction must have produced a value")
    }

    /// Submits the group as *one* user-transaction with one speculative task
    /// per body, preserving program order through the task serials.
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds this user-thread's speculative depth.
    fn run_tasks(&mut self, tasks: &mut [TaskBody<'_>]) {
        if tasks.is_empty() {
            return;
        }
        let bodies: Vec<TaskFn> = tasks
            .iter_mut()
            .map(|body| {
                // SAFETY: the borrow behind `body` outlives the `execute`
                // call below, which performs every dereference (module-level
                // argument).
                let erased: SmuggledMut<ErasedGroupBody> =
                    SmuggledMut(unsafe { erase_group_body(&mut **body) });
                let task: TaskFn = Arc::new(move |ctx: &mut TaskCtx<'_>| {
                    // Capture the whole `SmuggledMut` (not just its pointer
                    // field) so its `Send + Sync` impls apply.
                    let erased = &erased;
                    // SAFETY: module-level argument — this task's executions
                    // are serialised on one lane and end before
                    // `execute` returns; each group body is captured by
                    // exactly one task, so no two tasks alias the same
                    // `&mut` closure.
                    let body = unsafe { &mut *erased.0 };
                    body(ctx)
                });
                task
            })
            .collect();
        self.execute(vec![TxnSpec::new(bodies)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::runtime::run_once;

    #[test]
    fn run_returns_the_committed_result_through_borrowed_state() {
        let rt = TlstmRuntime::new(TxConfig::small());
        let counter = rt.heap().alloc(1).unwrap();
        let mut session = TxRuntime::session(&rt);
        // The body borrows a local (non-'static) accumulator — exactly what
        // the scoped erasure exists to allow.
        let local_tag = 7u64;
        let tag_ref = &local_tag;
        for round in 0..50u64 {
            let observed = session.run(|mem| {
                let v = mem.read(counter)?;
                mem.write(counter, v + tag_ref)?;
                Ok(v)
            });
            assert_eq!(observed, round * 7);
        }
        assert_eq!(rt.heap().load_committed(counter), 350);
        assert_eq!(TxRuntime::stats(&*rt).tx_commits, 50);
    }

    #[test]
    fn run_tasks_speculates_but_preserves_program_order() {
        let config = TxConfig {
            spec_depth: 3,
            ..TxConfig::small()
        };
        let rt = TlstmRuntime::new(config);
        let block = rt.heap().alloc(2).unwrap();
        let mut session = TxRuntime::session(&rt);
        let mut results: Vec<u64> = Vec::new();
        let results_ref = &mut results;
        let mut first = |mem: &mut dyn TxMem| mem.write(block, 5);
        let mut second = move |mem: &mut dyn TxMem| {
            let v = mem.read(block)?;
            results_ref.clear(); // bodies may re-execute: reset output
            results_ref.push(v);
            mem.write(block.offset(1), v * 2)
        };
        let mut tasks: [TaskBody<'_>; 2] = [&mut first, &mut second];
        // The group runs as two tasks only on a helper: never on one core,
        // and on more once other tests' default sessions leave one idle.
        let expected_tasks = if txmem::pause::multi_core() { 2 } else { 1 };
        for _ in 0..1000 {
            rt.reset_stats();
            session.run_tasks(&mut tasks);
            if TxRuntime::stats(&*rt).task_commits == expected_tasks {
                break;
            }
        }
        assert_eq!(rt.heap().load_committed(block), 5);
        assert_eq!(rt.heap().load_committed(block.offset(1)), 10);
        assert_eq!(results, vec![5], "second task saw the first task's write");
        let stats = TxRuntime::stats(&*rt);
        assert_eq!(stats.tx_commits, 1);
        assert_eq!(stats.task_commits, expected_tasks);
    }

    #[test]
    fn sessions_on_many_threads_keep_counters_exact() {
        let rt = TlstmRuntime::new(TxConfig::small());
        let counter = rt.heap().alloc(1).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let mut session = TxRuntime::session(&rt);
                    for _ in 0..100 {
                        session.run(|mem| {
                            let v = mem.read(counter)?;
                            mem.write(counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(rt.heap().load_committed(counter), 300);
    }

    #[test]
    fn run_once_helper_works_on_tlstm() {
        let doubled = run_once::<TlstmRuntime, _, _>(TxConfig::small(), |mem| {
            let a = mem.alloc(1)?;
            mem.write(a, 21)?;
            Ok(mem.read(a)? * 2)
        });
        assert_eq!(doubled, 42);
    }
}
