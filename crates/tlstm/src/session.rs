//! The [`TxRuntime`]/[`TxSession`] implementation for TLSTM.
//!
//! TLSTM overrides two methods of [`TxSession`]. `run_split` runs solo when
//! it claims no helper (the bodies `0..n` in order inside one SwissTM
//! transaction, as the provided body does) and otherwise submits one
//! speculative user-transaction whose task `i` runs `body(i, ..)` and
//! stores its value in slot `i`; `run`, one task, never claims a helper and
//! always runs solo. The body is borrowed, not `'static`: TLSTM's task API
//! takes borrowed bodies too ([`crate::TaskFn`] carries a lifetime, and
//! [`UThread::execute`] is scoped), so the one lifetime erasure that lets a
//! borrowed body run on a pooled helper thread lives in the speculative path
//! shared by both, with its safety argument.

use std::sync::Arc;

use parking_lot::Mutex;
use txmem::{Abort, Transaction, TxConfig, TxRuntime, TxSession, TxSubstrate};

use crate::runtime::{task, TlstmRuntime, TxnSpec, UThread};
use crate::task::TaskCtx;
use crate::txn_state::assert_task_count;

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
    /// [`TxConfig::spec_depth`] — callers that split transactions size the
    /// config accordingly (e.g. `KvServerConfig` raises it to the batch's
    /// group count). The caller decides the depth; the host and the
    /// session's history decide how many lanes claim the tasks of a split:
    /// the calling thread plus the pool helpers that are idle, none for a
    /// task count whose tasks lost to their past — and with none, the split
    /// runs solo, its bodies in program order on the calling thread, as on
    /// a one-core host ([`TlstmRuntime::register_uthread_default`]).
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
        // One task never claims a helper: it runs solo, with no task state
        // to build.
        self.solo(1, |tx| body(&mut TaskCtx::solo(tx.reborrow()))).0
    }

    /// Runs *one* user-transaction of `tasks` tasks. When it claims no
    /// helper (see [`TlstmRuntime::register_uthread_default`]) the bodies
    /// run solo, in index order, inside one SwissTM transaction. Otherwise
    /// it submits one speculative task per index, preserving program order
    /// through the task serials. Each task stores its value in its own slot;
    /// a task's executions never overlap (a rolled-back task is claimed
    /// again only once its earlier execution has given its claim back), each
    /// overwriting the slot, so once the transaction has committed every
    /// slot holds its committed execution's value.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` exceeds this user-thread's speculative depth.
    fn run_split<T, F>(&mut self, tasks: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: for<'t> Fn(usize, &mut TaskCtx<'t>) -> Result<T, Abort> + Send + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        assert_task_count(tasks as u64, self.spec_depth());
        let helpers = self.claim_helpers(tasks, std::iter::once(tasks));
        if helpers.is_empty() {
            let run_all = |tx: &mut Transaction<'_>| {
                (0..tasks)
                    .map(|i| body(i, &mut TaskCtx::solo(tx.reborrow())))
                    .collect()
            };
            return self.solo(tasks, run_all).0;
        }
        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let body = &body;
        let bodies = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                task(move |ctx: &mut TaskCtx<'_>| {
                    *slot.lock() = Some(body(i, ctx)?);
                    Ok(())
                })
            })
            .collect();
        self.speculate(vec![TxnSpec::new(bodies)], helpers);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("a committed task has stored its value")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::runtime::run_once;
    use txmem::TxMem;

    #[test]
    fn run_returns_the_committed_result_through_borrowed_state() {
        let rt = TlstmRuntime::new(TxConfig::small());
        let counter = rt.heap().alloc(1).unwrap();
        let mut session = TxRuntime::session(&rt);
        // The body borrows a local (non-'static) accumulator, which the
        // scoped `execute` allows.
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
        // Every task runs as its own task, on whichever lane claims it.
        let before = TxRuntime::stats(&*rt);
        session.run_tasks(&mut [&mut first, &mut second]);
        let window = TxRuntime::stats(&*rt).delta_since(&before);
        assert_eq!(rt.heap().load_committed(block), 5);
        assert_eq!(rt.heap().load_committed(block.offset(1)), 10);
        assert_eq!(results, vec![5], "second task saw the first task's write");
        assert_eq!(window.tx_commits, 1);
        assert_eq!(window.task_commits, 2);
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
