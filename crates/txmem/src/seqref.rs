//! `seqref` — the sequential global-lock reference runtime.
//!
//! The simplest possible [`TxRuntime`]: one mutex per runtime handle (its
//! `gate`, which no other handle over the substrate takes) serialises its
//! sessions' transactions, and bodies run against [`DirectMem`] (committed
//! state, no logging, no rollback). It exists for two reasons:
//!
//! * **Conformance baseline.** Under the gate there are no conflicts,
//!   no speculation and no retries, so a seeded workload's replies and final
//!   state on `seqref` are the ground truth the concurrent runtimes must
//!   match (`tmbench --runtimes seqref`, the `txkv` conformance suites).
//! * **Pluggability proof / scaffold.** It is registered with the benchmark
//!   matrix purely through the runtime registry — the slot a future
//!   Block-STM-style runtime drops into.
//!
//! Because [`DirectMem`] applies writes immediately, a body that returns
//! [`Abort`] cannot be rolled back; `seqref` treats that as a caller bug and
//! panics. This is sound for every consumer in this repository: KV batches
//! report failures as replies (not aborts), and workload bodies only abort on
//! conflicts, which cannot occur while the gate is held.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Abort;
use crate::runtime::{TxRuntime, TxSession};
use crate::traits::DirectMem;
use crate::{TxConfig, TxSubstrate};

/// The sequential reference runtime: a lock around [`DirectMem`].
#[derive(Debug)]
pub struct SeqRefRuntime {
    substrate: Arc<TxSubstrate>,
    gate: Mutex<()>,
}

impl SeqRefRuntime {
    /// Creates a runtime with a fresh substrate built from `config`.
    pub fn new(config: TxConfig) -> Arc<Self> {
        Self::with_substrate(Arc::new(TxSubstrate::new(config)))
    }

    /// Creates a runtime over an existing substrate.
    pub fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        Arc::new(SeqRefRuntime {
            substrate,
            gate: Mutex::new(()),
        })
    }

    /// The shared substrate.
    pub fn substrate(&self) -> &Arc<TxSubstrate> {
        &self.substrate
    }

    /// Opens a session for the calling thread.
    pub fn session(self: &Arc<Self>) -> SeqRefSession {
        SeqRefSession {
            runtime: Arc::clone(self),
            id: self.substrate.ids.allocate(),
        }
    }
}

impl TxRuntime for SeqRefRuntime {
    type Session = SeqRefSession;

    const LABEL: &'static str = "seqref";
    const SPECULATIVE: bool = false;

    fn new(config: TxConfig) -> Arc<Self> {
        SeqRefRuntime::new(config)
    }

    fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        SeqRefRuntime::with_substrate(substrate)
    }

    fn substrate(&self) -> &Arc<TxSubstrate> {
        &self.substrate
    }

    fn session(self: &Arc<Self>) -> SeqRefSession {
        SeqRefRuntime::session(self)
    }
}

/// A per-thread session of the [`SeqRefRuntime`].
///
/// Holds the thread's dense id for stats attribution; every transaction takes
/// the runtime's gate for its whole duration.
#[derive(Debug)]
pub struct SeqRefSession {
    runtime: Arc<SeqRefRuntime>,
    id: u32,
}

impl SeqRefSession {
    /// The dense identifier assigned to this session's thread.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Executes `f` under the gate with stats bumped around it.
    fn locked<T>(&self, f: impl FnOnce(&mut DirectMem<'_>) -> Result<T, Abort>) -> T {
        let substrate = &self.runtime.substrate;
        let _gate = self.runtime.gate.lock();
        let stats = substrate.stats.shard(self.id);
        stats.tx_starts.inc();
        txobs::tx_begin();
        let mut mem = DirectMem::new(&substrate.heap);
        match f(&mut mem) {
            Ok(value) => {
                stats.tx_commits.inc();
                txobs::tx_commit();
                value
            }
            Err(abort) => panic!(
                "seqref cannot roll back: transaction body aborted with `{}` \
                 under the global lock (bodies run on seqref must be \
                 abort-free)",
                abort.reason
            ),
        }
    }
}

impl TxSession for SeqRefSession {
    type Mem<'t> = DirectMem<'t>;

    fn run<T, F>(&mut self, body: F) -> T
    where
        T: Send,
        F: for<'t> Fn(&mut DirectMem<'t>) -> Result<T, Abort> + Send + Sync,
    {
        self.locked(|mem| body(mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_once, TaskBody};
    use crate::traits::TxMem;

    #[test]
    fn run_commits_directly_and_counts() {
        let rt = SeqRefRuntime::new(TxConfig::small());
        let word = rt.heap().alloc(1).unwrap();
        let mut session = rt.session();
        let observed = session.run(|mem| {
            mem.write(word, 41)?;
            let v = mem.read(word)?;
            mem.write(word, v + 1)?;
            mem.read(word)
        });
        assert_eq!(observed, 42);
        assert_eq!(rt.heap().load_committed(word), 42);
        let stats = TxRuntime::stats(&*rt);
        assert_eq!(stats.tx_starts, 1);
        assert_eq!(stats.tx_commits, 1);
        assert_eq!(stats.tx_aborts, 0);
    }

    #[test]
    fn run_tasks_applies_bodies_in_order() {
        let rt = SeqRefRuntime::new(TxConfig::small());
        let word = rt.heap().alloc(1).unwrap();
        let mut session = rt.session();
        let mut first = |mem: &mut dyn TxMem| mem.write(word, 10);
        let mut second = |mem: &mut dyn TxMem| {
            let v = mem.read(word)?;
            mem.write(word, v + 5)
        };
        let mut tasks: [TaskBody<'_>; 2] = [&mut first, &mut second];
        session.run_tasks(&mut tasks);
        assert_eq!(rt.heap().load_committed(word), 15);
        let stats = TxRuntime::stats(&*rt);
        assert_eq!(stats.tx_commits, 1);
        // An empty group is a no-op, not a transaction.
        session.run_tasks(&mut []);
        assert_eq!(TxRuntime::stats(&*rt).tx_commits, 1);
    }

    #[test]
    fn concurrent_sessions_serialise_through_the_gate() {
        let rt = SeqRefRuntime::new(TxConfig::small());
        let counter = rt.heap().alloc(1).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let mut session = rt.session();
                    for _ in 0..500 {
                        session.run(|mem| {
                            let v = mem.read(counter)?;
                            mem.write(counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(rt.heap().load_committed(counter), 2000);
        assert_eq!(TxRuntime::stats(&*rt).tx_commits, 2000);
    }

    #[test]
    #[should_panic(expected = "seqref cannot roll back")]
    fn aborting_body_panics_loudly() {
        let rt = SeqRefRuntime::new(TxConfig::small());
        let mut session = rt.session();
        session.run::<(), _>(|_mem| Err(Abort::user_retry()));
    }

    #[test]
    fn run_once_helper_round_trips() {
        let total = run_once::<SeqRefRuntime, _, _>(TxConfig::small(), |mem| {
            let block = mem.alloc(3)?;
            for i in 0..3 {
                mem.write(block.offset(i), i + 1)?;
            }
            let mut sum = 0;
            for i in 0..3 {
                sum += mem.read(block.offset(i))?;
            }
            Ok(sum)
        });
        assert_eq!(total, 6);
    }
}
