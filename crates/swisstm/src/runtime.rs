//! The SwissTM runtime and per-thread handles.

use std::sync::Arc;

use txmem::{
    Abort, DirectMem, StatsSnapshot, Transaction, TxConfig, TxContext, TxHeap, TxRuntime,
    TxSession, TxSubstrate,
};

/// The SwissTM runtime: owns (a reference to) the shared substrate and hands
/// out per-thread handles. Thread ids, greedy tickets and the owner registry
/// are the substrate's, shared by every handle over it.
#[derive(Debug)]
pub struct SwisstmRuntime {
    substrate: Arc<TxSubstrate>,
}

impl SwisstmRuntime {
    /// Creates a runtime with a fresh substrate built from `config`.
    pub fn new(config: TxConfig) -> Arc<Self> {
        Self::with_substrate(Arc::new(TxSubstrate::new(config)))
    }

    /// Creates a runtime over an existing substrate (shared with other
    /// runtimes or with non-transactional initialisation code; see
    /// [`TxRuntime::with_substrate`] for what sharing guarantees).
    pub fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        Arc::new(SwisstmRuntime { substrate })
    }

    /// The shared substrate.
    pub fn substrate(&self) -> &Arc<TxSubstrate> {
        &self.substrate
    }

    /// The transactional heap (for non-transactional setup of benchmark data).
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

    /// Registers a new application thread and returns its handle.
    ///
    /// The handle owns the thread's recycled [`TxContext`] (descriptor, read
    /// log, write set, acquired-locks log); its descriptor is published in
    /// the substrate's owner registry so contenders can reach it.
    pub fn register_thread(self: &Arc<Self>) -> SwisstmThread {
        let ctx = TxContext::new(self.substrate.ids.allocate());
        self.substrate.owners.register(ctx.id(), ctx.owner());
        SwisstmThread {
            runtime: Arc::clone(self),
            ctx,
        }
    }
}

/// Per-application-thread handle used to run transactions.
///
/// Owns the thread's recycled [`TxContext`]: every transaction (and every
/// retry) this handle runs borrows the same read log, write set,
/// acquired-locks log and descriptor, so steady-state transactions allocate
/// nothing.
///
/// Not `Sync`: each OS thread registers its own handle.
#[derive(Debug)]
pub struct SwisstmThread {
    runtime: Arc<SwisstmRuntime>,
    ctx: TxContext,
}

impl SwisstmThread {
    /// The dense identifier assigned to this thread.
    pub fn id(&self) -> u32 {
        self.ctx.id()
    }

    /// The runtime this thread belongs to.
    pub fn runtime(&self) -> &Arc<SwisstmRuntime> {
        &self.runtime
    }

    /// Runs `body` as an atomic transaction, retrying until it commits, and
    /// returns the body's result.
    ///
    /// The body must access shared state exclusively through the transaction
    /// handle it receives; it may be re-executed an arbitrary number of times.
    pub fn atomic<T>(&mut self, body: impl FnMut(&mut Transaction<'_>) -> Result<T, Abort>) -> T {
        self.ctx.atomic(&self.runtime.substrate, body).0
    }

    /// The thread's recycled transaction context (tests and diagnostics).
    pub fn context(&self) -> &TxContext {
        &self.ctx
    }
}

impl Drop for SwisstmThread {
    fn drop(&mut self) {
        // Retire this thread's descriptor from the owner registry; late
        // contenders then simply wait for (already released) locks.
        self.runtime.substrate.owners.unregister(self.ctx.id());
    }
}

impl TxRuntime for SwisstmRuntime {
    type Session = SwisstmThread;

    const LABEL: &'static str = "swisstm";
    const SPECULATIVE: bool = false;

    fn new(config: TxConfig) -> Arc<Self> {
        SwisstmRuntime::new(config)
    }

    fn with_substrate(substrate: Arc<TxSubstrate>) -> Arc<Self> {
        SwisstmRuntime::with_substrate(substrate)
    }

    fn substrate(&self) -> &Arc<TxSubstrate> {
        SwisstmRuntime::substrate(self)
    }

    fn session(self: &Arc<Self>) -> SwisstmThread {
        self.register_thread()
    }
}

impl TxSession for SwisstmThread {
    type Mem<'t> = Transaction<'t>;

    fn run<T, F>(&mut self, body: F) -> T
    where
        T: Send,
        F: for<'t> Fn(&mut Transaction<'t>) -> Result<T, Abort> + Send + Sync,
    {
        self.atomic(|tx| body(tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use txmem::{TxMem, WordAddr};

    fn runtime() -> Arc<SwisstmRuntime> {
        SwisstmRuntime::new(TxConfig::small())
    }

    #[test]
    fn single_thread_counter_increments() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let mut thread = rt.register_thread();
        for _ in 0..100 {
            thread.atomic(|tx| {
                let v = tx.read(counter)?;
                tx.write(counter, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(rt.heap().load_committed(counter), 100);
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, 100);
        assert_eq!(stats.tx_aborts, 0);
    }

    #[test]
    fn read_your_own_writes() {
        let rt = runtime();
        let a = rt.heap().alloc(2).unwrap();
        let mut thread = rt.register_thread();
        let observed = thread.atomic(|tx| {
            tx.write(a, 7)?;
            tx.write(a.offset(1), 9)?;
            Ok((tx.read(a)?, tx.read(a.offset(1))?))
        });
        assert_eq!(observed, (7, 9));
    }

    #[test]
    fn aborted_body_is_retried_and_commits() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let mut thread = rt.register_thread();
        let failed_once = AtomicBool::new(false);
        thread.atomic(|tx| {
            tx.write(a, 1)?;
            if !failed_once.swap(true, Ordering::Relaxed) {
                return Err(Abort::user_retry());
            }
            tx.write(a, 2)?;
            Ok(())
        });
        assert_eq!(rt.heap().load_committed(a), 2);
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, 1);
        assert_eq!(stats.tx_aborts, 1);
        assert_eq!(stats.aborts_user_retry, 1);
    }

    #[test]
    fn writes_of_aborted_attempts_are_not_visible() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let mut thread = rt.register_thread();
        let mut first = true;
        thread.atomic(|tx| {
            if first {
                first = false;
                tx.write(a, 99)?;
                return Err(Abort::user_retry());
            }
            Ok(())
        });
        assert_eq!(rt.heap().load_committed(a), 0, "aborted write leaked");
    }

    #[test]
    fn read_only_transactions_commit_without_clock_ticks() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        rt.heap().store_committed(a, 5);
        let mut thread = rt.register_thread();
        let before = rt.substrate().clock.now();
        let v = thread.atomic(|tx| tx.read(a));
        assert_eq!(v, 5);
        assert_eq!(rt.substrate().clock.now(), before);
    }

    #[test]
    fn concurrent_counter_is_linearizable() {
        let rt = runtime();
        let counter = rt.heap().alloc(1).unwrap();
        let threads = 4;
        let increments = 500;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                let mut thread = rt.register_thread();
                for _ in 0..increments {
                    thread.atomic(|tx| {
                        let v = tx.read(counter)?;
                        tx.write(counter, v + 1)?;
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            rt.heap().load_committed(counter),
            (threads * increments) as u64
        );
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, (threads * increments) as u64);
    }

    #[test]
    fn disjoint_writers_do_not_conflict() {
        let rt = runtime();
        // Allocate two words far apart so they hash to different locks.
        let a = rt.heap().alloc(64).unwrap();
        let b = rt.heap().alloc(64).unwrap();
        let mut handles = Vec::new();
        for (i, addr) in [a, b].into_iter().enumerate() {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                let mut thread = rt.register_thread();
                for n in 0..200u64 {
                    thread.atomic(|tx| tx.write(addr, n * (i as u64 + 1)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rt.heap().load_committed(a), 199);
        assert_eq!(rt.heap().load_committed(b), 398);
    }

    #[test]
    fn money_transfer_preserves_total() {
        // Classic bank-account invariant test: concurrent transfers between
        // accounts never create or destroy money.
        let rt = runtime();
        let n_accounts = 16u64;
        let accounts = rt.heap().alloc(n_accounts).unwrap();
        for i in 0..n_accounts {
            rt.heap().store_committed(accounts.offset(i), 100);
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                let mut thread = rt.register_thread();
                let mut x = t * 7 + 1;
                for _ in 0..500 {
                    // xorshift for deterministic pseudo-random account pairs
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = x % n_accounts;
                    let to = (x >> 8) % n_accounts;
                    thread.atomic(|tx| {
                        let f = tx.read(accounts.offset(from))?;
                        let t = tx.read(accounts.offset(to))?;
                        if f > 0 && from != to {
                            tx.write(accounts.offset(from), f - 1)?;
                            tx.write(accounts.offset(to), t + 1)?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..n_accounts)
            .map(|i| rt.heap().load_committed(accounts.offset(i)))
            .sum();
        assert_eq!(total, n_accounts * 100);
    }

    #[test]
    fn readers_never_observe_torn_pairs() {
        // A writer keeps the invariant word0 == word1; readers must never see
        // them differ (opacity / atomicity of write-back).
        let rt = runtime();
        let pair = rt.heap().alloc(2).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let rt = Arc::clone(&rt);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut thread = rt.register_thread();
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    thread.atomic(|tx| {
                        tx.write(pair, v)?;
                        tx.write(pair.offset(1), v)?;
                        Ok(())
                    });
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..2 {
            let rt = Arc::clone(&rt);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut thread = rt.register_thread();
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (a, b) = thread.atomic(|tx| Ok((tx.read(pair)?, tx.read(pair.offset(1))?)));
                    assert_eq!(a, b, "torn read observed");
                    observed += 1;
                }
                observed
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let rt = runtime();
        let a = rt.heap().alloc(1).unwrap();
        let mut thread = rt.register_thread();
        thread.atomic(|tx| {
            let _ = tx.read(a)?;
            tx.write(a, 3)?;
            Ok(())
        });
        let stats = rt.stats();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn commit_write_back_is_deterministic_last_write_wins() {
        // Regression for the former HashMap-ordered write-back: writes must
        // be applied from the log in program order, so the committed value of
        // every word is its last write — including when several words share
        // one lock entry (w, w+1 with WORDS_PER_LOCK = 4) and when distinct
        // regions collide on the same entry through table wrap-around
        // (TxConfig::small: 256 entries x 4 words = 1024 words apart).
        let rt = runtime();
        let block = rt.heap().alloc(2048).unwrap();
        // Align the base to a lock-entry boundary (4 words) so word 0 and
        // word 1 provably share an entry.
        let region = block.offset((4 - block.index() % 4) % 4);
        let mut thread = rt.register_thread();
        for round in 0..50u64 {
            thread.atomic(|tx| {
                tx.write(region, round)?; // word 0
                tx.write(region.offset(1), round + 1)?; // same lock as word 0
                tx.write(region.offset(1024), round + 2)?; // collides with word 0
                tx.write(region, round + 3)?; // overwrite word 0
                tx.write(region.offset(1025), round + 4)?; // collides with word 1
                tx.write(region.offset(1), round + 5)?; // overwrite word 1
                tx.write(region.offset(1024), round + 6)?; // overwrite collider
                Ok(())
            });
            assert_eq!(rt.heap().load_committed(region), round + 3);
            assert_eq!(rt.heap().load_committed(region.offset(1)), round + 5);
            assert_eq!(rt.heap().load_committed(region.offset(1024)), round + 6);
            assert_eq!(rt.heap().load_committed(region.offset(1025)), round + 4);
        }
        // The colliding words share a single lock entry, so this really
        // exercised multi-word write-back under one lock.
        let locks = &rt.substrate().locks;
        assert_eq!(
            locks.index_for(region),
            locks.index_for(region.offset(1024))
        );
        assert_eq!(locks.index_for(region), locks.index_for(region.offset(1)));
    }

    #[test]
    fn alloc_inside_transaction_survives() {
        let rt = runtime();
        let root = rt.heap().alloc(1).unwrap();
        let mut thread = rt.register_thread();
        thread.atomic(|tx| {
            let node = tx.alloc(2)?;
            tx.write(node, 11)?;
            tx.write_ref(root, Some(node))?;
            Ok(())
        });
        let node = rt.heap().load_committed(root);
        assert_ne!(node, txmem::NULL_ADDR);
        assert_eq!(rt.heap().load_committed(WordAddr::new(node)), 11);
    }
}
