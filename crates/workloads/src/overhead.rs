//! Raw fast-path overhead microworkloads.
//!
//! These scenarios isolate the per-operation cost of the STM fast path —
//! exactly the overhead the TLSTM paper's speculation model must amortise.
//! A single user-thread runs back-to-back transactions over a **private**
//! word region, so there is no contention, no aborts and no lock waiting:
//! the measured throughput is dominated by the read/write/commit bookkeeping
//! (read-log append, write-set probe, lock acquisition, write-back).
//!
//! Two variants are measured:
//!
//! * **read-only** — `ops_per_txn` random reads, no writes: stresses the
//!   read-log append and the "was this written by me?" negative lookup;
//! * **write-heavy** — `ops_per_txn` random read-modify-writes: stresses
//!   write-set insertion/update, lock acquisition and commit write-back.
//!
//! The region is deliberately larger than one lock entry covers, so the
//! write-heavy variant exercises both the same-lock-different-word path and
//! genuine multi-lock commits.

use std::sync::atomic::Ordering;

use tlstm_testutil::TestRng;
use txmem::{Abort, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

use crate::harness::{
    average_metrics, chunk_ranges, run_threads_metrics, RunMetrics, WorkloadConfig,
};

/// Parameters of the overhead microworkload.
#[derive(Debug, Clone)]
pub struct OverheadParams {
    /// Size of each thread's private region, in words.
    pub words: u64,
    /// Transactional operations per transaction.
    pub ops_per_txn: u64,
    /// `true` measures the write-heavy variant, `false` the read-only one.
    pub write_heavy: bool,
    /// Tasks the transaction is split into under TLSTM (1 = plain STM).
    pub tasks_per_txn: usize,
    /// Number of user-threads, each with a disjoint region (uncontended).
    pub threads: usize,
}

impl Default for OverheadParams {
    fn default() -> Self {
        OverheadParams {
            words: 1024,
            ops_per_txn: 64,
            write_heavy: false,
            tasks_per_txn: 1,
            threads: 1,
        }
    }
}

impl OverheadParams {
    /// The read-only variant with `ops_per_txn` reads per transaction.
    pub fn read_only(ops_per_txn: u64) -> Self {
        OverheadParams {
            ops_per_txn,
            ..Default::default()
        }
    }

    /// The write-heavy variant with `ops_per_txn` read-modify-writes per
    /// transaction.
    pub fn write_heavy(ops_per_txn: u64) -> Self {
        OverheadParams {
            ops_per_txn,
            write_heavy: true,
            ..Default::default()
        }
    }

    fn substrate_config(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tasks_per_txn.max(1),
            ..TxConfig::default()
        }
    }
}

/// Runs the operations `lo..hi` of the transaction whose deterministic base
/// seed is `txn_seed`, against the private region at `region`.
///
/// The address stream is recomputed from the seed on every (re-)execution, so
/// aborted attempts replay the identical operation sequence and the driver
/// never materialises a per-transaction key buffer (the measurement stays a
/// pure fast-path measurement).
fn run_ops<M: TxMem>(
    mem: &mut M,
    region: WordAddr,
    params: &OverheadParams,
    txn_seed: u64,
    lo: u64,
    hi: u64,
) -> Result<(), Abort> {
    let mut rng = TestRng::new(txn_seed);
    for i in 0..hi {
        let addr = region.offset(rng.below(params.words));
        if i < lo {
            continue; // skip this task's predecessors in the op stream
        }
        if params.write_heavy {
            let v = mem.read(addr)?;
            mem.write(addr, v.wrapping_add(1))?;
        } else {
            let _ = mem.read(addr)?;
        }
    }
    Ok(())
}

/// Runs the transaction seeded by `txn_seed` as one task per `(lo, hi)`
/// range of its op stream.
fn run_txn<S: TxSession>(
    session: &mut S,
    region: WordAddr,
    params: &OverheadParams,
    chunks: &[(usize, usize)],
    txn_seed: u64,
) {
    session.run_split(chunks.len(), |t, mem| {
        let (lo, hi) = chunks[t];
        run_ops(mem, region, params, txn_seed, lo as u64, hi as u64)
    });
}

/// Allocates one private region per thread.
fn regions(heap: &txmem::TxHeap, params: &OverheadParams) -> Vec<WordAddr> {
    (0..params.threads.max(1))
        .map(|_| {
            heap.alloc(params.words)
                .expect("overhead region allocation failed")
        })
        .collect()
}

/// Measures the microworkload on any [`TxRuntime`].
///
/// On a speculative runtime each transaction is split into
/// `tasks_per_txn` tasks covering disjoint ranges of the same deterministic
/// op stream; sequential runtimes always run the whole stream as one body.
pub fn measure<R: TxRuntime>(params: &OverheadParams, config: &WorkloadConfig) -> RunMetrics {
    average_metrics(config.repetitions, |rep| {
        let runtime = R::new(params.substrate_config());
        let regions = regions(runtime.heap(), params);
        let (throughput, latency) = run_threads_metrics(
            params.threads.max(1),
            config.duration,
            |thread_index, stop, ops, hist| {
                // A task replays the op stream up to its chunk's end, so a
                // sequential runtime runs the stream as one task.
                let tasks = if R::SPECULATIVE {
                    params.tasks_per_txn
                } else {
                    1
                };
                let chunks = chunk_ranges(params.ops_per_txn as usize, tasks);
                let mut session = runtime.session();
                let region = regions[thread_index];
                let mut seeds =
                    TestRng::new(config.seed ^ (thread_index as u64 + 1) ^ (u64::from(rep) << 32));
                while !stop.load(Ordering::Relaxed) {
                    let txn_seed = seeds.next_u64();
                    let t0 = std::time::Instant::now();
                    run_txn(&mut session, region, params, &chunks, txn_seed);
                    hist.record(t0.elapsed());
                    ops.fetch_add(params.ops_per_txn, Ordering::Relaxed);
                }
            },
        );
        RunMetrics::new(throughput, latency, runtime.stats())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swisstm::SwisstmRuntime;
    use txmem::SeqRefRuntime;

    fn tiny(write_heavy: bool) -> OverheadParams {
        OverheadParams {
            words: 64,
            ops_per_txn: 8,
            write_heavy,
            tasks_per_txn: 2,
            threads: 1,
        }
    }

    #[test]
    fn read_only_variant_makes_progress_without_writes() {
        let config = WorkloadConfig::quick();
        let params = tiny(false);
        let m = measure::<SwisstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0);
        assert_eq!(m.stats.writes, 0, "read-only variant must not write");
        assert!(m.stats.reads > 0);
        let m = measure::<tlstm::TlstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0);
        assert_eq!(m.stats.writes, 0);
    }

    #[test]
    fn write_heavy_variant_commits_writes() {
        let config = WorkloadConfig::quick();
        let params = tiny(true);
        let m = measure::<SwisstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0);
        assert!(m.stats.writes > 0, "write-heavy variant must write");
        let m = measure::<tlstm::TlstmRuntime>(&params, &config);
        assert!(m.throughput.ops > 0);
        assert!(m.stats.writes > 0);
    }

    #[test]
    fn seqref_runs_the_same_workload_sequentially() {
        let config = WorkloadConfig::quick();
        let m = measure::<SeqRefRuntime>(&tiny(true), &config);
        assert!(m.throughput.ops > 0);
        assert_eq!(m.stats.tx_aborts, 0, "seqref can never abort");
    }

    #[test]
    fn uncontended_single_thread_runs_never_abort() {
        let config = WorkloadConfig::quick();
        let m = measure::<SwisstmRuntime>(&tiny(true), &config);
        assert_eq!(m.stats.tx_aborts, 0, "single-thread run must be abort-free");
    }

    #[test]
    fn chained_task_split_commits_every_rmw_in_program_order() {
        // One word, 8 RMWs split into 4 tasks: every task reads the value its
        // predecessor wrote, so the committed word equals the number of
        // committed RMWs only if program order holds through the split.
        fn check<R: TxRuntime>() {
            let params = OverheadParams {
                words: 1,
                tasks_per_txn: 4,
                ..OverheadParams::write_heavy(8)
            };
            let runtime = R::new(params.substrate_config());
            let word = regions(runtime.heap(), &params)[0];
            let mut session = runtime.session();
            let chunks = chunk_ranges(params.ops_per_txn as usize, params.tasks_per_txn);
            let txns = 100;
            for txn_seed in 0..txns {
                run_txn(&mut session, word, &params, &chunks, txn_seed);
            }
            assert_eq!(
                runtime.heap().load_committed(word),
                txns * params.ops_per_txn,
                "{}",
                R::LABEL
            );
        }
        check::<SwisstmRuntime>();
        check::<tlstm::TlstmRuntime>();
        check::<SeqRefRuntime>();
    }

    #[test]
    fn task_split_replays_the_same_op_stream() {
        // The same (seed, txn) pair must touch the same addresses regardless
        // of how the op range is split across tasks: committed state of a
        // write-heavy run is a pure function of the op stream.
        let params = tiny(true);
        let rt = SwisstmRuntime::new(params.substrate_config());
        let region = rt.heap().alloc(params.words).unwrap();
        let mut thread = rt.register_thread();
        thread.atomic(|tx| run_ops(tx, region, &params, 42, 0, params.ops_per_txn));
        let whole: Vec<u64> = (0..params.words)
            .map(|i| rt.heap().load_committed(region.offset(i)))
            .collect();

        let rt2 = SwisstmRuntime::new(params.substrate_config());
        let region2 = rt2.heap().alloc(params.words).unwrap();
        let mut thread2 = rt2.register_thread();
        let mid = params.ops_per_txn / 2;
        thread2.atomic(|tx| {
            run_ops(tx, region2, &params, 42, 0, mid)?;
            run_ops(tx, region2, &params, 42, mid, params.ops_per_txn)
        });
        let split: Vec<u64> = (0..params.words)
            .map(|i| rt2.heap().load_committed(region2.offset(i)))
            .collect();
        assert_eq!(whole, split);
    }
}
