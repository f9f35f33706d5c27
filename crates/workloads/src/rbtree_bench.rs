//! The modified red-black-tree micro-benchmark (Figure 1a).
//!
//! One user-thread repeatedly runs a transaction that performs `N` read-only
//! lookups on a shared red-black tree. Under SwissTM the transaction is
//! executed as-is; under TLSTM it is split into `k` tasks of `N / k` lookups
//! each. The paper reports the speed-up of TLSTM-2 and TLSTM-4 over SwissTM
//! for `N ∈ {2, 4, 8, 16, 32, 64}`.
//!
//! The whole benchmark is written once against [`TxRuntime`]: every runtime
//! receives the transaction as a [`TxSession::run_split`] of one task per key
//! chunk, which sequential runtimes run in order inside one transaction.

use std::sync::atomic::Ordering;

use tlstm_testutil::TestRng;
use txcollections::TxRbTree;
use txmem::{Abort, TxConfig, TxMem, TxRuntime, TxSession};

use crate::harness::{
    average_metrics, chunk_ranges, run_threads_metrics, RunMetrics, WorkloadConfig,
};

/// Parameters of the red-black-tree micro-benchmark.
#[derive(Debug, Clone)]
pub struct RbTreeBenchParams {
    /// Number of keys pre-loaded into the tree.
    pub initial_keys: u64,
    /// Key space the lookups draw from (twice `initial_keys` gives ~50% hit
    /// rate, as in the classic micro-benchmark).
    pub key_space: u64,
    /// Lookups per transaction (`N`, the x-axis of Figure 1a).
    pub ops_per_txn: u64,
    /// Tasks the transaction is split into (1 = plain SwissTM behaviour;
    /// sequential runtimes run the tasks in order inside one transaction).
    pub tasks_per_txn: usize,
    /// Number of user-threads (Figure 1a uses one).
    pub threads: usize,
}

impl Default for RbTreeBenchParams {
    fn default() -> Self {
        RbTreeBenchParams {
            initial_keys: 4096,
            key_space: 8192,
            ops_per_txn: 16,
            tasks_per_txn: 2,
            threads: 1,
        }
    }
}

impl RbTreeBenchParams {
    fn substrate_config(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tasks_per_txn.max(1),
            ..TxConfig::default()
        }
    }
}

/// Pre-loads a tree with `initial_keys` evenly spread keys.
fn populate<M: TxMem + ?Sized>(mem: &mut M, params: &RbTreeBenchParams) -> Result<TxRbTree, Abort> {
    let tree = TxRbTree::create(mem)?;
    let stride = (params.key_space / params.initial_keys).max(1);
    for i in 0..params.initial_keys {
        tree.insert(mem, i * stride, i)?;
    }
    Ok(tree)
}

/// Generates the keys of one transaction.
fn txn_keys(rng: &mut TestRng, params: &RbTreeBenchParams) -> Vec<u64> {
    (0..params.ops_per_txn)
        .map(|_| rng.below(params.key_space))
        .collect()
}

/// Measures the benchmark on any [`TxRuntime`], with per-transaction
/// latencies and the runtime's statistics breakdown.
pub fn measure<R: TxRuntime>(params: &RbTreeBenchParams, config: &WorkloadConfig) -> RunMetrics {
    average_metrics(config.repetitions, |rep| {
        let runtime = R::new(params.substrate_config());
        let tree = populate(&mut runtime.direct(), params).expect("populate cannot abort");
        let (throughput, latency) = run_threads_metrics(
            params.threads,
            config.duration,
            |thread_index, stop, ops, hist| {
                let mut session = runtime.session();
                let mut rng =
                    TestRng::new(config.seed ^ (thread_index as u64 + 1) ^ (u64::from(rep) << 32));
                while !stop.load(Ordering::Relaxed) {
                    let keys = txn_keys(&mut rng, params);
                    let t0 = std::time::Instant::now();
                    run_lookups(&mut session, tree, &keys, params.tasks_per_txn);
                    hist.record(t0.elapsed());
                    ops.fetch_add(params.ops_per_txn, Ordering::Relaxed);
                }
            },
        );
        RunMetrics::new(throughput, latency, runtime.stats())
    })
}

/// Runs one lookup transaction split into `tasks` contiguous key chunks and
/// returns each task's hit count.
fn run_lookups<S: TxSession>(
    session: &mut S,
    tree: TxRbTree,
    keys: &[u64],
    tasks: usize,
) -> Vec<u64> {
    let chunks = chunk_ranges(keys.len(), tasks);
    session.run_split(chunks.len(), |i, mem| {
        let (lo, hi) = chunks[i];
        let mut hits = 0;
        for &key in &keys[lo..hi] {
            hits += u64::from(tree.get(mem, key)?.is_some());
        }
        Ok(hits)
    })
}

/// Correctness cross-check used by tests: runs `txns` deterministic lookup
/// transactions and returns the total hit count. The same `(params, seed)`
/// pair must produce the same count on every runtime: each task returns its
/// committed execution's hit count, so re-executed speculative attempts
/// cannot over-count.
pub fn hit_count<R: TxRuntime>(params: &RbTreeBenchParams, txns: u64, seed: u64) -> u64 {
    let runtime = R::new(params.substrate_config());
    let tree = populate(&mut runtime.direct(), params).expect("populate cannot abort");
    let mut session = runtime.session();
    let mut rng = TestRng::new(seed);
    (0..txns)
        .map(|_| {
            let keys = txn_keys(&mut rng, params);
            run_lookups(&mut session, tree, &keys, params.tasks_per_txn)
                .iter()
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::SeqRefRuntime;

    fn tiny() -> RbTreeBenchParams {
        RbTreeBenchParams {
            initial_keys: 128,
            key_space: 256,
            ops_per_txn: 8,
            tasks_per_txn: 2,
            threads: 1,
        }
    }

    #[test]
    fn every_runtime_makes_progress() {
        let config = WorkloadConfig::quick();
        let params = tiny();
        assert!(measure::<SwisstmRuntime>(&params, &config).throughput.ops > 0);
        assert!(measure::<TlstmRuntime>(&params, &config).throughput.ops > 0);
        assert!(measure::<SeqRefRuntime>(&params, &config).throughput.ops > 0);
    }

    #[test]
    fn identical_streams_return_identical_hit_counts_on_all_runtimes() {
        let params = tiny();
        let sw = hit_count::<SwisstmRuntime>(&params, 20, 99);
        let tl = hit_count::<TlstmRuntime>(&params, 20, 99);
        let sq = hit_count::<SeqRefRuntime>(&params, 20, 99);
        assert_eq!(sw, tl);
        assert_eq!(sw, sq);
        assert!(sw > 0, "the stream should hit at least once");
    }

    #[test]
    fn chunk_ranges_cover_all_keys_without_overlap() {
        for (len, tasks) in [(5usize, 2usize), (5, 4), (8, 3), (1, 4), (6, 1)] {
            let ranges = chunk_ranges(len, tasks);
            assert_eq!(ranges.len(), tasks);
            let mut covered = 0;
            for &(lo, hi) in &ranges {
                assert!(lo <= hi && hi <= len);
                assert_eq!(lo, covered, "ranges must be contiguous");
                covered = hi;
            }
            assert_eq!(covered, len, "ranges must cover every key");
        }
    }
}
