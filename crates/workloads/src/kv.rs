//! The YCSB-style key-value serving workload over `txkv`.
//!
//! Unlike the paper's closed micro/macro-benchmarks, this drives the
//! serving-shaped subsystem: per-client [`txkv::KvSession`]s submit
//! multi-operation batches against a sharded [`txkv::KvStore`]. The workload
//! mixes follow the YCSB core workloads:
//!
//! * **A** — update-heavy: 50% reads / 50% puts;
//! * **B** — read-mostly: 95% reads / 5% puts;
//! * **C** — read-only: 100% reads;
//! * **scan-heavy** — 95% short ordered scans / 5% puts (YCSB E shape, with
//!   updates instead of unbounded inserts so the resident set stays fixed).
//!
//! Keys are drawn either uniformly or from a scrambled [`Zipfian`]
//! distribution (the YCSB default, θ = 0.99) over the populated key space,
//! seeded from the run's [`WorkloadConfig::seed`] so every run — and every
//! re-executed TLSTM task — replays the same stream. Values are
//! fixed-size multi-word records ([`KvParams::value_words`]), which the store
//! overwrites in place, so steady-state batches are allocation-free inside
//! the transactional heap.
//!
//! One *operation* in the reported throughput is one `KvOp` (a whole scan
//! counts as one operation, like YCSB).

use std::sync::atomic::Ordering;

use tlstm_testutil::{TempDir, TestRng};
use txkv::{DurableKvConfig, DurableKvStore, KvOp, KvServer, KvServerConfig, KvStoreParams};
use txmem::{TxConfig, TxRuntime};

use crate::harness::{average_metrics, run_threads_metrics, RunMetrics, WorkloadConfig};

pub use txkv::FsyncPolicy;

/// The YCSB-style operation mixes the driver can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMix {
    /// Update-heavy: 50% read / 50% update.
    A,
    /// Read-mostly: 95% read / 5% update.
    B,
    /// Read-only.
    C,
    /// Scan-heavy: 95% scan / 5% update.
    ScanHeavy,
}

impl KvMix {
    /// `(read_pct, update_pct, scan_pct)` of the mix (sums to 100).
    pub fn percentages(self) -> (u64, u64, u64) {
        match self {
            KvMix::A => (50, 50, 0),
            KvMix::B => (95, 5, 0),
            KvMix::C => (100, 0, 0),
            KvMix::ScanHeavy => (0, 5, 95),
        }
    }

    /// The identifier used in scenario names (`a`, `b`, `c`, `scan`).
    pub fn label(self) -> &'static str {
        match self {
            KvMix::A => "a",
            KvMix::B => "b",
            KvMix::C => "c",
            KvMix::ScanHeavy => "scan",
        }
    }
}

/// Parameters of the KV serving workload.
#[derive(Debug, Clone)]
pub struct KvParams {
    /// Number of records populated before measurement (the key space).
    pub records: u64,
    /// Value size in 64-bit words.
    pub value_words: u64,
    /// Operations per client batch (= per transaction).
    pub ops_per_txn: usize,
    /// The operation mix.
    pub mix: KvMix,
    /// `true` draws keys from a scrambled zipfian distribution (θ = 0.99),
    /// `false` uniformly.
    pub zipfian: bool,
    /// Maximum entries returned by one scan.
    pub scan_limit: u64,
    /// Hash shards of the store.
    pub shards: u64,
    /// Tasks a batch is split into under TLSTM (also the shard-group count
    /// of the batch plan on both runtimes).
    pub tasks_per_txn: usize,
    /// Number of client threads (sessions).
    pub threads: usize,
    /// `Some` runs the workload through a [`DurableKvStore`] (write-ahead
    /// logged batches with the given fsync policy) in a scratch directory;
    /// `None` runs the plain in-memory server. Comparing the two isolates
    /// the durability overhead.
    pub durable: Option<KvDurability>,
}

/// Durability parameters of a KV workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvDurability {
    /// When the WAL acknowledges writes (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl Default for KvParams {
    fn default() -> Self {
        KvParams {
            records: 16 * 1024,
            value_words: 8,
            ops_per_txn: 16,
            mix: KvMix::A,
            zipfian: true,
            scan_limit: 32,
            shards: 16,
            tasks_per_txn: 1,
            threads: 1,
            durable: None,
        }
    }
}

impl KvParams {
    /// The standard parameterisation of one mix.
    pub fn mix(mix: KvMix) -> Self {
        KvParams {
            mix,
            ..Default::default()
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny(mix: KvMix) -> Self {
        KvParams {
            records: 128,
            value_words: 4,
            ops_per_txn: 8,
            mix,
            zipfian: true,
            scan_limit: 8,
            shards: 4,
            tasks_per_txn: 2,
            threads: 1,
            durable: None,
        }
    }

    pub(crate) fn server_config(&self) -> KvServerConfig {
        KvServerConfig {
            store: KvStoreParams {
                shards: self.shards,
                expected_keys: self.records,
            },
            batch_tasks: self.tasks_per_txn.max(1),
            tx: TxConfig::default(),
        }
    }
}

/// The YCSB zipfian generator (Gray et al.'s algorithm, as used by YCSB's
/// `ZipfianGenerator`), with the customary θ = 0.99 and the rank→key
/// scrambling that spreads the hottest ranks across the whole key space.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    /// The YCSB default skew.
    pub const DEFAULT_THETA: f64 = 0.99;

    /// Creates a generator over `0..n` with skew `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty key space");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
            zeta2theta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws the next *rank* in `0..n` (rank 0 is the hottest).
    pub fn next_rank(&self, rng: &mut TestRng) -> u64 {
        // 53 random bits → uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws the next *key*: the rank scrambled across `0..n` so hot keys
    /// are scattered over all shards (YCSB's `ScrambledZipfianGenerator`).
    /// The multiplier must stay odd: an even effective multiplier would map
    /// every rank to an even key under a power-of-two key space, silently
    /// halving the working set and the shard coverage.
    pub fn next_key(&self, rng: &mut TestRng) -> u64 {
        let rank = self.next_rank(rng);
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }

    /// `zeta(2, theta)` (exposed for tests).
    pub fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

/// Key chooser: zipfian or uniform over the populated records.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `0..n`.
    Uniform {
        /// Size of the key space.
        n: u64,
    },
    /// Scrambled zipfian (boxed: the generator carries several f64 params).
    Zipfian(Box<Zipfian>),
}

impl KeyDist {
    /// Builds the key chooser for `params`.
    pub fn new(params: &KvParams) -> Self {
        if params.zipfian {
            KeyDist::Zipfian(Box::new(Zipfian::new(
                params.records,
                Zipfian::DEFAULT_THETA,
            )))
        } else {
            KeyDist::Uniform { n: params.records }
        }
    }

    /// Draws the next key.
    pub fn next(&self, rng: &mut TestRng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.below(*n),
            KeyDist::Zipfian(z) => z.next_key(rng),
        }
    }
}

/// The initial value of `key` at population time (deterministic, so checks
/// can recompute it).
pub fn initial_value(key: u64, value_words: u64) -> Vec<u64> {
    (0..value_words)
        .map(|i| key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
        .collect()
}

/// Generates the operations of one client batch.
pub fn generate_batch(rng: &mut TestRng, dist: &KeyDist, params: &KvParams) -> Vec<KvOp> {
    let (read_pct, update_pct, _scan_pct) = params.mix.percentages();
    (0..params.ops_per_txn)
        .map(|_| {
            let roll = rng.below(100);
            let key = dist.next(rng);
            if roll < read_pct {
                KvOp::Get { key }
            } else if roll < read_pct + update_pct {
                let value = (0..params.value_words).map(|_| rng.next_u64()).collect();
                KvOp::Put { key, value }
            } else {
                KvOp::Scan {
                    lo: key,
                    hi: key.saturating_add(params.scan_limit * 4),
                    limit: params.scan_limit,
                }
            }
        })
        .collect()
}

fn populate<R: TxRuntime>(server: &KvServer<R>, params: &KvParams) {
    server.populate((0..params.records).map(|k| (k, initial_value(k, params.value_words))));
}

fn measure_server<R: TxRuntime>(
    server: KvServer<R>,
    params: &KvParams,
    config: &WorkloadConfig,
    rep: u32,
) -> RunMetrics {
    populate(&server, params);
    let dist = KeyDist::new(params);
    let (throughput, latency) = run_threads_metrics(
        params.threads.max(1),
        config.duration,
        |client, stop, ops, hist| {
            let mut session = server.session();
            let dist = dist.clone();
            let mut rng = TestRng::new(config.seed ^ (client as u64 + 1) ^ (u64::from(rep) << 32));
            while !stop.load(Ordering::Relaxed) {
                let batch = generate_batch(&mut rng, &dist, params);
                let n = batch.len() as u64;
                let t0 = std::time::Instant::now();
                session.batch(batch);
                hist.record(t0.elapsed());
                ops.fetch_add(n, Ordering::Relaxed);
            }
        },
    );
    RunMetrics::new(throughput, latency, server.stats())
}

/// Measures the workload through a [`DurableKvStore`] in a scratch log
/// directory: the populated base is snapshotted (so the run starts from a
/// realistic durable state), then every client batch is write-ahead logged
/// and waits for its durability acknowledgement. The scratch directory is
/// removed when the run ends.
fn measure_durable<R: TxRuntime>(
    params: &KvParams,
    config: &WorkloadConfig,
    rep: u32,
    fsync: FsyncPolicy,
) -> RunMetrics {
    let dir = TempDir::new("tmbench-kv-durable");
    let store = DurableKvStore::<R>::boot(
        dir.path(),
        &DurableKvConfig {
            server: params.server_config(),
            fsync,
            crash_points: txkv::CrashPoints::disabled(),
            ..DurableKvConfig::default()
        },
    )
    .expect("failed to boot the durable KV store");
    store.populate((0..params.records).map(|k| (k, initial_value(k, params.value_words))));
    store.snapshot().expect("baseline snapshot failed");
    let dist = KeyDist::new(params);
    // Attribute only the measured phase's WAL activity (not population or
    // the baseline snapshot) to this run. The WAL metrics are process-wide,
    // so the delta is exact only while no other durable store is active —
    // which holds for tmbench's sequential scenario matrix.
    let wal_before = txobs::metrics::wal().snapshot();
    let (throughput, latency) = run_threads_metrics(
        params.threads.max(1),
        config.duration,
        |client, stop, ops, hist| {
            let mut session = store.session();
            let dist = dist.clone();
            let mut rng = TestRng::new(config.seed ^ (client as u64 + 1) ^ (u64::from(rep) << 32));
            while !stop.load(Ordering::Relaxed) {
                let batch = generate_batch(&mut rng, &dist, params);
                let n = batch.len() as u64;
                let t0 = std::time::Instant::now();
                session
                    .batch(batch)
                    .expect("WAL writer died during the benchmark");
                hist.record(t0.elapsed());
                ops.fetch_add(n, Ordering::Relaxed);
            }
        },
    );
    let wal_delta = txobs::metrics::wal().snapshot().delta_since(&wal_before);
    RunMetrics::new(throughput, latency, store.server().stats()).with_wal(wal_delta)
}

/// Measures the KV workload on any [`TxRuntime`] (durably, through the
/// write-ahead log, when [`KvParams::durable`] is set). On a speculative
/// runtime each batch executes as `params.tasks_per_txn` shard-group tasks;
/// sequential runtimes execute the identical batch plan in order.
pub fn measure<R: TxRuntime>(params: &KvParams, config: &WorkloadConfig) -> RunMetrics {
    average_metrics(config.repetitions, |rep| match params.durable {
        Some(durability) => measure_durable::<R>(params, config, rep, durability.fsync),
        None => measure_server(
            KvServer::<R>::new(&params.server_config()),
            params,
            config,
            rep,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::SeqRefRuntime;

    #[test]
    fn mix_percentages_sum_to_100() {
        for mix in [KvMix::A, KvMix::B, KvMix::C, KvMix::ScanHeavy] {
            let (r, u, s) = mix.percentages();
            assert_eq!(r + u + s, 100, "{mix:?}");
        }
    }

    #[test]
    fn zipfian_is_skewed_deterministic_and_in_range() {
        let z = Zipfian::new(1000, Zipfian::DEFAULT_THETA);
        let mut a = TestRng::new(9);
        let mut b = TestRng::new(9);
        let mut hot = 0u64;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let ra = z.next_rank(&mut a);
            assert_eq!(ra, z.next_rank(&mut b), "determinism");
            assert!(ra < 1000);
            if ra < 10 {
                hot += 1;
            }
            *counts.entry(ra).or_insert(0u64) += 1;
        }
        // With θ=0.99 over 1000 keys, the 10 hottest ranks draw far more
        // than their uniform 1% share (analytically ~34%).
        assert!(
            hot > 4_000,
            "top-10 ranks drew only {hot}/20000 — not zipfian"
        );
        // Rank 0 is the hottest.
        let max_rank = counts.iter().max_by_key(|(_, &c)| c).map(|(&r, _)| r);
        assert_eq!(max_rank, Some(0));
    }

    #[test]
    fn scrambled_keys_stay_in_range_and_spread() {
        let n = 500;
        let z = Zipfian::new(n, Zipfian::DEFAULT_THETA);
        let mut rng = TestRng::new(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let k = z.next_key(&mut rng);
            assert!(k < n);
            distinct.insert(k);
        }
        assert!(distinct.len() > 50, "scrambling collapsed the key space");
        // With a power-of-two key space (the bench default shape) the
        // scramble must still reach both parities and every shard — an even
        // effective multiplier would silently halve coverage.
        let n = 4096;
        let z = Zipfian::new(n, Zipfian::DEFAULT_THETA);
        let mut parity = [false; 2];
        let mut shards = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let k = z.next_key(&mut rng);
            parity[(k % 2) as usize] = true;
            shards.insert(txkv::shard_of(k, 16));
        }
        assert!(parity[0] && parity[1], "scramble lost a parity class");
        assert_eq!(shards.len(), 16, "scramble does not reach every shard");
    }

    #[test]
    fn uniform_mode_covers_the_key_space() {
        let params = KvParams {
            zipfian: false,
            ..KvParams::tiny(KvMix::C)
        };
        let dist = KeyDist::new(&params);
        let mut rng = TestRng::new(5);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..2_000 {
            distinct.insert(dist.next(&mut rng));
        }
        assert!(distinct.len() as u64 > params.records / 2);
    }

    #[test]
    fn generated_batches_follow_the_mix() {
        let params = KvParams::tiny(KvMix::ScanHeavy);
        let dist = KeyDist::new(&params);
        let mut rng = TestRng::new(11);
        let (mut gets, mut puts, mut scans) = (0, 0, 0);
        for _ in 0..200 {
            for op in generate_batch(&mut rng, &dist, &params) {
                match op {
                    KvOp::Get { .. } => gets += 1,
                    KvOp::Put { .. } => puts += 1,
                    KvOp::Scan { .. } => scans += 1,
                    other => panic!("mix generated {other:?}"),
                }
            }
        }
        assert!(scans > puts * 10, "scan-heavy must be dominated by scans");
        assert!(puts > 0, "scan-heavy keeps a 5% update stream");
        assert_eq!(gets, 0, "scan-heavy has no point reads");
        let params = KvParams::tiny(KvMix::A);
        let dist = KeyDist::new(&params);
        let (mut gets, mut puts) = (0u64, 0u64);
        for _ in 0..200 {
            for op in generate_batch(&mut rng, &dist, &params) {
                match op {
                    KvOp::Get { .. } => gets += 1,
                    KvOp::Put { .. } => puts += 1,
                    other => panic!("mix A generated {other:?}"),
                }
            }
        }
        // 50/50 within generous tolerance.
        let total = gets + puts;
        assert!(
            gets > total / 3 && puts > total / 3,
            "A mix skewed: {gets}/{puts}"
        );
    }

    #[test]
    fn both_runtimes_make_progress_on_every_mix() {
        let config = WorkloadConfig::quick();
        for mix in [KvMix::A, KvMix::B, KvMix::C, KvMix::ScanHeavy] {
            let params = KvParams::tiny(mix);
            let m = measure::<SwisstmRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "swisstm {mix:?} made no progress");
            assert!(m.stats.tx_commits > 0);
            let m = measure::<TlstmRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "tlstm {mix:?} made no progress");
            assert!(
                m.stats.task_commits >= m.stats.tx_commits,
                "tlstm must run tasks"
            );
            let m = measure::<SeqRefRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "seqref {mix:?} made no progress");
        }
    }

    #[test]
    fn durable_mode_makes_progress_on_both_runtimes() {
        let config = WorkloadConfig::quick();
        for fsync in [FsyncPolicy::None, FsyncPolicy::Always] {
            let params = KvParams {
                durable: Some(KvDurability { fsync }),
                ..KvParams::tiny(KvMix::A)
            };
            let m = measure::<SwisstmRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "swisstm durable {fsync:?}");
            assert!(m.stats.tx_commits > 0);
            let m = measure::<TlstmRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "tlstm durable {fsync:?}");
            assert!(m.stats.task_commits >= m.stats.tx_commits);
            let m = measure::<SeqRefRuntime>(&params, &config);
            assert!(m.throughput.ops > 0, "seqref durable {fsync:?}");
        }
    }

    #[test]
    fn read_only_mix_never_writes() {
        let config = WorkloadConfig::quick();
        let params = KvParams::tiny(KvMix::C);
        let m = measure::<SwisstmRuntime>(&params, &config);
        assert_eq!(m.stats.writes, 0, "mix C is read-only");
        assert!(m.stats.reads > 0);
    }

    #[test]
    fn seed_makes_runs_reproducible() {
        // Same seed → same committed store contents after a fixed number of
        // batches (the reproducibility the tmbench --seed flag promises).
        let params = KvParams::tiny(KvMix::A);
        let dump = |seed: u64| {
            let server = KvServer::<SwisstmRuntime>::new(&params.server_config());
            populate(&server, &params);
            let dist = KeyDist::new(&params);
            let mut session = server.session();
            let mut rng = TestRng::new(seed);
            for _ in 0..30 {
                session.batch(generate_batch(&mut rng, &dist, &params));
            }
            server.store().dump(&mut server.direct()).unwrap()
        };
        assert_eq!(dump(99), dump(99));
        assert_ne!(dump(99), dump(100), "different seeds must diverge");
    }
}
