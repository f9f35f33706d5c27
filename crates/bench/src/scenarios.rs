//! The `tmbench` scenario matrix: which workload × runtime × thread × task
//! combinations a run measures, and how each is driven.
//!
//! The default matrix covers every workload of the paper's evaluation —
//! the red-black-tree micro-benchmark (Figure 1a), both Vacation contention
//! levels (Figure 1b) and both STMBench7 traversal mixes (Figures 2a/2b) —
//! on every registered runtime, at the task splits the figures use — plus
//! the fast-path overhead rows and the in-process `txkv` serving rows. The
//! thread list is configurable. [`figure_scenarios`] holds the four figures
//! themselves, and the speculation ablation, as fixed presets over the same
//! workloads and registry.
//!
//! Runtimes are not enumerated in scenario code: every [`TxRuntime`] that
//! should appear in the matrix is one [`RuntimeEntry`] in
//! [`RUNTIME_REGISTRY`], and scenario construction, CLI filters and reports
//! pick it up from there.

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_workloads::harness::RunMetrics;
use tlstm_workloads::kv::{self, FsyncPolicy, KvDurability, KvMix, KvParams};
use tlstm_workloads::overhead::{self, OverheadParams};
use tlstm_workloads::rbtree_bench::{self, RbTreeBenchParams};
use tlstm_workloads::stmbench7::{self, Stmbench7Params};
use tlstm_workloads::vacation::{self, VacationParams};
use tlstm_workloads::WorkloadConfig;
use txmem::{SeqRefRuntime, TxRuntime};

use crate::report::{BenchReport, LatencySummary, ScenarioResult, WalSummary, SCHEMA_VERSION};

/// One registered runtime: its stable name, its task-execution mode, and the
/// monomorphized entry point that measures any scenario on it.
///
/// Registering a new runtime is a single [`RuntimeEntry::of`] line in
/// [`RUNTIME_REGISTRY`] — the matrix, the `--runtimes` CLI filter and the
/// report rows all read the registry instead of matching on runtime names.
#[derive(Debug)]
pub struct RuntimeEntry {
    /// The identifier used in scenario names, reports and CLI filters.
    pub name: &'static str,
    /// Whether the runtime executes task splits speculatively. Speculative
    /// runtimes expand over each workload's figure-default task splits
    /// (the k-axis); sequential runtimes always run the k1 row.
    pub speculative: bool,
    /// The monomorphized measure function (`measure_on::<R>`): generic
    /// dispatch happens at registration, never on the hot path.
    measure_fn: fn(&ScenarioSpec, &WorkloadConfig) -> RunMetrics,
}

impl RuntimeEntry {
    /// Builds the registry entry for runtime `R`.
    pub const fn of<R: TxRuntime>() -> RuntimeEntry {
        RuntimeEntry {
            name: R::LABEL,
            speculative: R::SPECULATIVE,
            measure_fn: measure_on::<R>,
        }
    }

    /// Measures `spec` on this runtime.
    pub fn measure(&self, spec: &ScenarioSpec, config: &WorkloadConfig) -> RunMetrics {
        (self.measure_fn)(spec, config)
    }
}

impl PartialEq for RuntimeEntry {
    fn eq(&self, other: &RuntimeEntry) -> bool {
        self.name == other.name
    }
}

/// Every runtime `tmbench` can drive, in report order. The sequential
/// `seqref` reference runtime rides in the matrix as the conformance
/// baseline every speculative runtime is compared against.
pub static RUNTIME_REGISTRY: &[RuntimeEntry] = &[
    RuntimeEntry::of::<SwisstmRuntime>(),
    RuntimeEntry::of::<TlstmRuntime>(),
    RuntimeEntry::of::<SeqRefRuntime>(),
];

/// Looks a runtime up by its CLI/report name.
pub fn find_runtime(name: &str) -> Option<&'static RuntimeEntry> {
    RUNTIME_REGISTRY.iter().find(|entry| entry.name == name)
}

/// The registered runtime names, in report order.
pub fn runtime_names() -> Vec<&'static str> {
    RUNTIME_REGISTRY.iter().map(|entry| entry.name).collect()
}

/// The workload families `tmbench` can drive.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Red-black-tree lookup transactions of `ops_per_txn` lookups
    /// (Figure 1a).
    RbTree {
        /// Lookups per transaction.
        ops_per_txn: u64,
    },
    /// STAMP Vacation, low-contention parameterisation (Figure 1b).
    VacationLow,
    /// STAMP Vacation, high-contention parameterisation (Figure 1b).
    VacationHigh,
    /// STMBench7 long traversals with the given read-only percentage
    /// (Figures 2a/2b).
    Stmbench7 {
        /// Percentage of traversals that are read-only.
        read_pct: u64,
    },
    /// Uncontended fast-path overhead microworkload: `ops_per_txn` random
    /// reads per transaction over a private region.
    OverheadRead {
        /// Reads per transaction.
        ops_per_txn: u64,
    },
    /// Uncontended fast-path overhead microworkload: `ops_per_txn` random
    /// read-modify-writes per transaction over a private region.
    OverheadWrite {
        /// Read-modify-writes per transaction.
        ops_per_txn: u64,
    },
    /// The per-access cost of a *long* transaction: 2 048 read-modify-writes
    /// over a region wide enough that almost every one takes a new lock, as
    /// one transaction — and, on a speculative runtime, one task. The 64-op
    /// `overhead-*` rows cannot see a cost that grows with the number of
    /// locks a transaction already holds; this pair of rows (`swisstm`
    /// against `tlstm`) reads it off directly.
    OverheadWrite2k,
    /// `ops_per_txn` read-modify-writes per transaction over a region of only
    /// `words` words, so the tasks of one transaction write the same words:
    /// with one word every task reads its predecessor's write (chained
    /// reads), with a few every task overwrites them (intra-thread WAW).
    /// Only the `ablation` preset runs it.
    SharedWrite {
        /// Read-modify-writes per transaction.
        ops_per_txn: u64,
        /// Words the read-modify-writes are spread over.
        words: u64,
    },
    /// YCSB-style serving workload over the `txkv` sharded transactional
    /// key-value store (zipfian key choice; batches split into speculative
    /// tasks under TLSTM).
    Kv {
        /// The operation mix (A, B, C or scan-heavy).
        mix: KvMix,
    },
    /// The KV serving workload through the durable front-end: every write
    /// batch is redo-logged by the `txlog` group-commit WAL and waits for
    /// its durability acknowledgement. Compare against the matching
    /// [`WorkloadKind::Kv`] scenario to read off the logging overhead.
    KvDurable {
        /// The operation mix (A, B, C or scan-heavy).
        mix: KvMix,
        /// When the WAL acknowledges writes.
        fsync: FsyncPolicy,
        /// `Some(n)`: a multi-committer sweep row — pin `n` client threads
        /// sharing one WAL, ignoring the matrix's `--threads` axis, so runs
        /// with different thread lists stay comparable. The committer count
        /// is part of the scenario identity (`kv-a-durable-c64`).
        committers: Option<usize>,
    },
}

impl WorkloadKind {
    /// The identifier used in scenario names, reports and CLI filters.
    pub fn label(&self) -> String {
        match self {
            WorkloadKind::RbTree { ops_per_txn } => format!("rbtree-n{ops_per_txn}"),
            WorkloadKind::VacationLow => "vacation-low".to_string(),
            WorkloadKind::VacationHigh => "vacation-high".to_string(),
            WorkloadKind::Stmbench7 { read_pct } => format!("stmbench7-r{read_pct}"),
            WorkloadKind::OverheadRead { ops_per_txn } => format!("overhead-read-n{ops_per_txn}"),
            WorkloadKind::OverheadWrite { ops_per_txn } => {
                format!("overhead-write-n{ops_per_txn}")
            }
            WorkloadKind::OverheadWrite2k => "overhead-write-2k".to_string(),
            WorkloadKind::SharedWrite { ops_per_txn, words } => {
                format!("shared-write-n{ops_per_txn}-w{words}")
            }
            WorkloadKind::Kv { mix } => format!("kv-{}", mix.label()),
            // The fsync policy is a run-time modifier (`--fsync`), not part
            // of the identity: scenario names must stay stable so runs with
            // different policies compare row by row. A pinned committer
            // count *is* identity — the sweep rows measure different loads.
            WorkloadKind::KvDurable {
                mix,
                committers: Some(n),
                ..
            } => format!("kv-{}-durable-c{n}", mix.label()),
            WorkloadKind::KvDurable { mix, .. } => format!("kv-{}-durable", mix.label()),
        }
    }

    /// `true` if `selectors` (`--workloads` tokens: families or labels) is
    /// empty or names this workload.
    pub fn selected_by(&self, selectors: &[String]) -> bool {
        selectors.is_empty()
            || selectors
                .iter()
                .any(|s| s == self.family() || *s == self.label())
    }

    /// The CLI filter family this workload belongs to (`rbtree`, `vacation`,
    /// `stmbench7`, `overhead`, `kv`, `kv-durable`).
    pub fn family(&self) -> &'static str {
        match self {
            WorkloadKind::RbTree { .. } => "rbtree",
            WorkloadKind::VacationLow | WorkloadKind::VacationHigh => "vacation",
            WorkloadKind::Stmbench7 { .. } => "stmbench7",
            WorkloadKind::OverheadRead { .. }
            | WorkloadKind::OverheadWrite { .. }
            | WorkloadKind::OverheadWrite2k
            | WorkloadKind::SharedWrite { .. } => "overhead",
            WorkloadKind::Kv { .. } => "kv",
            WorkloadKind::KvDurable { .. } => "kv-durable",
        }
    }

    /// The task splits the paper's figures use for this workload under TLSTM.
    fn default_task_splits(&self) -> &'static [usize] {
        match self {
            WorkloadKind::RbTree { .. } => &[2, 4],
            WorkloadKind::VacationLow | WorkloadKind::VacationHigh => &[2],
            WorkloadKind::Stmbench7 { .. } => &[3],
            WorkloadKind::OverheadRead { .. } | WorkloadKind::OverheadWrite { .. } => &[2],
            WorkloadKind::OverheadWrite2k | WorkloadKind::SharedWrite { .. } => &[1],
            // A 16-op batch splits into KV_BATCH_GROUPS shard-group tasks.
            WorkloadKind::Kv { .. } | WorkloadKind::KvDurable { .. } => &[KV_BATCH_GROUPS],
        }
    }

    /// The same workload with `fsync` swapped in, for durable kinds; other
    /// kinds are returned unchanged (the `--fsync` CLI modifier).
    pub fn with_fsync(self, fsync: FsyncPolicy) -> WorkloadKind {
        match self {
            WorkloadKind::KvDurable {
                mix, committers, ..
            } => WorkloadKind::KvDurable {
                mix,
                fsync,
                committers,
            },
            other => other,
        }
    }

    /// The client-thread count this workload pins, if any: the
    /// multi-committer sweep rows run at their own fixed thread count and
    /// ignore the matrix's `--threads` axis.
    pub fn pinned_threads(&self) -> Option<usize> {
        match self {
            WorkloadKind::KvDurable { committers, .. } => *committers,
            _ => None,
        }
    }
}

/// The labels of scenarios that pin their own thread count — the
/// committer-pinned `kv-a-durable-cN` rows, which ignore an explicit
/// `--threads` axis. `tmbench`
/// warns (non-fatally) when the user passes `--threads` alongside them, so
/// a sweep run never silently measures something other than what the flag
/// suggests. Sorted and deduplicated for stable warning text.
pub fn pinned_workload_labels(scenarios: &[ScenarioSpec]) -> Vec<String> {
    let mut labels: Vec<String> = scenarios
        .iter()
        .filter(|s| s.workload.pinned_threads().is_some())
        .map(|s| s.workload.label())
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

/// Shard-groups every kv batch is planned into, on *both* runtimes: the plan
/// order is part of the batch semantics, so SwissTM (which executes the plan
/// sequentially inside one transaction) and TLSTM (which runs one speculative
/// task per group) must group identically to execute identical op streams.
pub const KV_BATCH_GROUPS: usize = 4;

/// One fully specified benchmark scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The workload to drive.
    pub workload: WorkloadKind,
    /// The registry entry of the runtime to measure.
    pub runtime: &'static RuntimeEntry,
    /// User-threads driving the workload.
    pub threads: usize,
    /// Tasks per user-transaction (always 1 on sequential runtimes).
    pub tasks_per_txn: usize,
}

impl ScenarioSpec {
    /// The scenario's unique, stable name: `workload/runtime/tN/kM`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/t{}/k{}",
            self.workload.label(),
            self.runtime.name,
            self.threads,
            self.tasks_per_txn
        )
    }

    /// Runs the scenario and converts the metrics into a report row.
    pub fn run(&self, config: &WorkloadConfig) -> ScenarioResult {
        let metrics = self.runtime.measure(self, config);
        let latency = &metrics.latency;
        ScenarioResult {
            name: self.name(),
            workload: self.workload.label(),
            runtime: self.runtime.name.to_string(),
            threads: self.threads,
            tasks_per_txn: self.tasks_per_txn,
            ops: metrics.throughput.ops,
            elapsed_ms: metrics.throughput.elapsed.as_secs_f64() * 1e3,
            ops_per_sec: metrics.throughput.ops_per_sec(),
            latency: LatencySummary {
                mean_ns: latency.mean_ns(),
                p50_ns: latency.quantile_ns(0.50),
                p99_ns: latency.quantile_ns(0.99),
                max_ns: latency.max_ns(),
                samples: latency.count(),
            },
            stats: metrics.stats,
            wal: metrics.wal.as_ref().map(WalSummary::from_snapshot),
        }
    }
}

/// Measures one scenario on runtime `R` — the single place the scenario
/// matrix meets the [`TxRuntime`] API. Instantiated once per registered
/// runtime as a [`RuntimeEntry`] fn pointer, so adding a runtime never
/// touches this function.
fn measure_on<R: TxRuntime>(spec: &ScenarioSpec, config: &WorkloadConfig) -> RunMetrics {
    match &spec.workload {
        WorkloadKind::RbTree { ops_per_txn } => {
            let params = RbTreeBenchParams {
                ops_per_txn: *ops_per_txn,
                tasks_per_txn: spec.tasks_per_txn,
                threads: spec.threads,
                ..Default::default()
            };
            rbtree_bench::measure::<R>(&params, config)
        }
        WorkloadKind::VacationLow | WorkloadKind::VacationHigh => {
            let mut params = if matches!(spec.workload, WorkloadKind::VacationLow) {
                VacationParams::low_contention()
            } else {
                VacationParams::high_contention()
            };
            params.tasks_per_txn = spec.tasks_per_txn;
            params.clients = spec.threads;
            vacation::measure::<R>(&params, config)
        }
        WorkloadKind::Stmbench7 { read_pct } => {
            let params = Stmbench7Params {
                read_pct: *read_pct,
                tasks_per_txn: spec.tasks_per_txn,
                threads: spec.threads,
                ..Default::default()
            };
            stmbench7::measure::<R>(&params, config)
        }
        WorkloadKind::OverheadRead { ops_per_txn }
        | WorkloadKind::OverheadWrite { ops_per_txn } => {
            let params = OverheadParams {
                ops_per_txn: *ops_per_txn,
                write_heavy: matches!(spec.workload, WorkloadKind::OverheadWrite { .. }),
                tasks_per_txn: spec.tasks_per_txn,
                threads: spec.threads,
                ..Default::default()
            };
            overhead::measure::<R>(&params, config)
        }
        WorkloadKind::OverheadWrite2k => {
            let ops_per_txn = 2048;
            let params = OverheadParams {
                // One lock (four words) per operation.
                words: 4 * ops_per_txn,
                threads: spec.threads,
                ..OverheadParams::write_heavy(ops_per_txn)
            };
            overhead::measure::<R>(&params, config)
        }
        WorkloadKind::SharedWrite { ops_per_txn, words } => {
            let params = OverheadParams {
                words: *words,
                tasks_per_txn: spec.tasks_per_txn,
                threads: spec.threads,
                ..OverheadParams::write_heavy(*ops_per_txn)
            };
            overhead::measure::<R>(&params, config)
        }
        WorkloadKind::Kv { mix } | WorkloadKind::KvDurable { mix, .. } => {
            let params = KvParams {
                tasks_per_txn: kv_task_split::<R>(spec),
                threads: spec.threads,
                durable: match &spec.workload {
                    WorkloadKind::KvDurable { fsync, .. } => Some(KvDurability { fsync: *fsync }),
                    _ => None,
                },
                ..KvParams::mix(*mix)
            };
            kv::measure::<R>(&params, config)
        }
    }
}

/// The shard-group count a kv-family batch is planned into on runtime `R`.
/// `tasks_per_txn` is the batch's shard-group count. Sequential runtimes
/// carry k1 ("one task") in the matrix, but must plan with the same grouping
/// as the speculative rows so every runtime executes identical op streams —
/// derived from the workload's task-split list, which therefore must stay
/// single-valued for kv (one k1 row cannot match two groupings).
fn kv_task_split<R: TxRuntime>(spec: &ScenarioSpec) -> usize {
    if R::SPECULATIVE {
        spec.tasks_per_txn
    } else {
        let splits = spec.workload.default_task_splits();
        assert_eq!(
            splits,
            [KV_BATCH_GROUPS],
            "kv comparability requires a single task split"
        );
        splits[0]
    }
}

/// Which parts of the full matrix a run covers.
#[derive(Debug, Clone)]
pub struct MatrixSelection {
    /// Thread counts to measure (each scenario is run once per count).
    pub threads: Vec<usize>,
    /// Workload filter: each entry is a family (`rbtree`, `vacation`,
    /// `stmbench7`, `overhead`, `kv`) or a concrete workload label
    /// (`kv-a`, `rbtree-n16`, ...); empty means all.
    pub workload_families: Vec<String>,
    /// Runtime filter; empty means every registered runtime.
    pub runtimes: Vec<&'static RuntimeEntry>,
    /// Fsync-policy override for the `kv-durable` scenarios (`--fsync`);
    /// `None` keeps the default matrix's policy. Scenario names are not
    /// affected — the modifier exists to compare policies across runs.
    pub fsync: Option<FsyncPolicy>,
}

impl Default for MatrixSelection {
    fn default() -> Self {
        MatrixSelection {
            threads: vec![1],
            workload_families: Vec::new(),
            runtimes: Vec::new(),
            fsync: None,
        }
    }
}

/// The workloads of the default matrix (the paper's figure scenarios).
pub fn default_workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::RbTree { ops_per_txn: 16 },
        WorkloadKind::VacationLow,
        WorkloadKind::VacationHigh,
        WorkloadKind::Stmbench7 { read_pct: 90 },
        WorkloadKind::Stmbench7 { read_pct: 10 },
        WorkloadKind::OverheadRead { ops_per_txn: 64 },
        WorkloadKind::OverheadWrite { ops_per_txn: 64 },
        WorkloadKind::OverheadWrite2k,
        WorkloadKind::Kv { mix: KvMix::A },
        WorkloadKind::Kv { mix: KvMix::B },
        WorkloadKind::Kv {
            mix: KvMix::ScanHeavy,
        },
        // The durable twins of the write-bearing kv mixes: the throughput
        // delta vs kv-a / kv-b is the WAL's group-commit overhead. The
        // default policy fsyncs each written batch at once (`always` and
        // `group[:<ms>]` both mean that); `--fsync none` drops the fsync.
        WorkloadKind::KvDurable {
            mix: KvMix::A,
            fsync: FsyncPolicy::default(),
            committers: None,
        },
        WorkloadKind::KvDurable {
            mix: KvMix::B,
            fsync: FsyncPolicy::default(),
            committers: None,
        },
        // The multi-committer sweep: N client threads share one WAL, so the
        // cN rows read off how the pipelined group commit amortises fsyncs
        // as committers pile up (ops/s-per-fsync rises with N). These rows
        // pin their own thread count and ignore the `--threads` axis.
        WorkloadKind::KvDurable {
            mix: KvMix::A,
            fsync: FsyncPolicy::default(),
            committers: Some(1),
        },
        WorkloadKind::KvDurable {
            mix: KvMix::A,
            fsync: FsyncPolicy::default(),
            committers: Some(8),
        },
        WorkloadKind::KvDurable {
            mix: KvMix::A,
            fsync: FsyncPolicy::default(),
            committers: Some(64),
        },
    ]
}

/// The selectors a `--workloads` filter token may name: every family plus
/// every concrete workload label of the default matrix.
pub fn workload_selectors() -> Vec<String> {
    selectors_of(&default_workloads())
}

/// The `--workloads` tokens that select among `workloads`: every family and
/// every label, once each, in first-appearance order.
pub fn selectors_of<'a>(workloads: impl IntoIterator<Item = &'a WorkloadKind>) -> Vec<String> {
    let mut selectors = Vec::new();
    for workload in workloads {
        let family = workload.family().to_string();
        if !selectors.contains(&family) {
            selectors.push(family);
        }
        let label = workload.label();
        if !selectors.contains(&label) {
            selectors.push(label);
        }
    }
    selectors
}

/// Expands a matrix selection into the concrete scenario list.
///
/// Sequential runtimes always run with one task per transaction (they have
/// no task decomposition); speculative runtimes run once per figure-default
/// task split.
pub fn build_scenarios(selection: &MatrixSelection) -> Vec<ScenarioSpec> {
    let runtimes: Vec<&'static RuntimeEntry> = if selection.runtimes.is_empty() {
        RUNTIME_REGISTRY.iter().collect()
    } else {
        selection.runtimes.clone()
    };
    let mut scenarios = Vec::new();
    for workload in default_workloads() {
        if !workload.selected_by(&selection.workload_families) {
            continue;
        }
        let workload = match selection.fsync {
            Some(fsync) => workload.with_fsync(fsync),
            None => workload,
        };
        // Committer-pinned rows run once at their own thread count; every
        // other workload expands over the selection's thread axis.
        let thread_axis: Vec<usize> = match workload.pinned_threads() {
            Some(pinned) => vec![pinned],
            None => selection.threads.clone(),
        };
        for &threads in &thread_axis {
            for &runtime in &runtimes {
                if runtime.speculative {
                    for &tasks in workload.default_task_splits() {
                        scenarios.push(ScenarioSpec {
                            workload: workload.clone(),
                            runtime,
                            threads,
                            tasks_per_txn: tasks,
                        });
                    }
                } else {
                    scenarios.push(ScenarioSpec {
                        workload: workload.clone(),
                        runtime,
                        threads,
                        tasks_per_txn: 1,
                    });
                }
            }
        }
    }
    scenarios
}

/// The rows of one of the paper's figures (`1a`, `1b`, `2a`, `2b`): every
/// point of every series the figure plots, as scenarios of the same matrix
/// (`tmbench --figure`); or, for `ablation`, the two costs TLSTM's speed-ups
/// must amortise — splitting a transaction into k tasks, and conflicts
/// between the tasks of one transaction. `None` for an unknown id.
pub fn figure_scenarios(figure: &str) -> Option<Vec<ScenarioSpec>> {
    let row = |workload: &WorkloadKind, runtime: &str, threads: usize, tasks_per_txn: usize| {
        ScenarioSpec {
            workload: workload.clone(),
            runtime: find_runtime(runtime).expect("figure runtimes are registered"),
            threads,
            tasks_per_txn,
        }
    };
    let mut rows = Vec::new();
    match figure {
        // 1a: TLSTM-2/-4 speed-up over SwissTM vs lookups per transaction.
        "1a" => {
            for ops_per_txn in [2, 4, 8, 16, 32, 64] {
                let w = WorkloadKind::RbTree { ops_per_txn };
                rows.extend([
                    row(&w, "swisstm", 1, 1),
                    row(&w, "tlstm", 1, 2),
                    row(&w, "tlstm", 1, 4),
                ]);
            }
        }
        // 1b: Vacation throughput vs clients, both contention levels.
        "1b" => {
            for w in [WorkloadKind::VacationLow, WorkloadKind::VacationHigh] {
                for clients in 1..=10 {
                    rows.extend([
                        row(&w, "swisstm", clients, 1),
                        row(&w, "tlstm", clients, 1),
                        row(&w, "tlstm", clients, 2),
                    ]);
                }
            }
        }
        // 2a: STMBench7 vs read-only %: SwissTM on 1 and 3 threads against
        // one TLSTM thread split into 3 tasks.
        "2a" => {
            for read_pct in [0, 25, 50, 75, 100] {
                let w = WorkloadKind::Stmbench7 { read_pct };
                rows.extend([
                    row(&w, "swisstm", 1, 1),
                    row(&w, "swisstm", 3, 1),
                    row(&w, "tlstm", 1, 3),
                ]);
            }
        }
        // 2b: the standard STMBench7 mixes on 1-3 threads, TLSTM at 3 and 9
        // tasks per thread.
        "2b" => {
            for read_pct in [10, 60, 90] {
                let w = WorkloadKind::Stmbench7 { read_pct };
                for threads in 1..=3 {
                    rows.extend([
                        row(&w, "swisstm", threads, 1),
                        row(&w, "tlstm", threads, 3),
                        row(&w, "tlstm", threads, 9),
                    ]);
                }
            }
        }
        // The ablation, one thread throughout: 64 independent reads split
        // across k tasks (the spec-depth sweep); 8 RMWs of one shared word,
        // each task reading its predecessor's write (chained reads); and 24
        // RMWs of 8 shared words, every task writing the same words
        // (intra-thread WAW).
        "ablation" => {
            let series: [(WorkloadKind, &[usize]); 3] = [
                (
                    WorkloadKind::OverheadRead { ops_per_txn: 64 },
                    &[1, 2, 3, 4, 8],
                ),
                (
                    WorkloadKind::SharedWrite {
                        ops_per_txn: 8,
                        words: 1,
                    },
                    &[2, 4, 8],
                ),
                (
                    WorkloadKind::SharedWrite {
                        ops_per_txn: 24,
                        words: 8,
                    },
                    &[1, 3],
                ),
            ];
            for (w, splits) in &series {
                rows.push(row(w, "swisstm", 1, 1));
                rows.extend(splits.iter().map(|&k| row(w, "tlstm", 1, k)));
            }
        }
        _ => return None,
    }
    Some(rows)
}

/// Runs every scenario and assembles the versioned report. `progress` is
/// called before each scenario starts (for CLI progress output).
pub fn run_matrix(
    scenarios: &[ScenarioSpec],
    config: &WorkloadConfig,
    quick: bool,
    mut progress: impl FnMut(usize, usize, &ScenarioSpec),
) -> BenchReport {
    let total = scenarios.len();
    let results = scenarios
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            progress(i, total, spec);
            spec.run(config)
        })
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        quick,
        duration_ms: config.duration.as_millis() as u64,
        repetitions: config.repetitions,
        scenarios: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_every_runtime_exactly_once() {
        let names = runtime_names();
        assert_eq!(names, ["swisstm", "tlstm", "seqref"]);
        for name in &names {
            let entry = find_runtime(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(entry.name, *name);
        }
        assert!(find_runtime("blockstm").is_none(), "PR 8 scaffold slot");
        assert!(find_runtime("").is_none());
        // Speculation drives the k-axis: exactly tlstm today.
        assert!(find_runtime("tlstm").unwrap().speculative);
        assert!(!find_runtime("swisstm").unwrap().speculative);
        assert!(!find_runtime("seqref").unwrap().speculative);
    }

    #[test]
    fn default_matrix_covers_every_runtime_and_all_families() {
        let scenarios = build_scenarios(&MatrixSelection::default());
        // 5 workloads × (k1 rows + figure task splits for speculative).
        assert!(scenarios.len() >= 10);
        for runtime in RUNTIME_REGISTRY {
            assert!(
                scenarios.iter().any(|s| s.runtime == runtime),
                "{} missing from the default matrix",
                runtime.name
            );
        }
        for family in [
            "rbtree",
            "vacation",
            "stmbench7",
            "overhead",
            "kv",
            "kv-durable",
        ] {
            assert!(scenarios.iter().any(|s| s.workload.family() == family));
        }
        // Names are unique — the report schema requires it.
        let names: std::collections::HashSet<String> =
            scenarios.iter().map(ScenarioSpec::name).collect();
        assert_eq!(names.len(), scenarios.len());
        // Sequential runtimes never claim a task split.
        assert!(scenarios
            .iter()
            .filter(|s| !s.runtime.speculative)
            .all(|s| s.tasks_per_txn == 1));
    }

    #[test]
    fn filters_restrict_the_matrix() {
        let selection = MatrixSelection {
            threads: vec![1, 2],
            workload_families: vec!["rbtree".to_string()],
            runtimes: vec![find_runtime("swisstm").unwrap()],
            fsync: None,
        };
        let scenarios = build_scenarios(&selection);
        assert_eq!(
            scenarios.len(),
            2,
            "one rbtree swisstm scenario per thread count"
        );
        assert!(scenarios.iter().all(|s| s.workload.family() == "rbtree"));
        assert!(scenarios.iter().all(|s| s.runtime.name == "swisstm"));
    }

    #[test]
    fn filters_accept_concrete_workload_labels() {
        let selection = MatrixSelection {
            threads: vec![1],
            workload_families: vec!["kv-a".to_string(), "kv-scan".to_string()],
            runtimes: Vec::new(),
            fsync: None,
        };
        let scenarios = build_scenarios(&selection);
        assert!(!scenarios.is_empty());
        assert!(scenarios
            .iter()
            .all(|s| ["kv-a", "kv-scan"].contains(&s.workload.label().as_str())));
        // The family token still selects every kv mix.
        let selection = MatrixSelection {
            threads: vec![1],
            workload_families: vec!["kv".to_string()],
            runtimes: Vec::new(),
            fsync: None,
        };
        let labels: std::collections::HashSet<String> = build_scenarios(&selection)
            .iter()
            .map(|s| s.workload.label())
            .collect();
        assert_eq!(
            labels,
            ["kv-a", "kv-b", "kv-scan"]
                .into_iter()
                .map(String::from)
                .collect()
        );
    }

    #[test]
    fn workload_selectors_cover_families_and_labels() {
        let selectors = workload_selectors();
        for token in [
            "rbtree",
            "kv",
            "overhead",
            "kv-a",
            "kv-b",
            "kv-scan",
            "kv-durable",
            "kv-a-durable",
            "kv-b-durable",
            "kv-a-durable-c1",
            "kv-a-durable-c8",
            "kv-a-durable-c64",
        ] {
            assert!(
                selectors.iter().any(|s| s == token),
                "missing selector {token}"
            );
        }
        // The `kv` family must not swallow the durable twins (their overhead
        // comparison needs them separately selectable).
        let selection = MatrixSelection {
            threads: vec![1],
            workload_families: vec!["kv".to_string()],
            runtimes: Vec::new(),
            fsync: None,
        };
        assert!(build_scenarios(&selection)
            .iter()
            .all(|s| s.workload.family() == "kv"));
    }

    #[test]
    fn fsync_override_applies_only_to_durable_workloads() {
        let selection = MatrixSelection {
            threads: vec![1],
            workload_families: vec!["kv-durable".to_string(), "kv-a".to_string()],
            runtimes: vec![find_runtime("swisstm").unwrap()],
            fsync: Some(FsyncPolicy::None),
        };
        let scenarios = build_scenarios(&selection);
        assert!(!scenarios.is_empty());
        for spec in &scenarios {
            match &spec.workload {
                WorkloadKind::KvDurable { fsync, .. } => {
                    assert_eq!(*fsync, FsyncPolicy::None)
                }
                WorkloadKind::Kv { .. } => {}
                other => panic!("unexpected workload {other:?}"),
            }
        }
        // Scenario names are unaffected by the modifier.
        assert!(scenarios
            .iter()
            .any(|s| s.name() == "kv-a-durable/swisstm/t1/k1"));
    }

    #[test]
    fn committer_sweep_rows_pin_their_thread_count() {
        let selection = MatrixSelection {
            threads: vec![1, 2],
            workload_families: vec!["kv-durable".to_string()],
            runtimes: vec![find_runtime("swisstm").unwrap()],
            fsync: None,
        };
        let scenarios = build_scenarios(&selection);
        // Each cN row appears exactly once, at its own thread count,
        // regardless of the thread axis.
        for (label, want) in [
            ("kv-a-durable-c1", 1),
            ("kv-a-durable-c8", 8),
            ("kv-a-durable-c64", 64),
        ] {
            let rows: Vec<_> = scenarios
                .iter()
                .filter(|s| s.workload.label() == label)
                .collect();
            assert_eq!(rows.len(), 1, "{label}");
            assert_eq!(rows[0].threads, want, "{label}");
        }
        assert!(scenarios
            .iter()
            .any(|s| s.name() == "kv-a-durable-c64/swisstm/t64/k1"));
        // Unpinned durable rows still expand over the thread axis.
        assert_eq!(
            scenarios
                .iter()
                .filter(|s| s.workload.label() == "kv-a-durable")
                .count(),
            2
        );
        // The fsync modifier preserves the pinned committer count.
        let sweep = WorkloadKind::KvDurable {
            mix: KvMix::A,
            fsync: FsyncPolicy::default(),
            committers: Some(8),
        };
        assert_eq!(
            sweep.with_fsync(FsyncPolicy::None).pinned_threads(),
            Some(8)
        );
    }

    #[test]
    fn pinned_workload_labels_name_the_rows_that_ignore_threads() {
        let scenarios = build_scenarios(&MatrixSelection {
            threads: vec![4],
            workload_families: Vec::new(),
            runtimes: vec![find_runtime("seqref").unwrap()],
            fsync: None,
        });
        let labels = pinned_workload_labels(&scenarios);
        assert_eq!(
            labels,
            ["kv-a-durable-c1", "kv-a-durable-c64", "kv-a-durable-c8"]
        );
        // A selection without pinned rows warns about nothing.
        let scenarios = build_scenarios(&MatrixSelection {
            threads: vec![4],
            workload_families: vec!["rbtree".to_string()],
            runtimes: Vec::new(),
            fsync: None,
        });
        assert!(pinned_workload_labels(&scenarios).is_empty());
    }

    #[test]
    fn figure_presets_list_exactly_the_paper_series() {
        let rows = |figure: &str| -> Vec<String> {
            let specs = figure_scenarios(figure).expect("known figure");
            for spec in &specs {
                assert!(
                    RUNTIME_REGISTRY
                        .iter()
                        .any(|r| std::ptr::eq(r, spec.runtime)),
                    "{} bypasses the registry",
                    spec.name()
                );
            }
            let names: Vec<String> = specs.iter().map(ScenarioSpec::name).collect();
            let unique: std::collections::HashSet<&String> = names.iter().collect();
            assert_eq!(unique.len(), names.len(), "figure {figure} repeats a row");
            names
        };
        let mut want = Vec::new();
        for n in [2, 4, 8, 16, 32, 64] {
            for series in ["swisstm/t1/k1", "tlstm/t1/k2", "tlstm/t1/k4"] {
                want.push(format!("rbtree-n{n}/{series}"));
            }
        }
        assert_eq!(rows("1a"), want);
        want.clear();
        for level in ["low", "high"] {
            for c in 1..=10 {
                for series in ["swisstm", "tlstm"].map(|rt| format!("{rt}/t{c}/k1")) {
                    want.push(format!("vacation-{level}/{series}"));
                }
                want.push(format!("vacation-{level}/tlstm/t{c}/k2"));
            }
        }
        assert_eq!(rows("1b"), want);
        want.clear();
        for r in [0, 25, 50, 75, 100] {
            for series in ["swisstm/t1/k1", "swisstm/t3/k1", "tlstm/t1/k3"] {
                want.push(format!("stmbench7-r{r}/{series}"));
            }
        }
        assert_eq!(rows("2a"), want);
        want.clear();
        for r in [10, 60, 90] {
            for t in 1..=3 {
                for (rt, k) in [("swisstm", 1), ("tlstm", 3), ("tlstm", 9)] {
                    want.push(format!("stmbench7-r{r}/{rt}/t{t}/k{k}"));
                }
            }
        }
        assert_eq!(rows("2b"), want);
        assert_eq!(
            rows("ablation"),
            [
                "overhead-read-n64/swisstm/t1/k1",
                "overhead-read-n64/tlstm/t1/k1",
                "overhead-read-n64/tlstm/t1/k2",
                "overhead-read-n64/tlstm/t1/k3",
                "overhead-read-n64/tlstm/t1/k4",
                "overhead-read-n64/tlstm/t1/k8",
                "shared-write-n8-w1/swisstm/t1/k1",
                "shared-write-n8-w1/tlstm/t1/k2",
                "shared-write-n8-w1/tlstm/t1/k4",
                "shared-write-n8-w1/tlstm/t1/k8",
                "shared-write-n24-w8/swisstm/t1/k1",
                "shared-write-n24-w8/tlstm/t1/k1",
                "shared-write-n24-w8/tlstm/t1/k3",
            ]
        );
        for (figure, n) in [
            ("1a", 18),
            ("1b", 60),
            ("2a", 15),
            ("2b", 27),
            ("ablation", 13),
        ] {
            assert_eq!(rows(figure).len(), n, "figure {figure}");
        }
        for unknown in ["", "1c", "3a", "1A", "fig1a"] {
            assert!(figure_scenarios(unknown).is_none(), "{unknown:?}");
        }
    }

    #[test]
    fn nine_task_stmbench7_split_runs_through_the_registry() {
        // Spec depth 9 (one task per depth-2 subtree) is reached only by
        // figure 2b: run that row once, for a short window.
        let spec = figure_scenarios("2b")
            .unwrap()
            .into_iter()
            .find(|s| s.name() == "stmbench7-r60/tlstm/t1/k9")
            .expect("figure 2b has the k9 row");
        let result = spec.run(&WorkloadConfig::quick());
        assert_eq!(result.tasks_per_txn, 9);
        assert!(result.ops > 0, "k9 traversals made no progress");
        assert!(result.stats.tx_commits > 0);
    }

    #[test]
    fn scenario_names_encode_the_axes() {
        let spec = ScenarioSpec {
            workload: WorkloadKind::Stmbench7 { read_pct: 90 },
            runtime: find_runtime("tlstm").unwrap(),
            threads: 2,
            tasks_per_txn: 3,
        };
        assert_eq!(spec.name(), "stmbench7-r90/tlstm/t2/k3");
    }

    #[test]
    fn seqref_rows_measure_through_the_registry() {
        // A registry-dispatched seqref scenario actually runs: the matrix
        // picks new runtimes up from the registry with zero scenario-code
        // changes, and the call path is the same fn-pointer dispatch the
        // real matrix uses.
        let spec = ScenarioSpec {
            workload: WorkloadKind::RbTree { ops_per_txn: 4 },
            runtime: find_runtime("seqref").unwrap(),
            threads: 1,
            tasks_per_txn: 1,
        };
        assert_eq!(spec.name(), "rbtree-n4/seqref/t1/k1");
        let config = WorkloadConfig::quick();
        let result = spec.run(&config);
        assert!(result.ops > 0, "seqref made no progress");
        assert_eq!(result.runtime, "seqref");
    }
}
