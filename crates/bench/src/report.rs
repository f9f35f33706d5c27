//! The versioned `tmbench` benchmark report and its JSON writer.
//!
//! A [`BenchReport`] is what one `tmbench` invocation produces: one
//! [`ScenarioResult`] per (workload, runtime, threads, tasks) combination,
//! each carrying throughput, a per-transaction latency summary and the full
//! abort-cause breakdown from the runtime's sharded statistics counters.
//! Reports serialise to deterministic pretty-printed JSON
//! (`BENCH_results.json`) for whoever reads them next; nothing in-tree
//! parses them back, and the regression gate is `benchmark/run.sh`.

use txmem::StatsSnapshot;

use crate::json::Json;

/// Version of the `BENCH_results.json` schema produced by this build.
///
/// Bump on any incompatible change to the report shape.
pub const SCHEMA_VERSION: u64 = 3;

/// Summary of a per-transaction latency distribution, in nanoseconds.
///
/// Quantiles come from a log₂-bucketed histogram, so they are upper bounds
/// with one-power-of-two resolution (see
/// `tlstm_workloads::harness::LatencyHistogram`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_ns: f64,
    /// Median (p50) latency.
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Largest observed latency.
    pub max_ns: u64,
    /// Number of samples the summary is built from.
    pub samples: u64,
}

impl LatencySummary {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("mean_ns", Json::Num(self.mean_ns)),
            ("p50_ns", Json::Num(self.p50_ns as f64)),
            ("p99_ns", Json::Num(self.p99_ns as f64)),
            ("max_ns", Json::Num(self.max_ns as f64)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

/// WAL pipeline summary for a durable scenario, from the `txobs` WAL metrics
/// delta captured around the measured window.
///
/// Latency quantiles come from the same log₂-bucketed histograms as
/// [`LatencySummary`], so they are one-power-of-two upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalSummary {
    /// Records enqueued to the WAL during the window.
    pub enqueued: u64,
    /// Batches the WAL writer wrote.
    pub batches: u64,
    /// Mean records per append batch (0 when no batches were written).
    pub mean_batch_records: f64,
    /// Total bytes written by the WAL writer.
    pub batch_bytes: u64,
    /// fsync calls issued by the WAL writer.
    pub fsyncs: u64,
    /// Median append (write_batch) latency.
    pub append_p50_ns: u64,
    /// 99th-percentile append latency.
    pub append_p99_ns: u64,
    /// Median fsync latency.
    pub fsync_p50_ns: u64,
    /// 99th-percentile fsync latency.
    pub fsync_p99_ns: u64,
    /// Storage-layer retries performed by the WAL writer.
    pub retries: u64,
    /// Storage faults that latched the writer into a failed state.
    pub faults: u64,
    /// Segment rotations completed.
    pub rotations: u64,
}

impl WalSummary {
    /// Builds the summary from a `txobs` WAL metrics delta (the snapshot
    /// difference captured around the measured window). All derived values
    /// come from the snapshot's own zero-guarded helpers, so an empty window
    /// summarises to zeros, never NaN.
    pub fn from_snapshot(wal: &txobs::metrics::WalSnapshot) -> WalSummary {
        WalSummary {
            enqueued: wal.enqueued,
            batches: wal.batches,
            mean_batch_records: wal.mean_batch_records(),
            batch_bytes: wal.batch_bytes,
            fsyncs: wal.fsyncs,
            append_p50_ns: wal.append_ns.quantile_ns(0.50),
            append_p99_ns: wal.append_ns.quantile_ns(0.99),
            fsync_p50_ns: wal.fsync_ns.quantile_ns(0.50),
            fsync_p99_ns: wal.fsync_ns.quantile_ns(0.99),
            retries: wal.retries,
            faults: wal.faults,
            rotations: wal.rotations,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("enqueued", Json::Num(self.enqueued as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("mean_batch_records", Json::Num(self.mean_batch_records)),
            ("batch_bytes", Json::Num(self.batch_bytes as f64)),
            ("fsyncs", Json::Num(self.fsyncs as f64)),
            ("append_p50_ns", Json::Num(self.append_p50_ns as f64)),
            ("append_p99_ns", Json::Num(self.append_p99_ns as f64)),
            ("fsync_p50_ns", Json::Num(self.fsync_p50_ns as f64)),
            ("fsync_p99_ns", Json::Num(self.fsync_p99_ns as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("faults", Json::Num(self.faults as f64)),
            ("rotations", Json::Num(self.rotations as f64)),
        ])
    }
}

/// The result of one benchmark scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Unique scenario identifier, e.g. `rbtree-n16/tlstm/t1/k2`.
    pub name: String,
    /// Workload family (`rbtree`, `vacation-low`, `vacation-high`,
    /// `stmbench7-r90`, ...).
    pub workload: String,
    /// Runtime under test (`swisstm` or `tlstm`).
    pub runtime: String,
    /// Number of user-threads driving the workload.
    pub threads: usize,
    /// Tasks each user-transaction is split into (1 under SwissTM).
    pub tasks_per_txn: usize,
    /// Committed operations over the measured duration.
    pub ops: u64,
    /// Measured wall-clock duration in milliseconds.
    pub elapsed_ms: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Per-user-transaction latency summary.
    pub latency: LatencySummary,
    /// Full runtime statistics for the run: commits, aborts by cause,
    /// validations, contention-manager decisions.
    pub stats: StatsSnapshot,
    /// WAL pipeline summary; present only for durable scenarios.
    pub wal: Option<WalSummary>,
}

impl ScenarioResult {
    fn to_json(&self) -> Json {
        let mut json = Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("runtime", Json::Str(self.runtime.clone())),
            ("threads", Json::Num(self.threads as f64)),
            ("tasks_per_txn", Json::Num(self.tasks_per_txn as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("elapsed_ms", Json::Num(self.elapsed_ms)),
            ("ops_per_sec", Json::Num(self.ops_per_sec)),
            ("txn_latency", self.latency.to_json()),
            (
                "stats",
                Json::Obj(
                    self.stats
                        .fields()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
        ]);
        if let (Json::Obj(pairs), Some(wal)) = (&mut json, self.wal) {
            pairs.push(("wal".to_string(), wal.to_json()));
        }
        json
    }
}

/// A full `tmbench` report: run-level metadata plus one result per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for reports produced by this build).
    pub schema_version: u64,
    /// `true` when produced by a `--quick` run (short durations; numbers are
    /// smoke-level, not publication-level).
    pub quick: bool,
    /// Measured duration per scenario data point, in milliseconds.
    pub duration_ms: u64,
    /// Repetitions averaged per scenario.
    pub repetitions: u32,
    /// The scenario results, in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serialises the report as deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("tool", Json::Str("tmbench".to_string())),
            ("quick", Json::Bool(self.quick)),
            ("duration_ms", Json::Num(self.duration_ms as f64)),
            ("repetitions", Json::Num(f64::from(self.repetitions))),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioResult::to_json).collect()),
            ),
        ])
        .to_pretty_string()
    }

    /// Number of distinct workloads covered by the report.
    pub fn distinct_workloads(&self) -> usize {
        let set: std::collections::HashSet<&str> =
            self.scenarios.iter().map(|s| s.workload.as_str()).collect();
        set.len()
    }

    /// Number of distinct runtimes covered by the report.
    pub fn distinct_runtimes(&self) -> usize {
        let set: std::collections::HashSet<&str> =
            self.scenarios.iter().map(|s| s.runtime.as_str()).collect();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario(name: &str, ops_per_sec: f64) -> ScenarioResult {
        let stats = StatsSnapshot {
            tx_commits: 1000,
            tx_aborts: 10,
            aborts_read_validation: 6,
            aborts_inter_ww: 4,
            ..Default::default()
        };
        ScenarioResult {
            name: name.to_string(),
            workload: name.split('/').next().unwrap_or("w").to_string(),
            runtime: "swisstm".to_string(),
            threads: 2,
            tasks_per_txn: 1,
            ops: 50_000,
            elapsed_ms: 300.5,
            ops_per_sec,
            latency: LatencySummary {
                mean_ns: 1234.5,
                p50_ns: 1023,
                p99_ns: 8191,
                max_ns: 123_456,
                samples: 50_000,
            },
            stats,
            wal: None,
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            duration_ms: 50,
            repetitions: 1,
            scenarios: vec![
                sample_scenario("rbtree-n16/swisstm/t1/k1", 100_000.0),
                sample_scenario("rbtree-n16/tlstm/t1/k2", 120_000.0),
            ],
        }
    }

    #[test]
    fn empty_window_summaries_stay_finite_and_valid() {
        // A zero-duration, zero-sample, zero-batch window must summarise to
        // zeros everywhere — never NaN or infinity, which the report's JSON
        // cannot carry and downstream tooling would choke on.
        let empty_wal = WalSummary::from_snapshot(&txobs::metrics::WalSnapshot::default());
        assert_eq!(empty_wal.mean_batch_records, 0.0);

        let mut report = sample_report();
        report.scenarios.truncate(1);
        let s = &mut report.scenarios[0];
        s.name = "kv-a-durable/swisstm/t1/k1".to_string();
        s.workload = "kv-a-durable".to_string();
        s.ops = 0;
        s.elapsed_ms = 0.0;
        s.ops_per_sec = 0.0;
        s.latency = LatencySummary {
            mean_ns: 0.0,
            p50_ns: 0,
            p99_ns: 0,
            max_ns: 0,
            samples: 0,
        };
        s.stats = StatsSnapshot::default();
        s.wal = Some(empty_wal);

        let text = report.to_json_string();
        assert!(
            !text.contains("NaN") && !text.contains("inf") && !text.contains("null"),
            "empty-window report leaked a non-finite value:\n{text}"
        );
        assert!(text.contains("\"wal\": {") && text.contains("\"mean_batch_records\": 0"));
        // Every counter is written, so a reader never has to guess a zero.
        for (name, _) in StatsSnapshot::default().fields() {
            assert!(text.contains(&format!("\"{name}\": 0")), "{name} missing");
        }
    }

    #[test]
    fn coverage_helpers_count_distinct_axes() {
        let report = sample_report();
        assert_eq!(report.distinct_workloads(), 1);
        assert_eq!(report.distinct_runtimes(), 1);
    }
}
