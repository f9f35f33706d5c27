//! Throughput and latency measurement harness.
//!
//! The paper reports throughput (operations per second / per millisecond) of
//! fixed-duration multi-threaded runs, averaged over repetitions. The harness
//! here does the same: it runs one driver closure per user-thread until a stop
//! flag is raised, counts committed operations, and aggregates.
//!
//! On top of the paper's plain throughput numbers, the harness records
//! per-transaction latencies into per-thread [`LatencyHistogram`]s (each
//! driver thread owns its histogram, so recording is contention-free and
//! attribution is per user-thread) and bundles throughput, latency and the
//! runtime's [`StatsSnapshot`] into a [`RunMetrics`] consumed by the `tmbench`
//! reporter.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use txmem::StatsSnapshot;

/// Default measured duration of one data point.
pub const DEFAULT_DURATION: Duration = Duration::from_millis(300);

/// How long a run's window stays open past its duration while no driver has
/// completed an operation: a driver scheduled after a short window still
/// gets to report one, and a run that completes nothing in this time still
/// reports 0.
const FIRST_OP_GRACE: Duration = Duration::from_secs(3);

/// Common knobs of a benchmark run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// How long each data point is measured for.
    pub duration: Duration,
    /// Number of repetitions to average (the paper averages three runs).
    pub repetitions: u32,
    /// Seed for the deterministic workload generators.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            duration: DEFAULT_DURATION,
            repetitions: 1,
            seed: 0xC0FFEE,
        }
    }
}

impl WorkloadConfig {
    /// A configuration suitable for unit tests (very short runs).
    pub fn quick() -> Self {
        WorkloadConfig {
            duration: Duration::from_millis(60),
            repetitions: 1,
            seed: 7,
        }
    }
}

/// Result of one throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Committed operations (benchmark-defined unit, e.g. lookups or client
    /// operations).
    pub ops: u64,
    /// Wall-clock duration of the measurement.
    pub elapsed: Duration,
}

impl Throughput {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {:.0} ms ({:.0} ops/s)",
            self.ops,
            self.elapsed.as_secs_f64() * 1e3,
            self.ops_per_sec()
        )
    }
}

// The log₂ latency histogram now lives in `txobs` (shared with the metrics
// registry and the WAL writer); re-exported here so workload drivers keep
// their import path.
pub use txobs::LatencyHistogram;

/// Everything one measured workload run produces: throughput, per-transaction
/// latency, and the runtime's statistics counters (commit/abort/conflict
/// breakdown) accumulated over the run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Committed operations over wall-clock time.
    pub throughput: Throughput,
    /// Per-user-transaction latency histogram, merged across threads.
    pub latency: LatencyHistogram,
    /// Runtime statistics accumulated over the run (summed across
    /// repetitions).
    pub stats: StatsSnapshot,
    /// WAL pipeline activity attributable to the run (batch/fsync counters
    /// and latency histograms); `None` for non-durable workloads.
    pub wal: Option<txobs::metrics::WalSnapshot>,
}

impl RunMetrics {
    /// Convenience constructor for a single run.
    pub fn new(throughput: Throughput, latency: LatencyHistogram, stats: StatsSnapshot) -> Self {
        RunMetrics {
            throughput,
            latency,
            stats,
            wal: None,
        }
    }

    /// Attaches the WAL pipeline activity observed during the run.
    pub fn with_wal(mut self, wal: txobs::metrics::WalSnapshot) -> Self {
        self.wal = Some(wal);
        self
    }
}

/// Runs `driver` on `n_threads` OS threads for `duration` and returns the
/// aggregated throughput and latency. The window stays open past `duration`
/// until some driver has completed an operation (at most a few seconds
/// longer), and the throughput divides by the whole window.
///
/// Each driver receives its thread index, a stop flag to poll between
/// operations, a counter to add committed operations to, and a
/// [`LatencyHistogram`] of its own to record per-transaction latencies into;
/// the per-thread histograms are merged and returned alongside the
/// throughput.
pub fn run_threads_metrics<F>(
    n_threads: usize,
    duration: Duration,
    driver: F,
) -> (Throughput, LatencyHistogram)
where
    F: Fn(usize, &AtomicBool, &AtomicU64, &mut LatencyHistogram) + Send + Sync,
{
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut merged = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let driver = &driver;
        let handles: Vec<_> = (0..n_threads)
            .map(|thread_index| {
                let stop = Arc::clone(&stop);
                let ops = Arc::clone(&ops);
                scope.spawn(move || {
                    let mut histogram = LatencyHistogram::new();
                    driver(thread_index, &stop, &ops, &mut histogram);
                    histogram
                })
            })
            .collect();
        std::thread::sleep(duration);
        let grace_end = Instant::now() + FIRST_OP_GRACE;
        while ops.load(Ordering::Relaxed) == 0
            && Instant::now() < grace_end
            && !handles.iter().all(|handle| handle.is_finished())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            merged.merge(&handle.join().expect("benchmark driver thread panicked"));
        }
    });
    (
        Throughput {
            ops: ops.load(Ordering::Relaxed),
            elapsed: started.elapsed(),
        },
        merged,
    )
}

/// Averages the throughput of `repetitions` runs produced by `make_run`,
/// merging the latency histograms and summing the statistics counters.
pub fn average_metrics(
    repetitions: u32,
    mut make_run: impl FnMut(u32) -> RunMetrics,
) -> RunMetrics {
    let repetitions = repetitions.max(1);
    let mut total_ops = 0u64;
    let mut total_time = Duration::ZERO;
    let mut latency = LatencyHistogram::new();
    let mut stats = StatsSnapshot::default();
    let mut wal: Option<txobs::metrics::WalSnapshot> = None;
    for rep in 0..repetitions {
        let run = make_run(rep);
        total_ops += run.throughput.ops;
        total_time += run.throughput.elapsed;
        latency.merge(&run.latency);
        stats.merge(&run.stats);
        if let Some(run_wal) = run.wal {
            wal.get_or_insert_with(Default::default).merge(&run_wal);
        }
    }
    RunMetrics {
        throughput: Throughput {
            ops: total_ops / u64::from(repetitions),
            elapsed: total_time / repetitions,
        },
        latency,
        stats,
        wal,
    }
}

/// Splits `len` items into `tasks` contiguous `[lo, hi)` ranges — the task
/// decomposition the workloads use when a speculative runtime splits one
/// transaction into tasks. Ranges are contiguous and cover all items; later
/// ranges are empty when `tasks` exceeds `len`.
pub fn chunk_ranges(len: usize, tasks: usize) -> Vec<(usize, usize)> {
    let tasks = tasks.max(1);
    let chunk = len.div_ceil(tasks).max(1);
    (0..tasks)
        .map(|t| ((t * chunk).min(len), ((t + 1) * chunk).min(len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlstm_testutil::TestRng;

    #[test]
    fn throughput_arithmetic() {
        let t = Throughput {
            ops: 1000,
            elapsed: Duration::from_millis(500),
        };
        assert!((t.ops_per_sec() - 2000.0).abs() < 1.0);
        assert!(t.to_string().contains("1000 ops"));
        let zero = Throughput {
            ops: 10,
            elapsed: Duration::ZERO,
        };
        assert_eq!(zero.ops_per_sec(), 0.0);
    }

    #[test]
    fn run_threads_metrics_collects_per_thread_histograms() {
        let (t, hist) = run_threads_metrics(3, Duration::from_millis(40), |_idx, stop, ops, h| {
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                std::thread::yield_now();
                h.record(t0.elapsed());
                ops.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(t.ops > 0);
        assert_eq!(hist.count(), t.ops, "one latency sample per operation");
        assert!(hist.mean_ns() > 0.0);
    }

    #[test]
    fn window_stays_open_for_a_driver_scheduled_after_it() {
        let window = Duration::from_millis(5);
        let (t, _) = run_threads_metrics(1, window, |_idx, stop, ops, _h| {
            std::thread::sleep(window * 10);
            while !stop.load(Ordering::Relaxed) {
                ops.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(t.ops > 0, "the late driver's operations count");
        assert!(t.elapsed >= window * 10);
    }

    #[test]
    fn average_metrics_merges_reps() {
        let mut calls = 0u32;
        let m = average_metrics(2, |_| {
            calls += 1;
            let mut latency = LatencyHistogram::new();
            latency.record_ns(100);
            let stats = StatsSnapshot {
                tx_commits: 5,
                ..Default::default()
            };
            RunMetrics::new(
                Throughput {
                    ops: 10,
                    elapsed: Duration::from_millis(20),
                },
                latency,
                stats,
            )
        });
        assert_eq!(calls, 2);
        assert_eq!(m.throughput.ops, 10);
        assert_eq!(m.throughput.elapsed, Duration::from_millis(20));
        assert_eq!(m.latency.count(), 2);
        assert_eq!(m.stats.tx_commits, 10);
    }

    /// The workload generators draw from `TestRng`: seeded runs replay the
    /// same operation streams and re-executed tasks see the same ones.
    #[test]
    fn det_rng_is_deterministic_and_bounded() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = TestRng::new(7);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
            let _ = r.percent(30);
        }
        // Seed zero must not get stuck at zero.
        let mut z = TestRng::new(0);
        assert_ne!(z.next_u64(), 0);
    }
}
