//! Always-on metrics: counters, gauges and log₂ histograms with a
//! dependency-free Prometheus-style text exposition.
//!
//! The hot-path instruments ([`Counter`], [`Gauge`], [`AtomicHistogram`]) are
//! plain relaxed atomics reachable through `&'static` structs — no registry
//! lookup, no locking, no allocation on the update path. Every instrument
//! group of the stack is declared once with
//! [`instrument_group!`](crate::instrument_group), which generates its live
//! struct, its snapshot with `delta_since`/`merge`, and its exposition. The
//! WAL writer, the durable KV store and the network front-end update the
//! process-wide groups [`wal()`], [`kv()`] and [`net()`]. The STM runtimes'
//! group (`txmem::StatsShard`) is declared the same way but kept as one
//! cache-line-aligned copy per user-thread shard, because 64 committing
//! threads bumping one shared line would serialise on it; its shards are
//! only ever read summed.
//!
//! [`metrics_text()`] renders the process-wide groups in the Prometheus text
//! format; [`parse_exposition`] is the matching minimal parser, used by tests
//! and CI to prove the exposition round-trips.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::histogram::{bucket_of, bucket_upper_ns, LatencyHistogram, LATENCY_BUCKETS};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n` (for gauges tracking a population across threads).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-safe log₂ histogram sharing [`LatencyHistogram`]'s bucketing.
/// Recording is a handful of relaxed atomic operations; [`snapshot`] folds
/// the live counters into an owned [`LatencyHistogram`] for querying.
///
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// An owned snapshot of the current contents. Concurrent recording may
    /// leave the fields off by in-flight samples relative to each other;
    /// `count` is recomputed from the bucket view so the snapshot's quantiles
    /// are always self-consistent.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        let mut count = 0u64;
        for (slot, out) in self.buckets.iter().zip(buckets.iter_mut()) {
            *out = slot.load(Ordering::Relaxed);
            count += *out;
        }
        LatencyHistogram::from_parts(
            buckets,
            count,
            self.total_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

/// Declares an instrument group from one field list: the only way to add a
/// counter, gauge or histogram to the stack.
///
/// ```
/// txobs::instrument_group! {
///     group CacheMetrics;
///     snapshot CacheSnapshot;
///     counters { hits, misses }
///     gauges { entries }
///     histograms { lookup_ns }
/// }
///
/// static CACHE: CacheMetrics = CacheMetrics::new();
/// let before = CACHE.snapshot();
/// CACHE.hits.inc();
/// CACHE.lookup_ns.record_ns(250);
/// let window = CACHE.snapshot().delta_since(&before);
/// assert_eq!(window.fields(), vec![("hits", 1), ("misses", 0)]);
/// assert_eq!(window.lookup_ns.count(), 1);
/// ```
///
/// `group` names the live struct: one public [`Counter`], [`Gauge`] or
/// [`AtomicHistogram`] field per entry, a `const fn new()` (so the group can
/// be a `static`) and `render(prefix, kinds)`, which appends the Prometheus
/// text of the counters (`{prefix}_{field}_total`), gauges and histograms to
/// `kinds[0]`, `kinds[1]` and `kinds[2]`. Attributes before `group` go on the
/// live struct.
///
/// The optional `snapshot` names a struct with the counters as `u64` and the
/// histograms as [`LatencyHistogram`]s (gauges are instantaneous and left
/// out), deriving `Debug, Clone, Default, PartialEq`, with `delta_since`,
/// `merge` and `fields` (every counter as `(name, value)`); the live struct
/// gains `snapshot()`. A window is read by snapshotting at both edges and
/// subtracting. The `gauges` and `histograms` sections are optional.
#[macro_export]
macro_rules! instrument_group {
    (@group [$($group_meta:tt)*] $group:ident;
     counters { $($(#[$c_meta:meta])* $c:ident),* $(,)? }
     $(gauges { $($(#[$g_meta:meta])* $g:ident),* $(,)? })?
     $(histograms { $($(#[$h_meta:meta])* $h:ident),* $(,)? })?) => {
        $($group_meta)*
        #[derive(Debug, Default)]
        pub struct $group {
            $($(#[$c_meta])* pub $c: $crate::metrics::Counter,)*
            $($($(#[$g_meta])* pub $g: $crate::metrics::Gauge,)*)?
            $($($(#[$h_meta])* pub $h: $crate::metrics::AtomicHistogram,)*)?
        }

        impl $group {
            /// A group with every instrument at zero.
            pub const fn new() -> $group {
                $group {
                    $($c: $crate::metrics::Counter::new(),)*
                    $($($g: $crate::metrics::Gauge::new(),)*)?
                    $($($h: $crate::metrics::AtomicHistogram::new(),)*)?
                }
            }

            /// Appends the exposition of this group's counters, gauges and
            /// histograms, each named `{prefix}_{field}`, to `kinds[0]`,
            /// `kinds[1]` and `kinds[2]`.
            pub fn render(&self, prefix: &str, kinds: &mut [String; 3]) {
                $($crate::metrics::render_value(
                    &mut kinds[0], "counter", prefix,
                    concat!(stringify!($c), "_total"), self.$c.get(),
                );)*
                $($($crate::metrics::render_value(
                    &mut kinds[1], "gauge", prefix, stringify!($g), self.$g.get(),
                );)*)?
                $($($crate::metrics::render_histogram(
                    &mut kinds[2], prefix, stringify!($h), &self.$h.snapshot(),
                );)*)?
            }
        }
    };
    (@snapshot [$($snapshot_meta:tt)*] $group:ident $snapshot:ident;
     counters { $($(#[$c_meta:meta])* $c:ident),* $(,)? }
     $(gauges { $($(#[$g_meta:meta])* $g:ident),* $(,)? })?
     $(histograms { $($(#[$h_meta:meta])* $h:ident),* $(,)? })?) => {
        $($snapshot_meta)*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $snapshot {
            $($(#[$c_meta])* pub $c: u64,)*
            $($($(#[$h_meta])* pub $h: $crate::LatencyHistogram,)*)?
        }

        impl $group {
            /// Reads every counter and histogram of the group.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($c: self.$c.get(),)*
                    $($($h: self.$h.snapshot(),)*)?
                }
            }
        }

        impl $snapshot {
            /// The activity since `earlier`, an older snapshot of the same
            /// group (counters saturate at 0).
            pub fn delta_since(&self, earlier: &$snapshot) -> $snapshot {
                $snapshot {
                    $($c: self.$c.saturating_sub(earlier.$c),)*
                    $($($h: self.$h.delta_since(&earlier.$h),)*)?
                }
            }

            /// Folds `other` into this snapshot: counters add (saturating at
            /// `u64::MAX`), histograms merge.
            pub fn merge(&mut self, other: &$snapshot) {
                $(self.$c = self.$c.saturating_add(other.$c);)*
                $($(self.$h.merge(&other.$h);)*)?
            }

            /// Every counter as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($c), self.$c),)*]
            }
        }
    };
    ($(#[$group_meta:meta])* group $group:ident;
     $(#[$snapshot_meta:meta])* snapshot $snapshot:ident;
     $($body:tt)*) => {
        $crate::instrument_group!(@group [$(#[$group_meta])*] $group; $($body)*);
        $crate::instrument_group!(@snapshot [$(#[$snapshot_meta])*] $group $snapshot; $($body)*);
    };
    ($(#[$group_meta:meta])* group $group:ident; $($body:tt)*) => {
        $crate::instrument_group!(@group [$(#[$group_meta])*] $group; $($body)*);
    };
}

instrument_group! {
    /// Hot-path metrics of the WAL writer.
    group WalMetrics;
    /// Point-in-time copy of [`WalMetrics`], subtractable across a run.
    snapshot WalSnapshot;
    counters {
        /// Commit batches handed to the writer.
        enqueued,
        /// Physical write batches issued by the writer.
        batches,
        /// Log records coalesced across all write batches.
        batch_records,
        /// Bytes written across all write batches.
        batch_bytes,
        /// Fsyncs issued by the writer.
        fsyncs,
        /// Transient write errors retried by the writer.
        retries,
        /// Terminal WAL faults (the writer died).
        faults,
        /// Segment rotations.
        rotations,
    }
    gauges {
        /// Batches not yet acknowledged durable (enqueue minus watermark).
        queue_depth,
    }
    histograms {
        /// Latency of each physical batch write.
        append_ns,
        /// Latency of each fsync.
        fsync_ns,
    }
}

impl WalSnapshot {
    /// Mean records per physical write batch (0.0 before the first batch).
    pub fn mean_batch_records(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_records as f64 / self.batches as f64
        }
    }
}

instrument_group! {
    /// Metrics of the durable KV store lifecycle.
    group KvMetrics;
    counters {
        /// Successful WAL re-arms after degradation.
        rearms,
    }
    gauges {
        /// Current health (see [`crate::trace::health`]; 0 = no durable store
        /// booted yet).
        health,
    }
}

instrument_group! {
    /// Hot-path metrics of the network serving front-end.
    group NetMetrics;
    /// Point-in-time copy of [`NetMetrics`], subtractable across a benchmark
    /// run.
    snapshot NetSnapshot;
    counters {
        /// Request frames decoded across all serving threads.
        requests,
        /// Reply frames written back across all serving threads.
        replies,
        /// Request bytes read off all connections (frame headers included).
        bytes_in,
        /// Reply bytes written to all connections (frame headers included).
        bytes_out,
        /// Coalesced store batches executed (one per serving-thread drain that
        /// found at least one request).
        coalesced_batches,
        /// Requests folded into those coalesced batches; divided by
        /// `coalesced_batches` this is the server-side coalescing factor.
        coalesced_requests,
        /// Request frames rejected with a typed protocol error.
        protocol_errors,
    }
    gauges {
        /// Currently connected clients.
        connections,
        /// Executed rounds whose replies are parked behind the durable
        /// watermark, across all serving threads.
        parked_rounds,
    }
    histograms {
        /// Ack lag: from a round's in-memory commit to the release of its
        /// replies (the wait for the fsync covering it; ~0 for in-memory
        /// rounds).
        ack_lag_ns,
    }
}

static WAL: WalMetrics = WalMetrics::new();
static KV: KvMetrics = KvMetrics::new();
static NET: NetMetrics = NetMetrics::new();

/// The process-wide WAL writer metrics.
pub fn wal() -> &'static WalMetrics {
    &WAL
}

/// The process-wide durable KV metrics.
pub fn kv() -> &'static KvMetrics {
    &KV
}

/// The process-wide network front-end metrics.
pub fn net() -> &'static NetMetrics {
    &NET
}

/// Appends one `kind` sample named `{prefix}_{field}`. Called by the code
/// [`instrument_group!`](crate::instrument_group) generates; not part of the
/// API.
#[doc(hidden)]
pub fn render_value(out: &mut String, kind: &str, prefix: &str, field: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {prefix}_{field} {kind}");
    let _ = writeln!(out, "{prefix}_{field} {value}");
}

/// Appends one histogram named `{prefix}_{field}`, with cumulative buckets up
/// to the last non-empty one. Called by the code
/// [`instrument_group!`](crate::instrument_group) generates; not part of the
/// API.
#[doc(hidden)]
pub fn render_histogram(out: &mut String, prefix: &str, field: &str, hist: &LatencyHistogram) {
    let _ = writeln!(out, "# TYPE {prefix}_{field} histogram");
    let last_nonzero = hist.buckets().iter().rposition(|&n| n > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &n) in hist.buckets().iter().enumerate().take(last_nonzero + 1) {
        cumulative += n;
        let upper = bucket_upper_ns(i);
        let _ = writeln!(
            out,
            "{prefix}_{field}_bucket{{le=\"{upper}\"}} {cumulative}"
        );
    }
    let count = hist.count();
    let _ = writeln!(out, "{prefix}_{field}_bucket{{le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{prefix}_{field}_sum {}", hist.total_ns());
    let _ = writeln!(out, "{prefix}_{field}_count {count}");
}

/// Renders every metric — the static WAL, KV and network groups — in the
/// Prometheus text exposition format: all counters, then all gauges, then
/// all histograms, each kind in group order.
pub fn metrics_text() -> String {
    let mut kinds: [String; 3] = Default::default();
    wal().render("txobs_wal", &mut kinds);
    kv().render("txobs_kv", &mut kinds);
    net().render("txobs_net", &mut kinds);
    kinds.concat()
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (before any `{`).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses the Prometheus text exposition format produced by
/// [`metrics_text`]. Comments (`#`) and blank lines are skipped; every other
/// line must be `name[{labels}] value`. Returns the samples or the first
/// offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (series, value_str) = line
            .rsplit_once(|c: char| c.is_ascii_whitespace())
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| err("unparseable sample value"))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.trim().to_owned(), Vec::new()),
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in inner.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| err("label without `=`"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((
                        k.trim().to_owned(),
                        v.replace("\\\"", "\"").replace("\\\\", "\\"),
                    ));
                }
                (name.trim().to_owned(), labels)
            }
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("invalid metric name"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_update() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(42);
        g.set(17);
        assert_eq!(g.get(), 17);
        let h = AtomicHistogram::new();
        h.record_ns(0);
        h.record_ns(1000);
        h.record_ns(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert!(snap.quantile_ns(1.0) >= 512 * 1024);
    }

    #[test]
    fn atomic_histogram_snapshot_buckets_match_direct_recording() {
        let h = AtomicHistogram::new();
        let mut direct = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 700, 700, 65_000] {
            h.record_ns(ns);
            direct.record_ns(ns);
        }
        // Bucket occupancy (the quantile resolution) is identical even
        // though within-bucket totals may differ.
        let snap = h.snapshot();
        for (a, b) in snap.buckets().iter().zip(direct.buckets().iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(snap.quantile_ns(0.5), direct.quantile_ns(0.5));
    }

    #[test]
    fn wal_snapshot_delta_and_merge() {
        // A private group, so the process-wide statics other tests record
        // into cannot interfere: every field gets a distinct increment, and
        // the generated delta and merge must recover it field by field.
        let group = WalMetrics::new();
        let bump = |round: u64| {
            let counters = [
                &group.enqueued,
                &group.batches,
                &group.batch_records,
                &group.batch_bytes,
                &group.fsyncs,
                &group.retries,
                &group.faults,
                &group.rotations,
            ];
            for (i, counter) in (1u64..).zip(counters) {
                counter.add(i * round);
            }
            group.queue_depth.set(round);
            group.append_ns.record_ns(100 * round);
            group.fsync_ns.record_ns(100_000 * round);
        };
        bump(1);
        let before = group.snapshot();
        bump(10);
        let after = group.snapshot();
        let delta = after.delta_since(&before);
        let names = [
            "enqueued",
            "batches",
            "batch_records",
            "batch_bytes",
            "fsyncs",
            "retries",
            "faults",
            "rotations",
        ];
        let expected: Vec<(&str, u64)> = names.into_iter().zip((10u64..).step_by(10)).collect();
        assert_eq!(delta.fields(), expected);
        for (hist, ns) in [(&delta.append_ns, 1_000), (&delta.fsync_ns, 1_000_000)] {
            assert_eq!((hist.count(), hist.total_ns()), (1, ns));
        }
        assert!((delta.mean_batch_records() - 3.0 / 2.0).abs() < 1e-9);
        assert_eq!(WalSnapshot::default().mean_batch_records(), 0.0);

        let mut merged = before.clone();
        merged.merge(&delta);
        assert_eq!(merged, after);
        assert_eq!(after.delta_since(&after), WalSnapshot::default());
    }

    #[test]
    fn net_snapshot_delta_merge_and_zero_guard() {
        let a = NetSnapshot {
            requests: 10,
            replies: 10,
            bytes_in: 500,
            bytes_out: 400,
            coalesced_batches: 2,
            coalesced_requests: 10,
            protocol_errors: 1,
            ..NetSnapshot::default()
        };
        let mut later = a.clone();
        later.requests = 40;
        later.coalesced_batches = 5;
        later.coalesced_requests = 40;
        let d = later.delta_since(&a);
        assert_eq!(d.requests, 30);
        assert_eq!(d.coalesced_batches, 3);
        assert_eq!(d.coalesced_requests, 30);
        assert_eq!((d.replies, d.bytes_in, d.protocol_errors), (0, 0, 0));
        let mut merged = d.clone();
        merged.merge(&d);
        assert_eq!(merged.requests, 60);
        assert_eq!(merged.coalesced_requests, 60);
        // Snapshots taken out of order give an empty window, never a
        // wrapped-around count.
        assert_eq!(a.delta_since(&later), NetSnapshot::default());
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        wal().fsync_ns.record_ns(123_456);
        net().ack_lag_ns.record_ns(2_000_000);
        net().parked_rounds.add(3);
        kv().health.set(crate::trace::health::HEALTHY);
        let text = metrics_text();
        let samples = parse_exposition(&text).expect("own exposition must parse");
        let find = |name: &str| samples.iter().find(|s| s.name == name);
        assert!(find("txobs_wal_fsyncs_total").is_some());
        let health = find("txobs_kv_health").expect("health gauge present");
        assert_eq!(health.value, crate::trace::health::HEALTHY as f64);
        // The fsync histogram exposes buckets, sum and count.
        assert!(samples
            .iter()
            .any(|s| s.name == "txobs_wal_fsync_ns_bucket"
                && s.labels.iter().any(|(k, _)| k == "le")));
        assert!(find("txobs_wal_fsync_ns_sum").is_some());
        assert!(find("txobs_wal_fsync_ns_count").is_some());
        // The serving front-end's parked stage: gauge and ack-lag histogram.
        assert_eq!(find("txobs_net_parked_rounds").map(|s| s.value), Some(3.0));
        assert!(find("txobs_net_ack_lag_ns_sum").is_some_and(|s| s.value >= 2_000_000.0));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("just_a_name").is_err());
        assert!(parse_exposition("name not_a_number").is_err());
        assert!(parse_exposition("name{le=\"1\" 3").is_err());
        assert!(parse_exposition("name{le=1} 3").is_err());
        assert!(parse_exposition("bad-name 3").is_err());
        assert!(parse_exposition("# a comment\n\nok_name 3").is_ok());
    }
}
