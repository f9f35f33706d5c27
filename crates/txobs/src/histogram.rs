//! The log₂-bucketed latency histogram shared by the workload harness, the
//! metrics registry and the bench reporter.
//!
//! Promoted here from `workloads::harness` so every layer of the stack (WAL
//! writer, bench harness, metrics exposition) aggregates latencies the same
//! way instead of growing private copies.

use std::time::Duration;

/// Number of power-of-two buckets in a [`LatencyHistogram`] (covers the full
/// `u64` nanosecond range).
pub const LATENCY_BUCKETS: usize = 64;

/// The bucket a sample of `ns` nanoseconds lands in: `floor(log2(ns))`, with
/// `ns == 0` in bucket 0.
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// The largest sample bucket `bucket` holds: `2^(bucket+1) - 1`.
pub(crate) fn bucket_upper_ns(bucket: usize) -> u64 {
    if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    }
}

/// A log₂-bucketed histogram of latencies in nanoseconds.
///
/// Bucket `i` counts samples whose latency `ns` satisfies
/// `floor(log2(ns)) == i` (with `ns == 0` landing in bucket 0), so the full
/// nanosecond-to-centuries range fits in 64 counters. Each measurement thread
/// owns its histogram (no shared cache lines on the record path); histograms
/// are [`merged`](Self::merge) when the run ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }

    /// Rebuilds a histogram from raw parts (used by the atomic variant's
    /// snapshotting; `total_ns`/`max_ns` must describe the buckets).
    pub(crate) fn from_parts(
        buckets: [u64; LATENCY_BUCKETS],
        count: u64,
        total_ns: u64,
        max_ns: u64,
    ) -> Self {
        LatencyHistogram {
            buckets,
            count,
            total_ns,
            max_ns,
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency sample given in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The samples recorded since `earlier` (a previous snapshot of the same
    /// monotonically-growing histogram). The observed maximum cannot be
    /// un-merged, so the delta keeps this histogram's maximum as an upper
    /// bound.
    pub fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut delta = LatencyHistogram::new();
        for (i, (now, then)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            delta.buckets[i] = now.saturating_sub(*then);
        }
        delta.count = self.count.saturating_sub(earlier.count);
        delta.total_ns = self.total_ns.saturating_sub(earlier.total_ns);
        delta.max_ns = if delta.count == 0 { 0 } else { self.max_ns };
        delta
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, in nanoseconds (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Raw bucket counts (bucket `i` holds samples with
    /// `floor(log2(ns)) == i`).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Mean latency in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The latency below which `quantile` (in `[0, 1]`) of the samples fall,
    /// in nanoseconds. Resolution is one power-of-two bucket: the reported
    /// value is the bucket's upper bound, clamped to the observed maximum.
    /// Returns 0 when the histogram is empty.
    pub fn quantile_ns(&self, quantile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((quantile.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(bucket).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_records_and_summarises() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        for ns in [0u64, 1, 100, 1000, 1000, 1000, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_ns(), 1_000_000);
        let expected_mean = (1.0 + 100.0 + 3000.0 + 1_000_000.0) / 7.0;
        assert!((h.mean_ns() - expected_mean).abs() < 1e-9);
        // The median sample is 1000 ns, which lands in bucket [512, 1023];
        // the reported quantile is that bucket's upper bound.
        assert_eq!(h.quantile_ns(0.5), 1023);
        // p100 is the max sample exactly.
        assert_eq!(h.quantile_ns(1.0), 1_000_000);
        assert!(h.quantile_ns(0.99) <= 1_000_000);
    }

    #[test]
    fn latency_histogram_merge_is_a_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [10u64, 20, 30] {
            a.record_ns(ns);
        }
        for ns in [40u64, 50] {
            b.record_ns(ns);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 40, 50] {
            direct.record_ns(ns);
        }
        assert_eq!(merged, direct);
        assert_eq!(merged.count(), 5);
    }

    #[test]
    fn delta_since_subtracts_an_earlier_snapshot() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(5000);
        let before = h.clone();
        h.record_ns(100);
        h.record_ns(200_000);
        let delta = h.delta_since(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.total_ns(), 200_100);
        let mut expected = LatencyHistogram::new();
        expected.record_ns(100);
        expected.record_ns(200_000);
        assert_eq!(delta.buckets(), expected.buckets());
        // An empty delta is all-zero even though the base saw samples.
        let empty = h.delta_since(&h);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.max_ns(), 0);
    }
}
