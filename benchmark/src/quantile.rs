//! Exact order statistics for every gated latency number.
//!
//! `txobs::LatencyHistogram` buckets by powers of two, so its quantiles are
//! bucket edges (every durable row of the old reports read p50 = 4 194 303 ns).
//! Here each sample is kept as a nanosecond count in a pre-sized vector, sorted
//! once when the window closes, and a percentile is the nearest-rank order
//! statistic — a value that was actually measured.

/// A percentile needs at least this many samples beyond it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Collects nanosecond samples during a window.
#[derive(Debug)]
pub struct Recorder {
    samples: Vec<u64>,
}

impl Recorder {
    /// Reserves room for `capacity` samples up front so recording inside the
    /// window never reallocates (untouched capacity costs no memory).
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Merges another recorder's samples (per-thread recorders of one window).
    pub fn absorb(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
    }

    /// Closes the window: sorts the samples.
    pub fn finish(mut self) -> Sorted {
        self.samples.sort_unstable();
        Sorted(self.samples)
    }
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    pub percentile_milli: u32,
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_SAMPLES_BEYOND})",
            f64::from(self.percentile_milli) / 1000.0,
            self.samples,
            self.beyond
        )
    }
}

/// The sorted samples of one closed window.
#[derive(Debug)]
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `percentile`% of all samples at or below it. `percentile_milli` is in
    /// thousandths of a percent (50 000 = p50, 99 000 = p99) so the rank is
    /// computed in integers.
    ///
    /// # Errors
    ///
    /// Refuses when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the
    /// chosen rank: such a number is set by a handful of outliers.
    pub fn percentile(&self, percentile_milli: u32) -> Result<u64, TooFewSamples> {
        assert!((1..=100_000).contains(&percentile_milli));
        let n = self.0.len();
        let rank = (n as u128 * u128::from(percentile_milli)).div_ceil(100_000) as usize;
        let beyond = n - rank.min(n);
        if n == 0 || beyond < MIN_SAMPLES_BEYOND {
            return Err(TooFewSamples {
                percentile_milli,
                samples: n,
                beyond,
            });
        }
        Ok(self.0[rank.max(1) - 1])
    }
}

/// Median of a small set of per-repetition values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median:
/// how far a side's own repetitions spread. The quartiles interpolate between
/// closest ranks (Python's `statistics.quantiles(values, n=4,
/// method="inclusive")`), so with five repetitions they are the 2nd and 4th
/// values and one stray repetition on either side does not decide a verdict —
/// as it does not decide the median. `None` with fewer than two values or a
/// zero median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let at = (i * (sorted.len() - 1)) as f64 / 4.0;
        let below = at.floor() as usize;
        let above = (below + 1).min(sorted.len() - 1);
        sorted[below] + (sorted[above] - sorted[below]) * at.fract()
    };
    let mid = median(&sorted);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_of(values: impl IntoIterator<Item = u64>) -> Sorted {
        let mut r = Recorder::with_capacity(16);
        for v in values {
            r.record(v);
        }
        r.finish()
    }

    #[test]
    fn percentiles_are_nearest_rank_order_statistics() {
        // 1..=1000 shuffled by a stride: p50 is the 500th value, p99 the 990th.
        let s = sorted_of((0..1000u64).map(|i| (i * 7) % 1000 + 1));
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(50_000), Ok(500));
        assert_eq!(s.percentile(99_000), Ok(990));
        assert_eq!(s.percentile(99_000 - 1), Ok(990));
        assert_eq!(s.percentile(1), Ok(1));
    }

    #[test]
    fn a_reported_value_is_always_a_recorded_sample() {
        let s = sorted_of([
            5, 5, 5, 900, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17, 17,
        ]);
        assert_eq!(s.percentile(50_000), Ok(17));
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond p99; 999 leave 9.
        assert!(sorted_of(1..=1000).percentile(99_000).is_ok());
        let err = sorted_of(1..=999).percentile(99_000).unwrap_err();
        assert_eq!(err.beyond, 9);
        assert_eq!(err.samples, 999);
        // p50 needs 20 samples.
        assert!(sorted_of(1..=19).percentile(50_000).is_err());
        assert_eq!(sorted_of(1..=20).percentile(50_000), Ok(10));
        assert!(sorted_of([]).percentile(50_000).is_err());
    }

    #[test]
    fn recorders_merge() {
        let mut a = Recorder::with_capacity(4);
        a.record(3);
        let mut b = Recorder::with_capacity(4);
        b.record(1);
        a.absorb(b);
        assert_eq!(a.finish().0, vec![1, 3]);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spread_matches_python_inclusive_quantiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive") == [3.25, 5.5, 7.75]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&ten).unwrap() - 4.5 / 5.5).abs() < 1e-12);
        // Five repetitions: the 2nd and 4th values, whatever the extremes do.
        let five = [20.0, 10.0, 13.0, 11.0, 14.0];
        assert!((iqr_over_median(&five).unwrap() - 3.0 / 13.0).abs() < 1e-12);
        let stray = [200.0, 1.0, 13.0, 11.0, 14.0];
        assert!((iqr_over_median(&stray).unwrap() - 3.0 / 13.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4, method="inclusive") == [1.25, 1.5, 1.75]
        assert!((iqr_over_median(&[1.0, 2.0]).unwrap() - 0.5 / 1.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[1.0]), None);
    }
}
