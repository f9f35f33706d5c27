//! Benchmark tooling for the TLSTM reproduction: the `tmbench` runner's
//! library half.
//!
//! * [`scenarios`] — the workload × runtime × thread × task matrix, and the
//!   paper's four figures as fixed presets of it (`tmbench --figure`);
//! * [`report`] — the versioned JSON benchmark report (`BENCH_results.json`);
//! * [`json`] — the dependency-free JSON writer the report is built on.
//!
//! `tmbench` measures the paper's runtimes. The serving stack and the
//! regression gate are `benchmark/run.sh`'s; neither tool reads the other's
//! numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod scenarios;

/// Formats a floating-point cell with sensible precision for throughput.
pub fn cell(value: f64) -> String {
    if value >= 1000.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(12345.6), "12346");
        assert_eq!(cell(3.25159), "3.25");
        // Either side of the precision switchover.
        assert_eq!(cell(999.994), "999.99");
        assert_eq!(cell(1000.0), "1000");
    }
}
