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

/// Default measured duration per data point, in milliseconds, when neither
/// `TLSTM_BENCH_MS` nor a CLI flag overrides it.
pub const DEFAULT_BENCH_MS: u64 = 300;

/// Parses the raw value of the environment variable `name` as a `u64`,
/// falling back to `default` — loudly, on stderr — when the value is present
/// but malformed. Pass `raw = None` when the variable is unset (silent
/// fallback).
///
/// This is the single place the `TLSTM_BENCH_*` variables are interpreted;
/// the raw value is a parameter so the parsing rules are testable without
/// mutating the process environment.
pub fn parse_env_u64(name: &str, raw: Option<&str>, default: u64) -> u64 {
    match raw {
        None => default,
        Some(text) => match text.trim().parse::<u64>() {
            Ok(value) => value,
            Err(err) => {
                eprintln!(
                    "warning: ignoring malformed {name}={text:?} ({err}); using default {default}"
                );
                default
            }
        },
    }
}

/// Reads the environment variable `name` as a `u64` via [`parse_env_u64`].
pub fn env_u64(name: &str, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    parse_env_u64(name, raw.as_deref(), default)
}

/// Reads the environment variable `name` as a `u32` via [`env_u64`], warning
/// and falling back to `default` when the value exceeds `u32::MAX`.
pub fn env_u32(name: &str, default: u32) -> u32 {
    let value = env_u64(name, u64::from(default));
    u32::try_from(value).unwrap_or_else(|_| {
        eprintln!(
            "warning: {name}={value} exceeds {}; using default {default}",
            u32::MAX
        );
        default
    })
}

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
    use tlstm_testutil::EnvVarGuard;

    #[test]
    fn env_defaults_are_sane() {
        let _lock = EnvVarGuard::lock_only();
        assert!(env_u64("TLSTM_BENCH_MS", DEFAULT_BENCH_MS) >= 1);
        assert!(env_u32("TLSTM_BENCH_REPS", 1) >= 1);
    }

    #[test]
    fn parse_env_u64_accepts_valid_values() {
        assert_eq!(parse_env_u64("X", Some("150"), 300), 150);
        assert_eq!(
            parse_env_u64("X", Some(" 42 "), 300),
            42,
            "whitespace tolerated"
        );
        assert_eq!(
            parse_env_u64("X", None, 300),
            300,
            "unset falls back silently"
        );
    }

    #[test]
    fn parse_env_u64_warns_and_defaults_on_malformed_values() {
        for bad in ["abc", "", "12ms", "-5", "1.5"] {
            assert_eq!(parse_env_u64("TLSTM_BENCH_MS", Some(bad), 300), 300);
        }
    }

    #[test]
    fn env_u32_rejects_overflowing_values() {
        let _reps = EnvVarGuard::set("TLSTM_BENCH_REPS", "4294967296");
        assert_eq!(env_u32("TLSTM_BENCH_REPS", 1), 1, "overflow falls back");
        drop(_reps);
        let _reps = EnvVarGuard::set("TLSTM_BENCH_REPS", "7");
        assert_eq!(env_u32("TLSTM_BENCH_REPS", 1), 7);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(12345.6), "12346");
        assert_eq!(cell(3.25159), "3.25");
        // Either side of the precision switchover.
        assert_eq!(cell(999.994), "999.99");
        assert_eq!(cell(1000.0), "1000");
    }
}
