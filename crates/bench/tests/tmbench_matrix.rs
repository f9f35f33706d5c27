//! End-to-end tests of `tmbench`: a (tiny) real run of the full default
//! matrix must cover every runtime and at least three workloads, make
//! progress on every row and write every row into the JSON report; and the
//! `--figure` presets must list their series and reject usage errors with
//! exit code 2.

use std::process::Command;
use std::time::Duration;

use tlstm_bench::scenarios::{build_scenarios, run_matrix, MatrixSelection};
use tlstm_testutil::with_default_watchdog;
use tlstm_workloads::WorkloadConfig;

#[test]
fn quick_matrix_produces_a_complete_report() {
    let report = with_default_watchdog(|| {
        let config = WorkloadConfig {
            duration: Duration::from_millis(10),
            repetitions: 1,
            seed: 0xC0FFEE,
        };
        let scenarios = build_scenarios(&MatrixSelection::default());
        run_matrix(&scenarios, &config, true, |_, _, _| {})
    });

    // Coverage: both runtimes, at least three workload families, and the kv
    // serving scenarios on both runtimes (incl. the task-split TLSTM mode).
    assert!(report.distinct_runtimes() >= 2, "must cover both runtimes");
    assert!(
        report.distinct_workloads() >= 3,
        "must cover at least three workloads, got {}",
        report.distinct_workloads()
    );
    for name in ["kv-a/swisstm/t1/k1", "kv-a/tlstm/t1/k4"] {
        assert!(
            report.scenarios.iter().any(|s| s.name == name),
            "default matrix must include {name}"
        );
    }

    // Every scenario made progress and accounted for its transactions.
    for s in &report.scenarios {
        assert!(s.ops > 0, "{} made no progress", s.name);
        assert!(s.ops_per_sec > 0.0, "{} reports zero throughput", s.name);
        assert!(s.latency.samples > 0, "{} recorded no latencies", s.name);
        assert!(
            s.latency.p99_ns >= s.latency.p50_ns,
            "{} quantiles inverted",
            s.name
        );
        assert!(s.stats.tx_commits > 0, "{} committed nothing", s.name);
    }

    // The serialised report names every scenario.
    let text = report.to_json_string();
    for s in &report.scenarios {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", s.name)),
            "{} missing from the JSON report",
            s.name
        );
    }
}

fn tmbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tmbench"))
        .args(args)
        .output()
        .expect("tmbench runs")
}

#[test]
fn figure_presets_list_their_series_and_reject_usage_errors() {
    for (figure, rows) in [
        ("1a", 18),
        ("1b", 60),
        ("2a", 15),
        ("2b", 27),
        ("ablation", 13),
    ] {
        let out = tmbench(&["--figure", figure, "--list"]);
        assert!(out.status.success(), "--figure {figure} --list failed");
        let listed = String::from_utf8(out.stdout).unwrap();
        assert_eq!(listed.lines().count(), rows, "figure {figure}:\n{listed}");
        if figure == "2b" {
            assert!(listed.lines().any(|l| l == "stmbench7-r60/tlstm/t3/k9"));
        }
    }
    // --workloads narrows a figure to one series.
    let out = tmbench(&[
        "--figure",
        "ablation",
        "--workloads",
        "shared-write-n8-w1",
        "--list",
    ]);
    assert!(out.status.success(), "--figure ablation --workloads failed");
    let listed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listed.lines().count(), 4, "{listed}");
    assert!(listed.lines().all(|l| l.starts_with("shared-write-n8-w1/")));
    for usage_error in [
        &["--figure", "3c", "--list"][..],
        &[
            "--figure",
            "ablation",
            "--workloads",
            "no-such-row",
            "--list",
        ],
        &["--figure", "1a", "--workloads", "vacation", "--list"],
        &["--figure", "1a", "--threads", "2", "--list"],
        &["--figure", "1a", "--runtimes", "tlstm", "--list"],
    ] {
        assert_eq!(
            tmbench(usage_error).status.code(),
            Some(2),
            "{usage_error:?}"
        );
    }
}
