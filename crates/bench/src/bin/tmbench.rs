//! `tmbench` — the runtime matrix of the TLSTM reproduction.
//!
//! Measures the paper's runtimes: the default matrix (red-black tree,
//! Vacation low/high, STMBench7 read/write mixes, the fast-path overhead
//! rows and the in-process `txkv` serving rows) on every registered runtime
//! over a configurable thread axis, or a fixed preset: one of the paper's
//! four figures (`--figure 1a|1b|2a|2b`) or the speculation ablation
//! (`--figure ablation`: spec-depth sweep, chained reads, intra-thread WAW).
//! It prints a table and writes a JSON report; nothing in-tree reads the
//! report back. The regression gate and the serving stack (sockets, WAL)
//! are measured by `benchmark/run.sh`.
//!
//! ```text
//! tmbench --quick --out BENCH_results.json        # default matrix
//! tmbench --figure 2b                             # Figure 2b's series
//! tmbench --figure ablation --reps 3              # TLSTM's task-split cost
//! tmbench --quick --trace trace.json --metrics-out metrics.prom
//!                                                 # with observability output
//! ```
//!
//! Run `tmbench --help` for the full flag list. Exit codes: 0 on success,
//! 2 on usage and I/O errors.

use std::process::ExitCode;
use std::time::Duration;

use tlstm_bench::cell;
use tlstm_bench::report::BenchReport;
use tlstm_bench::scenarios::{
    build_scenarios, figure_scenarios, find_runtime, pinned_workload_labels, run_matrix,
    runtime_names, selectors_of, workload_selectors, MatrixSelection, RuntimeEntry, ScenarioSpec,
};
use tlstm_workloads::kv::FsyncPolicy;
use tlstm_workloads::WorkloadConfig;

/// Duration per data point for `--quick` runs when nothing overrides it.
const QUICK_BENCH_MS: u64 = 50;

const USAGE: &str = "\
tmbench — the TLSTM/SwissTM runtime matrix and the paper's figures

USAGE:
    tmbench [OPTIONS]                      run the default scenario matrix
    tmbench --figure ID [OPTIONS]          run one figure of the paper, or the ablation
    tmbench --list                         print the scenarios and exit

SCENARIO OPTIONS:
    --figure ID          the series of one figure of the paper instead of the
                         default matrix: 1a (rbtree speed-up vs lookups per
                         transaction), 1b (Vacation vs clients), 2a
                         (STMBench7 vs read-only %), 2b (STMBench7 mixes on
                         1-3 threads), ablation (TLSTM's task-split cost:
                         spec-depth sweep, chained reads, intra-thread WAW).
                         Fixes threads and runtimes, so it excludes
                         --threads and --runtimes; --workloads narrows its
                         rows to the named families or labels of that figure
                         (--figure ablation --workloads shared-write-n8-w1)
    --threads A,B,...    thread counts to measure (default: 1)
    --workloads LIST     comma-separated families (rbtree,vacation,stmbench7,
                         overhead,kv,kv-durable) or concrete labels (kv-a,
                         kv-a-durable, rbtree-n16,...); default: all.
                         kv-a-durable-cN rows (N = 1, 8, 64) are the
                         multi-committer sweep: they pin N client threads on
                         one WAL and ignore --threads
    --runtimes LIST      comma-separated runtimes from the registry:
                         swisstm,tlstm,seqref (default: all registered;
                         seqref is the sequential conformance reference)
    --fsync POLICY       WAL fsync policy of the kv-durable scenarios: always,
                         group, group:<ms>, none (default: group). group
                         fsyncs each written batch at once, exactly like
                         always: its interval is accepted and ignored.
                         Scenario names are unaffected, so runs stay
                         comparable
    --list               print scenario names without running anything

MEASUREMENT OPTIONS:
    --quick              short runs (50 ms/point) for smoke testing
    --duration-ms N      measured duration per data point
                         (default: 300; 50 with --quick)
    --reps N             repetitions to average (default: 1)
    --seed N             workload RNG seed (default: 0xC0FFEE)
    --out FILE           write the JSON report to FILE

OBSERVABILITY OPTIONS:
    --trace FILE         enable txobs tracing for the run and write the events
                         as Chrome trace-event JSON to FILE (load it in
                         Perfetto / chrome://tracing)
    --metrics-out FILE   after the run, write the txobs metrics exposition
                         (Prometheus text format: WAL append/fsync histograms,
                         KV health gauge, network counters) to FILE

MISC:
    --help               this text
";

#[derive(Debug, Default)]
struct CliArgs {
    quick: bool,
    duration_ms: Option<u64>,
    reps: Option<u32>,
    seed: Option<u64>,
    threads: Option<Vec<usize>>,
    workloads: Vec<String>,
    runtimes: Vec<&'static RuntimeEntry>,
    fsync: Option<FsyncPolicy>,
    figure: Option<Vec<ScenarioSpec>>,
    out: Option<String>,
    trace: Option<String>,
    metrics_out: Option<String>,
    list: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut cli = CliArgs::default();
    let mut i = 0;
    let value_of = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => cli.quick = true,
            "--list" => cli.list = true,
            "--help" | "-h" => cli.help = true,
            "--duration-ms" => {
                let v = value_of(&mut i, arg)?;
                cli.duration_ms = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --duration-ms '{v}': {e}"))?,
                );
            }
            "--reps" => {
                let v = value_of(&mut i, arg)?;
                cli.reps = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --reps '{v}': {e}"))?,
                );
            }
            "--seed" => {
                let v = value_of(&mut i, arg)?;
                cli.seed = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --seed '{v}': {e}"))?,
                );
            }
            "--threads" => {
                let v = value_of(&mut i, arg)?;
                let mut threads = Vec::new();
                for part in v.split(',') {
                    let n: usize = part
                        .trim()
                        .parse()
                        .map_err(|e| format!("invalid thread count '{part}': {e}"))?;
                    if n == 0 {
                        return Err("thread counts must be positive".to_string());
                    }
                    threads.push(n);
                }
                // Dedupe (keeping order): repeated counts would produce
                // duplicate scenario names, i.e. ambiguous report rows.
                let mut seen = std::collections::HashSet::new();
                threads.retain(|n| seen.insert(*n));
                if threads.is_empty() {
                    return Err("--threads needs at least one count".to_string());
                }
                cli.threads = Some(threads);
            }
            "--workloads" => {
                let v = value_of(&mut i, arg)?;
                cli.workloads
                    .extend(v.split(',').map(|part| part.trim().to_lowercase()));
            }
            "--runtimes" => {
                let v = value_of(&mut i, arg)?;
                for part in v.split(',') {
                    let token = part.trim().to_lowercase();
                    let runtime = find_runtime(&token).ok_or_else(|| {
                        format!(
                            "unknown runtime '{token}' (registered: {})",
                            runtime_names().join(", ")
                        )
                    })?;
                    if !cli.runtimes.contains(&runtime) {
                        cli.runtimes.push(runtime);
                    }
                }
            }
            "--fsync" => {
                let v = value_of(&mut i, arg)?;
                cli.fsync = Some(FsyncPolicy::parse(v.trim())?);
            }
            "--figure" => {
                let v = value_of(&mut i, arg)?;
                let rows = figure_scenarios(v.trim()).ok_or_else(|| {
                    format!("unknown figure '{v}' (want one of: 1a, 1b, 2a, 2b, ablation)")
                })?;
                cli.figure = Some(rows);
            }
            "--out" => cli.out = Some(value_of(&mut i, arg)?),
            "--trace" => cli.trace = Some(value_of(&mut i, arg)?),
            "--metrics-out" => cli.metrics_out = Some(value_of(&mut i, arg)?),
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
        i += 1;
    }
    if cli.figure.is_some() && (cli.threads.is_some() || !cli.runtimes.is_empty()) {
        return Err(
            "--figure fixes the threads and runtimes of its rows; drop --threads and --runtimes"
                .to_string(),
        );
    }
    // Workload tokens select among the figure's rows, or the matrix's.
    let selectors = match &cli.figure {
        Some(rows) => selectors_of(rows.iter().map(|r| &r.workload)),
        None => workload_selectors(),
    };
    if let Some(token) = cli.workloads.iter().find(|t| !selectors.contains(t)) {
        return Err(format!(
            "unknown workload '{token}' (want one of: {})",
            selectors.join(", ")
        ));
    }
    if let Some(rows) = &mut cli.figure {
        rows.retain(|r| r.workload.selected_by(&cli.workloads));
    }
    Ok(cli)
}

fn workload_config(cli: &CliArgs) -> WorkloadConfig {
    let defaults = WorkloadConfig::default();
    let duration = match (cli.duration_ms, cli.quick) {
        (Some(ms), _) => Duration::from_millis(ms.max(1)),
        (None, true) => Duration::from_millis(QUICK_BENCH_MS),
        (None, false) => defaults.duration,
    };
    WorkloadConfig {
        duration,
        repetitions: cli.reps.unwrap_or(defaults.repetitions).max(1),
        seed: cli.seed.unwrap_or(defaults.seed),
    }
}

fn print_report_table(report: &BenchReport) {
    println!(
        "# tmbench report (schema v{}, {} ms/point, {} rep{})",
        report.schema_version,
        report.duration_ms,
        report.repetitions,
        if report.repetitions == 1 { "" } else { "s" }
    );
    println!(
        "{:<34} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "scenario", "ops/s", "mean µs", "p99 µs", "commits", "aborts"
    );
    for s in &report.scenarios {
        println!(
            "{:<34} {:>14} {:>12} {:>12} {:>10} {:>10}",
            s.name,
            cell(s.ops_per_sec),
            cell(s.latency.mean_ns / 1e3),
            cell(s.latency.p99_ns as f64 / 1e3),
            s.stats.tx_commits,
            s.stats.total_aborts(),
        );
        if let Some(wal) = &s.wal {
            println!(
                "{:<34} {:>14} {:>12} {:>12} {:>10} {:>10}",
                "  wal",
                format!("{:.1} rec/batch", wal.mean_batch_records),
                format!("{} batches", wal.batches),
                format!("{} fsyncs", wal.fsyncs),
                format!("p50 {}µs", wal.fsync_p50_ns / 1000),
                format!("p99 {}µs", wal.fsync_p99_ns / 1000),
            );
        }
    }
}

/// The non-fatal stderr warning for an explicit `--threads` axis combined
/// with rows that pin their own thread count (the committer-sweep rows).
/// Those rows silently ignore the flag, which is intended — but worth saying
/// out loud so a sweep run is never misinterpreted.
fn threads_ignored_warning(explicit_threads: bool, pinned_labels: &[String]) -> Option<String> {
    if !explicit_threads || pinned_labels.is_empty() {
        return None;
    }
    Some(format!(
        "warning: --threads is ignored by the pinned sweep rows: {} \
(they run at their own committer counts)",
        pinned_labels.join(", ")
    ))
}

/// Streams the collected trace rings to `path` as Chrome trace-event JSON.
fn write_trace_file(path: &str) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    txobs::write_chrome_trace(&mut writer)?;
    writer.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    if cli.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let scenarios = match &cli.figure {
        Some(rows) => rows.clone(),
        None => build_scenarios(&MatrixSelection {
            threads: cli.threads.clone().unwrap_or_else(|| vec![1]),
            workload_families: cli.workloads.clone(),
            runtimes: cli.runtimes.clone(),
            fsync: cli.fsync,
        }),
    };
    if scenarios.is_empty() {
        eprintln!("error: the selected matrix is empty");
        return ExitCode::from(2);
    }
    if let Some(warning) =
        threads_ignored_warning(cli.threads.is_some(), &pinned_workload_labels(&scenarios))
    {
        eprintln!("{warning}");
    }
    if cli.list {
        for spec in &scenarios {
            println!("{}", spec.name());
        }
        return ExitCode::SUCCESS;
    }

    let config = workload_config(&cli);
    if cli.trace.is_some() {
        txobs::set_tracing(true);
        txobs::label_current_thread("tmbench-main");
    }
    let report = run_matrix(&scenarios, &config, cli.quick, |i, total, spec| {
        eprintln!("[{}/{}] {}", i + 1, total, spec.name());
    });
    print_report_table(&report);
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report.to_json_string()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &cli.trace {
        txobs::set_tracing(false);
        if let Err(e) = write_trace_file(path) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {path} ({} trace events dropped)",
            txobs::dropped_events()
        );
    }
    if let Some(path) = &cli.metrics_out {
        if let Err(e) = std::fs::write(path, txobs::metrics::metrics_text()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_rows_warn_only_with_an_explicit_thread_axis() {
        let pinned = vec![
            "kv-a-durable-c1".to_string(),
            "kv-a-durable-c64".to_string(),
        ];
        // No --threads: the pinned rows are just the matrix, nothing to say.
        assert_eq!(threads_ignored_warning(false, &pinned), None);
        // --threads but no pinned rows selected: nothing is ignored.
        assert_eq!(threads_ignored_warning(true, &[]), None);
        // Both: warn, naming every pinned row.
        let warning = threads_ignored_warning(true, &pinned).expect("must warn");
        assert!(warning.starts_with("warning:"), "{warning}");
        assert!(warning.contains("kv-a-durable-c1"), "{warning}");
        assert!(warning.contains("kv-a-durable-c64"), "{warning}");
    }

    #[test]
    fn measurement_flags_fall_back_to_fixed_defaults() {
        let config = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let c = workload_config(&parse_args(&args).unwrap());
            (c.duration, c.repetitions, c.seed)
        };
        assert_eq!(config(&[]), (Duration::from_millis(300), 1, 0xC0FFEE));
        assert_eq!(
            config(&["--quick"]).0,
            Duration::from_millis(QUICK_BENCH_MS)
        );
        assert_eq!(
            config(&[
                "--quick",
                "--duration-ms",
                "7",
                "--reps",
                "3",
                "--seed",
                "9"
            ]),
            (Duration::from_millis(7), 3, 9)
        );
    }
}
