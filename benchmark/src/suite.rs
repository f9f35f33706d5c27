//! The parent side: spawn one fresh process per repetition, take medians,
//! print every metric by name with its unit, and write the report.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::quantile::median;
use crate::rep::{Fault, RepOutcome, Workload, FSYNC, REPETITIONS};
use crate::Args;

/// Seconds one run measures when nothing says otherwise (`run_seconds` in
/// `BENCHMARK.json`): five 2 s windows.
const DEFAULT_SECONDS: f64 = 10.0;
/// A repetition that takes longer than this is killed and reported.
const REP_TIMEOUT: Duration = Duration::from_secs(150);
/// `selfcheck` fails a `net-*` generator that waits for less than this share
/// of the window.
const MIN_GEN_IDLE_FRAC: f64 = 0.2;

/// How a run's `--seconds` is spent.
#[derive(Debug, Clone, Copy)]
struct Plan {
    window: Duration,
    warmup: Duration,
    drain: Duration,
}

impl Plan {
    /// `seconds` of measuring, split over `reps` repetitions; the untimed
    /// warm-up is a fifth of a window, at most 0.5 s.
    fn from_seconds(seconds: f64, reps: usize) -> Plan {
        let window = Duration::from_secs_f64(seconds / reps as f64);
        Plan {
            window,
            warmup: window.mul_f64(0.2).min(Duration::from_millis(500)),
            drain: Duration::from_secs(5),
        }
    }
}

struct Spawn<'a> {
    workload: Workload,
    seed: u64,
    rep: u64,
    plan: Plan,
    traced: bool,
    fault: Option<Fault>,
    out_dir: &'a Path,
}

/// Runs one repetition in a fresh child process and parses its result line.
/// The child is always waited for (or killed, then waited for).
fn spawn_rep(spawn: &Spawn<'_>) -> Result<RepOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("one")
        .arg(spawn.workload.name())
        .args(["--seed", &spawn.seed.to_string()])
        .args(["--rep", &spawn.rep.to_string()])
        .args(["--window-ms", &spawn.plan.window.as_millis().to_string()])
        .args(["--warmup-ms", &spawn.plan.warmup.as_millis().to_string()])
        .args(["--drain-ms", &spawn.plan.drain.as_millis().to_string()])
        .args(["--traced", if spawn.traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(spawn.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(fault) = spawn.fault {
        command.args(["--fault", fault.name()]);
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    let started = Instant::now();
    // The result line is far smaller than a pipe buffer, so the child never
    // blocks on us while we poll for its exit.
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("waiting for a repetition: {e}"))?
        {
            Some(status) => break status,
            None if started.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} repetition {} did not finish within {REP_TIMEOUT:?}",
                    spawn.workload.name(),
                    spawn.rep
                ));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let output = child
        .wait_with_output()
        .map_err(|e| format!("reading a repetition's output: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} repetition {} exited with {status}",
            spawn.workload.name(),
            spawn.rep
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or("");
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(RepOutcome::from_json)
        .ok_or_else(|| format!("{}: unreadable result line: {line}", spawn.workload.name()))
}

/// All repetitions of one workload.
struct Measured {
    workload: Workload,
    untraced: Vec<RepOutcome>,
    traced: Vec<RepOutcome>,
}

fn pick(list: &[(String, f64)], name: &str) -> f64 {
    list.iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

impl Measured {
    fn all(&self) -> impl Iterator<Item = &RepOutcome> {
        self.untraced.iter().chain(&self.traced)
    }

    fn attempted(&self) -> u64 {
        self.all().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.all().map(|r| r.failed).sum()
    }

    /// One hash over the repetitions' input hashes, in repetition order.
    fn input_hash(&self) -> u64 {
        let mut hash = crate::gen::InputHash::default();
        self.all().for_each(|r| hash.word(r.input_hash));
        hash.0
    }

    fn end_to_end(&self, name: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .map(|r| pick(&r.end_to_end, name))
            .collect()
    }

    /// Layer values come from the traced repetitions when there are any;
    /// an untraced run still has the counter-derived ones.
    fn layer(&self, name: &str) -> Vec<f64> {
        if name == "txobs.trace_overhead_frac" {
            return self.trace_overhead().into_iter().collect();
        }
        let source = if self.traced.is_empty() {
            &self.untraced
        } else {
            &self.traced
        };
        source.iter().map(|r| pick(&r.layer, name)).collect()
    }

    /// 1 − traced ÷ untraced throughput, from the alternating repetitions of
    /// a traced run.
    fn trace_overhead(&self) -> Option<f64> {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return None;
        }
        let traced = median(&self.layer("traced_ops_per_s"));
        let untraced = median(&self.end_to_end("ops_per_s"));
        Some(1.0 - traced / untraced)
    }
}

/// Which repetitions of a run are traced: none of `reps`, or — in a traced
/// run — every second of three untraced/traced pairs, so the tracing overhead
/// is a like-for-like difference of alternating repetitions.
fn schedule(reps: u64, traced: bool) -> Vec<bool> {
    if traced {
        [false, true].repeat(3)
    } else {
        vec![false; reps as usize]
    }
}

/// Runs a workload's repetitions, traced where `schedule` says so.
fn measure(
    workload: Workload,
    seed: u64,
    plan: Plan,
    schedule: &[bool],
    out_dir: &Path,
) -> Result<Measured, String> {
    let mut measured = Measured {
        workload,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for (rep, &traced_rep) in schedule.iter().enumerate() {
        let outcome = spawn_rep(&Spawn {
            workload,
            seed,
            rep: rep as u64,
            plan,
            traced: traced_rep,
            fault: None,
            out_dir,
        })?;
        for note in &outcome.notes {
            eprintln!("txbench: {} rep {rep}: {note}", workload.name());
        }
        if traced_rep {
            measured.traced.push(outcome);
        } else {
            measured.untraced.push(outcome);
        }
    }
    Ok(measured)
}

fn summary(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((median(values), min, max))
}

/// Prints every metric of a workload by name, with its unit.
fn print_measured(m: &Measured) {
    println!(
        "== {}  input_hash={:016x}  attempted={}  failed={}",
        m.workload.name(),
        m.input_hash(),
        m.attempted(),
        m.failed()
    );
    let row = |name: &str, values: &[f64], gated: Option<f64>| {
        let unit = unit_of(name);
        let gate = gated.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        match summary(values) {
            Some((mid, min, max)) => println!(
                "  {name:<32} {mid:>14.4} {unit:<6} (min {min:.4}, max {max:.4}, n={}){gate}",
                values.len()
            ),
            None => println!(
                "  {name:<32} {:>14} {unit:<6} (n={}){gate}",
                "n/a",
                values.len()
            ),
        }
    };
    if !m.untraced.is_empty() {
        for metric in END_TO_END {
            row(metric.name, &m.end_to_end(metric.name), Some(metric.bound));
        }
    }
    for metric in PER_LAYER {
        let values = m.layer(metric.name);
        // Untraced runs only have the counter-derived layer values; skip the
        // rows a traced run would fill.
        if !m.traced.is_empty() || values.iter().any(|v| *v != 0.0) {
            row(metric.name, &values, None);
        }
    }
}

fn stats_json(values: &[f64]) -> Vec<(String, Json)> {
    let (mid, min, max) = summary(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    vec![
        ("median".into(), Json::Num(mid)),
        ("min".into(), Json::Num(min)),
        ("max".into(), Json::Num(max)),
        ("n".into(), Json::Num(values.len() as f64)),
        (
            "values".into(),
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ]
}

fn measured_json(m: &Measured) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .map(|metric| {
            let mut fields = vec![
                ("unit".to_owned(), Json::str(metric.unit)),
                ("better".to_owned(), Json::str(metric.better.label())),
                ("bound".to_owned(), Json::Num(metric.bound)),
            ];
            fields.extend(stats_json(&m.end_to_end(metric.name)));
            (metric.name.to_owned(), Json::Obj(fields))
        })
        .collect();
    let layer = PER_LAYER
        .iter()
        .map(|metric| {
            let mut fields = vec![
                ("unit".to_owned(), Json::str(metric.unit)),
                ("better".to_owned(), Json::str(metric.better.label())),
            ];
            fields.extend(stats_json(&m.layer(metric.name)));
            (metric.name.to_owned(), Json::Obj(fields))
        })
        .collect();
    Json::obj([
        ("name", Json::str(m.workload.name())),
        ("why", Json::str(m.workload.why())),
        ("input_hash", Json::str(format!("{:016x}", m.input_hash()))),
        ("attempted", Json::Num(m.attempted() as f64)),
        ("failed", Json::Num(m.failed() as f64)),
        (
            "samples_per_window_min",
            Json::Num(m.all().map(|r| r.samples).min().unwrap_or(0) as f64),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("layer", Json::Obj(layer)),
    ])
}

/// The filesystem type `dir` lives on, from `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// The host block every report carries.
fn host_json(out_dir: &Path, seed: u64) -> Json {
    let git_rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        ("wal_dir", Json::str(out_dir.display().to_string())),
        ("wal_filesystem", Json::str(filesystem_of(out_dir))),
        ("fsync", Json::str(FSYNC.to_string())),
        ("git_rev", Json::str(git_rev)),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// `txbench run`: one workload, one result line — the driver's form.
pub fn cmd_run(args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args, &[])?;
    let name = args.get("workload").ok_or("run: --workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = args.number("seed", 1)?;
    let traced = args.number("trace", 0u8)? != 0;
    let schedule = schedule(REPETITIONS, traced);
    let plan = Plan::from_seconds(args.number("seconds", DEFAULT_SECONDS)?, schedule.len());
    let out_dir = args.out_dir()?;
    let measured = measure(workload, seed, plan, &schedule, &out_dir)?;
    print_measured(&measured);

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    let mut emit = |name: &str, values: &[f64]| match summary(values) {
        Some((mid, _, _)) => metrics.push((
            name.to_owned(),
            Json::obj([
                ("value", Json::Num(mid)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )),
        None => missing.push(name.to_owned()),
    };
    if traced {
        for metric in PER_LAYER {
            emit(metric.name, &measured.layer(metric.name));
        }
    } else {
        for metric in END_TO_END {
            emit(metric.name, &measured.end_to_end(metric.name));
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "{name}: no value for {} (too few samples in the window?)",
            missing.join(", ")
        ));
    }
    let failed = measured.failed();
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(measured.attempted() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(i32::from(failed != 0))
}

/// `txbench suite`: every workload, every metric, one report file.
pub fn cmd_suite(args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args, &["trace", "smoke"])?;
    let seed: u64 = args.number("seed", 1)?;
    let smoke = args.flag("smoke");
    let traced = args.flag("trace");
    // Smoke: 0.2 s windows, one repetition, plus the self-check.
    let schedule = schedule(if smoke { 1 } else { REPETITIONS }, traced);
    let default_seconds = if smoke {
        0.2 * schedule.len() as f64
    } else {
        DEFAULT_SECONDS
    };
    let plan = Plan::from_seconds(args.number("seconds", default_seconds)?, schedule.len());
    let out_dir = args.out_dir()?;
    let report_path = args.get("out").map_or_else(
        || out_dir.join(if traced { "layers.json" } else { "report.json" }),
        PathBuf::from,
    );

    let traced_reps = schedule.iter().filter(|t| **t).count();
    let host = host_json(&out_dir, seed);
    println!("host: {}", host.compact());
    println!(
        "method: closed loop, {} repetitions (fresh process each, {} traced), {:.2} s warm-up + {:.2} s window, medians",
        schedule.len(),
        traced_reps,
        plan.warmup.as_secs_f64(),
        plan.window.as_secs_f64(),
    );
    let mut all = Vec::new();
    for workload in Workload::ALL {
        let measured = measure(workload, seed, plan, &schedule, &out_dir)?;
        print_measured(&measured);
        all.push(measured);
    }
    let ops = |w: Workload| {
        all.iter()
            .find(|m| m.workload == w)
            .and_then(|m| summary(&m.end_to_end("ops_per_s")))
            .map_or(f64::NAN, |(mid, _, _)| mid)
    };
    // The repo's reproduction number for the paper's claim, as measured.
    let tlstm_over_swisstm = ops(Workload::TxLongTlstm) / ops(Workload::TxLongSwisstm);
    println!(
        "== derived\n  tx-long-tlstm / tx-long-swisstm ops_per_s = {tlstm_over_swisstm:.4} (base: tx-long-swisstm {:.1} 1/s)",
        ops(Workload::TxLongSwisstm)
    );
    let failed: u64 = all.iter().map(Measured::failed).sum();
    let report = Json::obj([
        ("schema", Json::str("txbench-report-1")),
        ("host", host),
        (
            "method",
            Json::obj([
                ("loop", Json::str("closed")),
                ("repetitions", Json::Num(schedule.len() as f64)),
                ("traced_repetitions", Json::Num(traced_reps as f64)),
                ("warmup_s", Json::Num(plan.warmup.as_secs_f64())),
                ("window_s", Json::Num(plan.window.as_secs_f64())),
            ]),
        ),
        (
            "workloads",
            Json::Arr(all.iter().map(measured_json).collect()),
        ),
        (
            "derived",
            Json::obj([(
                "tlstm_over_swisstm_ops_per_s",
                Json::Num(tlstm_over_swisstm),
            )]),
        ),
    ]);
    std::fs::write(&report_path, report.pretty())
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("report: {}", report_path.display());
    let mut code = i32::from(failed != 0);
    if failed != 0 {
        eprintln!("txbench: {failed} operations failed verification");
    }
    if smoke {
        code |= selfcheck(seed, &out_dir)?;
    }
    Ok(code)
}

/// The benchmark checking itself: every injected fault must be noticed, the
/// inputs must follow the seed, and the generator must have headroom.
fn selfcheck(seed: u64, out_dir: &Path) -> Result<i32, String> {
    let plan = Plan {
        window: Duration::from_millis(400),
        warmup: Duration::from_millis(100),
        drain: Duration::from_millis(500),
    };
    let mut failures = 0;
    let mut check = |ok: bool, what: String| {
        println!("selfcheck {}: {what}", if ok { "ok  " } else { "FAIL" });
        failures += i32::from(!ok);
    };
    let run = |workload, seed, fault| {
        spawn_rep(&Spawn {
            workload,
            seed,
            rep: 0,
            plan,
            traced: false,
            fault,
            out_dir,
        })
    };
    // 1. Negative tests of the verifier.
    let mut hashes = Vec::new();
    for fault in Fault::ALL {
        let outcome = run(Workload::NetDurableA, seed, Some(fault))?;
        check(
            outcome.failed > 0,
            format!(
                "{} is detected ({} of {} operations failed: {})",
                fault.name(),
                outcome.failed,
                outcome.attempted,
                outcome.notes.join("; ")
            ),
        );
        hashes.push(outcome.input_hash);
    }
    // 2. The same seed replays the same inputs; another seed does not.
    check(
        hashes.windows(2).all(|w| w[0] == w[1]),
        format!(
            "seed {seed} gave input_hash {:016x} on every run",
            hashes[0]
        ),
    );
    // 3. Clean runs: nothing fails and the generator waits.
    for workload in Workload::ALL.into_iter().filter(|w| w.is_net()) {
        let outcome = run(workload, seed + 1, None)?;
        let idle = pick(&outcome.layer, "gen_idle_frac");
        check(
            outcome.failed == 0,
            format!(
                "{}: a clean run verifies ({} operations)",
                workload.name(),
                outcome.attempted
            ),
        );
        check(
            idle >= MIN_GEN_IDLE_FRAC,
            format!(
                "{}: gen_idle_frac = {idle:.3} (at least {MIN_GEN_IDLE_FRAC})",
                workload.name()
            ),
        );
        if workload == Workload::NetDurableA {
            check(
                outcome.input_hash != hashes[0],
                format!(
                    "seed {} gave a different input_hash {:016x}",
                    seed + 1,
                    outcome.input_hash
                ),
            );
        }
    }
    Ok(i32::from(failures != 0))
}

pub fn cmd_selfcheck(args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args, &[])?;
    let out_dir = args.out_dir()?;
    selfcheck(args.number("seed", 1)?, &out_dir)
}
