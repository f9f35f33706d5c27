//! `txbench` — the repo benchmark.
//!
//! Six closed-loop workloads from the wire down to the STM runtimes, four
//! gated end-to-end metrics on each, and a per-layer traced run. See
//! `benchmark/README.md` for the method and for why each workload exists.
//!
//! ```text
//! txbench run --workload W --seed N --seconds S --trace 0|1   one workload, one result line (the driver's form)
//! txbench suite [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
//! txbench selfcheck [--seed N]                                the verifier and the generator, tested
//! txbench compare A.json B.json                               two suite reports, row by row
//! txbench one W ...                                           one repetition (what the others spawn)
//! ```

mod compare;
mod gen;
mod inproc;
mod json;
mod layers;
mod metrics;
mod netload;
mod quantile;
mod rep;
mod spans;
mod suite;
mod txlong;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;

use layers::Layer;
use rep::{Fault, RepCtx, RepOutcome, Workload};

/// `--key value` pairs and bare `--flag`s.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    pub positional: Vec<String>,
}

impl Args {
    /// `flags` names the options that take no value.
    pub fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            values: HashMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => out.flags.push(name.to_owned()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.values.insert(name.to_owned(), value.clone());
                }
                None => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: '{text}' is not a valid number")),
        }
    }

    /// The directory everything is written under, created if missing.
    /// run.sh passes benchmark/out; a bare binary falls back to ./out.
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(self.get("out-dir").unwrap_or("out"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One repetition: live phase, end-to-end numbers, and — traced — the layer
/// replay and microbenchmarks.
fn run_repetition(ctx: &RepCtx) -> RepOutcome {
    let (mut live, plan) = match ctx.workload {
        Workload::NetDurableA | Workload::NetDurableB | Workload::NetMemA => netload::run(ctx),
        Workload::KvInprocMix => inproc::run(ctx),
        Workload::TxLongSwisstm => (txlong::run::<SwisstmRuntime>(ctx), None),
        Workload::TxLongTlstm => (txlong::run::<TlstmRuntime>(ctx), None),
    };
    let micros = |ns: Result<u64, quantile::TooFewSamples>, notes: &mut Vec<String>| match ns {
        Ok(ns) => ns as f64 / 1e3,
        Err(refused) => {
            notes.push(refused.to_string());
            f64::NAN
        }
    };
    let p50_us = micros(live.latencies.percentile(50_000), &mut live.notes);
    let end_to_end = vec![
        (
            "ops_per_s".to_owned(),
            live.window_ops as f64 / live.window.as_secs_f64(),
        ),
        ("p50_us".to_owned(), p50_us),
        ("peak_rss_mb".to_owned(), live.peak_rss_mib),
        ("setup_s".to_owned(), live.setup.as_secs_f64()),
    ];
    let mut layer = Layer::new();
    layers::counter_metrics(&live, &mut layer);
    // Ungated, so a window too short for it (fewer than 1 000 samples) only
    // costs this one number: it reads 0.
    match live.latencies.percentile(99_000) {
        Ok(ns) => layer.set("p99_us", ns as f64 / 1e3),
        Err(refused) => live.notes.push(refused.to_string()),
    }
    if ctx.traced {
        if let Some(plan) = &plan {
            live.notes
                .extend(layers::replay(ctx, plan, p50_us, &mut layer));
        }
        let wal = &live.counters.wal;
        let record_bytes = wal.batch_bytes.checked_div(wal.batch_records).unwrap_or(0);
        layers::microbenchmarks(ctx, record_bytes as usize, &mut layer);
    }
    RepOutcome {
        input_hash: live.input_hash,
        attempted: live.attempted,
        failed: live.failed,
        samples: live.latencies.len() as u64,
        notes: live.notes,
        end_to_end,
        layer: layer.into_vec(),
    }
}

fn cmd_one(process_start: Instant, args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args, &[])?;
    let name = args.positional.first().ok_or("one: which workload?")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let fault = match args.get("fault") {
        None => None,
        Some(name) => Some(Fault::parse(name).ok_or_else(|| format!("unknown fault '{name}'"))?),
    };
    let out_dir = args.out_dir()?;
    let ctx = RepCtx {
        workload,
        seed: args.number("seed", 1)?,
        rep: args.number("rep", 0)?,
        warmup: Duration::from_millis(args.number("warmup-ms", 500)?),
        window: Duration::from_millis(args.number("window-ms", 2500)?),
        traced: args.number("traced", 0u8)? != 0,
        out_dir,
        fault,
        drain_deadline: Duration::from_millis(args.number("drain-ms", 5000)?),
        process_start,
    };
    let outcome = run_repetition(&ctx);
    println!("{}", outcome.to_json().compact());
    Ok(0)
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("", &args[..]),
    };
    let result = match command {
        "one" => cmd_one(process_start, rest),
        "run" => suite::cmd_run(rest),
        "suite" => suite::cmd_suite(rest),
        "selfcheck" => suite::cmd_selfcheck(rest),
        "compare" => compare::cmd_compare(rest),
        _ => Err(
            "usage: txbench run|suite|selfcheck|compare|one ... (see benchmark/README.md)".into(),
        ),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("txbench: {message}");
            std::process::exit(2);
        }
    }
}
