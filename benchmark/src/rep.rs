//! What every workload's repetition shares: the method's constants, the
//! repetition context and outcome, and the small process-level probes
//! (`VmHWM`, the store configuration).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use txkv::{DurableKvConfig, FsyncPolicy, KvServerConfig, KvStoreParams};
use txmem::{StatsSnapshot, TxConfig};
use txobs::metrics::{NetSnapshot, WalSnapshot};

use crate::gen::{RECORDS, SHARDS};
use crate::json::Json;
use crate::quantile::Sorted;

/// Repetitions (fresh child processes) behind every reported median.
pub const REPETITIONS: u64 = 5;
/// The group-commit interval of every durable workload, stated in reports.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Group(Duration::from_millis(2));

/// The six workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetDurableA,
    NetDurableB,
    NetMemA,
    KvInprocMix,
    TxLongSwisstm,
    TxLongTlstm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::NetDurableA,
        Workload::NetDurableB,
        Workload::NetMemA,
        Workload::KvInprocMix,
        Workload::TxLongSwisstm,
        Workload::TxLongTlstm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetDurableA => "net-durable-a",
            Workload::NetDurableB => "net-durable-b",
            Workload::NetMemA => "net-mem-a",
            Workload::KvInprocMix => "kv-inproc-mix",
            Workload::TxLongSwisstm => "tx-long-swisstm",
            Workload::TxLongTlstm => "tx-long-tlstm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_net(self) -> bool {
        matches!(
            self,
            Workload::NetDurableA | Workload::NetDurableB | Workload::NetMemA
        )
    }

    /// The one-line reason the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NetDurableA => "256 closed-loop callers, 50/50 get/put over the wire into the durable store: the full six-layer path, bound by one fsync per coalesced round",
            Workload::NetDurableB => "same path at 95/5 get/put: reads queue behind the round's fsync, so a change that trades reads against writes makes this row and net-durable-a diverge",
            Workload::NetMemA => "net-durable-a's traffic against the in-memory server: txnet does most of the work and txlog none, so WAL changes must not move it and codec or poll-loop changes must",
            Workload::KvInprocMix => "no sockets, no WAL: two sessions run 16-op get/put/scan batches over shared zipfian keys, the only row with inter-thread STM conflicts and range scans",
            Workload::TxLongSwisstm => "STMBench7 long traversals (1620 atomic-part visits, 10% read-only) as one SwissTM transaction: the baseline the paper's runtime must beat",
            Workload::TxLongTlstm => "the identical traversal stream on TLSTM split into 3 speculative tasks: the paper's claim, read as ops_per_s relative to tx-long-swisstm",
        }
    }
}

/// Faults `selfcheck` injects to prove the verifier notices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit of one connection's reply-stream hash.
    CorruptReplyHash,
    /// Discard one reply frame before the generator sees it.
    DropReply,
    /// Cut the WAL segments short before the reboot-and-compare check.
    TruncateWal,
}

impl Fault {
    pub const ALL: [Fault; 3] = [
        Fault::CorruptReplyHash,
        Fault::DropReply,
        Fault::TruncateWal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Fault::CorruptReplyHash => "corrupt-reply-hash",
            Fault::DropReply => "drop-reply",
            Fault::TruncateWal => "truncate-wal",
        }
    }

    pub fn parse(name: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Everything one repetition is told.
#[derive(Debug, Clone)]
pub struct RepCtx {
    pub workload: Workload,
    pub seed: u64,
    pub rep: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// The traced repetition: `txobs` tracing on during the window, then the
    /// layer replay and the layer microbenchmarks.
    pub traced: bool,
    /// `benchmark/out/`: WAL directories and trace files.
    pub out_dir: PathBuf,
    pub fault: Option<Fault>,
    /// How long unanswered requests are waited for after the window.
    pub drain_deadline: Duration,
    /// Taken first thing in `main`: the origin of `setup_s`.
    pub process_start: Instant,
}

/// The counter deltas of the timed window, read from the crates' public
/// snapshot functions at the window's two edges.
#[derive(Debug, Clone, Default)]
pub struct WindowCounters {
    pub net: NetSnapshot,
    pub wal: WalSnapshot,
    pub stm: StatsSnapshot,
}

impl WindowCounters {
    /// The process-wide net and WAL counters now, beside the given runtime
    /// statistics.
    pub fn read(stm: StatsSnapshot) -> WindowCounters {
        WindowCounters {
            net: txobs::metrics::net().snapshot(),
            wal: txobs::metrics::wal().snapshot(),
            stm,
        }
    }

    pub fn delta_since(&self, before: &WindowCounters) -> WindowCounters {
        WindowCounters {
            net: self.net.delta_since(&before.net),
            wal: self.wal.delta_since(&before.wal),
            stm: self.stm.delta_since(&before.stm),
        }
    }
}

/// What a workload hands back from its live phase.
#[derive(Debug)]
pub struct Live {
    pub input_hash: u64,
    /// Operations issued over the whole repetition (warm-up and drain too).
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub notes: Vec<String>,
    /// Operations acknowledged inside the timed window.
    pub window_ops: u64,
    pub window: Duration,
    pub latencies: Sorted,
    pub setup: Duration,
    pub peak_rss_mib: f64,
    pub counters: WindowCounters,
    /// Share of the window the load generator spent blocked waiting for
    /// replies (`net-*` only).
    pub gen_idle_frac: Option<f64>,
}

/// One repetition's result line (child → parent).
#[derive(Debug, Clone)]
pub struct RepOutcome {
    pub input_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    pub notes: Vec<String>,
    pub end_to_end: Vec<(String, f64)>,
    pub layer: Vec<(String, f64)>,
}

impl RepOutcome {
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[(String, f64)]| {
            Json::Obj(
                list.iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::obj([
            ("input_hash", Json::str(format!("{:016x}", self.input_hash))),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("samples", Json::Num(self.samples as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("layer", metrics(&self.layer)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<RepOutcome> {
        let metrics = |key: &str| -> Option<Vec<(String, f64)>> {
            doc.get(key)?
                .as_obj()?
                .iter()
                // A refused percentile travels as null.
                .map(|(k, v)| Some((k.clone(), v.as_f64().unwrap_or(f64::NAN))))
                .collect()
        };
        Some(RepOutcome {
            input_hash: u64::from_str_radix(doc.get("input_hash")?.as_str()?, 16).ok()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            samples: doc.get("samples")?.as_u64()?,
            notes: doc
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            layer: metrics("layer")?,
        })
    }
}

/// The common store: 65 536 records × 8 words, 16 shards, one shard-group
/// per batch (the sequential plan the `tmbench` KV rows use).
pub fn server_config() -> KvServerConfig {
    KvServerConfig {
        store: KvStoreParams {
            shards: SHARDS,
            expected_keys: RECORDS,
        },
        batch_tasks: 1,
        tx: TxConfig::default(),
    }
}

pub fn durable_config() -> DurableKvConfig {
    DurableKvConfig {
        server: server_config(),
        fsync: FSYNC,
        crash_points: txkv::CrashPoints::disabled(),
        ..DurableKvConfig::default()
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_and_fault_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::parse("rbtree"), None);
        for f in Fault::ALL {
            assert_eq!(Fault::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn outcome_round_trips_through_its_result_line() {
        let outcome = RepOutcome {
            input_hash: 0xDEAD_BEEF_0000_0001,
            attempted: 12,
            failed: 1,
            samples: 10,
            notes: vec!["lane 0: reply hash".into()],
            end_to_end: vec![("ops_per_s".into(), 1234.5678)],
            layer: vec![("gen_idle_frac".into(), 0.25)],
        };
        let back =
            RepOutcome::from_json(&Json::parse(&outcome.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back.input_hash, outcome.input_hash);
        assert_eq!(back.failed, 1);
        assert_eq!(back.end_to_end, outcome.end_to_end);
        assert_eq!(back.layer, outcome.layer);
        assert_eq!(back.notes, outcome.notes);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mib() > 0.0);
    }
}
