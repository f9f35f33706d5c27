//! The per-layer side of the traced repetition.
//!
//! Three sources, all from outside the crates:
//!
//! 1. **Counters** — deltas of `txobs::metrics::{net, wal}()` and of the
//!    runtime's `stats()` across the live window, turned into ratios where
//!    the work happens (requests per round, records per fsync, aborts per
//!    attempt, useful tasks per attempt).
//! 2. **Layer replay** — after the live window, one thread pushes the
//!    window's first requests, grouped into rounds of the size the server
//!    averaged, through each layer's public entry points in request order,
//!    with a span around every call. Self time is a span minus its children.
//! 3. **Microbenchmarks** — fixed-cost probes (CRC throughput, an empty
//!    transaction, a lock-table lookup, an empty TLSTM task group, a WAL
//!    append-to-durable round trip) that say what a layer costs when it does
//!    nothing else.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use txkv::{DurableKvSession, DurableKvStore, KvOp, KvReply, KvServer, KvSession};
use txlog::{LogWriter, WalOptions};
use txmem::{
    SeqRefRuntime, TaskBody, TxConfig, TxMem, TxRuntime, TxSession, TxSubstrate, WordAddr,
};
use txnet::DEFAULT_MAX_FRAME_LEN;

use crate::gen::{self, Rng};
use crate::metrics::PER_LAYER;
use crate::rep::{durable_config, server_config, Live, RepCtx, FSYNC};
use crate::spans::{SpanRecorder, NONE};

/// Requests the layer replay takes from the start of the window.
pub const REPLAY_REQUESTS: usize = 20_000;

/// What a workload hands the layer replay: `rounds`, each a list of requests,
/// each request a list of operations; whether the requests crossed the wire
/// in the live run (so the codec is replayed too); and whether they ran on
/// the durable session.
pub struct ReplayPlan {
    pub rounds: Vec<Vec<Vec<KvOp>>>,
    pub wire: bool,
    pub durable: bool,
}

/// How long each microbenchmark loops.
const MICRO: Duration = Duration::from_millis(40);

/// Name → value for every layer metric; starts all-zero so a metric that does
/// not apply to a workload reads 0.
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    pub fn new() -> Layer {
        Layer(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the layer catalogue"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// In catalogue order.
    pub fn into_vec(self) -> Vec<(String, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), self.0[m.name]))
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The window's counter deltas as layer metrics.
pub fn counter_metrics(live: &Live, out: &mut Layer) {
    let secs = live.window.as_secs_f64();
    let ops = live.window_ops;
    let net = &live.counters.net;
    out.set(
        "txnet.reqs_per_round",
        ratio(net.coalesced_requests, net.coalesced_batches),
    );
    out.set(
        "txnet.wire_bytes_per_op",
        ratio(net.bytes_in + net.bytes_out, ops),
    );
    out.set("txnet.protocol_errors", net.protocol_errors as f64);
    let wal = &live.counters.wal;
    out.set("txlog.fsyncs_per_s", wal.fsyncs as f64 / secs);
    out.set(
        "txlog.records_per_fsync",
        ratio(wal.batch_records, wal.fsyncs),
    );
    // total_ns / count is an exact mean even though the histogram's
    // quantiles are bucket edges.
    out.set(
        "txlog.fsync_ms_mean",
        ratio(wal.fsync_ns.total_ns(), wal.fsync_ns.count()) / 1e6,
    );
    out.set("txlog.wal_bytes_per_op", ratio(wal.batch_bytes, ops));
    let stm = &live.counters.stm;
    out.set(
        "stm.abort_ratio",
        ratio(stm.tx_aborts, stm.tx_commits + stm.tx_aborts),
    );
    out.set("stm.reads_per_commit", ratio(stm.reads, stm.tx_commits));
    out.set("stm.writes_per_commit", ratio(stm.writes, stm.tx_commits));
    out.set(
        "stm.validations_per_commit",
        ratio(stm.validations, stm.tx_commits),
    );
    out.set(
        "tlstm.task_useful_ratio",
        ratio(stm.task_commits, stm.task_commits + stm.task_aborts),
    );
    out.set("gen_idle_frac", live.gen_idle_frac.unwrap_or(0.0));
    out.set("failed_frac", ratio(live.failed, live.attempted));
    out.set("traced_ops_per_s", ops as f64 / secs);
}

/// The store the replay executes against: the workload's own flavour.
enum ReplayExec {
    Mem(KvSession<SwisstmRuntime>),
    Durable(DurableKvSession<SwisstmRuntime>),
}

impl ReplayExec {
    fn execute(&mut self, requests: Vec<Vec<KvOp>>) -> Vec<Vec<KvReply>> {
        match self {
            ReplayExec::Mem(session) => session.batch_with_replies(requests),
            ReplayExec::Durable(session) => session
                .batch_with_replies(requests)
                .expect("the replay's WAL failed"),
        }
    }
}

const CODEC_SPANS: [&str; 8] = [
    "txnet.encode_request",
    "txnet.encode_frame",
    "txnet.decode_frame",
    "txnet.decode_request",
    "txnet.encode_ok_reply",
    "txnet.encode_reply_frame",
    "txnet.decode_reply_frame",
    "txnet.decode_reply",
];

/// Replays the plan through the layers, one span per call, and writes the
/// trace file. `p50_us` is the live window's median latency, for
/// `txnet.residual_us`. Returns what went wrong, if anything.
pub fn replay(ctx: &RepCtx, plan: &ReplayPlan, p50_us: f64, out: &mut Layer) -> Vec<String> {
    let ReplayPlan {
        rounds,
        wire,
        durable,
    } = plan;
    let (wire, durable) = (*wire, *durable);
    let mut notes = Vec::new();
    let n_requests: usize = rounds.iter().map(Vec::len).sum();
    if n_requests == 0 {
        return notes;
    }
    let wal_dir = ctx.out_dir.join(format!(
        "wal-replay-{}-{}",
        ctx.workload.name(),
        std::process::id()
    ));
    let durable_store = durable.then(|| {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let store = DurableKvStore::<SwisstmRuntime>::boot(&wal_dir, &durable_config())
            .expect("booting the replay's durable store failed");
        store.populate(gen::population());
        store
    });
    let mut exec = match &durable_store {
        Some(store) => ReplayExec::Durable(store.session()),
        None => {
            let server = KvServer::<SwisstmRuntime>::new(&server_config());
            server.populate(gen::population());
            ReplayExec::Mem(server.session())
        }
    };
    let seqref_server = KvServer::<SeqRefRuntime>::new(&server_config());
    seqref_server.populate(gen::population());
    let mut seqref = seqref_server.session();

    let batch_tasks = server_config().batch_tasks;
    let mut rec = SpanRecorder::with_capacity(n_requests * 9 + rounds.len() * 6);
    let mut frame = Vec::with_capacity(256);
    let mut req = 0u32;
    let mut mismatched_rounds = 0u64;
    for (round_id, requests) in rounds.iter().enumerate() {
        let round_id = round_id as u32;
        let first_req = req;
        rec.enter("round", round_id, NONE);
        let mut decoded: Vec<Vec<KvOp>> = Vec::with_capacity(requests.len());
        for ops in requests {
            if wire {
                let payload = rec.scope("txnet.encode_request", round_id, req, || {
                    txnet::encode_request(ops)
                });
                frame.clear();
                rec.scope("txnet.encode_frame", round_id, req, || {
                    txnet::encode_frame_into(&mut frame, u64::from(req), &payload)
                });
                let got = rec.scope("txnet.decode_frame", round_id, req, || {
                    txnet::decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
                });
                let Ok(txnet::FrameDecode::Frame { payload, .. }) = got else {
                    panic!("a frame this replay encoded did not decode: {got:?}");
                };
                decoded.push(
                    rec.scope("txnet.decode_request", round_id, req, || {
                        txnet::decode_request(&payload)
                    })
                    .expect("a request this replay encoded did not decode"),
                );
            } else {
                decoded.push(ops.clone());
            }
            req += 1;
        }
        let flat: Vec<KvOp> = decoded.iter().flatten().cloned().collect();
        black_box(rec.scope("txkv.plan_batch", round_id, NONE, || {
            txkv::plan_batch(&flat, gen::SHARDS, batch_tasks)
        }));
        black_box(rec.scope("txkv.encode_record", round_id, NONE, || {
            txkv::durable::encode_record(gen::SHARDS, batch_tasks, &flat)
        }));
        let for_seqref = decoded.clone();
        let want = rec.scope("txkv.exec_seqref", round_id, NONE, || {
            seqref.batch_with_replies(for_seqref)
        });
        let replies = rec.scope("txkv.exec", round_id, NONE, || exec.execute(decoded));
        mismatched_rounds += u64::from(replies != want);
        if wire {
            for (i, reply) in replies.iter().enumerate() {
                let id = first_req + i as u32;
                let payload = rec.scope("txnet.encode_ok_reply", round_id, id, || {
                    txnet::encode_ok_reply(reply)
                });
                frame.clear();
                rec.scope("txnet.encode_reply_frame", round_id, id, || {
                    txnet::encode_frame_into(&mut frame, u64::from(id), &payload)
                });
                let got = rec.scope("txnet.decode_reply_frame", round_id, id, || {
                    txnet::decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
                });
                let Ok(txnet::FrameDecode::Frame { payload, .. }) = got else {
                    panic!("a reply frame this replay encoded did not decode: {got:?}");
                };
                let _ = black_box(
                    rec.scope("txnet.decode_reply", round_id, id, || {
                        txnet::decode_reply(&payload)
                    })
                    .expect("a reply this replay encoded did not decode"),
                );
            }
        }
        rec.exit();
    }
    drop(exec);
    if durable_store.is_some() {
        drop(durable_store);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    if mismatched_rounds > 0 {
        notes.push(format!(
            "layer replay: {mismatched_rounds} rounds answered differently on swisstm and seqref"
        ));
    }

    let n_rounds = rounds.len() as f64;
    let durations = rec.duration_by_name();
    let total = |name: &str| durations.get(name).copied().unwrap_or(0);
    let codec_ns: u64 = CODEC_SPANS.iter().map(|name| total(name)).sum();
    let plan_ns = total("txkv.plan_batch");
    let record_ns = total("txkv.encode_record");
    let exec_ns = total("txkv.exec");
    let seqref_ns = total("txkv.exec_seqref");
    out.set(
        "txnet.codec_ns_per_req",
        codec_ns as f64 / n_requests as f64,
    );
    out.set("txkv.plan_ns_per_round", plan_ns as f64 / n_rounds);
    out.set("txkv.record_encode_ns", record_ns as f64 / n_rounds);
    out.set("txkv.exec_us_per_round", exec_ns as f64 / n_rounds / 1e3);
    out.set(
        "txkv.exec_seqref_us_per_round",
        seqref_ns as f64 / n_rounds / 1e3,
    );
    if wire {
        // What a request's latency holds beyond the replayed service time of
        // its round: the wire, the poll loop and its idle sleep, queueing.
        let service_us = (codec_ns + exec_ns) as f64 / n_rounds / 1e3;
        out.set("txnet.residual_us", p50_us - service_us);
    }

    let path = ctx
        .out_dir
        .join(format!("trace-{}.json", ctx.workload.name()));
    let written = std::fs::File::create(&path).and_then(|file| {
        let mut w = BufWriter::new(file);
        rec.write_chrome_trace(
            &mut w,
            &format!("txbench layer replay: {}", ctx.workload.name()),
        )?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()
    });
    if let Err(e) = written {
        notes.push(format!("writing {} failed: {e}", path.display()));
    }
    notes
}

/// Runs `step` for [`MICRO`] and returns the mean nanoseconds per call.
fn time_per_call(mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..16 {
            step();
        }
        calls += 16;
        let elapsed = start.elapsed();
        if elapsed >= MICRO {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// The fixed-cost probes. `wal_record_bytes` is the live window's mean redo
/// record size (0 when the workload has no WAL, which skips that probe).
pub fn microbenchmarks(ctx: &RepCtx, wal_record_bytes: usize, out: &mut Layer) {
    // CRC-32 over 4 KiB buffers: every wire and WAL byte passes through it.
    let mut rng = Rng::stream(ctx.seed, 0xC7C);
    let block: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    let ns = time_per_call(|| {
        black_box(txlog::crc32(black_box(&block)));
    });
    out.set("txlog.crc_mb_per_s", block.len() as f64 / ns * 1e3);

    let substrate = Arc::new(TxSubstrate::new(TxConfig {
        spec_depth: crate::txlong::TASKS,
        ..TxConfig::default()
    }));
    let addrs: Vec<WordAddr> = (0..4096)
        .map(|_| WordAddr::new(1 + rng.below(substrate.config.heap_capacity_words - 1)))
        .collect();
    let mut next = 0usize;
    let ns = time_per_call(|| {
        next = (next + 1) % addrs.len();
        black_box(substrate.locks.lookup(black_box(addrs[next])));
    });
    out.set("txmem.lock_lookup_ns", ns);

    let swisstm = SwisstmRuntime::with_substrate(Arc::clone(&substrate));
    let mut session = <SwisstmRuntime as TxRuntime>::session(&swisstm);
    out.set(
        "swisstm.empty_tx_ns",
        time_per_call(|| session.run(|_mem| Ok(()))),
    );
    drop(session);

    // Three empty bodies: what TLSTM charges to hand a transaction's tasks
    // to its workers and retire them, with no work to hide it behind.
    let tlstm = TlstmRuntime::with_substrate(substrate);
    let mut session = <TlstmRuntime as TxRuntime>::session(&tlstm);
    let ns = time_per_call(|| {
        let mut a = |_: &mut dyn TxMem| Ok(());
        let mut b = |_: &mut dyn TxMem| Ok(());
        let mut c = |_: &mut dyn TxMem| Ok(());
        let mut group: [TaskBody<'_>; 3] = [&mut a, &mut b, &mut c];
        session.run_tasks(&mut group);
    });
    out.set("tlstm.dispatch_us", ns / 1e3);
    drop(session);

    if wal_record_bytes > 0 {
        // A standalone writer fed records of the window's size: append, then
        // wait for the group commit to cover it.
        let dir = ctx.out_dir.join(format!(
            "wal-micro-{}-{}",
            ctx.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = LogWriter::open(
            &dir,
            &WalOptions {
                fsync: FSYNC,
                crash_points: txkv::CrashPoints::disabled(),
                ..WalOptions::default()
            },
        )
        .expect("opening the probe WAL failed");
        let start = Instant::now();
        let mut lsn = 0u64;
        while start.elapsed() < MICRO * 4 {
            let ticket = writer
                .append(lsn, vec![0xA5; wal_record_bytes])
                .expect("probe append failed");
            ticket.wait().expect("probe record did not become durable");
            lsn += 1;
        }
        out.set(
            "txlog.append_wait_us",
            start.elapsed().as_nanos() as f64 / lsn as f64 / 1e3,
        );
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
