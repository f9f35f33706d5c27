//! `kv-inproc-mix`: two session threads on one in-memory `KvServer`, each
//! running 16-operation get/put/scan batches over *shared* zipfian keys. No
//! sockets and no WAL, so `txkv`, `txcollections` and the SwissTM runtime do
//! all the work — and the two sessions really conflict.
//!
//! The threads' interleaving is not reproducible, so replies cannot be
//! replayed against an oracle. Instead every put writes a value whose eight
//! words carry one stamp naming its writer and stream position: a reply or a
//! final value mixing two stamps is a torn (non-atomic) batch, and each key
//! must end as its initial value or as the last write of one of the threads.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use swisstm::SwisstmRuntime;
use txkv::{KvOp, KvReply, KvServer};

use crate::gen::{self, InputHash};
use crate::layers::{ReplayPlan, REPLAY_REQUESTS};
use crate::quantile::Recorder;
use crate::rep::{peak_rss_mib, server_config, Live, RepCtx, WindowCounters};

pub const THREADS: usize = 2;
/// Batches pre-generated per thread; a thread cycles through them.
const RING: usize = 4096;

struct ThreadResult {
    executed: u64,
    window_ops: u64,
    latencies: Recorder,
    bad_replies: u64,
}

/// Structural checks on one batch's replies; returns how many are wrong.
fn bad_replies(ops: &[KvOp], replies: &[KvReply]) -> u64 {
    if ops.len() != replies.len() {
        return ops.len() as u64;
    }
    ops.iter()
        .zip(replies)
        .filter(|(op, reply)| match (op, reply) {
            // Every key is populated and nothing deletes, so a get always
            // finds an untorn value.
            (KvOp::Get { .. }, KvReply::Value(Some(value))) => !gen::untorn(value),
            // Likewise a put never inserts.
            (KvOp::Put { .. }, KvReply::Inserted(fresh)) => *fresh,
            (KvOp::Scan { lo, hi, limit }, KvReply::Scan(hits)) => {
                hits.len() as u64 > *limit
                    || hits.windows(2).any(|w| w[0].0 >= w[1].0)
                    || hits.iter().any(|(key, _)| !(*lo..*hi).contains(key))
            }
            _ => true,
        })
        .count() as u64
}

pub fn run(ctx: &RepCtx) -> (Live, Option<ReplayPlan>) {
    let server = Arc::new(KvServer::<SwisstmRuntime>::new(&server_config()));
    server.populate(gen::population());
    let mut input_hash = InputHash::default();
    let streams: Vec<Vec<Vec<KvOp>>> = (0..THREADS as u64)
        .map(|thread| {
            let stream = gen::mix_stream(ctx.seed, ctx.rep, thread, RING);
            stream.iter().flatten().for_each(|op| input_hash.op(op));
            stream
        })
        .collect();
    let start = Barrier::new(THREADS + 1);
    let (warmup, window) = (ctx.warmup, ctx.window);
    let traced = ctx.traced;

    let (results, setup, counters) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let server = Arc::clone(&server);
                let start = &start;
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut result = ThreadResult {
                        executed: 0,
                        window_ops: 0,
                        latencies: Recorder::with_capacity(4 << 20),
                        bad_replies: 0,
                    };
                    start.wait();
                    let epoch = Instant::now();
                    loop {
                        let batch = &stream[result.executed as usize % RING];
                        let ops = batch.clone();
                        let t_send = epoch.elapsed();
                        if t_send >= warmup + window {
                            break;
                        }
                        let replies = session.batch(ops);
                        let t_done = epoch.elapsed();
                        result.executed += 1;
                        if t_done >= warmup && t_done < warmup + window {
                            result.window_ops += replies.len() as u64;
                            result.latencies.record((t_done - t_send).as_nanos() as u64);
                        }
                        result.bad_replies += bad_replies(batch, &replies);
                    }
                    result
                })
            })
            .collect();
        let setup = ctx.process_start.elapsed();
        start.wait();
        // This thread only marks the window's edges for the counters.
        std::thread::sleep(warmup);
        if traced {
            txobs::set_tracing(true);
        }
        let before = server.stats();
        std::thread::sleep(window);
        let stm = server.stats().delta_since(&before);
        txobs::set_tracing(false);
        let results: Vec<ThreadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("a session thread panicked"))
            .collect();
        (
            results,
            setup,
            WindowCounters {
                stm,
                ..WindowCounters::default()
            },
        )
    });
    let peak_rss_mib = peak_rss_mib();

    // --- verification.
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let attempted: u64 = results
        .iter()
        .map(|r| r.executed * gen::MIX_BATCH_OPS as u64)
        .sum();
    let bad: u64 = results.iter().map(|r| r.bad_replies).sum();
    if bad > 0 {
        failed += bad;
        notes.push(format!("{bad} replies were torn or malformed"));
    }
    let store = server.store();
    // check_consistency reports a violation by panicking.
    let consistent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store
            .check_consistency(&mut server.direct())
            .expect("direct reads cannot abort")
    }));
    match consistent {
        Ok(keys) if keys == gen::RECORDS => {}
        Ok(keys) => {
            failed += keys.abs_diff(gen::RECORDS);
            notes.push(format!(
                "store holds {keys} keys, expected {}",
                gen::RECORDS
            ));
        }
        Err(_) => {
            failed += 1;
            notes.push("KvStore::check_consistency failed".into());
        }
    }
    // Each thread's last write per key, from the batches it actually ran.
    let last_writes: Vec<HashMap<u64, u64>> = streams
        .iter()
        .zip(&results)
        .map(|(stream, result)| {
            let mut last = HashMap::new();
            for seq in result.executed.saturating_sub(RING as u64)..result.executed {
                for op in &stream[seq as usize % RING] {
                    if let KvOp::Put { key, value } = op {
                        last.insert(*key, value[0]);
                    }
                }
            }
            last
        })
        .collect();
    let dump = store
        .dump(&mut server.direct())
        .expect("direct dump cannot abort");
    let wrong = dump
        .iter()
        .filter(|(key, value)| {
            let explained = *value == gen::initial_value(*key)
                || last_writes
                    .iter()
                    .any(|last| last.get(key) == Some(&value[0]));
            !(gen::untorn(value) && explained)
        })
        .count() as u64;
    if wrong > 0 {
        failed += wrong;
        notes.push(format!(
            "{wrong} keys ended torn or with a value nobody wrote last"
        ));
    }

    let mut window_ops = 0;
    let mut latencies = Recorder::with_capacity(0);
    for result in results {
        window_ops += result.window_ops;
        latencies.absorb(result.latencies);
    }
    // Replayed: thread 0's stream, one batch per round (nothing coalesces
    // without a server in front).
    let plan = ctx.traced.then(|| ReplayPlan {
        rounds: streams[0]
            .iter()
            .take(REPLAY_REQUESTS)
            .map(|batch| vec![batch.clone()])
            .collect(),
        wire: false,
        durable: false,
    });
    let live = Live {
        input_hash: input_hash.0,
        attempted,
        failed: failed.min(attempted),
        notes,
        window_ops,
        window,
        latencies: latencies.finish(),
        setup,
        peak_rss_mib,
        counters,
        gen_idle_frac: None,
    };
    (live, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_checks_catch_torn_values_fresh_inserts_and_bad_scans() {
        let ops = vec![
            KvOp::Get { key: 1 },
            KvOp::Put {
                key: 2,
                value: gen::stamped(4),
            },
            KvOp::Scan {
                lo: 10,
                hi: 20,
                limit: 2,
            },
        ];
        let good = vec![
            KvReply::Value(Some(gen::stamped(9))),
            KvReply::Inserted(false),
            KvReply::Scan(vec![(10, 0), (15, 0)]),
        ];
        assert_eq!(bad_replies(&ops, &good), 0);
        let mut torn = gen::stamped(9);
        torn[7] = 8;
        let bad = vec![
            KvReply::Value(Some(torn)),
            KvReply::Inserted(true),
            KvReply::Scan(vec![(15, 0), (10, 0)]),
        ];
        assert_eq!(bad_replies(&ops, &bad), 3);
        assert_eq!(bad_replies(&ops, &good[..2]), 3);
        let out_of_range = vec![
            good[0].clone(),
            good[1].clone(),
            KvReply::Scan(vec![(25, 0)]),
        ];
        assert_eq!(bad_replies(&ops, &out_of_range), 1);
        let missing = vec![KvReply::Value(None), good[1].clone(), good[2].clone()];
        assert_eq!(bad_replies(&ops, &missing), 1);
    }
}
