//! Conformance: identical seeded operation streams through `KvStore` on
//! every registered runtime — SwissTM, TLSTM (including the batched
//! task-split mode), and the sequential `seqref` reference — must produce
//! exactly the replies and final contents of the sequential `RefStore`
//! oracle, and must agree with each other pairwise.

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, TestRng};
use txkv::{KvOp, KvServer, KvServerConfig, KvStoreParams, RefStore};
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 8;

fn config(batch_tasks: usize) -> KvServerConfig {
    KvServerConfig {
        store: KvStoreParams {
            shards: SHARDS,
            expected_keys: 512,
        },
        batch_tasks,
        tx: TxConfig::small(),
    }
}

/// Generates one operation over a small key space so streams revisit keys.
fn gen_op(rng: &mut TestRng, key_space: u64, value_words: u64) -> KvOp {
    let key = rng.below(key_space);
    let value =
        |rng: &mut TestRng| -> Vec<u64> { (0..value_words).map(|_| rng.next_u64()).collect() };
    match rng.below(100) {
        0..=34 => KvOp::Get { key },
        35..=64 => KvOp::Put {
            key,
            value: value(rng),
        },
        65..=74 => KvOp::Delete { key },
        75..=89 => KvOp::Cas {
            key,
            expected: value(rng),
            new: value(rng),
        },
        _ => {
            let lo = rng.below(key_space);
            KvOp::Scan {
                lo,
                hi: lo + rng.below(16) + 1,
                limit: 8,
            }
        }
    }
}

fn gen_batch(rng: &mut TestRng, ops: usize) -> Vec<KvOp> {
    (0..ops).map(|_| gen_op(rng, 64, 3)).collect()
}

/// Runs `batches` seeded batches through a server and the oracle, asserting
/// reply-for-reply and state-for-state equality.
fn run_stream_against_oracle<R: TxRuntime>(
    server: &KvServer<R>,
    seed: u64,
    batches: usize,
    batch_len: usize,
) {
    let label = server.runtime_label();
    let tasks = server.batch_tasks();
    let mut oracle = RefStore::new(SHARDS);
    let mut session = server.session();
    let mut rng = TestRng::new(seed);
    for batch_no in 0..batches {
        let ops = gen_batch(&mut rng, batch_len);
        let got = session.batch(ops.clone());
        let want = oracle.batch(&ops, tasks);
        assert_eq!(
            got, want,
            "{label}/k{tasks}: replies diverged at batch {batch_no}"
        );
    }
    assert_eq!(
        server.store().dump(&mut server.direct()).unwrap(),
        oracle.dump(),
        "{label}/k{tasks}: final contents diverged"
    );
    server
        .store()
        .check_consistency(&mut server.direct())
        .unwrap();
}

#[test]
fn swisstm_store_matches_oracle_on_seeded_streams() {
    with_default_watchdog(|| {
        for seed in [1u64, 0xBEEF, 42] {
            let server = KvServer::<SwisstmRuntime>::new(&config(1));
            run_stream_against_oracle(&server, seed, 40, 12);
        }
    });
}

#[test]
fn swisstm_planned_batches_match_oracle() {
    // Same streams, but planned into 4 shard-groups (the grouping SwissTM
    // shares with a 4-task TLSTM server).
    with_default_watchdog(|| {
        for seed in [1u64, 0xBEEF, 42] {
            let server = KvServer::<SwisstmRuntime>::new(&config(4));
            run_stream_against_oracle(&server, seed, 40, 12);
        }
    });
}

#[test]
fn tlstm_task_split_batches_match_oracle() {
    with_default_watchdog(|| {
        for (seed, tasks) in [(1u64, 2usize), (0xBEEF, 4), (42, 4)] {
            let server = KvServer::<TlstmRuntime>::new(&config(tasks));
            run_stream_against_oracle(&server, seed, 40, 12);
        }
    });
}

#[test]
fn seqref_store_matches_oracle_on_seeded_streams() {
    // The sequential reference runtime runs the same batch plans with a
    // global lock; it is the conformance floor every other runtime is
    // compared against.
    with_default_watchdog(|| {
        for (seed, tasks) in [(1u64, 1usize), (0xBEEF, 4), (42, 2)] {
            let server = KvServer::<SeqRefRuntime>::new(&config(tasks));
            run_stream_against_oracle(&server, seed, 40, 12);
        }
    });
}

/// A stream's observable outcome: per-batch replies plus the final committed
/// contents, so runtimes can be compared pairwise.
type StreamOutcome = (Vec<Vec<txkv::KvReply>>, Vec<(u64, Vec<u64>)>);

/// Replays one seeded stream on a server and returns its [`StreamOutcome`].
fn replay_stream<R: TxRuntime>(tasks: usize, seed: u64, batches: usize) -> StreamOutcome {
    let server = KvServer::<R>::new(&config(tasks));
    let mut session = server.session();
    let mut rng = TestRng::new(seed);
    let replies = (0..batches)
        .map(|_| session.batch(gen_batch(&mut rng, 10)))
        .collect();
    drop(session);
    let dump = server.store().dump(&mut server.direct()).unwrap();
    (replies, dump)
}

#[test]
fn all_runtimes_agree_with_each_other_on_the_same_stream() {
    // Servers with the same batch grouping execute the same plan, so every
    // runtime pair must agree reply-for-reply and state-for-state, not just
    // with the oracle.
    with_default_watchdog(|| {
        let (tasks, seed, batches) = (4, 7, 30);
        let swisstm = replay_stream::<SwisstmRuntime>(tasks, seed, batches);
        let tlstm = replay_stream::<TlstmRuntime>(tasks, seed, batches);
        let seqref = replay_stream::<SeqRefRuntime>(tasks, seed, batches);
        assert_eq!(swisstm, tlstm, "swisstm vs tlstm diverged");
        assert_eq!(swisstm, seqref, "swisstm vs seqref diverged");
        assert_eq!(tlstm, seqref, "tlstm vs seqref diverged");
    });
}

/// Hammers one server from several client threads, then checks structural
/// invariants. (Reply conformance is single-threaded by nature; this pins
/// shard-map/index integrity under real concurrency.)
fn hammer_concurrently<R: TxRuntime>() {
    let server = KvServer::<R>::new(&config(2));
    server.populate((0..64u64).map(|k| (k, vec![k])));
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let server = &server;
            scope.spawn(move || {
                let mut session = server.session();
                let mut rng = TestRng::new(0x5EED ^ t);
                for _ in 0..60 {
                    let ops = gen_batch(&mut rng, 8);
                    session.batch(ops);
                }
            });
        }
    });
    let keys = server
        .store()
        .check_consistency(&mut server.direct())
        .unwrap();
    assert_eq!(keys, server.store().len(&mut server.direct()).unwrap());
    let label = server.runtime_label();
    let stats = server.stats();
    assert!(stats.tx_commits >= 180, "{label}: all batches committed");
}

#[test]
fn concurrent_sessions_preserve_store_invariants() {
    with_default_watchdog(|| {
        hammer_concurrently::<SwisstmRuntime>();
        hammer_concurrently::<TlstmRuntime>();
        hammer_concurrently::<SeqRefRuntime>();
    });
}
