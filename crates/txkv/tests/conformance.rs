//! Conformance: identical seeded operation streams through `KvStore` on
//! every registered runtime — SwissTM, TLSTM (including the batched
//! task-split mode), and the sequential `seqref` reference — must produce
//! exactly the replies and final contents of the sequential `RefStore`
//! oracle, and must agree with each other pairwise. The split transaction
//! under the store, `TxSession::run_split`, is checked on every runtime too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, TestRng};
use txkv::{KvOp, KvServer, KvServerConfig, KvStoreParams, RefStore};
use txmem::{Abort, SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

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

/// Words of a split chain sit this far apart, in distinct lock entries, so
/// a stale read is a write-after-read conflict, not a write-lock one.
const STRIDE: u64 = 64;

/// A split whose task `i` returns word `i`, which task `i − 1` wrote (task 0
/// returns `first`), and writes `3 · value + 1` to word `i + 1`.
fn chain<S: TxSession>(session: &mut S, words: WordAddr, first: u64, tasks: usize) -> Vec<u64> {
    session.run_split(tasks, |i, mem| {
        let i = i as u64;
        let value = if i == 0 {
            first
        } else {
            mem.read(words.offset(i * STRIDE))?
        };
        mem.write(words.offset((i + 1) * STRIDE), 3 * value + 1)?;
        Ok(value)
    })
}

/// Runs `chain` splits of `tasks` tasks on `session` and checks each returns
/// the program-order values, commits one transaction, and that zero tasks
/// start none.
fn check_run_split<R: TxRuntime>(rt: &Arc<R>, session: &mut impl TxSession, tasks: usize) {
    let label = R::LABEL;
    let words = rt.heap().alloc((tasks as u64 + 1) * STRIDE).unwrap();
    for first in 0..20u64 {
        let before = rt.stats();
        let got = chain(session, words, first, tasks);
        let want: Vec<u64> = std::iter::successors(Some(first), |v| Some(3 * v + 1))
            .take(tasks)
            .collect();
        assert_eq!(got, want, "{label}/k{tasks}: not the program-order values");
        let window = rt.stats().delta_since(&before);
        assert_eq!(window.tx_commits, 1, "{label}/k{tasks}: one transaction");
        if !R::SPECULATIVE {
            assert_eq!(window.task_commits, 0, "{label}: a split counts no tasks");
        }
    }
    let before = rt.stats().tx_starts;
    let none: Vec<u64> = session.run_split(0, |_, _| -> Result<u64, Abort> {
        unreachable!("a split of zero tasks runs no body")
    });
    assert!(none.is_empty());
    assert_eq!(
        rt.stats().tx_starts,
        before,
        "{label}: zero tasks ran a transaction"
    );
}

#[test]
fn run_split_returns_program_order_values_on_every_runtime() {
    with_default_watchdog(|| {
        let config = TxConfig {
            spec_depth: 4,
            ..TxConfig::small()
        };
        let swisstm = SwisstmRuntime::new(config.clone());
        let seqref = SeqRefRuntime::new(config.clone());
        let tlstm = TlstmRuntime::new(config);
        for tasks in [1, 2, 4] {
            check_run_split(&swisstm, &mut swisstm.session(), tasks);
            check_run_split(&seqref, &mut seqref.session(), tasks);
            // A full crew on any host, and a default session's idle helpers.
            check_run_split(&tlstm, &mut tlstm.register_uthread(tasks), tasks);
            check_run_split(&tlstm, &mut TxRuntime::session(&tlstm), tasks);
        }
    });
}

#[test]
fn tlstm_run_split_returns_the_committed_execution_of_a_rolled_back_task() {
    // Task 0 writes word 1 only after task 1 has read it, so task 1's first
    // attempt reads the stale 0 and must lose to an intra-thread WAR; the
    // value returned for it is the re-execution's.
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(TxConfig {
            spec_depth: 2,
            ..TxConfig::small()
        });
        let words = rt.heap().alloc(3 * STRIDE).unwrap();
        let mut session = rt.register_uthread(2);
        let reads = AtomicU64::new(0);
        let before = rt.stats();
        let got = session.run_split(2, |i, mem| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while reads.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                mem.write(words.offset(STRIDE), 7)?;
                return Ok(0);
            }
            let value = mem.read(words.offset(STRIDE))?;
            reads.fetch_add(1, Ordering::SeqCst);
            mem.write(words.offset(2 * STRIDE), 3 * value + 1)?;
            Ok(value)
        });
        let window = rt.stats().delta_since(&before);
        assert_eq!(got, [0, 7], "task 1 returned its stale first attempt");
        assert!(
            reads.load(Ordering::SeqCst) >= 2,
            "task 1 never re-executed"
        );
        assert!(window.aborts_intra_war >= 1, "no WAR rollback: {window}");
        assert_eq!(window.tx_commits, 1);
        assert_eq!(rt.heap().load_committed(words.offset(2 * STRIDE)), 22);
    });
}
