//! Cross-shard atomicity: a multi-key batch — in particular a multi-key
//! `cas` batch in TLSTM's task-split mode, where each key's update runs in a
//! *different speculative task* — must commit all-or-nothing, and no
//! concurrent transaction may ever observe a torn cross-shard state.

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{bounded_threads, with_default_watchdog, TestRng};
use txkv::{shard_of, KvOp, KvReply, KvServer, KvServerConfig, KvStoreParams};
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 8;

fn config(batch_tasks: usize) -> KvServerConfig {
    KvServerConfig {
        store: KvStoreParams {
            shards: SHARDS,
            expected_keys: 64,
        },
        batch_tasks,
        tx: TxConfig::small(),
    }
}

/// Finds `n` keys that all live on pairwise different shards, so a batch
/// over them is genuinely cross-shard.
fn keys_on_distinct_shards(n: usize) -> Vec<u64> {
    let mut keys = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut candidate = 0u64;
    while keys.len() < n {
        let shard = shard_of(candidate, SHARDS);
        if used.insert(shard) {
            keys.push(candidate);
        }
        candidate += 1;
    }
    keys
}

/// Writers advance every key of a cross-shard group from `v` to `v+1` with
/// one multi-key cas batch; readers assert all keys always agree. A torn
/// commit (some cas applied, some not) would break both sides.
fn torn_state_hunt<R: TxRuntime>(server: &KvServer<R>, batch_tasks: usize) {
    let label = server.runtime_label();
    let keys = keys_on_distinct_shards(4);
    server.populate(keys.iter().map(|&k| (k, vec![0])));
    let writer_threads = bounded_threads(2).max(1);
    let reader_threads = bounded_threads(2).max(1);
    let rounds = 150;

    std::thread::scope(|scope| {
        for w in 0..writer_threads {
            let server = &server;
            let keys = &keys;
            scope.spawn(move || {
                let mut session = server.session();
                let mut advanced = 0u64;
                let mut rng = TestRng::new(0xA110 + w as u64);
                while advanced < rounds {
                    // Read the current (consistent) version...
                    let current = match session.get(keys[0]) {
                        Some(v) => v[0],
                        None => panic!("{label}: key vanished"),
                    };
                    // ...then try to advance every key with one atomic
                    // multi-key cas batch.
                    let ops: Vec<KvOp> = keys
                        .iter()
                        .map(|&key| KvOp::Cas {
                            key,
                            expected: vec![current],
                            new: vec![current + 1],
                        })
                        .collect();
                    let replies = session.batch(ops);
                    let swapped: Vec<bool> = replies
                        .iter()
                        .map(|r| match r {
                            KvReply::Swapped(s) => *s,
                            other => panic!("{label}: unexpected reply {other:?}"),
                        })
                        .collect();
                    // All-or-nothing: the cas-es share one snapshot, so they
                    // either all see `current` or all see a newer value.
                    assert!(
                        swapped.iter().all(|&s| s) || swapped.iter().all(|&s| !s),
                        "{label}: torn multi-key cas batch: {swapped:?}"
                    );
                    if swapped[0] {
                        advanced += 1;
                    }
                    if rng.percent(10) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for r in 0..reader_threads {
            let server = &server;
            let keys = &keys;
            scope.spawn(move || {
                let mut session = server.session();
                for _ in 0..rounds * 4 {
                    let ops: Vec<KvOp> = keys.iter().map(|&key| KvOp::Get { key }).collect();
                    let replies = session.batch(ops);
                    let values: Vec<u64> = replies
                        .iter()
                        .map(|reply| match reply {
                            KvReply::Value(Some(v)) => v[0],
                            other => panic!("{label}: unexpected reply {other:?}"),
                        })
                        .collect();
                    assert!(
                        values.windows(2).all(|w| w[0] == w[1]),
                        "{label} (reader {r}, k{batch_tasks}): observed torn \
                         cross-shard state {values:?}"
                    );
                }
            });
        }
    });

    // Every writer advanced the group `rounds` times, all-or-nothing.
    let mut mem = server.direct();
    let final_values: Vec<u64> = keys
        .iter()
        .map(|&k| server.store().get(&mut mem, k).unwrap().unwrap()[0])
        .collect();
    assert!(
        final_values.windows(2).all(|w| w[0] == w[1]),
        "{label}: final state is torn: {final_values:?}"
    );
    assert_eq!(
        final_values[0],
        rounds * writer_threads as u64,
        "{label}: lost updates"
    );
}

#[test]
fn swisstm_multi_key_cas_is_never_torn() {
    with_default_watchdog(|| {
        let server = KvServer::<SwisstmRuntime>::new(&config(1));
        torn_state_hunt(&server, 1);
    });
}

#[test]
fn tlstm_task_split_multi_key_cas_is_never_torn() {
    // The adversarial case: each cas of the batch runs in its own
    // speculative task (4 tasks, 4 shards), yet the batch must stay atomic.
    with_default_watchdog(|| {
        let server = KvServer::<TlstmRuntime>::new(&config(4));
        torn_state_hunt(&server, 4);
    });
}

#[test]
fn seqref_multi_key_cas_is_never_torn() {
    // The sequential reference runtime serializes batches behind a global
    // lock, so tearing is impossible by construction — this pins that the
    // shared harness agrees.
    with_default_watchdog(|| {
        let server = KvServer::<SeqRefRuntime>::new(&config(2));
        torn_state_hunt(&server, 2);
    });
}

/// Classic write-skew shape, spread across shards: two keys must always
/// sum to a constant. Transfers move value between them in one batch;
/// auditors assert the invariant inside their own transactions.
fn write_skew_hunt<R: TxRuntime>() {
    let server = KvServer::<R>::new(&config(2));
    let label = server.runtime_label();
    let keys = keys_on_distinct_shards(2);
    let (a, b) = (keys[0], keys[1]);
    const TOTAL: u64 = 1000;
    server.populate([(a, vec![TOTAL / 2]), (b, vec![TOTAL / 2])]);

    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let server = &server;
            scope.spawn(move || {
                let mut session = server.session();
                let mut rng = TestRng::new(0x7AB5 ^ t);
                for _ in 0..200 {
                    // Snapshot both balances…
                    let replies = session.batch(vec![KvOp::Get { key: a }, KvOp::Get { key: b }]);
                    let (va, vb) = match (&replies[0], &replies[1]) {
                        (KvReply::Value(Some(va)), KvReply::Value(Some(vb))) => (va[0], vb[0]),
                        other => panic!("{label}: unexpected replies {other:?}"),
                    };
                    assert_eq!(va + vb, TOTAL, "{label}: snapshot is torn");
                    // …and move a random amount with a guarded batch: both
                    // cas-es must see the same snapshot or fail together.
                    let amount = rng.below(va + 1);
                    let replies = session.batch(vec![
                        KvOp::Cas {
                            key: a,
                            expected: vec![va],
                            new: vec![va - amount],
                        },
                        KvOp::Cas {
                            key: b,
                            expected: vec![vb],
                            new: vec![vb + amount],
                        },
                    ]);
                    let applied: Vec<bool> = replies
                        .iter()
                        .map(|r| matches!(r, KvReply::Swapped(true)))
                        .collect();
                    assert!(
                        applied.iter().all(|&s| s) || applied.iter().all(|&s| !s),
                        "{label}: half-applied transfer {applied:?}"
                    );
                }
            });
        }
    });

    let mut mem = server.direct();
    let va = server.store().get(&mut mem, a).unwrap().unwrap()[0];
    let vb = server.store().get(&mut mem, b).unwrap().unwrap()[0];
    assert_eq!(va + vb, TOTAL, "{label}: invariant broken at rest");
}

#[test]
fn write_skew_style_cross_shard_invariant_holds() {
    with_default_watchdog(|| {
        write_skew_hunt::<swisstm::SwisstmRuntime>();
        write_skew_hunt::<tlstm::TlstmRuntime>();
        write_skew_hunt::<SeqRefRuntime>();
    });
}
