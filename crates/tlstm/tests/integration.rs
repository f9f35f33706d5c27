//! Cross-crate integration tests: transactional collections driven by TLSTM
//! tasks and SwissTM transactions, equivalence between the two runtimes on
//! identical operation streams, and stress tests of the conflict machinery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swisstm::SwisstmRuntime;
use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use tlstm_testutil::with_default_watchdog;
use txcollections::{TxHashMap, TxRbTree};
use txmem::{TxConfig, TxMem, TxSession, WORDS_PER_LOCK};

fn config(depth: usize) -> TxConfig {
    TxConfig {
        heap_capacity_words: 1 << 22,
        spec_depth: depth,
        ..TxConfig::default()
    }
}

#[test]
fn rbtree_inserts_from_multiple_tasks_appear_exactly_once() {
    let rt = TlstmRuntime::new(config(3));
    let tree = TxRbTree::create(&mut rt.direct()).unwrap();
    let u = rt.register_uthread(3);
    // 30 transactions, each inserting 3 keys from 3 different tasks.
    for txn in 0..30u64 {
        let bodies = (0..3u64)
            .map(|t| {
                let key = txn * 3 + t;
                task(move |ctx: &mut TaskCtx<'_>| {
                    tree.insert(ctx, key, key * 10)?;
                    Ok(())
                })
            })
            .collect();
        u.execute(vec![TxnSpec::new(bodies)]);
    }
    let mut mem = rt.direct();
    assert_eq!(tree.len(&mut mem).unwrap(), 90);
    for key in 0..90u64 {
        assert_eq!(tree.get(&mut mem, key).unwrap(), Some(key * 10));
    }
    tree.check_invariants(&mut mem).unwrap();
}

#[test]
fn tlstm_and_swisstm_agree_on_a_deterministic_collection_workload() {
    // The same deterministic stream of map operations must leave the same
    // final state regardless of the runtime and of the task decomposition.
    let ops: Vec<(u64, u64)> = (0..300u64).map(|i| (i * 7 % 97, i)).collect();

    let swisstm_state = {
        let rt = SwisstmRuntime::new(config(1));
        let map = TxHashMap::create(&mut rt.direct(), 16).unwrap();
        let mut thread = rt.register_thread();
        for chunk in ops.chunks(4) {
            let chunk = chunk.to_vec();
            thread.atomic(|tx| {
                for &(k, v) in &chunk {
                    if v % 5 == 0 {
                        map.remove(tx, k)?;
                    } else {
                        map.insert(tx, k, v)?;
                    }
                }
                Ok(())
            });
        }
        let mut state = map.to_vec(&mut rt.direct()).unwrap();
        state.sort_unstable();
        state
    };

    let tlstm_state = {
        let rt = TlstmRuntime::new(config(2));
        let map = TxHashMap::create(&mut rt.direct(), 16).unwrap();
        let u = rt.register_uthread(2);
        for chunk in ops.chunks(4) {
            let chunk = Arc::new(chunk.to_vec());
            let mk = |lo: usize, hi: usize| {
                let chunk = Arc::clone(&chunk);
                task(move |ctx: &mut TaskCtx<'_>| {
                    for &(k, v) in &chunk[lo.min(chunk.len())..hi.min(chunk.len())] {
                        if v % 5 == 0 {
                            map.remove(ctx, k)?;
                        } else {
                            map.insert(ctx, k, v)?;
                        }
                    }
                    Ok(())
                })
            };
            let half = chunk.len().div_ceil(2);
            u.execute(vec![TxnSpec::new(vec![mk(0, half), mk(half, usize::MAX)])]);
        }
        let mut state = map.to_vec(&mut rt.direct()).unwrap();
        state.sort_unstable();
        state
    };

    assert_eq!(swisstm_state, tlstm_state);
}

#[test]
fn concurrent_uthreads_on_shared_tree_preserve_set_semantics() {
    // Task 1 of every transaction inserts `key`; task 2 observes that insert
    // *speculatively* and, only if it saw it, inserts `key + MIRROR`. After
    // everything commits, every key must therefore have its mirror — proving
    // the committed execution of task 2 saw task 1's speculative write — and
    // the tree must contain exactly the expected number of entries.
    const MIRROR: u64 = 1_000_000;
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(config(2));
        let tree = TxRbTree::create(&mut rt.direct()).unwrap();
        let inserted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let rt = Arc::clone(&rt);
                let inserted = Arc::clone(&inserted);
                scope.spawn(move || {
                    let u = rt.register_uthread(2);
                    for i in 0..50u64 {
                        let key = worker * 1000 + i;
                        let t1 = task(move |ctx: &mut TaskCtx<'_>| {
                            tree.insert(ctx, key, worker)?;
                            Ok(())
                        });
                        let t2 = task(move |ctx: &mut TaskCtx<'_>| {
                            if tree.get(ctx, key)? == Some(worker) {
                                tree.insert(ctx, key + MIRROR, worker)?;
                            }
                            Ok(())
                        });
                        u.execute(vec![TxnSpec::new(vec![t1, t2])]);
                        inserted.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let mut mem = rt.direct();
        let total = inserted.load(Ordering::Relaxed);
        assert_eq!(tree.len(&mut mem).unwrap(), 2 * total);
        for worker in 0..4u64 {
            for i in 0..50u64 {
                let key = worker * 1000 + i;
                assert_eq!(tree.get(&mut mem, key).unwrap(), Some(worker));
                assert_eq!(
                    tree.get(&mut mem, key + MIRROR).unwrap(),
                    Some(worker),
                    "task 2 did not observe task 1's speculative insert for key {key}"
                );
            }
        }
        tree.check_invariants(&mut mem).unwrap();
    });
}

#[test]
fn write_skew_style_interleavings_remain_serialisable() {
    // Classic write skew: two user-threads each read *both* words and
    // increment only their own by one when x + y < 10. In every serial
    // execution the sum therefore never exceeds 10; under snapshot isolation
    // both sides could read a sum of 9 and push it to 11. The words live in
    // separate heap blocks so they map to different lock entries and the
    // conflict is only detectable through read validation, not through
    // write/write locking.
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(config(2));
        let x_block = rt.heap().alloc(64).unwrap();
        let y_block = rt.heap().alloc(64).unwrap();
        let words = [x_block, y_block];
        std::thread::scope(|scope| {
            for side in 0..2usize {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let u = rt.register_uthread(2);
                    for _ in 0..200 {
                        u.atomic(move |ctx| {
                            let x = ctx.read(words[0])?;
                            let y = ctx.read(words[1])?;
                            if x + y < 10 {
                                let own = ctx.read(words[side])?;
                                ctx.write(words[side], own + 1)?;
                            } else {
                                // Reset so the test keeps exercising the race.
                                ctx.write(words[0], 0)?;
                                ctx.write(words[1], 0)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let x = rt.heap().load_committed(x_block);
        let y = rt.heap().load_committed(y_block);
        assert!(x + y <= 10, "serialisability violated: {x} + {y} > 10");
    });
}

#[test]
fn deep_speculation_commits_long_pipelines() {
    // A single user-thread with a deep speculation window processes a long
    // pipeline of dependent transactions; the dependency chain forces
    // speculative task-to-task forwarding across transaction boundaries.
    let rt = TlstmRuntime::new(config(8));
    let acc = rt.heap().alloc(1).unwrap();
    let u = rt.register_uthread(8);
    let batch: Vec<TxnSpec> = (0..100u64)
        .map(|i| {
            TxnSpec::new(vec![
                task(move |ctx: &mut TaskCtx<'_>| {
                    let v = ctx.read(acc)?;
                    ctx.write(acc, v + i)?;
                    Ok(())
                }),
                task(move |ctx: &mut TaskCtx<'_>| {
                    let v = ctx.read(acc)?;
                    ctx.write(acc, v + 1)?;
                    Ok(())
                }),
            ])
        })
        .collect();
    let outcomes = u.execute(batch);
    assert_eq!(outcomes.len(), 100);
    let expected: u64 = (0..100u64).sum::<u64>() + 100;
    assert_eq!(rt.heap().load_committed(acc), expected);
}

#[test]
fn stats_reflect_committed_transactions_and_tasks() {
    let rt = TlstmRuntime::new(config(3));
    let word = rt.heap().alloc(1).unwrap();
    let u = rt.register_uthread(3);
    for _ in 0..10 {
        let bodies = (0..3)
            .map(|_| {
                task(move |ctx: &mut TaskCtx<'_>| {
                    let v = ctx.read(word)?;
                    ctx.write(word, v + 1)?;
                    Ok(())
                })
            })
            .collect();
        u.execute(vec![TxnSpec::new(bodies)]);
    }
    let stats = rt.stats();
    assert_eq!(stats.tx_commits, 10);
    assert_eq!(stats.task_commits, 30);
    assert!(stats.reads >= 30);
    assert!(stats.writes >= 30);
    assert_eq!(rt.heap().load_committed(word), 30);
}

/// The commit validates a stale task snapshot even when its sibling's is
/// fresh. In a 2-task split, task 0 reads `x`; a SwissTM handle over the same
/// substrate then commits `x` and `y`. Task 1 reads `y` after that commit, so
/// its snapshot extends to the commit's timestamp and the transaction's own
/// commit tick follows it directly; only task 0's snapshot is stale. The
/// commit must abort once with `ReadValidation`, and the retry must see the
/// new `x`.
#[test]
fn a_stale_task_snapshot_is_validated_beside_a_fresh_one() {
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(config(2));
        let other = SwisstmRuntime::with_substrate(Arc::clone(rt.substrate()));
        let [x, y, z] = [(); 3].map(|()| rt.heap().alloc(WORDS_PER_LOCK).unwrap());
        let b = Mutex::new(other.register_thread());
        let b_committed = AtomicBool::new(false);
        let mut session = rt.register_uthread(2);
        let values = session.run_split(2, |i, ctx| {
            if i == 0 {
                let seen = ctx.read(x)?;
                if !b_committed.load(Ordering::Acquire) {
                    b.lock().unwrap().atomic(|tx| {
                        tx.write(x, 42)?;
                        tx.write(y, 7)
                    });
                    b_committed.store(true, Ordering::Release);
                }
                return Ok(seen);
            }
            while !b_committed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let seen = ctx.read(y)?;
            ctx.write(z, seen)?;
            Ok(seen)
        });
        assert_eq!(values, [42, 7], "task 0's stale read committed");
        let stats = rt.stats();
        assert_eq!((stats.tx_aborts, stats.aborts_read_validation), (1, 1));
    });
}
