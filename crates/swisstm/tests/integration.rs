//! Integration and property-based tests of the SwissTM baseline: the runtime
//! must behave exactly like a global lock around the same operations
//! (linearisability of committed effects), for arbitrary operation streams
//! and thread interleavings.

use std::sync::Arc;

use proptest::prelude::*;
use swisstm::SwisstmRuntime;
use tlstm_testutil::with_default_watchdog;
use txcollections::TxRbTree;
use txmem::{TxConfig, TxMem, WORDS_PER_LOCK};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Transfer { from: u64, to: u64, amount: u64 },
}

fn ops_strategy(len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..40u64, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0..40u64).prop_map(Op::Remove),
            (0..8u64, 0..8u64, 1..5u64).prop_map(|(from, to, amount)| Op::Transfer {
                from,
                to,
                amount
            }),
        ],
        1..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential execution through SwissTM matches the plain reference model.
    #[test]
    fn sequential_swisstm_matches_reference(ops in ops_strategy(120)) {
        let rt = SwisstmRuntime::new(TxConfig::small());
        let tree = TxRbTree::create(&mut rt.direct()).unwrap();
        let accounts = rt.heap().alloc(8).unwrap();
        for i in 0..8 {
            rt.heap().store_committed(accounts.offset(i), 100);
        }
        let mut model_map = std::collections::BTreeMap::new();
        let mut model_accounts = [100u64; 8];
        let mut thread = rt.register_thread();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    thread.atomic(|tx| tree.insert(tx, k, v).map(|_| ()));
                    model_map.insert(k, v);
                }
                Op::Remove(k) => {
                    thread.atomic(|tx| tree.remove(tx, k).map(|_| ()));
                    model_map.remove(&k);
                }
                Op::Transfer { from, to, amount } => {
                    thread.atomic(|tx| {
                        let f = tx.read(accounts.offset(from))?;
                        if f >= amount && from != to {
                            let t = tx.read(accounts.offset(to))?;
                            tx.write(accounts.offset(from), f - amount)?;
                            tx.write(accounts.offset(to), t + amount)?;
                        }
                        Ok(())
                    });
                    if model_accounts[from as usize] >= amount && from != to {
                        model_accounts[from as usize] -= amount;
                        model_accounts[to as usize] += amount;
                    }
                }
            }
        }
        let mut mem = rt.direct();
        let contents = tree.to_vec(&mut mem).unwrap();
        let expected: Vec<(u64, u64)> = model_map.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(contents, expected);
        for i in 0..8u64 {
            prop_assert_eq!(rt.heap().load_committed(accounts.offset(i)), model_accounts[i as usize]);
        }
        prop_assert_eq!(rt.stats().tx_aborts, 0, "single-threaded runs never abort");
    }

    /// Concurrent transfers preserve the conservation invariant for arbitrary
    /// partitions of the operation stream across threads.
    #[test]
    fn concurrent_transfers_conserve_money(seed in any::<u64>(), per_thread in 50usize..150) {
        with_default_watchdog(move || {
        let rt = SwisstmRuntime::new(TxConfig::small());
        let accounts = rt.heap().alloc(16).unwrap();
        for i in 0..16 {
            rt.heap().store_committed(accounts.offset(i), 1000);
        }
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let mut thread = rt.register_thread();
                    let mut x = seed ^ (t + 1);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let from = x % 16;
                        let to = (x >> 8) % 16;
                        let amount = 1 + (x >> 16) % 7;
                        thread.atomic(|tx| {
                            let f = tx.read(accounts.offset(from))?;
                            if f >= amount && from != to {
                                let bal = tx.read(accounts.offset(to))?;
                                tx.write(accounts.offset(from), f - amount)?;
                                tx.write(accounts.offset(to), bal + amount)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: u64 = (0..16).map(|i| rt.heap().load_committed(accounts.offset(i))).sum();
        prop_assert_eq!(total, 16 * 1000);
        });
    }
}

/// Committed counts equal attempted increments even under heavy inter-thread
/// contention on one rb-tree node (deterministic, non-proptest stress test).
#[test]
fn contended_rbtree_updates_are_exact() {
    with_default_watchdog(|| {
        let rt = SwisstmRuntime::new(TxConfig::small());
        let tree = TxRbTree::create(&mut rt.direct()).unwrap();
        {
            let mut mem = rt.direct();
            for k in 0..8u64 {
                tree.insert(&mut mem, k, 0).unwrap();
            }
        }
        let per_thread = 300u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let mut thread = rt.register_thread();
                    for i in 0..per_thread {
                        let key = (t + i) % 8;
                        thread.atomic(|tx| {
                            let v = tree.get(tx, key)?.unwrap_or(0);
                            tree.insert(tx, key, v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let mut mem = rt.direct();
        let sum: u64 = tree
            .to_vec(&mut mem)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sum, 4 * per_thread);
        tree.check_invariants(&mut mem).unwrap();
    });
}

/// A commit overtaken by another validates its read log: handle B, over the
/// same substrate, commits a write to `x` inside A's body after A read it. A's
/// commit must abort once with `ReadValidation`, and the retry must see B's
/// value. A commit that skipped validation would write the stale value.
#[test]
fn a_commit_overtaken_by_another_revalidates_and_retries() {
    let rt = SwisstmRuntime::new(TxConfig::small());
    let other = SwisstmRuntime::with_substrate(Arc::clone(rt.substrate()));
    let x = rt.heap().alloc(WORDS_PER_LOCK).unwrap();
    let z = rt.heap().alloc(WORDS_PER_LOCK).unwrap();
    let locks = &rt.substrate().locks;
    assert_ne!(locks.index_for(x), locks.index_for(z));
    let (mut a, mut b) = (rt.register_thread(), other.register_thread());
    let mut attempts = 0;
    let seen = a.atomic(|tx| {
        attempts += 1;
        let seen = tx.read(x)?;
        if attempts == 1 {
            b.atomic(|tx| tx.write(x, 42));
        }
        tx.write(z, seen)?;
        Ok(seen)
    });
    assert_eq!((seen, attempts), (42, 2), "the stale read committed");
    assert_eq!(rt.heap().load_committed(z), 42);
    let stats = rt.stats();
    assert_eq!((stats.tx_aborts, stats.aborts_read_validation), (1, 1));
}
