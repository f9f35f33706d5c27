//! Cross-runtime conformance: the same deterministic `txcollections` workload,
//! expressed once against the `TxMem` trait, must leave byte-identical
//! committed state when executed through SwissTM transactions and through
//! TLSTM speculative tasks (and must match a plain sequential reference run).

use std::sync::Arc;

use swisstm::SwisstmRuntime;
use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use tlstm_testutil::{with_default_watchdog, TestRng};
use txcollections::{TxHashMap, TxRbTree};
use txmem::{Abort, TxConfig, TxMem};

/// One workload operation against the shared collection set.
#[derive(Debug, Clone, Copy)]
enum Op {
    TreeInsert(u64, u64),
    TreeRemove(u64),
    MapInsert(u64, u64),
    MapRemove(u64),
    /// Move the key, if present, from the tree to the map (links two
    /// structures inside one transaction, so partial execution would be
    /// observable).
    MoveTreeToMap(u64),
}

/// The collection handles (plain `Copy` word addresses).
#[derive(Debug, Clone, Copy)]
struct World {
    tree: TxRbTree,
    map: TxHashMap,
}

impl World {
    fn create<M: TxMem>(mem: &mut M) -> Result<Self, Abort> {
        Ok(World {
            tree: TxRbTree::create(mem)?,
            map: TxHashMap::create(mem, 8)?,
        })
    }

    fn apply<M: TxMem>(&self, mem: &mut M, op: Op) -> Result<(), Abort> {
        match op {
            Op::TreeInsert(k, v) => self.tree.insert(mem, k, v).map(|_| ()),
            Op::TreeRemove(k) => self.tree.remove(mem, k).map(|_| ()),
            Op::MapInsert(k, v) => self.map.insert(mem, k, v).map(|_| ()),
            Op::MapRemove(k) => self.map.remove(mem, k).map(|_| ()),
            Op::MoveTreeToMap(k) => {
                if let Some(v) = self.tree.get(mem, k)? {
                    self.tree.remove(mem, k)?;
                    self.map.insert(mem, k, v)?;
                }
                Ok(())
            }
        }
    }

    /// Snapshot of all committed state, in a canonical order.
    fn snapshot<M: TxMem>(&self, mem: &mut M) -> Result<Snapshot, Abort> {
        let tree = self.tree.to_vec(mem)?;
        let mut map = self.map.to_vec(mem)?;
        map.sort_unstable();
        Ok(Snapshot { tree, map })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    tree: Vec<(u64, u64)>,
    map: Vec<(u64, u64)>,
}

/// Deterministic stream of transactions (each a short list of ops).
fn generate_transactions(seed: u64, n_txns: usize) -> Vec<Vec<Op>> {
    let mut rng = TestRng::new(seed);
    (0..n_txns)
        .map(|_| {
            let len = 1 + rng.below(4) as usize;
            (0..len)
                .map(|_| match rng.below(5) {
                    0 => Op::TreeInsert(rng.below(64), rng.next_u64() % 1000),
                    1 => Op::TreeRemove(rng.below(64)),
                    2 => Op::MapInsert(rng.below(48), rng.next_u64() % 1000),
                    3 => Op::MapRemove(rng.below(48)),
                    _ => Op::MoveTreeToMap(rng.below(64)),
                })
                .collect()
        })
        .collect()
}

fn config(depth: usize) -> TxConfig {
    let mut cfg = TxConfig::small();
    cfg.heap_capacity_words = 1 << 22;
    cfg.spec_depth = depth;
    cfg
}

/// Executes the transaction stream on SwissTM, one transaction per `atomic`.
fn run_on_swisstm(txns: &[Vec<Op>]) -> Snapshot {
    let rt = SwisstmRuntime::new(config(1));
    let world = World::create(&mut rt.direct()).unwrap();
    let mut thread = rt.register_thread();
    for txn in txns {
        let txn = txn.clone();
        thread.atomic(|tx| {
            for &op in &txn {
                world.apply(tx, op)?;
            }
            Ok(())
        });
    }
    world.snapshot(&mut rt.direct()).unwrap()
}

/// Executes the transaction stream on TLSTM, splitting every transaction into
/// `split` speculative tasks.
fn run_on_tlstm(txns: &[Vec<Op>], depth: usize, split: usize) -> Snapshot {
    assert!(split >= 1 && split <= depth);
    let rt = TlstmRuntime::new(config(depth));
    let world = World::create(&mut rt.direct()).unwrap();
    let u = rt.register_uthread(depth);
    for txn in txns {
        let ops = Arc::new(txn.clone());
        let per_task = ops.len().div_ceil(split);
        let bodies: Vec<_> = (0..split)
            .map(|t| {
                let ops = Arc::clone(&ops);
                let lo = (t * per_task).min(ops.len());
                let hi = ((t + 1) * per_task).min(ops.len());
                task(move |ctx: &mut TaskCtx<'_>| {
                    for &op in &ops[lo..hi] {
                        world.apply(ctx, op)?;
                    }
                    Ok(())
                })
            })
            .collect();
        u.execute(vec![TxnSpec::new(bodies)]);
    }
    world.snapshot(&mut rt.direct()).unwrap()
}

/// Like [`run_on_swisstm`], but every transaction's first attempt applies its
/// operations and then forces an abort, so each transaction exercises the
/// thread's *recycled* context through a populated rollback before committing.
fn run_on_swisstm_with_aborts(txns: &[Vec<Op>]) -> Snapshot {
    let rt = SwisstmRuntime::new(config(1));
    let world = World::create(&mut rt.direct()).unwrap();
    let mut thread = rt.register_thread();
    for txn in txns {
        let txn = txn.clone();
        let mut first_attempt = true;
        thread.atomic(|tx| {
            for &op in &txn {
                world.apply(tx, op)?;
            }
            if first_attempt {
                first_attempt = false;
                return Err(Abort::user_retry());
            }
            Ok(())
        });
    }
    world.snapshot(&mut rt.direct()).unwrap()
}

/// Like [`run_on_tlstm`], but the first attempt of every transaction's
/// commit-task forces an abort, driving task rollback and re-execution
/// through the lanes' recycled buffers on every transaction.
fn run_on_tlstm_with_aborts(txns: &[Vec<Op>], depth: usize, split: usize) -> Snapshot {
    use std::sync::atomic::{AtomicBool, Ordering};
    assert!(split >= 1 && split <= depth);
    let rt = TlstmRuntime::new(config(depth));
    let world = World::create(&mut rt.direct()).unwrap();
    let u = rt.register_uthread(depth);
    for txn in txns {
        let ops = Arc::new(txn.clone());
        let per_task = ops.len().div_ceil(split);
        let aborted_once = Arc::new(AtomicBool::new(false));
        let bodies: Vec<_> = (0..split)
            .map(|t| {
                let ops = Arc::clone(&ops);
                let aborted_once = Arc::clone(&aborted_once);
                let lo = (t * per_task).min(ops.len());
                let hi = ((t + 1) * per_task).min(ops.len());
                let is_commit_task = t == split - 1;
                task(move |ctx: &mut TaskCtx<'_>| {
                    for &op in &ops[lo..hi] {
                        world.apply(ctx, op)?;
                    }
                    if is_commit_task && !aborted_once.swap(true, Ordering::Relaxed) {
                        return ctx.retry();
                    }
                    Ok(())
                })
            })
            .collect();
        u.execute(vec![TxnSpec::new(bodies)]);
    }
    world.snapshot(&mut rt.direct()).unwrap()
}

/// Sequential reference execution through `DirectMem` (no concurrency
/// control; valid because the stream is applied in program order).
fn run_on_reference(txns: &[Vec<Op>]) -> Snapshot {
    let rt = SwisstmRuntime::new(config(1));
    let mut mem = rt.direct();
    let world = World::create(&mut mem).unwrap();
    for txn in txns {
        for &op in txn {
            world.apply(&mut mem, op).unwrap();
        }
    }
    world.snapshot(&mut mem).unwrap()
}

#[test]
fn swisstm_and_tlstm_commit_identical_state() {
    with_default_watchdog(|| {
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            let txns = generate_transactions(seed, 250);
            let reference = run_on_reference(&txns);
            let swisstm = run_on_swisstm(&txns);
            assert_eq!(
                swisstm, reference,
                "SwissTM diverged from the sequential reference (seed {seed})"
            );
            for (depth, split) in [(2, 2), (4, 3)] {
                let tlstm = run_on_tlstm(&txns, depth, split);
                assert_eq!(
                    tlstm, reference,
                    "TLSTM (depth {depth}, split {split}) diverged from the \
                     sequential reference (seed {seed})"
                );
            }
        }
    });
}

#[test]
fn conformance_survives_forced_aborts_through_recycled_contexts() {
    // Context-reuse conformance: the recycled per-thread/per-worker buffers
    // must carry no state across the abort into the retry or into later
    // transactions — committed state must match the sequential reference
    // exactly even when every single transaction rolls back once first.
    with_default_watchdog(|| {
        for seed in [7u64, 0xAB0B7] {
            let txns = generate_transactions(seed, 150);
            let reference = run_on_reference(&txns);
            let swisstm = run_on_swisstm_with_aborts(&txns);
            assert_eq!(
                swisstm, reference,
                "SwissTM with recycled contexts + forced aborts diverged (seed {seed})"
            );
            for (depth, split) in [(2, 2), (3, 3)] {
                let tlstm = run_on_tlstm_with_aborts(&txns, depth, split);
                assert_eq!(
                    tlstm, reference,
                    "TLSTM (depth {depth}, split {split}) with forced aborts \
                     diverged (seed {seed})"
                );
            }
        }
    });
}

#[test]
fn conformance_holds_under_intra_transaction_dependencies() {
    // Every transaction inserts a fresh tree key, then immediately moves it
    // to the map, so the second task of the split observes the first task's
    // speculative write through the redo-log chain; any forwarding bug
    // loses the key or leaves it in the tree.
    with_default_watchdog(|| {
        let txns: Vec<Vec<Op>> = (0..200u64)
            .map(|i| {
                vec![
                    Op::TreeInsert(64 + i, i),
                    Op::MoveTreeToMap(64 + i),
                    Op::TreeInsert(i % 32, i),
                ]
            })
            .collect();
        let reference = run_on_reference(&txns);
        let swisstm = run_on_swisstm(&txns);
        let tlstm = run_on_tlstm(&txns, 3, 3);
        assert_eq!(swisstm, reference);
        assert_eq!(tlstm, reference);
        // Every fresh key moved, so the map is the whole story.
        assert_eq!(
            reference.map,
            (0..200u64).map(|i| (64 + i, i)).collect::<Vec<_>>()
        );
        assert!(reference.tree.iter().all(|&(k, _)| k < 32));
    });
}
