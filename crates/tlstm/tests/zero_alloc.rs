//! Counting-allocator proof that the TLSTM task paths are allocation-free.
//!
//! TLSTM's *orchestration* layer allocates a constant amount per submitted
//! user-transaction (the shared `TxnShared` handle, one work item and one
//! task closure per task) — but the task read/write/commit/rollback paths
//! must not allocate per *operation*: each lane's recycled `TaskBufs` (lent
//! by move to the commit-task, never copied) and the lock chains' recycled
//! entry buffers absorb all speculative state in steady state.
//!
//! The proof: after warm-up, the allocation count of a batch of transactions
//! with **2 048 ops per task** must not exceed that of an identical batch
//! with **4 ops per task** by more than one allocation per transaction of
//! slack. Any per-operation allocation would add thousands per transaction.
//! At 2 048 writes a task holds about a thousand locks, so the batch also
//! covers a long acquired-locks list: once grown, it too is recycled without
//! allocating.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! pollutes the global counter.

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec, UThread};
use tlstm_testutil::{allocation_count as allocations, CountingAlloc};
use txmem::{TxConfig, TxMem, WordAddr};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 2;
/// Words each task owns privately (disjoint across tasks, so the batch is
/// deterministic: no intra-thread write/write conflicts).
const TASK_WORDS: u64 = 4096;
/// Operations per task of the large batch.
const LARGE_OPS: u64 = 2048;

/// Submits one user-transaction of [`TASKS`] tasks, each performing `ops`
/// reads and `ops` writes over its private slice of the region.
fn run_txn(u: &UThread, region: WordAddr, round: u64, ops: u64) {
    let mut bodies = Vec::with_capacity(TASKS);
    for t in 0..TASKS as u64 {
        bodies.push(task(move |ctx: &mut TaskCtx<'_>| {
            let base = t * TASK_WORDS;
            let mut acc = 0u64;
            for i in 0..ops {
                let w = base + (round * 31 + i * 7) % TASK_WORDS;
                acc = acc.wrapping_add(ctx.read(region.offset(w))?);
            }
            for i in 0..ops {
                let w = base + (round * 13 + i * 5) % TASK_WORDS;
                ctx.write(region.offset(w), acc ^ i)?;
            }
            Ok(())
        }));
    }
    u.execute(vec![TxnSpec::new(bodies)]);
}

fn run_batch(u: &UThread, region: WordAddr, rounds: std::ops::Range<u64>, ops: u64) -> u64 {
    let before = allocations();
    for round in rounds {
        run_txn(u, region, round, ops);
    }
    allocations() - before
}

#[test]
fn task_op_paths_do_not_allocate_per_operation() {
    // A lock per four words of both regions, so a large task really holds
    // ~1 000 distinct locks instead of aliasing into `small()`'s 256.
    let rt = TlstmRuntime::new(TxConfig {
        lock_table_bits: 12,
        ..TxConfig::small()
    });
    let region = rt.heap().alloc(TASKS as u64 * TASK_WORDS).unwrap();
    let u = rt.register_uthread(TASKS);

    // Warm-up: materialise heap segments, grow the lanes' recycled
    // buffers, the chains' entry pools and the log pool to the footprint of
    // the *large* variant.
    for round in 0..32 {
        run_txn(&u, region, round, LARGE_OPS);
        run_txn(&u, region, round, 4);
    }

    let txns = 64u64;
    let small = run_batch(&u, region, 100..100 + txns, 4);
    let large = run_batch(&u, region, 200..200 + txns, LARGE_OPS);
    eprintln!(
        "allocations over {txns} txns: {small} at 4 ops/task, {large} at {LARGE_OPS} ops/task"
    );

    // The per-transaction orchestration cost (TxnShared, work items, task
    // closures, the helper claim and its lane) is identical in both batches; any
    // per-operation allocation in the task paths would add ~4 000 allocations
    // per transaction to the large batch. Allow one allocation per
    // transaction of slack for incidental variance.
    assert!(
        large <= small + txns,
        "task paths allocate per operation: {txns} txns took {small} allocations \
         at 4 ops/task but {large} at {LARGE_OPS} ops/task"
    );

    let stats = rt.stats();
    assert_eq!(stats.tx_commits, 64 + 2 * txns);
    assert!(stats.reads > 0 && stats.writes > 0);
}
