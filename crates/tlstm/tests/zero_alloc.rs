//! Counting-allocator proof that the TLSTM task paths are allocation-free.
//!
//! TLSTM's *orchestration* layer allocates a constant amount per submitted
//! user-transaction (the shared `TxnShared` handle, its batch entry and one
//! task closure per task) — but the task read/write/commit/rollback paths
//! must not allocate per *operation*: each `owners[]` slot's recycled
//! `TaskBufs` (read in place by the commit-task, never copied) and the lock
//! chains' recycled entry buffers absorb all speculative state in steady
//! state.
//!
//! The proof: after warm-up, the allocation count of a batch of transactions
//! with **2 048 ops per task** must not exceed that of an identical batch
//! with **4 ops per task** by more than one allocation per transaction of
//! slack. Any per-operation allocation would add thousands per transaction.
//! At 2 048 writes a task holds about a thousand locks, so the batch also
//! covers a long acquired-locks list: once grown, it too is recycled without
//! allocating.
//!
//! A batch that claims no helper runs solo: each transaction as one SwissTM
//! transaction over the user-thread's recycled context, its bodies in
//! program order on the calling thread. That path allocates nothing at all
//! once warm, the call to `execute` included (the outcomes reuse the specs'
//! buffer), and neither does `TxSession::run`; the second half of the test
//! counts them on the calling thread.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! pollutes the global counter.

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec, UThread};
use tlstm_testutil::{allocation_count as allocations, thread_allocation_count, CountingAlloc};
use txmem::{Abort, TxConfig, TxMem, TxSession, WordAddr};

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

    // Warm-up: materialise heap segments, grow the slots' recycled
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

    // The per-transaction orchestration cost (TxnShared, the batch, task
    // closures, the helper claim) is identical in both batches; any
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

    // The solo path: a user-thread of depth 1 never claims a helper, so it
    // runs every batch solo. Each batch is four single-task transactions,
    // one of which rolls back once (its body retries).
    let solo = rt.register_uthread(1);
    let retried = std::sync::atomic::AtomicBool::new(false);
    let batch = |round: u64| -> Vec<TxnSpec<'_>> {
        retried.store(false, std::sync::atomic::Ordering::Relaxed);
        (0..4u64)
            .map(|t| {
                let retried = &retried;
                TxnSpec::single(move |ctx: &mut TaskCtx<'_>| {
                    for i in 0..64 {
                        let w = t * 1024 + (round * 13 + i * 5) % 1024;
                        let v = ctx.read(region.offset(w))?;
                        ctx.write(region.offset(w), v ^ i)?;
                    }
                    if t == 3 && !retried.swap(true, std::sync::atomic::Ordering::Relaxed) {
                        return Err(Abort::user_retry());
                    }
                    Ok(())
                })
            })
            .collect()
    };
    for round in 0..32 {
        solo.execute(batch(round));
    }
    let before = rt.stats();
    let mut solo_allocations = 0;
    for round in 0..txns {
        let specs = batch(round);
        let counted = thread_allocation_count();
        let outcomes = solo.execute(specs);
        solo_allocations += thread_allocation_count() - counted;
        assert_eq!(outcomes.iter().map(|o| o.rollbacks).sum::<u32>(), 1);
    }
    let window = rt.stats().delta_since(&before);
    assert_eq!(
        solo_allocations, 0,
        "{txns} solo batches of 4 transactions allocated {solo_allocations} times"
    );
    assert_eq!(
        (window.tx_commits, window.tx_aborts, window.task_commits),
        (4 * txns, txns, 4 * txns)
    );

    // `TxSession::run` (one task, so never a helper) runs solo with no task
    // state to build at all.
    let mut session = solo;
    let counted = thread_allocation_count();
    for round in 0..txns {
        session.run(|mem| {
            let v = mem.read(region.offset(round))?;
            mem.write(region.offset(round), v + 1)
        });
    }
    let run_allocations = thread_allocation_count() - counted;
    assert_eq!(
        run_allocations, 0,
        "{txns} solo runs allocated {run_allocations} times"
    );
}
