//! Counting-allocator proof of the zero-allocation hot path.
//!
//! Registers a global allocator that counts every `alloc`/`realloc` and then
//! drives a recycled [`swisstm::SwisstmThread`] through read-only,
//! write-heavy and aborting transactions: after a warm-up phase (which grows
//! the context's logs, the write-set index and the heap segments to their
//! steady-state footprint), the measured phase must perform **zero**
//! allocations — across the read, write, commit and rollback paths.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! pollutes the global counter.

use swisstm::SwisstmRuntime;
use tlstm_testutil::{thread_allocation_count as allocations, CountingAlloc};
use txmem::{Abort, TxConfig, TxMem, WordAddr};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const REGION_WORDS: u64 = 256;

/// One deterministic mixed transaction: `reads` reads and `writes` writes
/// scattered over the region (with repeated writes to the same words, words
/// sharing a lock entry, and — because the region spans more than the small
/// lock table covers — colliding entries).
fn mixed_txn(
    tx: &mut swisstm::Transaction<'_>,
    region: WordAddr,
    round: u64,
    reads: u64,
    writes: u64,
) -> Result<u64, Abort> {
    let mut acc = 0u64;
    for i in 0..reads {
        acc = acc.wrapping_add(tx.read(region.offset((round * 31 + i * 7) % REGION_WORDS))?);
    }
    for i in 0..writes {
        let w = (round * 13 + i * 5) % REGION_WORDS;
        tx.write(region.offset(w), round ^ i)?;
        if i % 3 == 0 {
            // Repeated write to the same word exercises the in-place update.
            tx.write(region.offset(w), round ^ i ^ 1)?;
        }
    }
    Ok(acc)
}

/// Runs the full workload shape once: a mixed transaction, a read-only
/// transaction, and a transaction whose first attempt aborts (rollback path).
fn drive(thread: &mut swisstm::SwisstmThread, region: WordAddr, round: u64) {
    thread.atomic(|tx| mixed_txn(tx, region, round, 24, 16));
    thread.atomic(|tx| mixed_txn(tx, region, round, 32, 0));
    let mut first = true;
    thread.atomic(|tx| {
        mixed_txn(tx, region, round.wrapping_add(1), 8, 12)?;
        if first {
            first = false;
            return Err(Abort::user_retry());
        }
        Ok(())
    });
}

#[test]
fn steady_state_transactions_allocate_nothing() {
    let rt = SwisstmRuntime::new(TxConfig::small());
    let region = rt.heap().alloc(REGION_WORDS).unwrap();
    let mut thread = rt.register_thread();

    // Warm-up: materialise heap segments and grow the recycled context (read
    // log, write set + index, acquired list) to the workload's footprint.
    for round in 0..64 {
        drive(&mut thread, region, round);
    }

    let before = allocations();
    for round in 64..192 {
        drive(&mut thread, region, round);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state SwissTM transactions (read, write, commit and rollback \
         paths) must not allocate"
    );

    // Sanity: the workload actually exercised the paths it claims to.
    let stats = rt.stats();
    assert!(stats.tx_commits >= 3 * 192);
    assert!(stats.aborts_user_retry >= 192);
    assert!(stats.reads > 0 && stats.writes > 0);
}
