//! Runtime handles sharing one substrate (`TxRuntime::with_substrate`).
//!
//! Every handle over one lock table draws its owner ids from the substrate,
//! so no two sessions mistake each other's w-locks for their own. Each test
//! here fails when handles number their owners independently: the ids
//! collide, a session takes another handle's lock for its own, and
//! increments are lost. The two sides increment their two words in opposite
//! orders, so they also meet in lock cycles, which they break only by
//! resolving each other's owner through the substrate's one lookup,
//! `TxSubstrate::owner_of`: with a registry per handle, or a SwissTM and a
//! TLSTM side that each look only where their own runtime keeps owners,
//! both sides wait forever.

use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, with_watchdog};
use txmem::{
    SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, TxSubstrate, WordAddr, WORDS_PER_LOCK,
};

/// Words each transaction reads after its increments: they keep its w-locks
/// held long enough for the other side to run into them.
const TAIL_WORDS: u64 = 256;

#[test]
fn handles_of_every_kind_draw_distinct_owner_ids() {
    let substrate = Arc::new(TxSubstrate::new(TxConfig::small()));
    let swisstm = SwisstmRuntime::with_substrate(Arc::clone(&substrate));
    let tlstm = TlstmRuntime::with_substrate(Arc::clone(&substrate));
    let seqref = SeqRefRuntime::with_substrate(Arc::clone(&substrate));
    let ids = [
        swisstm.register_thread().id(),
        tlstm.register_uthread_default().ptid(),
        seqref.session().id(),
    ];
    for (i, a) in ids.iter().enumerate() {
        for b in &ids[i + 1..] {
            assert_ne!(a, b, "owner ids {ids:?} collide over one substrate");
        }
    }
}

/// Runs a handle of `A` and a handle of `B` over one substrate, one thread
/// each. Each thread runs `txns` transactions of `tasks` tasks that
/// increment words `x` and `y` once each — the `A` side in the order x, y
/// and the `B` side in the order y, x, task `i` taking every `tasks`-th
/// increment from the `i`-th — and then read [`TAIL_WORDS`] more words.
/// Returns the final `[x, y]`.
fn opposite_increments<A: TxRuntime, B: TxRuntime>(txns: u64, tasks: usize) -> [u64; 2] {
    let substrate = Arc::new(TxSubstrate::new(TxConfig::small()));
    // Each counter gets a lock of its own; the tail shares neither.
    let x = substrate.heap.alloc(WORDS_PER_LOCK).unwrap();
    let y = substrate.heap.alloc(WORDS_PER_LOCK).unwrap();
    let tail = substrate.heap.alloc(TAIL_WORDS).unwrap();
    assert_ne!(substrate.locks.index_for(x), substrate.locks.index_for(y));
    std::thread::scope(|scope| {
        spawn_side::<A>(scope, &substrate, [x, y], tail, txns, tasks);
        spawn_side::<B>(scope, &substrate, [y, x], tail, txns, tasks);
    });
    [x, y].map(|word| substrate.heap.load_committed(word))
}

/// Starts one side of [`opposite_increments`]: a handle of `R` incrementing
/// the words of `order`.
fn spawn_side<'scope, R: TxRuntime>(
    scope: &'scope Scope<'scope, '_>,
    substrate: &Arc<TxSubstrate>,
    order: [WordAddr; 2],
    tail: WordAddr,
    txns: u64,
    tasks: usize,
) {
    let runtime = R::with_substrate(Arc::clone(substrate));
    scope.spawn(move || {
        let mut session = runtime.session();
        for _ in 0..txns {
            session.run_split(tasks, |task, mem| {
                for &word in order.iter().skip(task).step_by(tasks) {
                    let v = mem.read(word)?;
                    mem.write(word, v + 1)?;
                }
                let mut sum = 0u64;
                for i in 0..TAIL_WORDS {
                    sum = sum.wrapping_add(mem.read(tail.offset(i))?);
                }
                Ok(sum)
            });
        }
    });
}

#[test]
fn two_swisstm_handles_lose_no_increment() {
    let totals =
        with_default_watchdog(|| opposite_increments::<SwisstmRuntime, SwisstmRuntime>(20_000, 1));
    assert_eq!(totals, [40_000, 40_000], "final [x, y]");
}

#[test]
fn two_tlstm_handles_lose_no_increment() {
    let totals =
        with_default_watchdog(|| opposite_increments::<TlstmRuntime, TlstmRuntime>(5_000, 2));
    assert_eq!(totals, [10_000, 10_000], "final [x, y]");
}

/// A SwissTM and a TLSTM side meet in lock cycles that only one contention
/// rule over both runtimes' owners resolves; with one lookup per runtime
/// both sides wait forever and the watchdog fires.
fn swisstm_against_tlstm(tlstm_tasks: usize) -> [u64; 2] {
    with_watchdog(Duration::from_secs(20), move || {
        opposite_increments::<SwisstmRuntime, TlstmRuntime>(5_000, tlstm_tasks)
    })
}

#[test]
fn swisstm_and_single_task_tlstm_resolve_lock_cycles() {
    assert_eq!(swisstm_against_tlstm(1), [10_000, 10_000], "final [x, y]");
}

#[test]
fn swisstm_and_two_task_tlstm_resolve_lock_cycles() {
    assert_eq!(swisstm_against_tlstm(2), [10_000, 10_000], "final [x, y]");
}
