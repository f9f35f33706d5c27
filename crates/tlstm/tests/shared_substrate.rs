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

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::{task, TaskCtx, TlstmRuntime, UThread};
use tlstm_testutil::{with_default_watchdog, with_watchdog};
use txmem::{
    Abort, SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, TxSubstrate, WordAddr,
    WORDS_PER_LOCK,
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

/// Increments `word` by one.
fn increment(mem: &mut dyn TxMem, word: WordAddr) -> Result<(), Abort> {
    let v = mem.read(word)?;
    mem.write(word, v + 1)
}

/// Waits (at most ten seconds) until `flag` is raised.
fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// The body of a one-thread transaction that contends with a speculative
/// one while holding a greedy ticket older than it: its first two attempts
/// retry, which draws the ticket. It then increments `hold`, raises
/// `holding`, waits until a speculative task has written `want`, and
/// increments `want` too.
fn greedy_then_cross(
    mem: &mut dyn TxMem,
    attempts: &AtomicU32,
    [hold, want]: [WordAddr; 2],
    holding: &AtomicBool,
    written: &AtomicBool,
) -> Result<(), Abort> {
    if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
        return Err(Abort::user_retry());
    }
    increment(mem, hold)?;
    holding.store(true, Ordering::SeqCst);
    wait_for(written);
    increment(mem, want)
}

/// One speculative transaction against greedy contenders: task 2 runs ahead
/// and writes `want`, which each contender then wants; task 1 waits until
/// every contender holds its word of `holds`, then increments them all, so
/// it loses to the older tickets until its transaction rolls back.
fn speculate_into(
    uthread: &UThread,
    holds: &[WordAddr],
    holding: &[AtomicBool],
    want: WordAddr,
    written: &AtomicBool,
) {
    uthread.run_transaction(vec![
        task(|ctx: &mut TaskCtx<'_>| {
            holding.iter().for_each(wait_for);
            holds.iter().try_for_each(|&word| increment(ctx, word))
        }),
        task(|ctx: &mut TaskCtx<'_>| {
            increment(ctx, want)?;
            written.store(true, Ordering::SeqCst);
            Ok(())
        }),
    ]);
}

/// A substrate with `N` counters, each under a lock of its own.
fn counters<const N: usize>() -> (Arc<TxSubstrate>, [WordAddr; N]) {
    let substrate = Arc::new(TxSubstrate::new(TxConfig::small()));
    let words = [(); N].map(|()| substrate.heap.alloc(WORDS_PER_LOCK).unwrap());
    (substrate, words)
}

/// Rounds of the lock-cycle cases below.
const CYCLES: u64 = 20;

/// A user-thread registers the descriptor of its solo transactions under the
/// token its speculative transactions lock with. Here a SwissTM thread holds
/// `x`, a default session's solo transaction holds `w`, and both want `y`,
/// which task 2 of an explicit-depth user-thread holds while its task 1
/// wants `x` and `w`. Both one-thread sides hold greedy tickets older than
/// the speculative transaction's, so the cycle breaks only when a contender
/// finds that transaction in `y`'s chain and asks it to roll back. When the
/// registry answers first, both contenders resolve against the speculative
/// side's idle solo descriptor and wait forever.
#[test]
fn a_solo_uthread_a_swisstm_thread_and_a_speculative_uthread_resolve_a_lock_cycle() {
    let totals = with_watchdog(Duration::from_secs(30), || {
        let (substrate, [x, y, w]) = counters::<3>();
        let swisstm = SwisstmRuntime::with_substrate(Arc::clone(&substrate));
        let tlstm = TlstmRuntime::with_substrate(Arc::clone(&substrate));
        let mut thread = swisstm.register_thread();
        let mut solo = tlstm.register_uthread_default();
        let speculative = tlstm.register_uthread(2);
        for _ in 0..CYCLES {
            let holding = [AtomicBool::new(false), AtomicBool::new(false)];
            let written = AtomicBool::new(false);
            let attempts = [AtomicU32::new(0), AtomicU32::new(0)];
            std::thread::scope(|scope| {
                let (holding, written, attempts) = (&holding, &written, &attempts);
                let solo = &mut solo;
                scope.spawn(|| {
                    thread.atomic(|tx| {
                        greedy_then_cross(tx, &attempts[0], [x, y], &holding[0], written)
                    });
                });
                scope.spawn(move || {
                    solo.atomic(|ctx| {
                        greedy_then_cross(ctx, &attempts[1], [w, y], &holding[1], written)
                    });
                });
                speculate_into(&speculative, &[x, w], holding, y, written);
            });
        }
        [x, y, w].map(|word| substrate.heap.load_committed(word))
    });
    assert_eq!(
        totals,
        [2 * CYCLES, 3 * CYCLES, 2 * CYCLES],
        "final [x, y, w]"
    );
}

/// One explicit-depth user-thread alternates single-task transactions, which
/// run solo on its registered descriptor, and two-task ones, which run
/// speculatively, against a SwissTM thread with an older greedy ticket that
/// meets the speculative ones in a lock cycle: it holds `x` and wants `y`,
/// which task 2 holds while task 1 wants `x`. Only the chain names the
/// transaction to roll back; the registry names the idle solo descriptor,
/// `finishing` since the last solo commit, and the SwissTM side waits
/// forever.
#[test]
fn a_uthread_alternating_solo_and_speculative_transactions_resolves_lock_cycles() {
    let totals = with_watchdog(Duration::from_secs(30), || {
        let (substrate, [x, y]) = counters::<2>();
        let swisstm = SwisstmRuntime::with_substrate(Arc::clone(&substrate));
        let tlstm = TlstmRuntime::with_substrate(Arc::clone(&substrate));
        let mut thread = swisstm.register_thread();
        let uthread = tlstm.register_uthread(2);
        for _ in 0..CYCLES {
            uthread.atomic(|ctx| {
                increment(ctx, x)?;
                increment(ctx, y)
            });
            let holding = [AtomicBool::new(false)];
            let written = AtomicBool::new(false);
            let attempts = AtomicU32::new(0);
            std::thread::scope(|scope| {
                let (holding, written, attempts) = (&holding, &written, &attempts);
                scope.spawn(|| {
                    thread
                        .atomic(|tx| greedy_then_cross(tx, attempts, [x, y], &holding[0], written));
                });
                speculate_into(&uthread, &[x], holding, y, written);
            });
        }
        [x, y].map(|word| substrate.heap.load_committed(word))
    });
    assert_eq!(totals, [3 * CYCLES; 2], "final [x, y]");
}
