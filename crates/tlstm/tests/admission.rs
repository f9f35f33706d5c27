//! Speculation admission from history: a default session runs ahead only on
//! task counts whose tasks have not lost to their past.
//!
//! Both cases hold the process-wide helper pool's one idle lane (on a
//! two-core host) for their whole run, so they take turns.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use tlstm::{task, TaskCtx, TlstmRuntime, UThread};
use tlstm_testutil::with_watchdog;
use txmem::{StatsSnapshot, TxConfig, TxMem, WordAddr, WORDS_PER_LOCK};

/// Serialises the cases of this file: each one needs the idle helper.
static POOL: Mutex<()> = Mutex::new(());

/// How long task 1 waits for task 2 to start, so that a helper that claims
/// task 2 runs it beside task 1 rather than after it.
const OVERLAP: Duration = Duration::from_millis(2);

/// What one two-task transaction did.
struct Round {
    /// Task aborts the transaction counted.
    task_aborts: u64,
    /// A body ran on a thread other than the caller's.
    off_caller: bool,
}

/// Runs one two-task transaction on `u`. Task 1 waits (at most
/// [`OVERLAP`]) for task 2 to start, then writes `a`; task 2 reads `read`
/// and writes the value plus one to `b`. With `read == a` the tasks chain,
/// and a task 2 that runs ahead of task 1 loses to it.
fn two_tasks(rt: &TlstmRuntime, u: &UThread, [a, b]: [WordAddr; 2], read: WordAddr) -> Round {
    let caller = std::thread::current().id();
    let started = AtomicU64::new(0);
    let off_caller = AtomicU64::new(0);
    let note = |id: ThreadId| {
        if id != caller {
            off_caller.fetch_add(1, Ordering::SeqCst);
        }
    };
    let before = rt.stats();
    u.run_transaction(vec![
        task(|ctx: &mut TaskCtx<'_>| {
            note(std::thread::current().id());
            let deadline = Instant::now() + OVERLAP;
            while started.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let v = ctx.read(a)?;
            ctx.write(a, v + 1)
        }),
        task(|ctx: &mut TaskCtx<'_>| {
            started.fetch_add(1, Ordering::SeqCst);
            note(std::thread::current().id());
            let v = ctx.read(read)?;
            ctx.write(b, v + 1)
        }),
    ]);
    let window: StatsSnapshot = rt.stats().delta_since(&before);
    assert_eq!((window.tx_commits, window.task_commits), (1, 2));
    Round {
        task_aborts: window.task_aborts,
        off_caller: off_caller.into_inner() > 0,
    }
}

/// A runtime of depth 2 with two words under distinct locks.
fn setup() -> (std::sync::Arc<TlstmRuntime>, [WordAddr; 2]) {
    let rt = TlstmRuntime::new(TxConfig {
        spec_depth: 2,
        ..TxConfig::small()
    });
    let words = [(); 2].map(|()| rt.heap().alloc(WORDS_PER_LOCK).unwrap());
    (rt, words)
}

#[test]
fn a_shape_whose_tasks_lost_to_their_past_runs_solo_until_a_probe() {
    // Below the first probe interval (128), and the interval's cap.
    const QUIET: u64 = 100;
    const CAP: u64 = 4096;
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    with_watchdog(Duration::from_secs(60), || {
        let (rt, [a, b]) = setup();
        let u = rt.register_uthread_default();
        let txns = Cell::new(0u64);
        let round = || {
            txns.set(txns.get() + 1);
            two_tasks(&rt, &u, [a, b], a)
        };
        if txmem::pause::cores() < 2 {
            // No helper ever: every transaction runs solo and none loses.
            for _ in 0..QUIET {
                let r = round();
                assert!(r.task_aborts == 0 && !r.off_caller);
            }
        } else {
            // Run until task 2 loses to task 1 once.
            let mut lost = false;
            for _ in 0..1_000 {
                if round().task_aborts > 0 {
                    lost = true;
                    break;
                }
            }
            assert!(lost, "task 2 never ran ahead of task 1 and lost");
            // The shape is closed: the next transactions run solo.
            for i in 0..QUIET {
                let r = round();
                assert_eq!(r.task_aborts, 0, "transaction {i} after the loss");
                assert!(!r.off_caller, "transaction {i} after the loss ran a helper");
            }
            // A probe lets a helper in again within the cap.
            let probed = (0..CAP).any(|_| {
                let r = round();
                r.task_aborts > 0 || r.off_caller
            });
            assert!(probed, "no probe within {CAP} transactions");
        }
        assert_eq!(rt.heap().load_committed(a), txns.get());
        assert_eq!(rt.heap().load_committed(b), txns.get() + 1);
    });
}

#[test]
fn a_shape_whose_tasks_never_lose_keeps_claiming_a_helper() {
    const TXNS: usize = 200;
    if txmem::pause::cores() < 2 {
        return;
    }
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    with_watchdog(Duration::from_secs(60), || {
        let (rt, [a, b]) = setup();
        let u = rt.register_uthread_default();
        let rounds: Vec<Round> = (0..TXNS).map(|_| two_tasks(&rt, &u, [a, b], b)).collect();
        assert!(rounds.iter().all(|r| r.task_aborts == 0));
        let late = rounds[TXNS / 2..].iter().filter(|r| r.off_caller).count();
        assert!(
            late >= TXNS / 4,
            "a helper ran only {late} of the last {} transactions",
            TXNS / 2
        );
        assert_eq!(rt.heap().load_committed(a), TXNS as u64);
        assert_eq!(rt.heap().load_committed(b), TXNS as u64);
    });
}
