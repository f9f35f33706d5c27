//! The process-wide helper pool: how many threads TLSTM sessions cost, where
//! a single-task transaction runs, that helpers are done with the borrowed
//! batch when `execute` returns, and what a panicking helper does.
//!
//! The thread-count and panic cases re-run themselves alone in a child
//! process (`run_alone`), so no other test's threads are counted and an
//! abort or a hang cannot take this binary down with it.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use txmem::{TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

/// Set in the re-run child: the case runs instead of spawning the child.
const CHILD_ENV: &str = "TLSTM_HELPER_POOL_CHILD";

/// Re-runs test `name` alone in a child process and waits at most 10 s for
/// it; returns its exit status and its stderr.
fn run_alone(name: &str) -> (ExitStatus, String) {
    let mut child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--nocapture"])
        .env(CHILD_ENV, "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("re-run the test binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{name} hung: the child was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read the child's stderr");
    (status, stderr)
}

/// Called by a task body: on the calling thread, waits (at most 10 s) until a
/// body has run on a helper, so every round hands work to one; on a helper,
/// counts itself in `off_caller`.
fn share_with_a_helper(caller: std::thread::ThreadId, off_caller: &AtomicUsize) {
    if std::thread::current().id() != caller {
        off_caller.fetch_add(1, Ordering::SeqCst);
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while off_caller.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn default_sessions_share_at_most_cores_minus_one_helpers() {
    const SESSIONS: usize = 16;
    if std::env::var_os(CHILD_ENV).is_none() {
        let (status, stderr) = run_alone("default_sessions_share_at_most_cores_minus_one_helpers");
        assert!(status.success(), "{stderr}");
        return;
    }
    let rt = TlstmRuntime::new(TxConfig {
        spec_depth: 4,
        ..TxConfig::small()
    });
    let words = rt.heap().alloc(SESSIONS as u64 * 4).unwrap();
    let start = threads();
    let peak = AtomicUsize::new(start);
    let ready = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for s in 0..SESSIONS as u64 {
            let (rt, peak, ready) = (&rt, &peak, &ready);
            scope.spawn(move || {
                let u = rt.register_uthread_default();
                ready.wait();
                let group: Vec<_> = (0..4)
                    .map(|t| {
                        let word = words.offset(s * 4 + t);
                        task(move |ctx: &mut TaskCtx<'_>| {
                            let v = ctx.read(word)?;
                            ctx.write(word, v + 1)
                        })
                    })
                    .collect();
                for _ in 0..100 {
                    u.execute(vec![TxnSpec::new(group.clone())]);
                    peak.fetch_max(threads(), Ordering::Relaxed);
                }
            });
        }
    });
    let bound = start + SESSIONS + (txmem::pause::cores() - 1);
    let peak = peak.into_inner();
    assert!(
        peak <= bound,
        "{SESSIONS} default sessions peaked at {peak} threads, over {bound}"
    );
    for w in 0..SESSIONS as u64 * 4 {
        assert_eq!(rt.heap().load_committed(words.offset(w)), 100);
    }
}

#[test]
fn a_single_task_run_stays_on_the_calling_thread() {
    let rt = TlstmRuntime::new(TxConfig::small());
    let counter = rt.heap().alloc(1).unwrap();
    let mut session = TxRuntime::session(&rt);
    let caller = std::thread::current().id();
    for _ in 0..50 {
        let ran_on = session.run(|mem| {
            let v = mem.read(counter)?;
            mem.write(counter, v + 1)?;
            Ok(std::thread::current().id())
        });
        assert_eq!(ran_on, caller);
    }
    assert_eq!(rt.heap().load_committed(counter), 50);
}

/// A task body's capture whose destructor takes a while. `execute` must
/// outwait it as well: a destructor may still touch borrowed state.
struct SlowDrop(Arc<()>);

impl Drop for SlowDrop {
    fn drop(&mut self) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

#[test]
fn execute_returns_only_after_every_lane_dropped_its_bodies() {
    // `execute` erases the borrow of its batch, which owns the bodies, to
    // share it with pooled helpers; that is sound only because every helper
    // has dropped its clone of the batch when it returns. Every round makes
    // a helper run bodies that borrow the round's locals; every body holds a
    // clone of `probe`, so the count shows a batch that survives the call.
    const ROUNDS: u64 = 200;
    let rt = TlstmRuntime::new(TxConfig::small());
    let words = rt.heap().alloc(12).unwrap();
    // Two helpers beside the caller, on any host.
    let u = rt.register_uthread(3);
    let probe = Arc::new(());
    let caller = std::thread::current().id();
    for round in 0..ROUNDS {
        let off_caller = AtomicUsize::new(0);
        let batch: Vec<TxnSpec> = (0..4u64)
            .map(|t| {
                let bodies = (0..3u64)
                    .map(|k| {
                        let probe = SlowDrop(Arc::clone(&probe));
                        let (word, off_caller) = (words.offset(t * 3 + k), &off_caller);
                        task(move |ctx: &mut TaskCtx<'_>| {
                            assert!(Arc::strong_count(&probe.0) > 1);
                            if t == 0 {
                                share_with_a_helper(caller, off_caller);
                            }
                            let v = ctx.read(word)?;
                            ctx.write(word, v + 1)
                        })
                    })
                    .collect();
                TxnSpec::new(bodies)
            })
            .collect();
        u.execute(batch);
        assert!(
            off_caller.into_inner() >= 1,
            "round {round}: no helper claimed a task"
        );
        assert_eq!(
            Arc::strong_count(&probe),
            1,
            "round {round}: a task body outlived execute"
        );
    }
    for w in 0..12 {
        assert_eq!(rt.heap().load_committed(words.offset(w)), ROUNDS);
    }
}

#[test]
fn task_bodies_on_helpers_borrow_the_callers_stack() {
    let rt = TlstmRuntime::new(TxConfig::small());
    let u = rt.register_uthread(3);
    let caller = std::thread::current().id();
    for round in 0..20u64 {
        let owned: Vec<WordAddr> = (0..3u64)
            .map(|i| {
                let word = rt.heap().alloc(1).unwrap();
                rt.heap().store_committed(word, round * 10 + i);
                word
            })
            .collect();
        let words: &[WordAddr] = &owned;
        let results = Mutex::new(vec![0u64; 3]);
        let off_caller = AtomicUsize::new(0);
        let bodies = (0..3)
            .map(|i| {
                let (results, off_caller) = (&results, &off_caller);
                task(move |ctx: &mut TaskCtx<'_>| {
                    results.lock().unwrap()[i] = ctx.read(words[i])?;
                    share_with_a_helper(caller, off_caller);
                    Ok(())
                })
            })
            .collect();
        u.execute(vec![TxnSpec::new(bodies)]);
        let expected: Vec<u64> = (0..3).map(|i| round * 10 + i).collect();
        assert_eq!(results.into_inner().unwrap(), expected);
        // The caller's first task waits for a helper to claim one.
        assert!(
            off_caller.into_inner() >= 1,
            "round {round}: the tasks did not run on helpers"
        );
    }
}

#[test]
fn a_panicking_helper_task_aborts_the_process() {
    const MESSAGE: &str = "a helper-lane task panicked on purpose";
    if std::env::var_os(CHILD_ENV).is_none() {
        let (status, stderr) = run_alone("a_panicking_helper_task_aborts_the_process");
        assert!(!status.success(), "the child survived the panic: {stderr}");
        assert!(stderr.contains(MESSAGE), "no panic message: {stderr}");
        return;
    }
    let rt = TlstmRuntime::new(TxConfig::small());
    let u = rt.register_uthread(2);
    let caller = std::thread::current().id();
    // Whichever task the helper claims panics there; the caller's task waits
    // for it, and the transaction then waits forever for the panicked one.
    let on_helper = AtomicUsize::new(0);
    let body = task(|_ctx: &mut TaskCtx<'_>| {
        share_with_a_helper(caller, &on_helper);
        assert_eq!(std::thread::current().id(), caller, "{MESSAGE}");
        Ok(())
    });
    u.run_transaction(vec![body.clone(), body]);
    unreachable!("no task ran on a helper");
}
