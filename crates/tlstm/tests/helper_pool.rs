//! The process-wide helper pool: how many threads TLSTM sessions cost, where
//! a single-task transaction runs, and what a panicking helper does.
//!
//! The thread-count and panic cases re-run themselves alone in a child
//! process (`run_alone`), so no other test's threads are counted and an
//! abort or a hang cannot take this binary down with it.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use txmem::{TxConfig, TxMem, TxRuntime, TxSession};

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
    // Serial 1 runs on lane 1 of the crew of two, a helper; the commit-task
    // then waits forever for it.
    let first = task(move |_ctx: &mut TaskCtx<'_>| {
        assert_eq!(std::thread::current().id(), caller, "{MESSAGE}");
        Ok(())
    });
    let commit = task(|_ctx: &mut TaskCtx<'_>| Ok(()));
    u.run_transaction(vec![first, commit]);
    unreachable!("the first task ran on the calling thread");
}
