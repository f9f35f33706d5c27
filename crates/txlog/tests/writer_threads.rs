//! `LogWriter` runs on exactly one thread, and its queue-depth gauge drains
//! to zero. A binary with a single test: the thread count and the gauge are
//! process-wide, so no other test may run beside this one.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use tlstm_testutil::{with_default_watchdog, CrashPoints, TempDir};
use txlog::{FsyncPolicy, LogWriter, WalOptions};

/// Threads of this process whose name starts with `txlog-`.
fn txlog_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("txlog-"))
        .count()
}

#[test]
fn the_writer_is_one_thread_and_its_queue_drains_to_zero() {
    with_default_watchdog(|| {
        let start = txlog_threads();
        let dir = TempDir::new("txlog-writer-threads");
        let writer = LogWriter::open(
            dir.path(),
            &WalOptions {
                fsync: FsyncPolicy::Always,
                crash_points: CrashPoints::disabled(),
                preallocate_bytes: 64 * 1024,
                ..WalOptions::default()
            },
        )
        .unwrap();
        let tickets: Vec<_> = (0..32u64)
            .map(|lsn| writer.append(lsn, lsn.to_le_bytes().to_vec()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        // A thread names itself once it runs; every thread that writes,
        // fsyncs or acknowledges has run by now.
        assert_eq!(
            txlog_threads(),
            start + 1,
            "LogWriter::open starts one thread"
        );
        assert_eq!(
            txobs::metrics::wal().queue_depth.get(),
            0,
            "every appended record is acknowledged"
        );

        drop(writer);
        // A joined thread can linger in /proc for a moment after it exited.
        let deadline = Instant::now() + Duration::from_secs(5);
        while txlog_threads() != start && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(txlog_threads(), start, "drop joins the writer thread");
    });
}
