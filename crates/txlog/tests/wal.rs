//! Integration tests of the group-commit writer: re-sequencing,
//! fsync policies, rotation, preallocation trims, clean shutdown, watermark
//! acknowledgement, and deterministic crash injection on both the append and
//! the rotation path.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use tlstm_testutil::{with_default_watchdog, CrashPoints, TempDir};
use txlog::files::segment_path;
use txlog::{
    crash_points, recover, FaultFs, FaultPlan, FsyncPolicy, LogWriter, StorageOp, WalError,
    WalOptions,
};

/// Small preallocation for tests: big enough that no test segment outgrows
/// it, small enough that untrimmed tails stay cheap to scan.
const TEST_PREALLOC: u64 = 64 * 1024;

fn options(fsync: FsyncPolicy) -> WalOptions {
    WalOptions {
        start_lsn: 0,
        fsync,
        crash_points: CrashPoints::disabled(),
        preallocate_bytes: TEST_PREALLOC,
        ..WalOptions::default()
    }
}

fn crash_options(crash: &CrashPoints) -> WalOptions {
    WalOptions {
        crash_points: crash.clone(),
        ..options(FsyncPolicy::Always)
    }
}

fn payload(lsn: u64) -> Vec<u8> {
    format!("record-{lsn}").into_bytes()
}

/// The WAL counters are process-wide: a test that reads them holds this
/// lock exclusively, every other test that runs a writer holds it shared.
static COUNTERS: RwLock<()> = RwLock::new(());

fn shared_counters() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive_counters() -> RwLockWriteGuard<'static, ()> {
    COUNTERS.write().unwrap_or_else(|e| e.into_inner())
}

/// [`options`] over a [`FaultFs`] whose plan holds the next fsync after
/// the writer opened, and a handle to that plan. Dropping the handle
/// releases the latch, so a failing assertion cannot leave the writer
/// parked and its `Drop` waiting forever.
fn held_fsync_writer(dir: &TempDir, fsync: FsyncPolicy) -> (LogWriter, HeldFsync) {
    let fs = FaultFs::new();
    let plan = fs.plan();
    let writer = LogWriter::open(
        dir.path(),
        &WalOptions {
            fs: Arc::new(fs),
            ..options(fsync)
        },
    )
    .unwrap();
    plan.hold(StorageOp::Fsync);
    (writer, HeldFsync(plan))
}

struct HeldFsync(FaultPlan);

impl HeldFsync {
    fn wait_held(&self) {
        self.0.wait_held(StorageOp::Fsync);
    }

    fn release(&self) {
        self.0.release(StorageOp::Fsync);
    }
}

impl Drop for HeldFsync {
    fn drop(&mut self) {
        self.release();
    }
}

#[test]
fn out_of_order_appends_are_resequenced() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal");
        let writer = LogWriter::open(dir.path(), &options(FsyncPolicy::Always)).unwrap();
        // LSN 2 and 1 arrive before 0: nothing can be written until the run
        // is contiguous, then the whole batch goes out at once.
        let t2 = writer.append(2, payload(2)).unwrap();
        let t1 = writer.append(1, payload(1)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(writer.durable_lsn(), 0, "a gap blocks everything behind it");
        let t0 = writer.append(0, payload(0)).unwrap();
        t0.wait().unwrap();
        t1.wait().unwrap();
        t2.wait().unwrap();
        assert_eq!(writer.durable_lsn(), 3);
        drop(writer);

        let log = recover(dir.path()).unwrap();
        assert_eq!(
            log.records,
            (0..3).map(|l| (l, payload(l))).collect::<Vec<_>>(),
            "the on-disk log is dense and in LSN order"
        );
        assert_eq!(log.next_lsn, 3);
        assert!(log.diagnostics.is_empty());
    });
}

#[test]
fn concurrent_committers_all_become_durable() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal");
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_millis(1)),
            FsyncPolicy::None,
        ] {
            let writer = LogWriter::open(dir.path(), &options(fsync)).unwrap();
            std::thread::scope(|scope| {
                for thread in 0..4u64 {
                    let writer = &writer;
                    scope.spawn(move || {
                        // Interleaved LSNs across threads: 0,4,8,... etc.
                        for i in 0..16u64 {
                            let lsn = i * 4 + thread;
                            let ticket = writer.append(lsn, payload(lsn)).unwrap();
                            ticket.wait().unwrap();
                        }
                    });
                }
            });
            assert_eq!(writer.durable_lsn(), 64, "{fsync:?}");
            drop(writer);
            let log = recover(dir.path()).unwrap();
            assert_eq!(log.records.len(), 64, "{fsync:?}");
            assert_eq!(log.next_lsn, 64, "{fsync:?}");
        }
    });
}

/// Lost-wakeup regression for the writer's `notify_one` wake-up: its
/// condvar has exactly one consumer, so a swallowed notification would
/// strand the writer (and this test would hit the watchdog). Many concurrent
/// appenders hammer the `work_cv` edge under every fsync policy.
#[test]
fn notify_one_wakeups_are_never_lost_under_contention() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 32;
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_millis(1)),
            FsyncPolicy::None,
        ] {
            let dir = TempDir::new("txlog-wal-wakeup");
            let writer = LogWriter::open(dir.path(), &options(fsync)).unwrap();
            std::thread::scope(|scope| {
                for thread in 0..THREADS {
                    let writer = &writer;
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let lsn = i * THREADS + thread;
                            let ticket = writer.append(lsn, payload(lsn)).unwrap();
                            ticket.wait().unwrap();
                        }
                    });
                }
            });
            assert_eq!(writer.durable_lsn(), THREADS * PER_THREAD, "{fsync:?}");
            assert_eq!(
                writer.durable_watermark(),
                writer.durable_lsn(),
                "{fsync:?}: watermark and locked read must agree at rest"
            );
            drop(writer);
            let log = recover(dir.path()).unwrap();
            assert_eq!(
                log.records.len(),
                (THREADS * PER_THREAD) as usize,
                "{fsync:?}"
            );
        }
    });
}

/// Ticket storm: 64 threads submit their LSNs in reverse stride order, so
/// the pending map is full of gaps and acks can only advance when the run
/// becomes contiguous. Asserts the dense-acknowledgement invariant and that
/// the fast-path atomic watermark never disagrees with the locked
/// `durable_lsn()` read.
#[test]
fn ticket_storm_acks_densely_and_watermark_agrees() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        const THREADS: u64 = 64;
        const PER_THREAD: u64 = 4;
        let dir = TempDir::new("txlog-wal-storm");
        let writer = LogWriter::open(dir.path(), &options(FsyncPolicy::Always)).unwrap();
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let writer = &writer;
                scope.spawn(move || {
                    // Append the thread's highest LSN first (no waiting), so
                    // arrival order is heavily out-of-order across threads.
                    let tickets: Vec<_> = (0..PER_THREAD)
                        .rev()
                        .map(|i| {
                            let lsn = i * THREADS + thread;
                            writer.append(lsn, payload(lsn)).unwrap()
                        })
                        .collect();
                    for ticket in tickets {
                        let lsn = ticket.lsn();
                        ticket.wait().unwrap();
                        // Dense ack order: an acknowledged record is covered
                        // by the watermark, which in turn never runs ahead of
                        // the locked authoritative read.
                        let watermark = writer.durable_watermark();
                        assert!(
                            watermark > lsn,
                            "acked LSN {lsn} above watermark {watermark}"
                        );
                        let locked = writer.durable_lsn();
                        assert!(
                            watermark <= locked,
                            "fast path ({watermark}) ahead of the locked read ({locked})"
                        );
                    }
                });
            }
        });
        assert_eq!(writer.durable_lsn(), THREADS * PER_THREAD);
        assert_eq!(writer.durable_watermark(), writer.durable_lsn());
        drop(writer);
        let log = recover(dir.path()).unwrap();
        assert_eq!(
            log.records,
            (0..THREADS * PER_THREAD)
                .map(|l| (l, payload(l)))
                .collect::<Vec<_>>(),
            "the on-disk log is the dense in-order history"
        );
    });
}

/// Shutdown with records stranded behind a sequence gap must not hang: the
/// contiguous prefix is flushed and acknowledged, the stranded tickets fail.
#[test]
fn shutdown_with_gap_stranded_records_fails_their_tickets() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_secs(60)), // behaves as `Always`
            FsyncPolicy::None,
        ] {
            let dir = TempDir::new("txlog-wal-gap");
            let writer = LogWriter::open(dir.path(), &options(fsync)).unwrap();
            let t0 = writer.append(0, payload(0)).unwrap();
            // LSN 1 never arrives: 2 and 3 can never be written.
            let t2 = writer.append(2, payload(2)).unwrap();
            let t3 = writer.append(3, payload(3)).unwrap();
            drop(writer); // must not hang on the stranded records
            t0.wait().unwrap();
            assert_eq!(t2.wait(), Err(WalError::Crashed), "{fsync:?}");
            assert_eq!(t3.wait(), Err(WalError::Crashed), "{fsync:?}");
            let log = recover(dir.path()).unwrap();
            assert_eq!(log.records, vec![(0, payload(0))], "{fsync:?}");
            assert!(
                log.diagnostics.is_empty(),
                "{fsync:?}: {:?}",
                log.diagnostics
            );
        }
    });
}

#[test]
fn rotation_starts_a_new_segment_and_keeps_every_record() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal");
        let writer = LogWriter::open(dir.path(), &options(FsyncPolicy::Always)).unwrap();
        for lsn in 0..5 {
            writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
        }
        let new_start = writer.rotate().unwrap();
        assert_eq!(new_start, 5);
        for lsn in 5..8 {
            writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
        }
        drop(writer);

        let segments = txlog::list_segments(dir.path()).unwrap();
        assert_eq!(
            segments.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![0, 5]
        );
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.records.len(), 8);
        assert_eq!(log.next_lsn, 8);
    });
}

/// Preallocation lifecycle: segments span the configured extent while open
/// and are trimmed back to their written bytes when closed — by rotation and
/// by clean shutdown — so only a crash leaves a zero tail behind.
#[test]
fn preallocated_segments_are_trimmed_at_rotation_and_shutdown() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal-prealloc");
        let writer = LogWriter::open(dir.path(), &options(FsyncPolicy::Always)).unwrap();
        assert_eq!(
            std::fs::metadata(segment_path(dir.path(), 0))
                .unwrap()
                .len(),
            TEST_PREALLOC,
            "a fresh segment spans the full preallocated extent"
        );
        for lsn in 0..4 {
            writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
        }
        let new_start = writer.rotate().unwrap();
        let closed = std::fs::metadata(segment_path(dir.path(), 0))
            .unwrap()
            .len();
        assert!(
            closed > 0 && closed < TEST_PREALLOC,
            "rotation trims the outgoing segment (len {closed})"
        );
        assert_eq!(
            std::fs::metadata(segment_path(dir.path(), new_start))
                .unwrap()
                .len(),
            TEST_PREALLOC,
            "the successor segment is preallocated"
        );
        writer.append(4, payload(4)).unwrap().wait().unwrap();
        drop(writer);
        let last = std::fs::metadata(segment_path(dir.path(), new_start))
            .unwrap()
            .len();
        assert!(
            last > 0 && last < TEST_PREALLOC,
            "clean shutdown trims the final segment (len {last})"
        );
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.next_lsn, 5);
        assert!(log.diagnostics.is_empty(), "{:?}", log.diagnostics);
    });
}

#[test]
fn clean_shutdown_flushes_under_every_policy() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_secs(60)), // behaves as `Always`
            FsyncPolicy::None,
        ] {
            let dir = TempDir::new("txlog-wal");
            let writer = LogWriter::open(dir.path(), &options(fsync)).unwrap();
            let tickets: Vec<_> = (0..10)
                .map(|lsn| writer.append(lsn, payload(lsn)).unwrap())
                .collect();
            drop(writer); // clean shutdown: flush + fsync + ack
            for ticket in tickets {
                ticket.wait().unwrap();
            }
            let log = recover(dir.path()).unwrap();
            assert_eq!(log.records.len(), 10, "{fsync:?}");
        }
    });
}

/// A rotation requested while an fsync is in flight waits for it: the
/// records written before the request are fsynced and acknowledged in the
/// turn that wrote them, the new segment starts after all of them, and the
/// watermark agrees with the locked read afterwards.
#[test]
fn rotation_requested_during_an_fsync_starts_after_every_written_record() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal-rotate-held");
        let (writer, held) = held_fsync_writer(&dir, FsyncPolicy::Always);
        let tickets: Vec<_> = (0..4)
            .map(|lsn| {
                let ticket = writer.append(lsn, payload(lsn)).unwrap();
                if lsn == 0 {
                    held.wait_held();
                }
                ticket
            })
            .collect();
        assert!(
            tickets.iter().all(|ticket| ticket.poll().is_none()),
            "nothing is acknowledged while the fsync is held"
        );
        let rotated = std::thread::scope(|scope| {
            let rotation = scope.spawn(|| writer.rotate());
            held.release();
            rotation.join().unwrap()
        });
        assert_eq!(rotated, Ok(4));
        for ticket in &tickets {
            assert_eq!(ticket.poll(), Some(Ok(())), "LSN {}", ticket.lsn());
        }
        assert_eq!(writer.durable_lsn(), 4);
        assert_eq!(writer.durable_watermark(), writer.durable_lsn());
        drop(writer);
        let segments = txlog::list_segments(dir.path()).unwrap();
        assert_eq!(
            segments.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![0, 4]
        );
        assert_eq!(recover(dir.path()).unwrap().next_lsn, 4);
    });
}

/// `Group` carries an interval the writer no longer reads: a record is
/// fsynced and acknowledged as soon as it is written, not a minute later.
#[test]
fn group_policy_acks_without_waiting_out_the_interval() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal");
        let writer = LogWriter::open(
            dir.path(),
            &options(FsyncPolicy::Group(Duration::from_secs(60))),
        )
        .unwrap();
        let started = Instant::now();
        writer.append(0, payload(0)).unwrap().wait().unwrap();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the ack waited {waited:?}: the writer slept out the interval"
        );
        assert_eq!(writer.durable_lsn(), 1);
    });
}

/// Group commit without a clock: records that arrive while an fsync is in
/// flight go out as one batch under the next fsync.
#[test]
fn records_arriving_during_an_fsync_share_the_next() {
    with_default_watchdog(|| {
        let _counters = exclusive_counters();
        let dir = TempDir::new("txlog-wal-share");
        let (writer, held) = held_fsync_writer(&dir, FsyncPolicy::default());
        let before = txobs::metrics::wal().snapshot();
        let first = writer.append(0, payload(0)).unwrap();
        held.wait_held();
        let rest: Vec<_> = (1..=9)
            .map(|lsn| writer.append(lsn, payload(lsn)).unwrap())
            .collect();
        assert_eq!(writer.durable_lsn(), 0, "the fsync of LSN 0 is held");
        held.release();
        first.wait().unwrap();
        for ticket in rest {
            ticket.wait().unwrap();
        }
        let wal = txobs::metrics::wal().snapshot().delta_since(&before);
        assert_eq!(wal.enqueued, 10);
        assert_eq!(
            wal.fsyncs, 2,
            "LSN 0 under the held fsync, LSNs 1..=9 under the next one"
        );
        assert_eq!(writer.durable_lsn(), 10);
        drop(writer);
        assert_eq!(recover(dir.path()).unwrap().next_lsn, 10);
    });
}

/// Every [`WalOptions::default`] carries its own disarmed crash registry, so
/// arming one writer's crash point never reaches a writer opened elsewhere
/// in the process.
#[test]
fn default_options_get_independent_disarmed_registries() {
    let a = WalOptions::default();
    let b = WalOptions::default();
    for point in crash_points::ALL {
        assert!(!a.crash_points.should_crash(point), "{point} armed in a");
        assert!(!b.crash_points.should_crash(point), "{point} armed in b");
    }
    a.crash_points.arm(crash_points::MID_FRAME);
    assert!(
        !b.crash_points.should_crash(crash_points::MID_FRAME),
        "arming one default registry must not arm another"
    );
    a.crash_points.disarm();
}

/// The append-path crash matrix: arm each point, submit records, and check
/// which records survive recovery. Invariant: every *acknowledged* record
/// survives; the on-disk log is always a dense prefix of the submitted
/// stream; recovery never panics.
#[test]
fn crash_points_kill_the_writer_and_preserve_acked_prefix() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        for point in crash_points::APPEND {
            let dir = TempDir::new("txlog-wal-crash");
            let crash = CrashPoints::disabled();
            let writer = LogWriter::open(dir.path(), &crash_options(&crash)).unwrap();

            // Phase 1: records 0..3 acknowledged before the point is armed.
            for lsn in 0..3 {
                writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
            }
            // Phase 2: arm, then submit record 3 — the writer dies at the
            // armed point while handling it.
            crash.arm(point);
            let outcome = writer
                .append(3, payload(3))
                .and_then(|ticket| ticket.wait());
            if point == crash_points::AFTER_FSYNC_BEFORE_ACK {
                // The fsync covering record 3 succeeded before the writer
                // died, so its ticket reports durable even without the ack.
                assert_eq!(outcome, Ok(()), "{point}");
            } else {
                assert_eq!(outcome, Err(WalError::Crashed), "{point}");
            }
            assert!(writer.is_dead(), "{point}");
            assert_eq!(crash.fired(), Some(point.to_string()), "{point}");
            // Dead writers refuse further work.
            assert_eq!(
                writer.append(4, payload(4)).map(|_| ()),
                Err(WalError::Crashed),
                "{point}"
            );
            assert_eq!(writer.rotate(), Err(WalError::Crashed), "{point}");
            drop(writer);

            let log = recover(dir.path()).unwrap();
            // The acked records must survive; record 3 may or may not,
            // depending on where the crash hit — but the result is always a
            // dense prefix.
            assert!(log.next_lsn >= 3, "{point}: acked records lost");
            assert!(log.next_lsn <= 4, "{point}");
            assert_eq!(
                log.records,
                (0..log.next_lsn)
                    .map(|l| (l, payload(l)))
                    .collect::<Vec<_>>(),
                "{point}"
            );
            match point {
                // Died before any byte of record 3 hit the file.
                crash_points::BEFORE_APPEND => assert_eq!(log.next_lsn, 3, "{point}"),
                // Died mid-write: a torn final frame that recovery discards
                // (the torn bytes make the tail non-zero, so it is reported
                // as corruption, not as preallocation residue).
                crash_points::MID_FRAME => {
                    assert_eq!(log.next_lsn, 3, "{point}");
                    assert!(
                        log.diagnostics.iter().any(|d| d.contains("torn tail")),
                        "{point}: expected a torn-tail diagnostic, got {:?}",
                        log.diagnostics
                    );
                }
                // Fully written (and in-process files keep unfsynced bytes),
                // so the unacknowledged record is visible after recovery; at
                // AFTER_FSYNC_BEFORE_ACK its survival is mandatory — the
                // ticket reported Ok above.
                crash_points::AFTER_APPEND_BEFORE_FSYNC | crash_points::AFTER_FSYNC_BEFORE_ACK => {
                    assert_eq!(log.next_lsn, 4, "{point}")
                }
                other => unreachable!("unknown crash point {other}"),
            }
        }
    });
}

/// The rotation-path crash matrix: arm each rotation point, crash inside
/// `rotate()`, and check that every acknowledged record survives recovery —
/// including across the repaired debris a mid-rotation crash leaves (an
/// untrimmed outgoing segment, or an orphaned all-zero successor).
#[test]
fn rotation_crash_points_kill_the_writer_and_preserve_acked_records() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        for point in crash_points::ROTATION {
            let dir = TempDir::new("txlog-wal-rotate-crash");
            let crash = CrashPoints::disabled();
            let writer = LogWriter::open(dir.path(), &crash_options(&crash)).unwrap();
            for lsn in 0..5 {
                writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
            }
            crash.arm(point);
            assert_eq!(writer.rotate(), Err(WalError::Crashed), "{point}");
            assert!(writer.is_dead(), "{point}");
            assert_eq!(crash.fired(), Some(point.to_string()), "{point}");
            assert_eq!(
                writer.append(5, payload(5)).map(|_| ()),
                Err(WalError::Crashed),
                "{point}: dead writers refuse appends"
            );
            drop(writer);

            let log = recover(dir.path()).unwrap();
            assert_eq!(
                log.records,
                (0..5).map(|l| (l, payload(l))).collect::<Vec<_>>(),
                "{point}: acked records lost"
            );
            assert_eq!(log.next_lsn, 5, "{point}");
            // The repair is complete: a second recovery scans clean.
            let again = recover(dir.path()).unwrap();
            assert_eq!(again.records, log.records, "{point}");
            assert!(
                again.diagnostics.is_empty(),
                "{point}: second recovery not clean: {:?}",
                again.diagnostics
            );
            // The repaired directory boots a fresh writer that appends on.
            let writer = LogWriter::open(
                dir.path(),
                &WalOptions {
                    start_lsn: log.next_lsn,
                    ..options(FsyncPolicy::Always)
                },
            )
            .unwrap();
            writer.append(5, payload(5)).unwrap().wait().unwrap();
            drop(writer);
            let log = recover(dir.path()).unwrap();
            assert_eq!(log.next_lsn, 6, "{point}");
            assert_eq!(log.records.len(), 6, "{point}");
        }
    });
}

#[test]
fn crash_with_waiters_behind_a_gap_fails_them_all() {
    with_default_watchdog(|| {
        let _counters = shared_counters();
        let dir = TempDir::new("txlog-wal-crash");
        let crash = CrashPoints::disabled();
        let writer = LogWriter::open(dir.path(), &crash_options(&crash)).unwrap();
        // LSN 1 parks behind the missing 0; the crash on 0's append must
        // wake and fail it.
        let t1 = writer.append(1, payload(1)).unwrap();
        crash.arm(crash_points::BEFORE_APPEND);
        let t0 = writer.append(0, payload(0)).unwrap();
        assert_eq!(t0.wait(), Err(WalError::Crashed));
        assert_eq!(t1.wait(), Err(WalError::Crashed));
        drop(writer);
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.records, Vec::new());
    });
}
