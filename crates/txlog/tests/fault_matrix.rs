//! The disk-fault matrix (ISSUE 8 tentpole, txlog side): every injected
//! storage fault — EIO/ENOSPC, short writes, fsync failures, at every
//! writer-path site, under both fsync policies — must end in exactly one of
//! two outcomes:
//!
//! 1. acknowledged records survive a follow-up recovery, or
//! 2. the caller observed a typed [`WalError`] (never a panic).
//!
//! Plus the pins of the failure-model policy: transient write errors are
//! retried with backoff and absorbed; a failed fsync is terminal and can
//! never advance the durable watermark (fsyncgate); a poisoned log refuses
//! new work with [`WalError::Degraded`] while in-flight victims get the
//! root-cause [`WalError::Storage`].
//!
//! A process-wide panic-hook counter verifies the "zero panics" half of the
//! contract: no test in this binary expects a panic, so the counter must
//! stay zero however the faults land in the writer thread.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use tlstm_testutil::{with_default_watchdog, CrashPoints, TempDir};
use txlog::{
    recover, Fault, FaultError, FaultFs, FsyncPolicy, LogWriter, RetryPolicy, StorageOp, WalError,
    WalOptions,
};

const TEST_PREALLOC: u64 = 64 * 1024;

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Counts every panic in the process (the writer thread included) on top of
/// the default hook. Tests assert the count stays zero — a fault that
/// panicked the writer thread instead of propagating a typed error would be
/// invisible to the test body otherwise (its panic is swallowed by the join
/// in `LogWriter::drop`).
fn install_panic_counter() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            previous(info);
        }));
    });
}

fn options(fsync: FsyncPolicy, fs: &FaultFs, retry: RetryPolicy) -> WalOptions {
    WalOptions {
        start_lsn: 0,
        fsync,
        crash_points: CrashPoints::disabled(),
        preallocate_bytes: TEST_PREALLOC,
        fs: Arc::new(fs.clone()),
        retry,
    }
}

fn payload(lsn: u64) -> Vec<u8> {
    format!("record-{lsn}").into_bytes()
}

/// Appends and acknowledges records `0..n`.
fn ack_prefix(writer: &LogWriter, n: u64) {
    for lsn in 0..n {
        writer.append(lsn, payload(lsn)).unwrap().wait().unwrap();
    }
}

/// Asserts the recovered log is exactly the dense records `0..expected` (the
/// payloads of [`payload`]).
#[track_caller]
fn assert_dense_prefix(dir: &std::path::Path, expected: std::ops::RangeInclusive<u64>, ctx: &str) {
    let log = recover(dir).unwrap();
    assert!(
        expected.contains(&log.next_lsn),
        "{ctx}: recovered {} records, wanted {expected:?}",
        log.next_lsn
    );
    assert_eq!(
        log.records,
        (0..log.next_lsn)
            .map(|l| (l, payload(l)))
            .collect::<Vec<_>>(),
        "{ctx}: recovered history is not a dense prefix"
    );
}

/// Transient write errors are absorbed: with `n ≤ max_retries` injected
/// failures the append retries (truncating the short prefix in between) and
/// the committer never sees an error.
#[test]
fn transient_write_faults_are_retried_and_acked() {
    install_panic_counter();
    with_default_watchdog(|| {
        for n in 1..=3u32 {
            for short in [false, true] {
                let ctx = format!("times={n} short={short}");
                let dir = TempDir::new("txlog-fault-retry");
                let fs = FaultFs::new();
                let plan = fs.plan();
                let writer = LogWriter::open(
                    dir.path(),
                    &options(FsyncPolicy::Always, &fs, RetryPolicy::default()),
                )
                .unwrap();
                ack_prefix(&writer, 1);

                let mut fault = Fault::times(n, FaultError::Eio);
                if short {
                    fault = fault.short();
                }
                plan.arm(StorageOp::Write, fault);
                writer.append(1, payload(1)).unwrap().wait().unwrap();
                assert!(!writer.is_dead(), "{ctx}");
                assert_eq!(writer.failure(), None, "{ctx}");
                assert_eq!(plan.fired_count(StorageOp::Write), n as usize, "{ctx}");

                // The log keeps running normally after the fault clears.
                writer.append(2, payload(2)).unwrap().wait().unwrap();
                drop(writer);
                assert_dense_prefix(dir.path(), 3..=3, &ctx);
            }
        }
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// A permanent write fault exhausts the retries and poisons the log: the
/// in-flight committer gets the root-cause `Storage { Write, .. }`, later
/// work is refused with `Degraded`, and the acked prefix survives recovery.
#[test]
fn exhausted_write_retries_poison_the_log_with_the_root_cause() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txlog-fault-poison");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let writer = LogWriter::open(
            dir.path(),
            &options(FsyncPolicy::Always, &fs, RetryPolicy::default()),
        )
        .unwrap();
        ack_prefix(&writer, 3);

        plan.arm(StorageOp::Write, Fault::forever(FaultError::Eio));
        let root_cause = WalError::storage(StorageOp::Write, ErrorKind::Other);
        let outcome = writer.append(3, payload(3)).unwrap().wait();
        assert_eq!(outcome, Err(root_cause.clone()));
        assert_eq!(
            plan.fired_count(StorageOp::Write),
            4,
            "initial attempt + max_retries"
        );
        assert!(writer.is_dead());
        assert_eq!(writer.failure(), Some(root_cause));

        // New work is refused up front, with Degraded — not the root cause,
        // and never Crashed.
        assert_eq!(
            writer.append(4, payload(4)).map(|_| ()),
            Err(WalError::Degraded)
        );
        assert_eq!(writer.rotate(), Err(WalError::Degraded));
        drop(writer);

        assert_dense_prefix(dir.path(), 3..=3, "permanent write fault");
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// ENOSPC mid-append (a short write whose cleanup truncation also fails)
/// leaves a torn tail on disk — and the log must be *repairable*: recovery
/// discards the torn frame, keeps every acked record, and a second recovery
/// scans clean.
#[test]
fn enospc_short_write_leaves_a_repairable_log() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txlog-fault-enospc");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let writer = LogWriter::open(
            dir.path(),
            &options(FsyncPolicy::Always, &fs, RetryPolicy::none()),
        )
        .unwrap();
        ack_prefix(&writer, 3);

        // The short write lands half the frame; the cleanup truncation is
        // also failed, so the torn bytes stay on disk (the worst case).
        plan.arm(StorageOp::Write, Fault::once(FaultError::Enospc).short());
        plan.arm(StorageOp::SetLen, Fault::forever(FaultError::Eio));
        let outcome = writer.append(3, payload(3)).unwrap().wait();
        assert_eq!(
            outcome,
            Err(WalError::storage(StorageOp::Write, ErrorKind::StorageFull))
        );
        assert!(writer.is_dead());
        drop(writer);

        // Recovery (on the real fs) repairs the torn tail: acked records
        // survive, the torn frame is discarded, the repair is durable.
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.next_lsn, 3, "only the acked records are recoverable");
        assert_eq!(
            log.records,
            (0..3).map(|l| (l, payload(l))).collect::<Vec<_>>()
        );
        assert!(
            log.diagnostics.iter().any(|d| d.contains("torn tail")),
            "expected a torn-tail diagnostic, got {:?}",
            log.diagnostics
        );
        let again = recover(dir.path()).unwrap();
        assert!(again.diagnostics.is_empty(), "{:?}", again.diagnostics);
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// The fsyncgate pin: a failed fsync is never retried-and-acked. The durable
/// watermark stays exactly where the last *successful* fsync left it, the
/// writer poisons the log with `Storage { Fsync, .. }`, and — because the
/// fault budget is `Times(1)` — a later fsync *would* succeed, which must
/// not matter: no later fsync is ever issued against the poisoned segment.
#[test]
fn a_failed_fsync_never_advances_the_durable_watermark() {
    install_panic_counter();
    with_default_watchdog(|| {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_millis(1)),
        ] {
            let ctx = format!("fsync={fsync}");
            let dir = TempDir::new("txlog-fault-fsyncgate");
            let fs = FaultFs::new();
            let plan = fs.plan();
            let writer =
                LogWriter::open(dir.path(), &options(fsync, &fs, RetryPolicy::default())).unwrap();
            ack_prefix(&writer, 3);
            assert_eq!(writer.durable_watermark(), 3, "{ctx}");

            // Fails exactly once, then would succeed — the poisoned log must
            // never give it the chance.
            plan.arm(StorageOp::Fsync, Fault::once(FaultError::Eio));
            let outcome = writer.append(3, payload(3)).unwrap().wait();
            assert_eq!(
                outcome,
                Err(WalError::storage(StorageOp::Fsync, ErrorKind::Other)),
                "{ctx}"
            );
            assert!(writer.is_dead(), "{ctx}");
            assert_eq!(plan.fired_count(StorageOp::Fsync), 1, "{ctx}");
            assert_eq!(
                writer.durable_watermark(),
                3,
                "{ctx}: a failed fsync advanced the watermark"
            );
            assert_eq!(writer.durable_lsn(), 3, "{ctx}");
            assert_eq!(
                writer.append(4, payload(4)).map(|_| ()),
                Err(WalError::Degraded),
                "{ctx}"
            );
            drop(writer);
            assert_eq!(
                plan.fired_count(StorageOp::Fsync),
                1,
                "{ctx}: the writer retried a failed fsync"
            );

            // Record 3's bytes were written (never fsynced): in-process
            // recovery may see them, a power loss might not — either way the
            // acked prefix survives and the history is dense.
            assert_dense_prefix(dir.path(), 3..=4, &ctx);
        }
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// The full site matrix: {EIO, ENOSPC} × {append sites, rotation sites} ×
/// {fsync=always, fsync=group}. Every combination must surface the typed
/// root cause naming the failed op, keep every acked record recoverable, and
/// never panic.
#[test]
fn every_fault_site_surfaces_typed_errors_and_preserves_acked_records() {
    install_panic_counter();
    with_default_watchdog(|| {
        let policies = [
            FsyncPolicy::Always,
            FsyncPolicy::Group(Duration::from_millis(1)),
        ];
        for fsync in policies {
            for error in [FaultError::Eio, FaultError::Enospc] {
                // Append-path sites: the fault fires while record 3 is in
                // flight; its ticket carries the root cause.
                for op in [StorageOp::Write, StorageOp::Fsync] {
                    let ctx = format!("append {op} {error} fsync={fsync}");
                    let dir = TempDir::new("txlog-fault-matrix");
                    let fs = FaultFs::new();
                    let writer =
                        LogWriter::open(dir.path(), &options(fsync, &fs, RetryPolicy::none()))
                            .unwrap();
                    ack_prefix(&writer, 3);
                    fs.plan().arm(op, Fault::forever(error));
                    let outcome = writer.append(3, payload(3)).unwrap().wait();
                    assert_eq!(outcome, Err(WalError::storage(op, error.kind())), "{ctx}");
                    assert!(writer.is_dead(), "{ctx}");
                    assert_eq!(
                        writer.append(4, payload(4)).map(|_| ()),
                        Err(WalError::Degraded),
                        "{ctx}"
                    );
                    drop(writer);
                    assert_dense_prefix(dir.path(), 3..=4, &ctx);
                }

                // Rotation-path sites: the fault fires inside rotate(); the
                // rotation caller carries the root cause.
                for op in [
                    StorageOp::SetLen,
                    StorageOp::Fsync,
                    StorageOp::Create,
                    StorageOp::SyncDir,
                ] {
                    let ctx = format!("rotate {op} {error} fsync={fsync}");
                    let dir = TempDir::new("txlog-fault-matrix");
                    let fs = FaultFs::new();
                    let writer =
                        LogWriter::open(dir.path(), &options(fsync, &fs, RetryPolicy::none()))
                            .unwrap();
                    ack_prefix(&writer, 3);
                    fs.plan().arm(op, Fault::forever(error));
                    let outcome = writer.rotate();
                    assert_eq!(outcome, Err(WalError::storage(op, error.kind())), "{ctx}");
                    assert!(writer.is_dead(), "{ctx}");
                    drop(writer);
                    assert_dense_prefix(dir.path(), 3..=3, &ctx);
                }
            }
        }
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// Faults on the open path (directory creation, segment creation,
/// preallocation, the initial fsyncs) surface as typed `io::Error`s from
/// `LogWriter::open` — and once the one-shot fault is spent, the same open
/// succeeds.
#[test]
fn open_path_faults_surface_typed_io_errors() {
    install_panic_counter();
    with_default_watchdog(|| {
        for op in [
            StorageOp::CreateDir,
            StorageOp::Create,
            StorageOp::SetLen,
            StorageOp::Fsync,
            StorageOp::SyncDir,
        ] {
            let dir = TempDir::new("txlog-fault-open");
            let fs = FaultFs::new();
            fs.plan().arm(op, Fault::once(FaultError::Enospc));
            let err = LogWriter::open(
                dir.path(),
                &options(FsyncPolicy::Always, &fs, RetryPolicy::none()),
            )
            .map(|_| ())
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::StorageFull, "{op}");

            // Fault spent: the retry from a clean slate works.
            let writer = LogWriter::open(
                dir.path(),
                &options(FsyncPolicy::Always, &fs, RetryPolicy::none()),
            )
            .unwrap();
            writer.append(0, payload(0)).unwrap().wait().unwrap();
            drop(writer);
        }
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}

/// Recovery through a faulty fs propagates storage errors as typed
/// `io::Error`s (corrupt *content* is handled; failing *operations* are
/// surfaced).
#[test]
fn recovery_propagates_storage_errors_typed() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txlog-fault-recover");
        let writer = LogWriter::open(
            dir.path(),
            &WalOptions {
                fsync: FsyncPolicy::Always,
                crash_points: CrashPoints::disabled(),
                preallocate_bytes: TEST_PREALLOC,
                ..WalOptions::default()
            },
        )
        .unwrap();
        ack_prefix(&writer, 2);
        drop(writer);

        let fs = FaultFs::new();
        for op in [StorageOp::ListDir, StorageOp::Read] {
            fs.plan().arm(op, Fault::once(FaultError::Eio));
            let err = txlog::recovery::recover_with(&fs, dir.path()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Other, "{op}");
        }
        // Faults spent: the same recovery succeeds.
        let log = txlog::recovery::recover_with(&fs, dir.path()).unwrap();
        assert_eq!(log.next_lsn, 2);
        assert_eq!(PANICS.load(Ordering::SeqCst), 0);
    });
}
