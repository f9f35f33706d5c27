//! Crash-recovery conformance for the durable KV store.
//!
//! The contract under test (ISSUE 5 acceptance criteria): for every injected
//! WAL crash point and both runtimes, a recovered [`DurableKvStore`] equals
//! the [`RefStore`] oracle replayed to a **batch-boundary prefix** of the
//! submitted stream, and no write acknowledged under `fsync=always`/`group`
//! is ever lost.

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir, TestRng};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FsyncPolicy, KvOp, KvServerConfig, KvStoreParams,
    RefStore, WalError,
};
use txlog::crash_points;
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 8;
const GROUPS: usize = 4;

/// Boots a durable store on runtime `R` (turbofish-friendly shorthand for
/// the generic constructor the tests instantiate per runtime).
fn boot<R: TxRuntime>(
    dir: &std::path::Path,
    cfg: &DurableKvConfig,
) -> std::io::Result<DurableKvStore<R>> {
    DurableKvStore::boot(dir, cfg)
}

fn config(fsync: FsyncPolicy, crash_points: CrashPoints) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: SHARDS,
                expected_keys: 512,
            },
            batch_tasks: GROUPS,
            tx: TxConfig::small(),
        },
        fsync,
        crash_points,
        ..DurableKvConfig::default()
    }
}

/// One seeded batch over a small key space. The first op is always a write,
/// so every batch is logged and batch index == LSN for a single session.
fn gen_batch(rng: &mut TestRng, ops: usize) -> Vec<KvOp> {
    let mut batch = Vec::with_capacity(ops);
    for i in 0..ops {
        let key = rng.below(64);
        let value = |rng: &mut TestRng| -> Vec<u64> { (0..3).map(|_| rng.next_u64()).collect() };
        let op = match if i == 0 { 40 } else { rng.below(100) } {
            0..=24 => KvOp::Get { key },
            25..=59 => KvOp::Put {
                key,
                value: value(rng),
            },
            60..=69 => KvOp::Delete { key },
            70..=84 => KvOp::Cas {
                key,
                expected: value(rng),
                new: value(rng),
            },
            _ => KvOp::Scan {
                lo: key,
                hi: key + 9,
                limit: 8,
            },
        };
        batch.push(op);
    }
    batch
}

fn dump<R: TxRuntime>(store: &DurableKvStore<R>) -> Vec<(u64, Vec<u64>)> {
    store
        .store()
        .dump(&mut store.server().direct())
        .expect("direct dump cannot abort")
}

/// Replays `batches[..n]` through the oracle and returns its contents.
fn oracle_prefix(batches: &[Vec<KvOp>], n: usize) -> Vec<(u64, Vec<u64>)> {
    let mut oracle = RefStore::new(SHARDS);
    for ops in &batches[..n] {
        oracle.batch(ops, GROUPS);
    }
    oracle.dump()
}

/// The crash matrix: a seeded op stream "crashes" at each named WAL point;
/// the recovered store must equal the oracle replay of a batch-boundary
/// prefix that contains every acknowledged write.
fn crash_matrix_on<R: TxRuntime>() {
    let label = R::LABEL;
    // Only the append-path points can fire from `session.batch`; the
    // rotation-path points are exercised by the rotation matrix below.
    for point in crash_points::APPEND {
        let context = format!("{label}/{point}");
        let dir = TempDir::new("txkv-crash");
        let crash = CrashPoints::disabled();
        let store = boot::<R>(dir.path(), &config(FsyncPolicy::Always, crash.clone()))
            .unwrap_or_else(|e| panic!("{context}: boot failed: {e}"));
        let mut session = store.session();
        let mut rng = TestRng::new(0xD00D ^ point.len() as u64);
        let mut batches = Vec::new();
        let mut acked = 0usize;

        // Phase 1: a healthy prefix, every batch acknowledged.
        for _ in 0..8 {
            let ops = gen_batch(&mut rng, 10);
            batches.push(ops.clone());
            session
                .batch(ops)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            acked += 1;
        }
        assert_eq!(store.durable_lsn(), acked as u64, "{context}");

        // Phase 2: arm the crash point; the next logged batch dies
        // at exactly that pipeline stage.
        crash.arm(point);
        let ops = gen_batch(&mut rng, 10);
        batches.push(ops.clone());
        let outcome = session.batch(ops);
        if point == crash_points::AFTER_FSYNC_BEFORE_ACK {
            // The fsync covering this batch succeeded before the writer
            // died, so its ticket reports durable even without the ack.
            assert!(outcome.is_ok(), "{context}: {outcome:?}");
            acked += 1;
        } else {
            assert_eq!(outcome.unwrap_err(), WalError::Crashed, "{context}");
        }
        assert!(store.is_dead(), "{context}");
        assert_eq!(crash.fired(), Some(point.to_string()), "{context}");
        drop(session);
        drop(store);

        // Phase 3: recover and compare against the oracle.
        let recovered = boot::<R>(
            dir.path(),
            &config(FsyncPolicy::Always, CrashPoints::disabled()),
        )
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
        let report = recovered.recovery().clone();
        let n = report.next_lsn as usize;
        assert!(n >= acked, "{context}: acknowledged writes lost");
        assert!(n <= batches.len(), "{context}");
        // The exact prefix is deterministic per crash point: before the
        // bytes hit the file the record is gone, after that the in-process
        // file keeps it even though it was never acked (and for the
        // post-fsync point it *was* acked — counted into `acked` above).
        let want_n = match point {
            crash_points::BEFORE_APPEND
            | crash_points::MID_FRAME
            | crash_points::AFTER_FSYNC_BEFORE_ACK => acked,
            _ => acked + 1,
        };
        assert_eq!(n, want_n, "{context}");
        assert_eq!(
            dump(&recovered),
            oracle_prefix(&batches, n),
            "{context}: recovered state diverges from the oracle prefix"
        );
        recovered
            .store()
            .check_consistency(&mut recovered.server().direct())
            .unwrap();
        if point == crash_points::MID_FRAME {
            assert!(
                report.diagnostics.iter().any(|d| d.contains("torn tail")),
                "{context}: expected a torn-tail diagnostic, got {:?}",
                report.diagnostics
            );
        }

        // The recovered store keeps serving and logging.
        let mut session = recovered.session();
        let ops = gen_batch(&mut rng, 6);
        batches.truncate(n);
        batches.push(ops.clone());
        session
            .batch(ops)
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(
            dump(&recovered),
            oracle_prefix(&batches, batches.len()),
            "{context}: post-recovery writes diverge"
        );
    }
}

#[test]
fn crash_matrix_recovers_an_acked_prefix_on_every_runtime() {
    with_default_watchdog(|| {
        crash_matrix_on::<SwisstmRuntime>();
        crash_matrix_on::<TlstmRuntime>();
        crash_matrix_on::<SeqRefRuntime>();
    });
}

/// The rotation crash matrix (the rotation path previously had zero crash
/// coverage): arm each rotation point, crash inside the log-truncation
/// rotate that follows a snapshot, and recover on every runtime. The
/// snapshot itself is written durably *before* the rotation, so recovery
/// must come back through it — never losing an acknowledged batch, whether
/// the crash left an untrimmed outgoing segment or an orphaned all-zero
/// successor segment.
fn rotation_crash_matrix_on<R: TxRuntime>() {
    let label = R::LABEL;
    for point in crash_points::ROTATION {
        let context = format!("{label}/{point}");
        let dir = TempDir::new("txkv-rotate-crash");
        let crash = CrashPoints::disabled();
        let store = boot::<R>(dir.path(), &config(FsyncPolicy::Always, crash.clone()))
            .unwrap_or_else(|e| panic!("{context}: boot failed: {e}"));
        let mut session = store.session();
        let mut rng = TestRng::new(0x0707 ^ point.len() as u64);
        let mut batches = Vec::new();
        for _ in 0..8 {
            let ops = gen_batch(&mut rng, 10);
            batches.push(ops.clone());
            session
                .batch(ops)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
        }
        assert_eq!(store.durable_lsn(), 8, "{context}");

        crash.arm(point);
        assert!(store.snapshot().is_err(), "{context}: rotation must fail");
        assert!(store.is_dead(), "{context}");
        assert_eq!(crash.fired(), Some(point.to_string()), "{context}");
        // No premature prune: the crashed rotation must leave the
        // pre-snapshot log segment in place (it is still the only
        // home of records the orphaned successor never received).
        assert!(
            !txlog::list_segments(dir.path()).unwrap().is_empty(),
            "{context}: segments pruned after a failed rotation"
        );
        let ops = gen_batch(&mut rng, 10);
        assert_eq!(
            session.batch(ops).unwrap_err(),
            WalError::Crashed,
            "{context}: dead stores must refuse writes"
        );
        drop(session);
        drop(store);

        let recovered = boot::<R>(
            dir.path(),
            &config(FsyncPolicy::Always, CrashPoints::disabled()),
        )
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
        let report = recovered.recovery().clone();
        assert_eq!(report.next_lsn, 8, "{context}: acked batches lost");
        assert_eq!(
            report.snapshot_lsn,
            Some(8),
            "{context}: the pre-rotation snapshot must be used"
        );
        assert_eq!(report.replayed_records, 0, "{context}");
        assert_eq!(
            dump(&recovered),
            oracle_prefix(&batches, 8),
            "{context}: recovered state diverges from the oracle"
        );
        recovered
            .store()
            .check_consistency(&mut recovered.server().direct())
            .unwrap();

        // The recovered store serves, logs, and can rotate again.
        let mut session = recovered.session();
        let ops = gen_batch(&mut rng, 6);
        batches.push(ops.clone());
        session
            .batch(ops)
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let snap = recovered
            .snapshot()
            .unwrap_or_else(|e| panic!("{context}: post-recovery snapshot failed: {e}"));
        assert_eq!(snap, 9, "{context}");
        assert_eq!(
            dump(&recovered),
            oracle_prefix(&batches, batches.len()),
            "{context}: post-recovery writes diverge"
        );
    }
}

#[test]
fn rotation_crash_matrix_recovers_every_acked_batch_on_every_runtime() {
    with_default_watchdog(|| {
        rotation_crash_matrix_on::<SwisstmRuntime>();
        rotation_crash_matrix_on::<TlstmRuntime>();
        rotation_crash_matrix_on::<SeqRefRuntime>();
    });
}

/// Acked writes survive under `fsync=group` too (acks wait for the covering
/// fsync, so the acknowledged prefix is always on disk).
#[test]
fn group_fsync_acks_are_never_lost() {
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-crash-group");
        let crash = CrashPoints::disabled();
        let store = DurableKvStore::<SwisstmRuntime>::boot(
            dir.path(),
            &config(
                FsyncPolicy::Group(std::time::Duration::from_millis(1)),
                crash.clone(),
            ),
        )
        .unwrap();
        let mut session = store.session();
        let mut rng = TestRng::new(77);
        let mut batches = Vec::new();
        for _ in 0..10 {
            let ops = gen_batch(&mut rng, 8);
            batches.push(ops.clone());
            session.batch(ops).unwrap();
        }
        let acked = batches.len();
        crash.arm(crash_points::BEFORE_APPEND);
        let ops = gen_batch(&mut rng, 8);
        batches.push(ops.clone());
        assert_eq!(session.batch(ops).unwrap_err(), WalError::Crashed);
        drop(session);
        drop(store);

        let recovered = DurableKvStore::<SwisstmRuntime>::boot(
            dir.path(),
            &config(FsyncPolicy::None, CrashPoints::disabled()),
        )
        .unwrap();
        let n = recovered.recovery().next_lsn as usize;
        assert!(n >= acked, "group-fsync acknowledged writes lost");
        assert_eq!(dump(&recovered), oracle_prefix(&batches, n));
    });
}

/// Snapshot + truncation: recovery loads the snapshot and replays only the
/// suffix; covered segments and older snapshots are pruned.
fn snapshot_truncation_on<R: TxRuntime>() {
    let label = R::LABEL;
    let dir = TempDir::new("txkv-snap");
    let store = boot::<R>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    let mut session = store.session();
    let mut rng = TestRng::new(0xABCD);
    let mut batches = Vec::new();
    for _ in 0..6 {
        let ops = gen_batch(&mut rng, 10);
        batches.push(ops.clone());
        session.batch(ops).unwrap();
    }
    let snap_lsn = store.snapshot().unwrap();
    assert_eq!(snap_lsn, 6, "{label}");
    for _ in 0..4 {
        let ops = gen_batch(&mut rng, 10);
        batches.push(ops.clone());
        session.batch(ops).unwrap();
    }
    // A second snapshot prunes the first and the covered segments.
    let snap_lsn = store.snapshot().unwrap();
    assert_eq!(snap_lsn, 10, "{label}");
    let snapshots = txlog::list_snapshots(dir.path()).unwrap();
    assert_eq!(
        snapshots.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
        vec![10],
        "{label}: older snapshot not pruned"
    );
    for _ in 0..3 {
        let ops = gen_batch(&mut rng, 10);
        batches.push(ops.clone());
        session.batch(ops).unwrap();
    }
    drop(session);
    drop(store);

    let recovered = boot::<R>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    let report = recovered.recovery().clone();
    assert_eq!(report.snapshot_lsn, Some(10), "{label}");
    assert_eq!(
        report.replayed_records, 3,
        "{label}: replay must start at the snapshot"
    );
    assert_eq!(report.next_lsn, 13, "{label}");
    assert_eq!(
        dump(&recovered),
        oracle_prefix(&batches, batches.len()),
        "{label}: snapshot+suffix recovery diverges"
    );
}

#[test]
fn snapshot_truncates_the_log_and_recovery_uses_it() {
    with_default_watchdog(|| {
        snapshot_truncation_on::<SwisstmRuntime>();
        snapshot_truncation_on::<TlstmRuntime>();
        snapshot_truncation_on::<SeqRefRuntime>();
    });
}

/// Clean shutdown → reopen: nothing is lost, LSNs continue densely, and a
/// log written under one runtime recovers under any other (the record
/// stream is runtime-agnostic).
fn restart_pair<A: TxRuntime, B: TxRuntime>() {
    let label = A::LABEL;
    let other_label = B::LABEL;
    let dir = TempDir::new("txkv-restart");
    let store = boot::<A>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    let mut session = store.session();
    let mut rng = TestRng::new(0x5EED);
    let mut batches = Vec::new();
    for _ in 0..12 {
        let ops = gen_batch(&mut rng, 8);
        batches.push(ops.clone());
        session.batch(ops).unwrap();
    }
    let before = dump(&store);
    drop(session);
    drop(store);

    let reopened = boot::<B>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    let context = format!("{label} -> {other_label}");
    assert_eq!(reopened.recovery().next_lsn, 12, "{context}");
    assert_eq!(
        dump(&reopened),
        before,
        "{context}: clean restart lost data"
    );
    assert_eq!(
        dump(&reopened),
        oracle_prefix(&batches, batches.len()),
        "{context}"
    );
    // LSNs continue densely after the restart.
    let mut session = reopened.session();
    let ops = gen_batch(&mut rng, 8);
    batches.push(ops.clone());
    session.batch(ops).unwrap();
    assert_eq!(reopened.durable_lsn(), 13, "{context}");
}

#[test]
fn clean_restart_and_cross_runtime_recovery() {
    with_default_watchdog(|| {
        restart_pair::<SwisstmRuntime, SwisstmRuntime>();
        restart_pair::<SwisstmRuntime, TlstmRuntime>();
        restart_pair::<SwisstmRuntime, SeqRefRuntime>();
        restart_pair::<TlstmRuntime, SwisstmRuntime>();
        restart_pair::<TlstmRuntime, TlstmRuntime>();
        restart_pair::<TlstmRuntime, SeqRefRuntime>();
        restart_pair::<SeqRefRuntime, SwisstmRuntime>();
        restart_pair::<SeqRefRuntime, TlstmRuntime>();
        restart_pair::<SeqRefRuntime, SeqRefRuntime>();
    });
}

/// Concurrent durable sessions: the WAL re-sequences racing post-commit
/// appends into LSN order, so a clean restart reproduces the exact
/// committed state.
fn concurrent_restart_on<R: TxRuntime>() {
    let label = R::LABEL;
    let dir = TempDir::new("txkv-concurrent");
    let store = boot::<R>(
        dir.path(),
        &config(
            FsyncPolicy::Group(std::time::Duration::from_millis(1)),
            CrashPoints::disabled(),
        ),
    )
    .unwrap();
    std::thread::scope(|scope| {
        for thread in 0..3u64 {
            let store = &store;
            scope.spawn(move || {
                let mut session = store.session();
                let mut rng = TestRng::new(0xFEED ^ thread);
                for _ in 0..20 {
                    let ops = gen_batch(&mut rng, 6);
                    session.batch(ops).unwrap();
                }
            });
        }
    });
    let before = dump(&store);
    assert_eq!(store.durable_lsn(), 60, "{label}: every batch acked");
    drop(store);

    let reopened = boot::<R>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    assert_eq!(reopened.recovery().next_lsn, 60, "{label}");
    assert_eq!(
        dump(&reopened),
        before,
        "{label}: concurrent stream replay diverged"
    );
    reopened
        .store()
        .check_consistency(&mut reopened.server().direct())
        .unwrap();
}

#[test]
fn concurrent_sessions_survive_a_restart() {
    with_default_watchdog(|| {
        concurrent_restart_on::<SwisstmRuntime>();
        concurrent_restart_on::<TlstmRuntime>();
        concurrent_restart_on::<SeqRefRuntime>();
    });
}

/// A snapshot taken while writers commit: every batch serialises either
/// before the snapshot transaction (covered by it) or after it (left in the
/// log), so the snapshot plus the replayed suffix account for every batch
/// exactly once and reproduce the live state.
fn snapshot_under_load_on<R: TxRuntime>() {
    let label = R::LABEL;
    let dir = TempDir::new("txkv-snap-load");
    let store = boot::<R>(
        dir.path(),
        &config(
            FsyncPolicy::Group(std::time::Duration::from_millis(1)),
            CrashPoints::disabled(),
        ),
    )
    .unwrap();
    let taken = std::thread::scope(|scope| {
        for thread in 0..3u64 {
            let store = &store;
            scope.spawn(move || {
                let mut session = store.session();
                let mut rng = TestRng::new(0x5AFE ^ thread);
                for _ in 0..20 {
                    session.batch(gen_batch(&mut rng, 6)).unwrap();
                }
            });
        }
        let store = &store;
        scope
            .spawn(move || {
                while store.durable_lsn() < 20 {
                    std::thread::yield_now();
                }
                store.snapshot().unwrap()
            })
            .join()
            .unwrap()
    });
    assert!(taken >= 20, "{label}: the snapshot missed acked batches");
    let live = dump(&store);
    assert_eq!(store.durable_lsn(), 60, "{label}: every batch acked");
    drop(store);

    let reopened = boot::<R>(
        dir.path(),
        &config(FsyncPolicy::Always, CrashPoints::disabled()),
    )
    .unwrap();
    let report = reopened.recovery();
    assert_eq!(report.snapshot_lsn, Some(taken), "{label}");
    assert_eq!(
        taken + report.replayed_records,
        60,
        "{label}: snapshot and log suffix must cover each batch once"
    );
    assert_eq!(dump(&reopened), live, "{label}: recovered state diverges");
    reopened
        .store()
        .check_consistency(&mut reopened.server().direct())
        .unwrap();
}

#[test]
fn snapshot_taken_while_writers_commit_recovers_the_live_state() {
    with_default_watchdog(|| {
        snapshot_under_load_on::<SwisstmRuntime>();
        snapshot_under_load_on::<TlstmRuntime>();
        snapshot_under_load_on::<SeqRefRuntime>();
    });
}

/// Population is non-transactional and unlogged by design: without a
/// snapshot it does not survive a restart (recovery replays the log onto an
/// empty store). With a snapshot it does.
#[test]
fn populate_is_volatile_until_snapshotted() {
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-populate");
        let cfg = config(FsyncPolicy::Always, CrashPoints::disabled());
        let store = DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &cfg).unwrap();
        store.populate((0..32u64).map(|k| (k, vec![k, k])));
        let mut session = store.session();
        session.put(100, vec![1]).unwrap();
        drop(session);
        drop(store);

        // Without a snapshot the populated base is gone; the logged put
        // replays onto an empty store.
        let reopened = DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &cfg).unwrap();
        assert_eq!(dump(&reopened), vec![(100, vec![1])]);
        reopened.populate((0..32u64).map(|k| (k, vec![k, k])));
        reopened.snapshot().unwrap();
        drop(reopened);

        let reopened = DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &cfg).unwrap();
        assert_eq!(reopened.recovery().snapshot_lsn, Some(1));
        assert_eq!(dump(&reopened).len(), 33, "snapshot persists the base");
    });
}

/// Read-only batches skip the log entirely: no LSN is consumed, nothing is
/// appended, and they still work after the writer dies.
#[test]
fn read_only_batches_bypass_the_wal() {
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-readonly");
        let crash = CrashPoints::disabled();
        let store = DurableKvStore::<SwisstmRuntime>::boot(
            dir.path(),
            &config(FsyncPolicy::Always, crash.clone()),
        )
        .unwrap();
        let mut session = store.session();
        session.put(5, vec![50]).unwrap();
        let replies = session
            .batch(vec![
                KvOp::Get { key: 5 },
                KvOp::Scan {
                    lo: 0,
                    hi: 10,
                    limit: 10,
                },
            ])
            .unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(store.durable_lsn(), 1, "reads consumed no LSN");

        // Kill the writer; reads keep working, writes fail.
        crash.arm(crash_points::BEFORE_APPEND);
        assert_eq!(session.put(6, vec![60]).unwrap_err(), WalError::Crashed);
        assert_eq!(session.get(5), Some(vec![50]));
        assert_eq!(session.put(7, vec![70]).unwrap_err(), WalError::Crashed);
    });
}
