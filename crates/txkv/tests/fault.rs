//! Graceful degradation under injected disk faults (ISSUE 8 acceptance
//! demo): a storage failure moves the store to `Health::Degraded` — the
//! in-flight batch gets the typed root cause, later writes fail fast
//! *before* their in-memory commit, reads keep serving the committed state
//! (oracle-checked), and `try_rearm` restores full write service in place
//! once the fault clears. An injected *crash* is `Health::Failed` and
//! deliberately not re-armable.

use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

use swisstm::SwisstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir, TestRng};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, Fault, FaultError, FaultFs, FsyncPolicy, Health,
    KvOp, KvServerConfig, KvStoreParams, RefStore, RetryPolicy, StorageOp, WalError,
};
use txlog::crash_points;
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 8;
const GROUPS: usize = 4;

/// Counts every panic anywhere in the process: degradation must be made of
/// typed errors, not an unwinding writer thread.
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn install_panic_counter() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            previous(info);
        }));
    });
}

fn config(fs: &FaultFs, fsync: FsyncPolicy) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: SHARDS,
                expected_keys: 256,
            },
            batch_tasks: GROUPS,
            tx: TxConfig::small(),
        },
        fsync,
        crash_points: CrashPoints::disabled(),
        fs: Arc::new(fs.clone()),
        // No retries: the first injected error is surfaced as-is, so the
        // tests can pin exact outcomes (the retry path itself is covered by
        // txlog's fault matrix).
        retry: RetryPolicy::none(),
    }
}

fn clean_config(fsync: FsyncPolicy) -> DurableKvConfig {
    config(&FaultFs::new(), fsync)
}

/// One seeded batch whose first op is always a write, so every batch is
/// logged and batch index == LSN for a single session.
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

/// Replays `batches` through the oracle.
fn oracle(batches: &[Vec<KvOp>]) -> RefStore {
    let mut oracle = RefStore::new(SHARDS);
    for ops in batches {
        oracle.batch(ops, GROUPS);
    }
    oracle
}

/// The log directory must never hold partial snapshot residue.
fn assert_no_stray_files(dir: &Path, context: &str) {
    for entry in std::fs::read_dir(dir).expect("log dir must be readable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "{context}: stray temp file {name}");
    }
}

/// The full degradation story, on both fsync policies: healthy prefix →
/// storage fault → typed error on the in-flight batch → fail-fast refusals
/// that never touch storage or state → oracle-checked reads → failed rearm
/// while the fault persists → successful rearm after it clears → writes
/// resume through the *same* sessions → a restart agrees with the oracle.
fn degradation_demo_on<R: TxRuntime>(fsync: FsyncPolicy) {
    let context = format!("{}/{fsync}", R::LABEL);
    let dir = TempDir::new("txkv-fault");
    let fs = FaultFs::new();
    let plan = fs.plan();
    let store = DurableKvStore::<R>::boot(dir.path(), &config(&fs, fsync))
        .unwrap_or_else(|e| panic!("{context}: boot failed: {e}"));
    let mut session = store.session();
    let mut rng = TestRng::new(0xFA0172);

    // Phase 1: a healthy, acknowledged prefix.
    let mut applied = Vec::new();
    for _ in 0..4 {
        let ops = gen_batch(&mut rng, 10);
        applied.push(ops.clone());
        session
            .batch(ops)
            .unwrap_or_else(|e| panic!("{context}: healthy batch failed: {e}"));
    }
    assert_eq!(store.health(), Health::Healthy, "{context}");
    assert_eq!(store.durable_lsn(), 4, "{context}");

    // Phase 2: the disk starts failing every write. The in-flight batch
    // gets the root cause; its in-memory commit stands (the oracle includes
    // it), but it is not acknowledged as durable.
    plan.arm(StorageOp::Write, Fault::forever(FaultError::Eio));
    let ops = gen_batch(&mut rng, 10);
    applied.push(ops.clone());
    assert_eq!(
        session.batch(ops).unwrap_err(),
        WalError::storage(StorageOp::Write, ErrorKind::Other),
        "{context}: in-flight batch must carry the root cause"
    );
    assert_eq!(
        store.health(),
        Health::Degraded(WalError::storage(StorageOp::Write, ErrorKind::Other)),
        "{context}"
    );
    assert!(store.is_dead(), "{context}");
    assert_eq!(
        store.durable_lsn(),
        4,
        "{context}: failed write must not ack"
    );

    // Phase 3: later writes are refused up front — no storage traffic, no
    // in-memory commit, no sequence number consumed.
    let touched = plan.fired_count(StorageOp::Write);
    for _ in 0..3 {
        let refused = gen_batch(&mut rng, 10); // deliberately NOT in `applied`
        assert_eq!(
            session.batch(refused).unwrap_err(),
            WalError::Degraded,
            "{context}: degraded writes must fail fast"
        );
    }
    assert_eq!(
        plan.fired_count(StorageOp::Write),
        touched,
        "{context}: refusals must not touch storage"
    );

    // Phase 4: reads keep serving the committed in-memory state, checked
    // against the oracle — gets, scans, and read-only batches all work.
    let expect = oracle(&applied);
    assert_eq!(dump(&store), expect.dump(), "{context}: degraded state");
    for (key, value) in expect.dump().into_iter().take(8) {
        assert_eq!(session.get(key), Some(value), "{context}: degraded get");
    }
    assert_eq!(
        session.scan(0, 64, 100),
        expect.scan(0, 64, 100),
        "{context}: degraded scan"
    );
    session
        .batch(vec![
            KvOp::Get { key: 1 },
            KvOp::Scan {
                lo: 0,
                hi: 9,
                limit: 4,
            },
        ])
        .unwrap_or_else(|e| panic!("{context}: read-only batch refused: {e}"));

    // Phase 5: snapshots are refused with the typed root cause, before any
    // file is created; a rearm attempt while the fault persists fails and
    // leaves the store degraded — and neither leaves partial files behind.
    let error = store.snapshot().unwrap_err();
    assert_eq!(error.kind(), ErrorKind::Other, "{context}: {error}");
    assert!(
        txlog::list_snapshots(dir.path()).unwrap().is_empty(),
        "{context}: refused snapshot left a file"
    );
    assert!(store.try_rearm().is_err(), "{context}: fault still armed");
    assert_ne!(store.health(), Health::Healthy, "{context}");
    assert_no_stray_files(dir.path(), &context);

    // Phase 6: the fault clears; rearm snapshots the full committed state
    // (including the never-acknowledged batch) onto a fresh segment and
    // restores service — through the sessions that already exist.
    plan.clear();
    assert!(store.try_rearm().unwrap(), "{context}: rearm must succeed");
    assert_eq!(store.health(), Health::Healthy, "{context}");
    assert!(!store.is_dead(), "{context}");
    let ops = gen_batch(&mut rng, 10);
    applied.push(ops.clone());
    session
        .batch(ops)
        .unwrap_or_else(|e| panic!("{context}: post-rearm batch failed: {e}"));
    assert_eq!(dump(&store), oracle(&applied).dump(), "{context}");
    assert_eq!(store.durable_lsn(), 6, "{context}: 5 logged + 1 post-rearm");
    drop(session);
    drop(store);

    // Phase 7: a restart recovers through the rearm snapshot to the exact
    // oracle state.
    let recovered = DurableKvStore::<R>::boot(dir.path(), &clean_config(fsync))
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(recovered.recovery().snapshot_lsn, Some(5), "{context}");
    assert_eq!(
        dump(&recovered),
        oracle(&applied).dump(),
        "{context}: restart diverges from the oracle"
    );
    recovered
        .store()
        .check_consistency(&mut recovered.server().direct())
        .unwrap();
}

#[test]
fn a_storage_fault_degrades_reads_survive_and_rearm_restores_service() {
    install_panic_counter();
    with_default_watchdog(|| {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::Group(std::time::Duration::from_millis(1)),
        ] {
            degradation_demo_on::<SwisstmRuntime>(fsync);
            degradation_demo_on::<SeqRefRuntime>(fsync);
        }
    });
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "degradation must be typed errors, not panics"
    );
}

/// A failed fsync degrades the store without ever acknowledging the batch
/// the fsync should have covered (the fsyncgate rule, surfaced at the store
/// level), and the store re-arms once the disk recovers.
#[test]
fn a_failed_fsync_degrades_without_acking() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-fault-fsync");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let store =
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &config(&fs, FsyncPolicy::Always))
                .unwrap();
        let mut session = store.session();
        let mut rng = TestRng::new(0xF57C);
        let mut applied = Vec::new();
        for _ in 0..3 {
            let ops = gen_batch(&mut rng, 8);
            applied.push(ops.clone());
            session.batch(ops).unwrap();
        }
        plan.arm(StorageOp::Fsync, Fault::once(FaultError::Enospc));
        let ops = gen_batch(&mut rng, 8);
        applied.push(ops.clone());
        assert_eq!(
            session.batch(ops).unwrap_err(),
            WalError::storage(StorageOp::Fsync, ErrorKind::StorageFull)
        );
        assert_eq!(
            store.durable_lsn(),
            3,
            "a failed fsync must never advance the acknowledged prefix"
        );
        assert_eq!(
            store.health(),
            Health::Degraded(WalError::storage(StorageOp::Fsync, ErrorKind::StorageFull))
        );
        // The fault budget is already spent, so the rearm goes through
        // directly and the store serves again.
        assert!(store.try_rearm().unwrap());
        let ops = gen_batch(&mut rng, 8);
        applied.push(ops.clone());
        session.batch(ops).unwrap();
        assert_eq!(dump(&store), oracle(&applied).dump());
    });
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

/// Restarting a degraded store *without* re-arming recovers exactly the
/// acknowledged prefix: the failed record never reached the log, so the
/// un-acked in-memory commit is gone — the documented contract.
#[test]
fn restart_without_rearm_recovers_the_acked_prefix() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-fault-restart");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let store =
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &config(&fs, FsyncPolicy::Always))
                .unwrap();
        let mut session = store.session();
        let mut rng = TestRng::new(0x2E57A27);
        let mut acked = Vec::new();
        for _ in 0..3 {
            let ops = gen_batch(&mut rng, 8);
            acked.push(ops.clone());
            session.batch(ops).unwrap();
        }
        plan.arm(StorageOp::Write, Fault::forever(FaultError::Eio));
        let err = session.batch(gen_batch(&mut rng, 8)).unwrap_err();
        assert_eq!(err, WalError::storage(StorageOp::Write, ErrorKind::Other));
        drop(session);
        drop(store);

        let recovered =
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &clean_config(FsyncPolicy::Always))
                .unwrap();
        assert_eq!(recovered.recovery().next_lsn, 3);
        assert_eq!(dump(&recovered), oracle(&acked).dump());
    });
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

/// A crashed writer is `Health::Failed`: reads still serve, but rearm is
/// refused — an injected crash simulates process death, and only a restart
/// plus recovery brings the store back.
#[test]
fn a_crashed_store_refuses_rearm() {
    install_panic_counter();
    with_default_watchdog(|| {
        let dir = TempDir::new("txkv-fault-crash");
        let crash = CrashPoints::disabled();
        let mut cfg = clean_config(FsyncPolicy::Always);
        cfg.crash_points = crash.clone();
        let store = DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &cfg).unwrap();
        let mut session = store.session();
        session.put(1, vec![10]).unwrap();
        crash.arm(crash_points::BEFORE_APPEND);
        assert_eq!(session.put(2, vec![20]).unwrap_err(), WalError::Crashed);
        assert_eq!(store.health(), Health::Failed);
        // Every later write is `Crashed` (not `Degraded`): the process
        // "died", nothing was merely poisoned.
        assert_eq!(session.put(3, vec![30]).unwrap_err(), WalError::Crashed);
        assert_eq!(session.get(1), Some(vec![10]), "reads must survive");
        assert!(store.try_rearm().is_err());
        let error = store.snapshot().unwrap_err();
        assert_eq!(error.kind(), ErrorKind::Other, "{error}");
        assert_no_stray_files(dir.path(), "crashed snapshot");
    });
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}
