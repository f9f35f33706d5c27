//! The split primitive of the durable session: [`DurableKvSession::submit`]
//! commits in memory and appends the redo record, the returned
//! [`CommitTicket`] says when — and whether — the batch became durable.
//!
//! The interleavings are forced, not slept for: the store's log goes through
//! a [`WalFs`] whose `fdatasync` parks at a gate the test opens, so "the
//! writer is inside the fsync that covers exactly batch A" is a state the
//! test waits for. Contracts:
//!
//! * overlap — batches submitted while an fsync is in flight wait in the
//!   writer's pending map and all land under the *next* one: 4 batches,
//!   2 fsyncs, where 4 blocking [`DurableKvSession::batch`] calls need 4;
//! * no early ack — a ticket stays pending, and `durable_lsn` stays put,
//!   until the fsync covering its record has returned;
//! * a writer that dies with several tickets outstanding resolves each by
//!   the [`CommitTicket::wait`] contract — covered by the last successful
//!   fsync → `Ok`, otherwise the root cause — and a reboot recovers a
//!   batch-boundary prefix holding every acknowledged batch.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use swisstm::SwisstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir};
use txkv::{
    CommitTicket, CrashPoints, DurableKvConfig, DurableKvSession, DurableKvStore, FsyncPolicy,
    KvOp, KvReply, KvServerConfig, KvStoreParams, RealFs, RefStore, WalError, WalFs,
};
use txlog::{crash_points, WalFile};
use txmem::TxConfig;

const SHARDS: u64 = 8;
const GROUPS: usize = 4;

type Runtime = SwisstmRuntime;

#[derive(Debug, Default)]
struct GateState {
    closed: bool,
    /// `fdatasync` calls parked at the closed gate right now.
    parked: usize,
    /// `fdatasync` calls that have returned.
    completed: usize,
}

/// A [`WalFs`] over [`RealFs`] whose files park every `sync_data` while the
/// gate is closed. `sync_all` (segment preallocation, the shutdown flush)
/// passes straight through.
#[derive(Debug, Clone, Default)]
struct GateFs {
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

impl GateFs {
    fn state(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.gate.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn close(&self) {
        self.state().closed = true;
    }

    fn open(&self) {
        self.state().closed = false;
        self.gate.1.notify_all();
    }

    /// Blocks until an fsync is parked at the closed gate.
    fn wait_for_parked_fsync(&self) {
        let mut state = self.state();
        while state.parked == 0 {
            state = self.gate.1.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn completed_fsyncs(&self) -> usize {
        self.state().completed
    }

    fn wrap(&self, inner: Box<dyn WalFile>) -> Box<dyn WalFile> {
        Box::new(GateFile {
            inner,
            fs: self.clone(),
        })
    }
}

#[derive(Debug)]
struct GateFile {
    inner: Box<dyn WalFile>,
    fs: GateFs,
}

impl WalFile for GateFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
    fn sync_data(&self) -> io::Result<()> {
        let mut state = self.fs.state();
        state.parked += 1;
        self.fs.gate.1.notify_all();
        while state.closed {
            state = self
                .fs
                .gate
                .1
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.parked -= 1;
        drop(state);
        let result = self.inner.sync_data();
        self.fs.state().completed += 1;
        result
    }
    fn sync_all(&self) -> io::Result<()> {
        self.inner.sync_all()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl WalFs for GateFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(self.wrap(RealFs.create(path)?))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(self.wrap(RealFs.open_write(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        RealFs.list_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealFs.sync_dir(dir)
    }
}

fn config(fs: Arc<dyn WalFs>, crash_points: CrashPoints) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: SHARDS,
                expected_keys: 512,
            },
            batch_tasks: GROUPS,
            tx: TxConfig::small(),
        },
        fsync: FsyncPolicy::Always,
        crash_points,
        fs,
        ..DurableKvConfig::default()
    }
}

/// Batch number `n` of the test stream: two puts and a read, distinct keys.
fn batch(n: u64) -> Vec<KvOp> {
    vec![
        KvOp::Put {
            key: n,
            value: vec![n, n * 3],
        },
        KvOp::Get { key: n },
        KvOp::Put {
            key: 100 + n,
            value: vec![n + 7],
        },
    ]
}

fn dump(store: &DurableKvStore<Runtime>) -> Vec<(u64, Vec<u64>)> {
    store
        .store()
        .dump(&mut store.server().direct())
        .expect("direct dump cannot abort")
}

/// The oracle's contents after batches `0..n`.
fn oracle_prefix(n: u64) -> Vec<(u64, Vec<u64>)> {
    let mut oracle = RefStore::new(SHARDS);
    for i in 0..n {
        oracle.batch(&batch(i), GROUPS);
    }
    oracle.dump()
}

/// The process-wide count of records handed to the WAL writer; the tests of
/// this file hold [`serial`] so only their own store moves it.
fn records_enqueued() -> u64 {
    txobs::metrics::wal().enqueued.get()
}

fn wait_for_records_enqueued(target: u64) {
    while records_enqueued() < target {
        std::thread::yield_now();
    }
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn submit_write(session: &mut DurableKvSession<Runtime>, n: u64) -> CommitTicket {
    let (replies, ticket) = session.submit(batch(n)).expect("a healthy log accepts");
    assert_eq!(replies.len(), 3, "batch {n}");
    ticket.expect("a batch with writes carries a ticket")
}

#[test]
fn batches_submitted_during_an_fsync_share_the_next_one() {
    with_default_watchdog(|| {
        let _serial = serial();
        let dir = TempDir::new("txkv-submit-overlap");
        let fs = GateFs::default();
        let store = DurableKvStore::<Runtime>::boot(
            dir.path(),
            &config(Arc::new(fs.clone()), CrashPoints::disabled()),
        )
        .expect("boot failed");
        let mut session = store.session();

        // A read-only batch never touches the log.
        let (replies, ticket) = session.submit(vec![KvOp::Get { key: 1 }]).unwrap();
        assert_eq!(replies, vec![KvReply::Value(None)]);
        assert!(ticket.is_none());

        // Batch 0 enters the log alone; the writer parks inside the fsync
        // that covers exactly it.
        let enqueued = records_enqueued();
        fs.close();
        let first = submit_write(&mut session, 0);
        fs.wait_for_parked_fsync();

        // Batches 1..4 commit while that fsync is in flight and wait for the
        // writer's next turn.
        let rest: Vec<CommitTicket> = (1..4).map(|n| submit_write(&mut session, n)).collect();
        wait_for_records_enqueued(enqueued + 4);

        // Committed in memory, acknowledged to nobody.
        assert_eq!(session.get(3), Some(vec![3, 9]));
        assert_eq!(store.durable_lsn(), 0);
        assert_eq!(first.poll(), None);
        assert!(rest.iter().all(|ticket| ticket.poll().is_none()));
        assert_eq!(
            first.wait_timeout(std::time::Duration::from_millis(1)),
            None
        );

        fs.open();
        assert_eq!(first.lsn(), 0);
        first.wait().expect("batch 0 durable");
        for ticket in rest {
            assert_eq!(ticket.clone().wait(), Ok(()));
            assert_eq!(ticket.poll(), Some(Ok(())));
        }
        assert_eq!(store.durable_lsn(), 4);
        assert_eq!(
            fs.completed_fsyncs(),
            2,
            "batch 0's fsync, then one for the three that overlapped it"
        );

        // The blocking call is submit + wait: one fsync per batch.
        for n in 4..8 {
            session.batch(batch(n)).expect("blocking batch");
        }
        assert_eq!(fs.completed_fsyncs(), 6);
        assert_eq!(dump(&store), oracle_prefix(8));
    });
}

/// A store whose acknowledged history is batches `0..acked`, with the writer
/// parked inside the fsync that covers exactly batch `acked` — whose ticket
/// is returned.
struct Rig {
    dir: TempDir,
    fs: GateFs,
    crash: CrashPoints,
    store: DurableKvStore<Runtime>,
    session: DurableKvSession<Runtime>,
}

fn rig_with_an_fsync_in_flight(acked: u64) -> (Rig, CommitTicket) {
    let dir = TempDir::new("txkv-submit-crash");
    let fs = GateFs::default();
    let crash = CrashPoints::disabled();
    let store =
        DurableKvStore::<Runtime>::boot(dir.path(), &config(Arc::new(fs.clone()), crash.clone()))
            .expect("boot failed");
    let mut session = store.session();
    for n in 0..acked {
        session.batch(batch(n)).expect("the acknowledged prefix");
    }
    fs.close();
    let in_flight = submit_write(&mut session, acked);
    fs.wait_for_parked_fsync();
    let rig = Rig {
        dir,
        fs,
        crash,
        store,
        session,
    };
    (rig, in_flight)
}

impl Rig {
    /// Checks the dead store's serving contract, drops it and returns what a
    /// reboot of the directory recovers.
    fn recover(mut self, point: &str) -> Vec<(u64, Vec<u64>)> {
        assert!(self.store.is_dead());
        assert_eq!(self.crash.fired(), Some(point.to_string()));
        // Writes are refused before they commit, reads keep serving the
        // in-memory state.
        let refused = self.session.submit(batch(3));
        assert_eq!(refused.unwrap_err(), WalError::Crashed);
        assert_eq!(self.session.get(3), None);
        assert_eq!(self.session.get(2), Some(vec![2, 6]));
        drop(self.session);
        drop(self.store);
        let recovered = DurableKvStore::<Runtime>::boot(
            self.dir.path(),
            &config(RealFs::shared(), CrashPoints::disabled()),
        )
        .expect("recovery failed");
        dump(&recovered)
    }
}

#[test]
fn a_ticket_the_last_fsync_covered_is_ok_although_the_writer_died_before_the_ack() {
    with_default_watchdog(|| {
        let _serial = serial();
        let point = crash_points::AFTER_FSYNC_BEFORE_ACK;
        let (mut rig, covered) = rig_with_an_fsync_in_flight(1);
        // Batch 2 waits for the writer while batch 1's fsync is in flight;
        // the point fires when that fsync returns, so batch 2 is never
        // written, let alone covered.
        let uncovered = submit_write(&mut rig.session, 2);
        rig.crash.arm(point);
        assert_eq!(covered.poll(), None);
        rig.fs.open();
        assert_eq!(covered.wait(), Ok(()));
        assert_eq!(uncovered.wait(), Err(WalError::Crashed));
        // Both batches an fsync covered are recovered; the unwritten one and
        // the refused one are not.
        let recovered = rig.recover(point);
        assert_eq!(
            recovered,
            oracle_prefix(2),
            "not the prefix of the covered batches"
        );
    });
}

#[test]
fn tickets_no_fsync_covered_fail_with_the_root_cause() {
    with_default_watchdog(|| {
        let _serial = serial();
        let point = crash_points::AFTER_APPEND_BEFORE_FSYNC;
        let (mut rig, acked) = rig_with_an_fsync_in_flight(0);
        // Batches 1 and 2 wait for the writer while batch 0's fsync is
        // parked at the gate. Once it returns, the writer writes the two as
        // one batch and the point fires: it dies with two tickets
        // outstanding and no fsync behind them.
        let first = submit_write(&mut rig.session, 1);
        let second = submit_write(&mut rig.session, 2);
        rig.crash.arm(point);
        rig.fs.open();
        assert_eq!(acked.wait(), Ok(()));
        assert_eq!(second.clone().wait(), Err(WalError::Crashed));
        assert_eq!(first.poll(), Some(Err(WalError::Crashed)));
        assert_eq!(
            first.wait_timeout(std::time::Duration::from_secs(60)),
            Some(Err(WalError::Crashed)),
            "a resolved ticket must not park"
        );
        // Only batch 0 was acknowledged; either unsynced record may have
        // reached the file, in order.
        let recovered = rig.recover(point);
        assert!(
            (1..=3).any(|n| recovered == oracle_prefix(n)),
            "not a prefix holding the acknowledged batch: {recovered:?}"
        );
    });
}
