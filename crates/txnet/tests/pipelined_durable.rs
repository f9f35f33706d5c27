//! The durable serving path pipelines: a serving thread commits rounds in
//! memory, parks their replies behind the WAL's durable watermark and keeps
//! executing, so the rounds committed while one fsync is in flight share the
//! next fsync.
//!
//! Every test runs the store over a `FaultFs`, sends one blocking write, and
//! then *holds* the WAL's next fsync (`FaultPlan::hold`): the first round
//! sent after that is written and stays parked in its fsync for as long as
//! the test needs, with no clock, while the serving thread commits and parks
//! whatever is sent next. The tests wait for the serving thread on its
//! counters, not on sleeps. Contracts:
//!
//! * overlap — 4 × 64 pipelined puts are acknowledged under at most 2 fsyncs
//!   (rounds 2–4 are committed while round 1's fsync is held and share the
//!   next one; one fsync per round took 4), and no reply leaves while the
//!   fsync is held;
//! * no early ack, in order — no reply, a read's and a typed protocol
//!   error's included, is received before the watermark covers every write
//!   this connection had committed ahead of it, and replies keep the request
//!   order across parked rounds;
//! * a WAL crash point with two rounds parked: rounds the last successful
//!   fsync covered are answered OK, the others `ERR_WAL`; the connection
//!   stays open, reads keep serving, and a reboot recovers a request-order
//!   prefix holding every acknowledged write.

use std::io::{self, Write};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use swisstm::SwisstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FaultFs, FaultPlan, FsyncPolicy, KvOp, KvReply,
    KvServerConfig, KvStoreParams, RefStore, StorageOp,
};
use txlog::crash_points;
use txmem::TxConfig;
use txnet::{
    encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig, RemoteError,
    ERR_WAL,
};
use txobs::metrics::{NetSnapshot, WalSnapshot};

const SHARDS: u64 = 8;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the client listens for a reply that must not come. Only a
/// failure can depend on it: a broken server might answer after it.
const QUIET: Duration = Duration::from_millis(20);

type Runtime = SwisstmRuntime;

/// The tests read process-wide WAL and net counters; one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn durable_config(crash_points: CrashPoints, fs: &FaultFs) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: SHARDS,
                expected_keys: 1024,
            },
            // One shard-group: a coalesced round applies its requests in
            // request order, so the oracle is a plain sequential replay.
            batch_tasks: 1,
            tx: TxConfig::small(),
        },
        fsync: FsyncPolicy::default(),
        crash_points,
        fs: Arc::new(fs.clone()),
        ..DurableKvConfig::default()
    }
}

/// The rig's fault plan. Dropping it lifts every latch, so a failing
/// assertion cannot leave the WAL writer parked and the store's drop
/// waiting for it.
struct Plan(FaultPlan);

impl Deref for Plan {
    type Target = FaultPlan;

    fn deref(&self) -> &FaultPlan {
        &self.0
    }
}

impl Drop for Plan {
    fn drop(&mut self) {
        self.0.clear();
    }
}

struct Rig {
    plan: Plan,
    dir: TempDir,
    store: Arc<DurableKvStore<Runtime>>,
    net: NetServer,
    client: NetClient,
}

/// Boots a store over a [`FaultFs`] and a one-thread server, connects, and
/// sends one blocking write (key 0).
fn rig(crash_points: CrashPoints) -> Rig {
    let dir = TempDir::new("txnet-pipelined");
    let fs = FaultFs::new();
    let plan = Plan(fs.plan());
    let store = Arc::new(
        DurableKvStore::<Runtime>::boot(dir.path(), &durable_config(crash_points, &fs))
            .expect("boot failed"),
    );
    let config = NetServerConfig {
        threads: 1,
        ..NetServerConfig::default()
    };
    let net = NetServer::serve_durable(Arc::clone(&store), ("127.0.0.1", 0), &config)
        .expect("bind failed");
    let mut client = NetClient::connect(net.addr()).expect("connect failed");
    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    assert!(client.put(0, vec![0]).expect("first write"));
    assert_eq!(store.durable_lsn(), 1);
    Rig {
        plan,
        dir,
        store,
        net,
        client,
    }
}

fn put(key: u64) -> KvOp {
    KvOp::Put {
        key,
        value: vec![key * 7, key],
    }
}

/// What a reboot of the rig's directory recovers.
fn reboot(rig: Rig) -> Vec<(u64, Vec<u64>)> {
    let Rig {
        plan,
        dir,
        store,
        net,
        client,
    } = rig;
    drop(plan);
    drop(client);
    net.shutdown();
    drop(Arc::into_inner(store).expect("the serving thread is joined"));
    let recovered = DurableKvStore::<Runtime>::boot(
        dir.path(),
        &durable_config(CrashPoints::disabled(), &FaultFs::new()),
    )
    .expect("recovery failed");
    let dump = recovered
        .store()
        .dump(&mut recovered.server().direct())
        .expect("direct dump cannot abort");
    dump
}

/// The net and WAL counters when a test started sending. They are
/// process-wide; the tests run one at a time.
struct Since {
    net: NetSnapshot,
    wal: WalSnapshot,
}

impl Since {
    fn now() -> Since {
        Since {
            net: txobs::metrics::net().snapshot(),
            wal: txobs::metrics::wal().snapshot(),
        }
    }

    /// The net and WAL counters' growth since [`Since::now`].
    fn deltas(&self) -> (NetSnapshot, WalSnapshot) {
        // The net counters first: a round counts as executed before its
        // record is appended.
        let net = txobs::metrics::net().snapshot().delta_since(&self.net);
        let wal = txobs::metrics::wal().snapshot().delta_since(&self.wal);
        (net, wal)
    }

    /// Polls the counters until `done` holds (the watchdog bounds the wait).
    fn wait_until(&self, done: impl Fn(&NetSnapshot, &WalSnapshot) -> bool) {
        loop {
            let (net, wal) = self.deltas();
            if done(&net, &wal) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Asserts that no reply byte has reached the client.
fn assert_no_reply(rig: &mut Rig, why: &str) {
    let stream = rig.client.stream();
    stream.set_read_timeout(Some(QUIET)).unwrap();
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    match peeked {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) => {}
        other => panic!("{why}: a reply arrived while the fsync was held ({other:?})"),
    }
}

/// The oracle after the rig's first write and then `puts`, in order.
fn oracle_after(puts: &[u64]) -> Vec<(u64, Vec<u64>)> {
    let mut oracle = RefStore::new(SHARDS);
    oracle.put(0, &[0]);
    for &key in puts {
        oracle.apply(&put(key));
    }
    oracle.dump()
}

#[test]
fn rounds_written_during_one_fsync_share_the_next() {
    with_default_watchdog(|| {
        let _serial = serial();
        const ROUNDS: u64 = 4;
        const PER_ROUND: u64 = 64; // the default coalescing window
        let mut rig = rig(CrashPoints::disabled());

        let since = Since::now();
        rig.plan.hold(StorageOp::Fsync);
        let mut wire = Vec::new();
        for id in 1..=ROUNDS * PER_ROUND {
            wire.extend_from_slice(&encode_frame(id, &encode_request(&[put(id)])));
        }
        rig.client
            .stream()
            .write_all(&wire)
            .expect("pipelined write");
        // Round 1 is written and its fsync held; every later round is
        // committed and appended behind it.
        rig.plan.wait_held(StorageOp::Fsync);
        since.wait_until(|net, wal| {
            net.coalesced_requests == ROUNDS * PER_ROUND && wal.enqueued == net.coalesced_batches
        });
        assert_eq!(rig.store.durable_lsn(), 1, "the fsync is held");
        assert_no_reply(&mut rig, "every round is parked");
        rig.plan.release(StorageOp::Fsync);

        for id in 1..=ROUNDS * PER_ROUND {
            let (got, result) = rig.client.recv().expect("pipelined recv");
            assert_eq!(got, id, "replies must keep the request order");
            assert_eq!(result.expect("put reply"), vec![KvReply::Inserted(true)]);
        }
        let (net, wal) = since.deltas();

        assert_eq!(net.coalesced_requests, ROUNDS * PER_ROUND);
        assert!(
            net.coalesced_batches >= ROUNDS,
            "a round holds at most {PER_ROUND} requests, got {} rounds",
            net.coalesced_batches
        );
        assert_eq!(wal.enqueued, net.coalesced_batches, "one record per round");
        assert!(
            wal.fsyncs <= 2,
            "{} rounds took {} fsyncs: the rounds committed during one fsync did not share the next",
            net.coalesced_batches,
            wal.fsyncs
        );
        assert_eq!(rig.store.durable_lsn(), 1 + net.coalesced_batches);
        let keys: Vec<u64> = (1..=ROUNDS * PER_ROUND).collect();
        assert_eq!(reboot(rig), oracle_after(&keys));
    });
}

#[test]
fn no_reply_leaves_before_the_writes_ahead_of_it_are_durable() {
    with_default_watchdog(|| {
        let _serial = serial();
        let mut rig = rig(CrashPoints::disabled());
        let since = Since::now();
        rig.plan.hold(StorageOp::Fsync);
        // One round per request: the next is sent once the serving thread
        // has decoded this one, and `records` is the WAL's count after it.
        let mut send = |id: u64, payload: Vec<u8>, records: u64| {
            rig.client
                .stream()
                .write_all(&encode_frame(id, &payload))
                .expect("send");
            since.wait_until(|net, wal| net.requests == id && wal.enqueued == records);
        };

        // Four rounds, all parked behind the held fsync of the first: a
        // write (LSN 1), a read of it, an undecodable payload, a second
        // write (LSN 2) — and a fifth request decoded after the watermark
        // moved.
        send(1, encode_request(&[put(5)]), 1);
        rig.plan.wait_held(StorageOp::Fsync);
        send(2, encode_request(&[KvOp::Get { key: 5 }]), 1);
        send(3, vec![9], 1); // bad protocol version: a payload-level error
        send(4, encode_request(&[put(6)]), 2);
        assert_eq!(
            rig.store.durable_lsn(),
            1,
            "the fsync is held: nothing new may be durable yet"
        );
        assert_no_reply(&mut rig, "four rounds are parked");
        rig.plan.release(StorageOp::Fsync);

        let mut expect = |id: u64, covers: u64| -> Result<Vec<KvReply>, RemoteError> {
            let (got, result) = rig.client.recv().expect("recv");
            assert_eq!(got, id, "replies must keep the request order");
            assert!(
                rig.store.durable_lsn() >= covers,
                "reply {id} left before LSN {} was durable",
                covers - 1
            );
            result
        };
        assert_eq!(expect(1, 2), Ok(vec![KvReply::Inserted(true)]));
        assert_eq!(expect(2, 2), Ok(vec![KvReply::Value(Some(vec![35, 5]))]));
        assert_eq!(expect(3, 2).unwrap_err().code, 4);
        assert_eq!(expect(4, 3), Ok(vec![KvReply::Inserted(true)]));

        assert_eq!(rig.client.get(6).expect("read"), Some(vec![42, 6]));
        assert_eq!(reboot(rig), oracle_after(&[5, 6]));
    });
}

/// Sends two writes as two rounds (keys 1 and 2) that meet `point` in one
/// batch, and returns their results. A blocker write (key 0, its value
/// unchanged) goes first and its fsync is held, so both rounds are
/// committed and appended behind it; the writer then writes them as one
/// batch, and `point` is armed while that write is held.
fn two_parked_rounds_meet(
    rig: &mut Rig,
    crash: &CrashPoints,
    point: &str,
) -> Vec<Result<Vec<KvReply>, RemoteError>> {
    const BLOCKER: u64 = 99;
    let since = Since::now();
    rig.plan.hold(StorageOp::Fsync);
    let blocker = KvOp::Put {
        key: 0,
        value: vec![0],
    };
    rig.client
        .stream()
        .write_all(&encode_frame(BLOCKER, &encode_request(&[blocker])))
        .expect("send");
    rig.plan.wait_held(StorageOp::Fsync);
    for id in 1..=2 {
        rig.client
            .stream()
            .write_all(&encode_frame(id, &encode_request(&[put(id)])))
            .expect("send");
        since.wait_until(|net, wal| net.requests == 1 + id && wal.enqueued == 1 + id);
    }
    rig.plan.hold(StorageOp::Write);
    rig.plan.release(StorageOp::Fsync);
    rig.plan.wait_held(StorageOp::Write);
    crash.arm(point);
    rig.plan.release(StorageOp::Write);

    let (got, result) = rig.client.recv().expect("recv");
    assert_eq!(got, BLOCKER, "{point}: replies must keep the request order");
    assert_eq!(result, Ok(vec![KvReply::Inserted(false)]), "{point}");
    let results = (1..=2)
        .map(|id| {
            let (got, result) = rig.client.recv().expect("recv");
            assert_eq!(got, id, "{point}: replies must keep the request order");
            result
        })
        .collect();
    assert!(rig.store.is_dead(), "{point}");
    assert_eq!(crash.fired(), Some(point.to_string()));
    results
}

/// After the writer died: the connection is open, reads serve the in-memory
/// state, writes are refused with the typed error.
fn assert_degraded_service(rig: &mut Rig, point: &str) {
    assert_eq!(
        rig.client.get(2).expect("degraded read"),
        Some(vec![14, 2]),
        "{point}"
    );
    match rig.client.batch(&[put(3)]) {
        Err(NetError::Remote(remote)) => assert_eq!(remote.code, ERR_WAL, "{point}"),
        other => panic!("{point}: a dead log must refuse writes with ERR_WAL, got {other:?}"),
    }
    assert_eq!(rig.client.get(3).expect("degraded read"), None, "{point}");
}

#[test]
fn parked_rounds_the_last_fsync_covered_are_acknowledged_when_the_writer_dies() {
    with_default_watchdog(|| {
        let _serial = serial();
        let point = crash_points::AFTER_FSYNC_BEFORE_ACK;
        let crash = CrashPoints::disabled();
        let mut rig = rig(crash.clone());
        // Both rounds are written when their fsync runs; the writer dies
        // right after it returned, before the ack.
        let results = two_parked_rounds_meet(&mut rig, &crash, point);
        for result in results {
            assert_eq!(result, Ok(vec![KvReply::Inserted(true)]));
        }
        assert_degraded_service(&mut rig, point);
        assert_eq!(reboot(rig), oracle_after(&[1, 2]));
    });
}

#[test]
fn parked_rounds_no_fsync_covered_get_err_wal_when_the_writer_dies() {
    with_default_watchdog(|| {
        let _serial = serial();
        let point = crash_points::AFTER_APPEND_BEFORE_FSYNC;
        let crash = CrashPoints::disabled();
        let mut rig = rig(crash.clone());
        // Both rounds are written; the writer dies right after the write,
        // before any fsync covers either.
        let results = two_parked_rounds_meet(&mut rig, &crash, point);
        for result in results {
            assert_eq!(result.unwrap_err().code, ERR_WAL);
        }
        assert_degraded_service(&mut rig, point);
        // Nothing past the blocker (key 0, its value unchanged) was
        // acknowledged; either unsynced record may have reached the file,
        // in order.
        let recovered = reboot(rig);
        assert!(
            [&[][..], &[1], &[1, 2]]
                .iter()
                .any(|prefix| recovered == oracle_after(prefix)),
            "not a request-order prefix holding the acknowledged write: {recovered:?}"
        );
    });
}
