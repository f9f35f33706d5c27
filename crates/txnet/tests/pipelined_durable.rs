//! The durable serving path pipelines: a serving thread commits rounds in
//! memory, parks their replies behind the WAL's durable watermark and keeps
//! executing, so the rounds of one sync interval share one fsync.
//!
//! Every test runs the store under `FsyncPolicy::Group(250 ms)` and first
//! sends one blocking write: its acknowledgement restarts the interval
//! clock, so whatever is sent next is committed at once and stays parked for
//! the best part of 250 ms — long enough for the test to line several
//! rounds up behind one fsync. Contracts:
//!
//! * overlap — 4 × 64 pipelined puts are acknowledged within 2 intervals
//!   under at most 2 fsyncs (one fsync per round took 4 fsyncs, 3 intervals);
//! * no early ack, in order — no reply, a read's and a typed protocol
//!   error's included, is received before the watermark covers every write
//!   this connection had committed ahead of it, and replies keep the request
//!   order across parked rounds;
//! * a WAL crash point with two rounds parked: rounds the last successful
//!   fsync covered are answered OK, the others `ERR_WAL`; the connection
//!   stays open, reads keep serving, and a reboot recovers a request-order
//!   prefix holding every acknowledged write.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FsyncPolicy, KvOp, KvReply, KvServerConfig,
    KvStoreParams, RefStore,
};
use txlog::crash_points;
use txmem::TxConfig;
use txnet::{
    encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig, RemoteError,
    ERR_WAL,
};

const SHARDS: u64 = 8;
const INTERVAL: Duration = Duration::from_millis(250);
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Far longer than the 200 µs poll sleep: a frame sent this long ago has
/// been decoded, executed and parked.
const ROUND_GAP: Duration = Duration::from_millis(20);

type Runtime = SwisstmRuntime;

/// The tests read process-wide WAL and net counters; one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn durable_config(crash_points: CrashPoints) -> DurableKvConfig {
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
        fsync: FsyncPolicy::Group(INTERVAL),
        crash_points,
        ..DurableKvConfig::default()
    }
}

struct Rig {
    dir: TempDir,
    store: Arc<DurableKvStore<Runtime>>,
    net: NetServer,
    client: NetClient,
}

/// Boots a store and a one-thread server, connects, and sends the blocking
/// write (key 0) that restarts the group-commit interval.
fn rig(crash_points: CrashPoints) -> Rig {
    let dir = TempDir::new("txnet-pipelined");
    let store = Arc::new(
        DurableKvStore::<Runtime>::boot(dir.path(), &durable_config(crash_points))
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
    assert!(client.put(0, vec![0]).expect("interval-restarting write"));
    assert_eq!(store.durable_lsn(), 1);
    Rig {
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
        dir,
        store,
        net,
        client,
    } = rig;
    drop(client);
    net.shutdown();
    drop(Arc::into_inner(store).expect("the serving thread is joined"));
    let recovered =
        DurableKvStore::<Runtime>::boot(dir.path(), &durable_config(CrashPoints::disabled()))
            .expect("recovery failed");
    let dump = recovered
        .store()
        .dump(&mut recovered.server().direct())
        .expect("direct dump cannot abort");
    dump
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
fn four_rounds_of_one_interval_share_one_fsync() {
    with_default_watchdog(|| {
        let _serial = serial();
        const ROUNDS: u64 = 4;
        const PER_ROUND: u64 = 64; // the default coalescing window
        let mut rig = rig(CrashPoints::disabled());

        let wal_before = txobs::metrics::wal().snapshot();
        let net_before = txobs::metrics::net().snapshot();
        let started = Instant::now();
        let mut wire = Vec::new();
        for id in 1..=ROUNDS * PER_ROUND {
            wire.extend_from_slice(&encode_frame(id, &encode_request(&[put(id)])));
        }
        rig.client
            .stream()
            .write_all(&wire)
            .expect("pipelined write");
        for id in 1..=ROUNDS * PER_ROUND {
            let (got, result) = rig.client.recv().expect("pipelined recv");
            assert_eq!(got, id, "replies must keep the request order");
            assert_eq!(result.expect("put reply"), vec![KvReply::Inserted(true)]);
        }
        let elapsed = started.elapsed();
        let wal = txobs::metrics::wal().snapshot().delta_since(&wal_before);
        let net = txobs::metrics::net().snapshot().delta_since(&net_before);

        assert_eq!(net.coalesced_requests, ROUNDS * PER_ROUND);
        assert!(
            net.coalesced_batches >= ROUNDS,
            "a round holds at most {PER_ROUND} requests, got {} rounds",
            net.coalesced_batches
        );
        assert_eq!(wal.enqueued, net.coalesced_batches, "one record per round");
        assert!(
            wal.fsyncs <= 2,
            "{} rounds took {} fsyncs: they did not overlap the sync interval",
            net.coalesced_batches,
            wal.fsyncs
        );
        assert!(
            elapsed < 2 * INTERVAL,
            "{} rounds took {elapsed:?}: the serving thread waited out an fsync per round",
            net.coalesced_batches
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
        let mut send = |id: u64, payload: Vec<u8>| {
            rig.client
                .stream()
                .write_all(&encode_frame(id, &payload))
                .expect("send");
            std::thread::sleep(ROUND_GAP);
        };

        // Four rounds, all parked behind the next group fsync: a write
        // (LSN 1), a read of it, an undecodable payload, a second write
        // (LSN 2) — and a fifth request decoded after the watermark moved.
        let sent = Instant::now();
        send(1, encode_request(&[put(5)]));
        send(2, encode_request(&[KvOp::Get { key: 5 }]));
        send(3, vec![9]); // bad protocol version: a payload-level error
        send(4, encode_request(&[put(6)]));
        assert_eq!(
            rig.store.durable_lsn(),
            1,
            "the interval has not elapsed: nothing new may be durable yet"
        );

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
        assert!(
            sent.elapsed() >= INTERVAL / 2,
            "the first write was acknowledged before the group fsync could have run"
        );
        assert_eq!(expect(2, 2), Ok(vec![KvReply::Value(Some(vec![35, 5]))]));
        assert_eq!(expect(3, 2).unwrap_err().code, 4);
        assert_eq!(expect(4, 3), Ok(vec![KvReply::Inserted(true)]));

        assert_eq!(rig.client.get(6).expect("read"), Some(vec![42, 6]));
        assert_eq!(reboot(rig), oracle_after(&[5, 6]));
    });
}

/// Sends two writes as two rounds (keys 1 and 2) with `point` armed before
/// the first (`arm_before` = 1) or the second (= 2), and returns their
/// results.
fn two_parked_rounds_meet(
    rig: &mut Rig,
    crash: &CrashPoints,
    point: &str,
    arm_before: u64,
) -> Vec<Result<Vec<KvReply>, RemoteError>> {
    for id in 1..=2 {
        if id == arm_before {
            crash.arm(point);
        }
        rig.client
            .stream()
            .write_all(&encode_frame(id, &encode_request(&[put(id)])))
            .expect("send");
        std::thread::sleep(ROUND_GAP);
    }
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
        // Both rounds are written when the group fsync runs; the writer dies
        // right after it returned, before the ack.
        let results = two_parked_rounds_meet(&mut rig, &crash, point, 1);
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
        // Round 1 is written and parked; the writer dies right after
        // writing round 2, an interval before any fsync would cover either.
        let results = two_parked_rounds_meet(&mut rig, &crash, point, 2);
        for result in results {
            assert_eq!(result.unwrap_err().code, ERR_WAL);
        }
        assert_degraded_service(&mut rig, point);
        // Nothing past the first write was acknowledged; either unsynced
        // record may have reached the file, in order.
        let recovered = reboot(rig);
        assert!(
            [&[][..], &[1], &[1, 2]]
                .iter()
                .any(|prefix| recovered == oracle_after(prefix)),
            "not a request-order prefix holding the acknowledged write: {recovered:?}"
        );
    });
}
