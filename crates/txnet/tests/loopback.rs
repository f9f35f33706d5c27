//! Loopback conformance: the network front-end against the `RefStore`
//! oracle, on every runtime.
//!
//! Five contracts:
//!
//! * concurrent clients' interleaved batches observe exactly the semantics
//!   of applying each batch atomically — every reply matches the oracle;
//! * pipelined requests genuinely coalesce: N requests share fewer than N
//!   STM commits;
//! * the durable path survives an injected WAL crash point with dense LSNs —
//!   every acknowledged write is recovered, degraded reads keep serving
//!   over the wire, and a recovered store serves the network again;
//! * a peer that pipelines requests without reading its replies cannot make
//!   the server grow: it stops being read from at the write buffer's soft
//!   limit, is closed at the hard limit, and other connections keep being
//!   served throughout;
//! * a request whose reply would exceed the frame limit executes and is
//!   answered with a typed error, on a connection that stays usable.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{with_default_watchdog, TempDir, TestRng};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FsyncPolicy, KvOp, KvReply, KvServer,
    KvServerConfig, KvStoreParams, RefStore,
};
use txlog::crash_points;
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};
use txnet::{
    encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig,
    DEFAULT_MAX_FRAME_LEN, ERR_REPLY_TOO_LARGE, ERR_WAL, WRITE_BUF_HARD_LIMIT,
};

const SHARDS: u64 = 8;
const GROUPS: usize = 4;
const CLIENTS: u64 = 4;
const BATCHES_PER_CLIENT: usize = 30;
const KEYS_PER_CLIENT: u64 = 64;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn kv_config() -> KvServerConfig {
    KvServerConfig {
        store: KvStoreParams {
            shards: SHARDS,
            expected_keys: 512,
        },
        batch_tasks: GROUPS,
        tx: TxConfig::small(),
    }
}

fn net_config(threads: usize) -> NetServerConfig {
    NetServerConfig {
        threads,
        ..NetServerConfig::default()
    }
}

/// One random batch confined to `[base, base + KEYS_PER_CLIENT)` — client
/// key ranges are disjoint, so per-client replies are sequentially
/// consistent against a per-client oracle regardless of interleaving.
fn gen_batch(rng: &mut TestRng, base: u64, ops: usize) -> Vec<KvOp> {
    let mut batch = Vec::with_capacity(ops);
    for _ in 0..ops {
        let key = base + rng.below(KEYS_PER_CLIENT);
        let value = |rng: &mut TestRng| -> Vec<u64> { (0..2).map(|_| rng.next_u64()).collect() };
        let op = match rng.below(100) {
            0..=29 => KvOp::Get { key },
            30..=64 => KvOp::Put {
                key,
                value: value(rng),
            },
            65..=74 => KvOp::Delete { key },
            75..=89 => KvOp::Cas {
                key,
                expected: value(rng),
                new: value(rng),
            },
            _ => KvOp::Scan {
                lo: key,
                hi: (key + 9).min(base + KEYS_PER_CLIENT - 1),
                limit: 8,
            },
        };
        batch.push(op);
    }
    batch
}

fn conformance_on<R: TxRuntime>() {
    let label = R::LABEL;
    let server = Arc::new(KvServer::<R>::new(&kv_config()));
    let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config(2))
        .unwrap_or_else(|e| panic!("{label}: bind failed: {e}"));
    let addr = net.addr();

    // Concurrent clients on disjoint key ranges; each records its submitted
    // batches and the replies the server sent back.
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("client connect");
            client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            let mut rng = TestRng::new(0xC0FFEE ^ c);
            let base = c * 1_000;
            let mut log = Vec::with_capacity(BATCHES_PER_CLIENT);
            for _ in 0..BATCHES_PER_CLIENT {
                let ops = gen_batch(&mut rng, base, 8);
                let replies = client.batch(&ops).expect("batch over loopback");
                log.push((ops, replies));
            }
            log
        }));
    }
    let logs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    net.shutdown();

    // Per-client reply conformance, and a merged oracle for the final state
    // (disjoint ranges make the merge order irrelevant).
    let mut merged = RefStore::new(SHARDS);
    for (c, log) in logs.iter().enumerate() {
        let mut oracle = RefStore::new(SHARDS);
        for (batch_index, (ops, replies)) in log.iter().enumerate() {
            let want = oracle.batch(ops, GROUPS);
            assert_eq!(
                replies, &want,
                "{label}: client {c} batch {batch_index} diverges from the oracle"
            );
            merged.batch(ops, GROUPS);
        }
    }
    let mut got = server
        .store()
        .dump(&mut server.direct())
        .expect("direct dump cannot abort");
    let mut want = merged.dump();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "{label}: final store state diverges from the oracle"
    );
}

#[test]
fn concurrent_clients_match_the_oracle_on_every_runtime() {
    with_default_watchdog(|| {
        conformance_on::<SwisstmRuntime>();
        conformance_on::<TlstmRuntime>();
        conformance_on::<SeqRefRuntime>();
    });
}

#[test]
fn pipelined_requests_coalesce_into_fewer_commits() {
    with_default_watchdog(|| {
        const PIPELINED: u64 = 64;
        let server = Arc::new(KvServer::<SeqRefRuntime>::new(&kv_config()));
        let net = NetServer::serve(Arc::clone(&server), ("127.0.0.1", 0), &net_config(1))
            .expect("bind failed");
        let mut client = NetClient::connect(net.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // All frames in one write: they arrive together, so the single
        // serving thread decodes (most of) them in one poll iteration and
        // executes them as (nearly) one coalesced store batch.
        let commits_before = server.stats().tx_commits;
        let mut wire = Vec::new();
        for id in 1..=PIPELINED {
            wire.extend_from_slice(&encode_frame(
                id,
                &encode_request(&[KvOp::Put {
                    key: id,
                    value: vec![id * 7],
                }]),
            ));
        }
        client.stream().write_all(&wire).expect("pipelined write");
        for id in 1..=PIPELINED {
            let (got_id, result) = client.recv().expect("pipelined recv");
            assert_eq!(got_id, id, "replies must come back in execution order");
            assert_eq!(result.expect("put reply"), vec![KvReply::Inserted(true)]);
        }
        let commits = server.stats().tx_commits - commits_before;
        assert!(commits >= 1, "at least one batch must have committed");
        assert!(
            commits < PIPELINED,
            "{PIPELINED} pipelined requests took {commits} commits — no coalescing happened"
        );
        net.shutdown();
    });
}

#[test]
fn durable_loopback_survives_a_crash_point_with_dense_lsns() {
    with_default_watchdog(|| {
        let dir = TempDir::new("txnet-crash");
        let crash = CrashPoints::disabled();
        let config = DurableKvConfig {
            server: kv_config(),
            fsync: FsyncPolicy::Always,
            crash_points: crash.clone(),
            ..DurableKvConfig::default()
        };
        let store = Arc::new(
            DurableKvStore::<SwisstmRuntime>::boot(dir.path(), &config).expect("boot failed"),
        );
        let net = NetServer::serve_durable(Arc::clone(&store), ("127.0.0.1", 0), &net_config(1))
            .expect("bind failed");
        let mut client = NetClient::connect(net.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // A healthy prefix of acknowledged write batches (the first op is
        // always a write, so each one is logged and carries one LSN — the
        // client is sequential, so no coalescing blurs the count).
        let mut rng = TestRng::new(0xBEEF);
        let mut batches = Vec::new();
        let mut acked = 0u64;
        for _ in 0..6 {
            let mut ops = vec![KvOp::Put {
                key: rng.below(KEYS_PER_CLIENT),
                value: vec![rng.next_u64()],
            }];
            ops.extend(gen_batch(&mut rng, 0, 5));
            batches.push(ops.clone());
            client.batch(&ops).expect("acked write batch");
            acked += 1;
        }
        assert_eq!(store.durable_lsn(), acked);

        // The armed crash point kills the WAL writer mid-frame: the client
        // gets the typed durability error, not a hang and not a close.
        crash.arm(crash_points::MID_FRAME);
        let doomed = vec![KvOp::Put {
            key: 1,
            value: vec![0xDEAD],
        }];
        match client.batch(&doomed) {
            Err(NetError::Remote(remote)) => {
                assert_eq!(remote.code, ERR_WAL, "{}", remote.message);
            }
            other => panic!("crashed WAL must yield an ERR_WAL reply, got {other:?}"),
        }
        assert!(store.is_dead());
        assert_eq!(crash.fired(), Some(crash_points::MID_FRAME.to_string()));

        // Degraded mode over the wire: reads keep serving on the same
        // connection, writes keep being refused with the typed error.
        let acked_key = match &batches[0][0] {
            KvOp::Put { key, .. } => *key,
            _ => unreachable!("first op is always a put"),
        };
        assert!(client.get(acked_key).expect("degraded read").is_some());
        match client.batch(&doomed) {
            Err(NetError::Remote(remote)) => assert_eq!(remote.code, ERR_WAL),
            other => panic!("degraded write must yield ERR_WAL, got {other:?}"),
        }

        drop(client);
        net.shutdown();
        drop(store);

        // Recovery: the torn tail is discarded, LSNs are dense — exactly
        // the acknowledged batches are replayed, nothing skipped.
        let recovered = DurableKvStore::<SwisstmRuntime>::boot(
            dir.path(),
            &DurableKvConfig {
                server: kv_config(),
                fsync: FsyncPolicy::Always,
                crash_points: CrashPoints::disabled(),
                ..DurableKvConfig::default()
            },
        )
        .expect("recovery failed");
        let report = recovered.recovery().clone();
        assert_eq!(
            report.next_lsn, acked,
            "acknowledged writes lost or duplicated"
        );
        assert_eq!(report.replayed_records, acked, "LSNs are not dense");
        assert!(
            report.diagnostics.iter().any(|d| d.contains("torn tail")),
            "expected a torn-tail diagnostic, got {:?}",
            report.diagnostics
        );
        let mut oracle = RefStore::new(SHARDS);
        for ops in &batches {
            oracle.batch(ops, GROUPS);
        }
        let mut got = recovered
            .store()
            .dump(&mut recovered.server().direct())
            .expect("direct dump cannot abort");
        let mut want = oracle.dump();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "recovered state diverges from the acked oracle prefix"
        );

        // And the recovered store serves the network again.
        let recovered = Arc::new(recovered);
        let net =
            NetServer::serve_durable(Arc::clone(&recovered), ("127.0.0.1", 0), &net_config(1))
                .expect("re-serve failed");
        let mut client = NetClient::connect(net.addr()).expect("reconnect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        client
            .put(9_999, vec![1, 2, 3])
            .expect("post-recovery write");
        assert_eq!(
            client.get(9_999).expect("post-recovery read"),
            Some(vec![1, 2, 3])
        );
        net.shutdown();
    });
}

/// A server whose key 1 holds an 8 KiB value, so a request of `n` gets of it
/// is ~`9n` bytes and its reply `8n` KiB: replies outgrow requests 900-fold.
fn serve_big_value(max_frame_len: u32) -> NetServer {
    let server = Arc::new(KvServer::<SeqRefRuntime>::new(&KvServerConfig::default()));
    server.populate([(1, (0..1024).collect())]);
    let config = NetServerConfig {
        max_frame_len,
        ..net_config(1)
    };
    NetServer::serve(server, ("127.0.0.1", 0), &config).expect("bind failed")
}

fn big_reply_request(req_id: u64, gets: usize) -> Vec<u8> {
    encode_frame(req_id, &encode_request(&vec![KvOp::Get { key: 1 }; gets]))
}

/// A full round-trip on a fresh, well-behaved connection.
fn assert_others_are_served(net: &NetServer, key: u64) {
    let mut client = NetClient::connect(net.addr()).expect("connect failed");
    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    client
        .put(key, vec![key])
        .expect("put beside a slow reader");
    assert_eq!(
        client.get(key).expect("get beside a slow reader"),
        Some(vec![key])
    );
}

#[test]
fn a_peer_that_never_reads_stalls_itself_and_nobody_else() {
    with_default_watchdog(|| {
        // What the kernel's socket buffers can hold of the request stream
        // at most (Linux caps one at 4–6 MiB); a peer still sending beyond
        // this is being read from.
        const REQUEST_BYTES_CAP: usize = 64 << 20;
        const STALLED_FOR: Duration = Duration::from_millis(300);
        let net = serve_big_value(DEFAULT_MAX_FRAME_LEN);
        let mut greedy = TcpStream::connect(net.addr()).expect("connect failed");
        greedy.set_nonblocking(true).unwrap();

        // Pipeline 32 KiB-reply requests, never reading, until the socket
        // has refused more for a while: the server stopped reading this
        // connection. Without the soft limit it would read on — and buffer
        // 900 bytes of reply for every request byte — to the cap.
        let mut sent_bytes = 0usize;
        let mut next_id = 1u64;
        let mut frame = big_reply_request(next_id, 4);
        let mut frame_at = 0usize;
        let mut last_progress = Instant::now();
        while last_progress.elapsed() < STALLED_FOR {
            assert!(
                sent_bytes < REQUEST_BYTES_CAP,
                "the server kept reading a peer that never reads its replies"
            );
            match greedy.write(&frame[frame_at..]) {
                Ok(n) => {
                    sent_bytes += n;
                    frame_at += n;
                    last_progress = Instant::now();
                    if frame_at == frame.len() {
                        next_id += 1;
                        frame = big_reply_request(next_id, 4);
                        frame_at = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("the slow reader's connection failed: {e}"),
            }
        }
        let complete_requests = next_id - 1;

        // The stalled peer costs nobody else anything.
        assert_others_are_served(&net, 77);

        // Not closed, nothing lost: once the peer reads, its replies arrive
        // in request order and the server resumes reading its requests.
        greedy.set_nonblocking(false).unwrap();
        greedy.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut client_buf = Vec::new();
        let mut scratch = vec![0u8; 256 * 1024];
        let mut answered = 0u64;
        while answered < complete_requests.min(512) {
            let n = greedy.read(&mut scratch).expect("slow reader catching up");
            assert!(n > 0, "the server closed a connection below the hard limit");
            client_buf.extend_from_slice(&scratch[..n]);
            let mut consumed_total = 0usize;
            while let Ok(txnet::FrameDecode::Frame {
                req_id,
                payload,
                consumed,
            }) =
                txnet::decode_frame(&client_buf[consumed_total..], txnet::DEFAULT_MAX_FRAME_LEN)
            {
                answered += 1;
                assert_eq!(req_id, answered, "replies must keep the request order");
                assert_eq!(payload.get(1), Some(&0), "reply {req_id} is not OK");
                consumed_total += consumed;
            }
            client_buf.drain(..consumed_total);
        }
        net.shutdown();
    });
}

#[test]
fn a_peer_owed_more_than_the_hard_limit_is_closed() {
    with_default_watchdog(|| {
        // A reply over the frame limit is refused with ERR_REPLY_TOO_LARGE,
        // so only a server that allows frames past the hard limit can owe
        // one request that much.
        let net = serve_big_value(4 * WRITE_BUF_HARD_LIMIT as u32);
        let mut greedy = TcpStream::connect(net.addr()).expect("connect failed");

        // One request whose reply is twice the hard limit: the soft limit
        // has no say in what a single round queues, and the peer reads
        // nothing of it.
        let gets = 2 * WRITE_BUF_HARD_LIMIT / (8 * 1024);
        greedy
            .write_all(&big_reply_request(1, gets))
            .expect("oversized request");

        // The server drops the connection instead of holding the reply: the
        // peer's further requests start failing (the first few still land in
        // socket buffers).
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut next_id = 2u64;
        while greedy.write_all(&big_reply_request(next_id, 1)).is_ok() {
            assert!(
                Instant::now() < deadline,
                "the server kept a connection it owed twice the hard limit"
            );
            next_id += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_others_are_served(&net, 78);
        net.shutdown();
    });
}

#[test]
fn a_reply_over_the_frame_limit_is_a_typed_error_on_a_live_connection() {
    with_default_watchdog(|| {
        let server = Arc::new(KvServer::<SeqRefRuntime>::new(&KvServerConfig::default()));
        let net = NetServer::serve(server, ("127.0.0.1", 0), &net_config(1)).expect("bind failed");
        let mut client = NetClient::connect(net.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // An 800 KB request, legal under the 1 MiB frame limit, stores a
        // value two reads of which make a 1.6 MB reply.
        let big: Vec<u64> = (0..100_000).collect();
        assert!(client
            .put(1, big.clone())
            .expect("a request under the limit"));
        let oversized = [
            KvOp::Put {
                key: 2,
                value: vec![22],
            },
            KvOp::Get { key: 1 },
            KvOp::Get { key: 1 },
        ];
        match client.batch(&oversized) {
            Err(NetError::Remote(remote)) => {
                assert_eq!(remote.code, ERR_REPLY_TOO_LARGE, "{}", remote.message);
                assert!(
                    remote.message.contains("was executed"),
                    "{}",
                    remote.message
                );
            }
            other => panic!("an oversized reply must be a typed error, got {other:?}"),
        }

        // The same connection serves the next request, and the oversized
        // batch's write stands.
        assert_eq!(client.get(2).expect("the next request"), Some(vec![22]));
        assert_eq!(client.get(1).expect("a reply under the limit"), Some(big));
        net.shutdown();
    });
}
