//! Protocol fuzz / torn-frame matrix over a live server, mirroring
//! `txlog/tests/torn_tail.rs` for the wire instead of the disk.
//!
//! The containment contract under test (ISSUE 10, satellite): every
//! truncation offset and every single-bit flip of a request frame yields a
//! typed protocol error and a live connection (payload-level corruption
//! inside a CRC-valid frame) or a clean connection close (frame-level
//! corruption) — never a panic, never a desynced reply stream. The server
//! keeps serving other connections throughout, and a typed error reply takes
//! its place in the request order: it travels through the same round FIFO as
//! the replies around it.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tlstm_testutil::with_default_watchdog;
use txkv::{KvOp, KvReply, KvServer, KvServerConfig};
use txlog::frame::encode_frame_into;
use txmem::SeqRefRuntime;
use txnet::{encode_frame, encode_request, NetClient, NetError, NetServer, NetServerConfig};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server() -> NetServer {
    let server = Arc::new(KvServer::<SeqRefRuntime>::new(&KvServerConfig::default()));
    let config = NetServerConfig {
        threads: 1,
        ..NetServerConfig::default()
    };
    NetServer::serve(server, ("127.0.0.1", 0), &config).expect("loopback bind failed")
}

/// One valid request frame (a single `Put`) to truncate and flip.
fn sample_frame() -> Vec<u8> {
    encode_frame(
        42,
        &encode_request(&[KvOp::Put {
            key: 5,
            value: vec![0xABCD],
        }]),
    )
}

/// Writes `bytes`, half-closes the write side, and returns everything the
/// server sent back before closing. A reset counts as a close (the server
/// dropped the socket); anything else — notably a read timeout, which would
/// mean the server is wedged — panics with `context`.
fn send_and_drain(addr: SocketAddr, bytes: &[u8], context: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("{context}: {e}"));
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream
        .write_all(bytes)
        .unwrap_or_else(|e| panic!("{context}: write: {e}"));
    stream
        .shutdown(Shutdown::Write)
        .unwrap_or_else(|e| panic!("{context}: shutdown: {e}"));
    let mut got = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("{context}: read: {e} (server wedged?)"),
        }
    }
}

/// A full round-trip on a fresh connection — the liveness probe run after
/// each corruption barrage.
fn assert_server_alive(addr: SocketAddr, key: u64) {
    let mut client = NetClient::connect(addr).expect("reconnect failed");
    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    client
        .put(key, vec![key * 3])
        .expect("put after corruption");
    assert_eq!(
        client.get(key).expect("get after corruption"),
        Some(vec![key * 3])
    );
}

#[test]
fn every_truncation_of_a_request_frame_closes_cleanly() {
    with_default_watchdog(|| {
        let server = start_server();
        let addr = server.addr();
        let frame = sample_frame();
        // A truncated frame is an incomplete prefix: the server waits for
        // the rest, sees EOF instead, and closes without replying. No cut
        // may elicit reply bytes (that would be a desync) or wedge the
        // server (that would be the torn-tail livelock this matrix guards
        // against on disk).
        for cut in 0..frame.len() {
            let context = format!("truncation at {cut}");
            let got = send_and_drain(addr, &frame[..cut], &context);
            assert!(got.is_empty(), "{context}: unsolicited reply {got:?}");
        }
        assert_server_alive(addr, 7001);
        server.shutdown();
    });
}

#[test]
fn every_single_bit_flip_of_a_request_frame_is_contained() {
    with_default_watchdog(|| {
        let server = start_server();
        let addr = server.addr();
        let frame = sample_frame();
        // CRC32 detects every single-bit error, so no flip can smuggle a
        // mutated request through: each one is either a frame-level error
        // (bad magic, bad CRC, oversized length) that closes the
        // connection, or an inflated length claim the server waits out
        // until our half-close EOFs it. Either way: zero reply bytes.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let context = format!("bit flip at byte {byte} bit {bit}");
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                let got = send_and_drain(addr, &flipped, &context);
                assert!(got.is_empty(), "{context}: unsolicited reply {got:?}");
            }
        }
        assert_server_alive(addr, 7002);
        server.shutdown();
    });
}

#[test]
fn garbage_and_desynced_streams_close_cleanly() {
    with_default_watchdog(|| {
        let server = start_server();
        let addr = server.addr();
        // Arbitrary garbage (bad magic immediately).
        let garbage: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        assert!(send_and_drain(addr, &garbage, "garbage").is_empty());
        // A valid frame followed by garbage: the request is answered, then
        // the stream desyncs and the connection closes — the reply bytes we
        // do get must decode as exactly one well-formed reply frame.
        let mut mixed = sample_frame();
        mixed.extend_from_slice(b"!!!!this is not a frame");
        let got = send_and_drain(addr, &mixed, "frame then garbage");
        match txnet::decode_frame(&got, txnet::DEFAULT_MAX_FRAME_LEN) {
            Ok(txnet::FrameDecode::Frame {
                req_id,
                payload,
                consumed,
            }) => {
                assert_eq!(req_id, 42);
                assert_eq!(consumed, got.len(), "trailing bytes after the reply");
                assert!(txnet::decode_reply(payload).expect("reply decodes").is_ok());
            }
            other => panic!("frame then garbage: expected one reply frame, got {other:?}"),
        }
        assert_server_alive(addr, 7003);
        server.shutdown();
    });
}

#[test]
fn a_log_frame_on_the_socket_closes_the_connection() {
    with_default_watchdog(|| {
        let server = start_server();
        // A valid WAL record frame: right CRC, wrong stream.
        let mut record = Vec::new();
        let payload = encode_request(&[KvOp::Get { key: 1 }]);
        encode_frame_into(&mut record, txlog::frame::FRAME_MAGIC, 42, &payload);
        assert!(send_and_drain(server.addr(), &record, "log frame").is_empty());
        assert_server_alive(server.addr(), 7005);
        server.shutdown();
    });
}

#[test]
fn payload_level_corruption_gets_a_typed_reply_on_a_live_connection() {
    with_default_watchdog(|| {
        let server = start_server();
        let addr = server.addr();
        let mut client = NetClient::connect(addr).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // Corrupt payloads wrapped in CRC-valid frames: the request-id is
        // trustworthy, so the server must answer each with its typed error
        // code — on the same connection, which stays usable afterwards.
        let bad_version = vec![9u8];
        let unknown_tag = {
            let mut p = encode_request(&[]);
            p[1..5].copy_from_slice(&1u32.to_le_bytes());
            p.push(200); // tag 200 is not an op
            p.extend_from_slice(&5u64.to_le_bytes());
            p
        };
        let truncated_op = {
            let mut p = encode_request(&[KvOp::Get { key: 1 }]);
            p.truncate(p.len() - 3); // op body cut short inside the payload
            p
        };
        let trailing_byte = {
            let mut p = encode_request(&[KvOp::Get { key: 1 }]);
            p.push(0);
            p
        };
        let cases: [(&str, Vec<u8>, u8); 4] = [
            ("bad version", bad_version, 4),
            ("unknown tag", unknown_tag, 5),
            ("truncated op", truncated_op, 6),
            ("trailing byte", trailing_byte, 6),
        ];
        let mut req_id = 1_000u64;
        for (name, payload, want_code) in cases {
            req_id += 1;
            client
                .stream()
                .write_all(&encode_frame(req_id, &payload))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (got_id, result) = client.recv().unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert_eq!(got_id, req_id, "{name}: reply routed to the wrong request");
            let remote = result.expect_err(name);
            assert_eq!(remote.code, want_code, "{name}: {}", remote.message);
            // Same connection, next request: still live, still correct.
            client
                .put(req_id, vec![req_id])
                .unwrap_or_else(|e| panic!("{name}: connection died: {e:?}"));
        }

        // Frame-level corruption on this same connection *does* close it …
        let mut bad_magic = sample_frame();
        bad_magic[0] = b'X';
        client
            .stream()
            .write_all(&bad_magic)
            .expect("write bad magic");
        match client.recv() {
            Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {}
            Err(NetError::Io(e)) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("bad magic should close the connection, got {other:?}"),
        }
        // … but the server itself keeps serving.
        assert_server_alive(addr, 7004);
        server.shutdown();
    });
}

#[test]
fn interleaved_good_and_bad_pipelined_requests_are_answered_in_request_order() {
    with_default_watchdog(|| {
        let server = start_server();
        let mut client = NetClient::connect(server.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // One write, so the frames reach the server together and are decoded
        // in one pass: executed requests and rejected ones share a round.
        // An error reply queued at decode time would overtake the replies of
        // the good requests ahead of it.
        let bad_version = vec![9u8];
        let trailing_byte = {
            let mut p = encode_request(&[KvOp::Get { key: 1 }]);
            p.push(0);
            p
        };
        let stream: [(u64, Vec<u8>, Option<u8>); 7] = [
            (
                1,
                encode_request(&[KvOp::Put {
                    key: 1,
                    value: vec![11],
                }]),
                None,
            ),
            (2, bad_version.clone(), Some(4)),
            (3, encode_request(&[KvOp::Get { key: 1 }]), None),
            (4, trailing_byte, Some(6)),
            (5, bad_version, Some(4)),
            (
                6,
                encode_request(&[KvOp::Put {
                    key: 1,
                    value: vec![12],
                }]),
                None,
            ),
            (7, encode_request(&[KvOp::Get { key: 1 }]), None),
        ];
        let mut wire = Vec::new();
        for (req_id, payload, _) in &stream {
            wire.extend_from_slice(&encode_frame(*req_id, payload));
        }
        client.stream().write_all(&wire).expect("pipelined write");
        let mut gets = Vec::new();
        for (req_id, _, want_code) in &stream {
            let (got_id, result) = client.recv().expect("pipelined recv");
            assert_eq!(got_id, *req_id, "replies must keep the request order");
            match (result, want_code) {
                (Err(remote), Some(code)) => assert_eq!(remote.code, *code, "request {req_id}"),
                (Ok(replies), None) => gets.extend(replies),
                (other, _) => panic!("request {req_id}: unexpected reply {other:?}"),
            }
        }
        // The good requests executed in order around the rejected ones.
        assert_eq!(
            gets,
            vec![
                KvReply::Inserted(true),
                KvReply::Value(Some(vec![11])),
                KvReply::Inserted(false),
                KvReply::Value(Some(vec![12])),
            ]
        );
        server.shutdown();
    });
}

#[test]
fn a_rejected_requests_decoded_prefix_never_executes() {
    with_default_watchdog(|| {
        let server = start_server();
        let mut client = NetClient::connect(server.addr()).expect("connect failed");
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();

        // The middle request's first op decodes, its second has no valid
        // tag: the whole request is rejected, and the `Put` that did decode
        // must not run with the round it was decoded into.
        let rejected = {
            let mut p = encode_request(&[KvOp::Put {
                key: 1,
                value: vec![99],
            }]);
            p[1..5].copy_from_slice(&2u32.to_le_bytes());
            p.push(200); // tag 200 is not an op
            p
        };
        let requests = [
            encode_request(&[KvOp::Put {
                key: 1,
                value: vec![11],
            }]),
            rejected,
            encode_request(&[KvOp::Get { key: 1 }]),
        ];
        // One write: the three frames reach the server together and are
        // decoded into one round, the rejected request's prefix included.
        let mut wire = Vec::new();
        for (req_id, payload) in (1u64..).zip(&requests) {
            wire.extend_from_slice(&encode_frame(req_id, payload));
        }
        client.stream().write_all(&wire).expect("pipelined write");

        let (id, put) = client.recv().expect("put reply");
        assert_eq!((id, put), (1, Ok(vec![KvReply::Inserted(true)])));
        let (id, rejected) = client.recv().expect("rejected reply");
        assert_eq!(id, 2);
        let remote = rejected.expect_err("a request with a bad tag must be rejected");
        // `UnknownTag` (5) or `Malformed` (6): a payload-level error.
        assert!(
            [5, 6].contains(&remote.code),
            "code {}: {}",
            remote.code,
            remote.message
        );
        let (id, get) = client.recv().expect("get reply");
        assert_eq!(
            (id, get),
            (3, Ok(vec![KvReply::Value(Some(vec![11]))])),
            "the rejected request's decoded Put executed"
        );
        server.shutdown();
    });
}
