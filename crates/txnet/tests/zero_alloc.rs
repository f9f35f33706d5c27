//! Counting-allocator proof that the wire codecs run in place.
//!
//! After one warm-up round, decoding a window of request frames into a
//! reserved operation list and encoding their replies and reply frames into
//! reserved buffers — the serving thread's per-request codec work — must
//! perform **zero** allocations: a frame's payload is borrowed from the
//! read buffer, a request decodes straight into the list, and a reply
//! encodes straight into its buffer.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! pollutes the global counter.

use tlstm_testutil::{thread_allocation_count as allocations, CountingAlloc};
use txkv::{KvOp, KvReply};
use txnet::{
    decode_frame, decode_request_into, encode_frame_into, encode_ok_reply_into, encode_request,
    FrameDecode, DEFAULT_MAX_FRAME_LEN,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Requests per round: the server's coalescing window.
const WINDOW: usize = 64;

/// One round of the codec work: decodes every request frame in `wire` into
/// `ops`, then encodes one reply payload per request into `payloads` and
/// its frame into `frames`. Returns how many requests it decoded.
fn round(wire: &[u8], ops: &mut Vec<KvOp>, payloads: &mut Vec<u8>, frames: &mut Vec<u8>) -> usize {
    ops.clear();
    payloads.clear();
    frames.clear();
    let mut offset = 0;
    let mut req_ids = [0u64; WINDOW];
    let mut decoded = 0;
    while let Ok(FrameDecode::Frame {
        req_id,
        payload,
        consumed,
    }) = decode_frame(&wire[offset..], DEFAULT_MAX_FRAME_LEN)
    {
        decode_request_into(payload, ops).expect("a request this test encoded");
        req_ids[decoded] = req_id;
        decoded += 1;
        offset += consumed;
    }
    for (i, req_id) in req_ids[..decoded].iter().enumerate() {
        let reply = if i % 2 == 0 {
            KvReply::Value(None)
        } else {
            KvReply::Inserted(true)
        };
        let start = payloads.len();
        encode_ok_reply_into(payloads, std::slice::from_ref(&reply));
        encode_frame_into(frames, *req_id, &payloads[start..]);
    }
    decoded
}

#[test]
fn steady_state_request_decode_and_reply_encode_allocate_nothing() {
    let mut wire = Vec::new();
    for key in 0..WINDOW as u64 {
        encode_frame_into(&mut wire, key + 1, &encode_request(&[KvOp::Get { key }]));
    }
    let mut ops = Vec::with_capacity(WINDOW);
    let mut payloads = Vec::with_capacity(WINDOW * 16);
    let mut frames = Vec::with_capacity(WINDOW * 64);

    // Warm-up: builds the CRC tables and grows the buffers, if they must.
    assert_eq!(round(&wire, &mut ops, &mut payloads, &mut frames), WINDOW);

    let before = allocations();
    let decoded = round(&wire, &mut ops, &mut payloads, &mut frames);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "decoding request frames and encoding reply frames must not allocate"
    );
    // Sanity: the round did the work it claims to.
    assert_eq!(decoded, WINDOW);
    assert_eq!(
        ops[WINDOW - 1],
        KvOp::Get {
            key: WINDOW as u64 - 1
        }
    );
    let mut offset = 0;
    for _ in 0..WINDOW {
        let Ok(FrameDecode::Frame { consumed, .. }) =
            decode_frame(&frames[offset..], DEFAULT_MAX_FRAME_LEN)
        else {
            panic!("reply frame at byte {offset} does not decode");
        };
        offset += consumed;
    }
    assert_eq!(offset, frames.len());
}
