//! The on-disk format, byte for byte, and the operation tag table.
//!
//! The hex literals were written by the first WAL format. A segment and a
//! snapshot from that format must still decode, and today's encoders must
//! still write exactly those bytes — any change to either is a format change
//! and must bump the payload version.

use tlstm_testutil::TempDir;
use txkv::durable::{decode_record, decode_snapshot, encode_record, BatchRecord};
use txkv::{
    decode_op, encode_op, DurableKvConfig, DurableKvStore, KvOp, KvServerConfig, KvStoreParams,
    OpDecodeError,
};
use txlog::codec::Cursor;
use txlog::frame::{encode_frame_into, FRAME_MAGIC};
use txmem::{SeqRefRuntime, TxConfig};

/// Two log frames, LSN 0 and 1, holding the records of [`golden_batches`]
/// (shards 2, groups 2).
const GOLDEN_SEGMENT: &str = concat!(
    "54584c474700000000000000000000007e15b5d40100000002000000000000000200",
    "00000300000001070000000000000002000000010000000000000002000000000000",
    "000209000000000000000101000000000000000000000054584c473d000000010000",
    "000000000088b5be9e0100000002000000000000000200000001000000030700000000",
    "0000000200000001000000000000000200000000000000010000000300000000000000",
);

/// The snapshot payload of a two-shard store after replaying
/// [`GOLDEN_SEGMENT`]: key 1 → `[]` in shard 0, key 7 → `[3]` in shard 1.
const GOLDEN_SNAPSHOT: &str = concat!(
    "0100000002000000000000000000000000000000000000000000000001000000000000",
    "0002000000000000000100000000000000000000000700000000000000010000000300",
    "000000000000",
);

/// Put, Delete and Cas, with the reads a record drops around them.
fn golden_batches() -> [Vec<KvOp>; 2] {
    [
        vec![
            KvOp::Put {
                key: 7,
                value: vec![1, 2],
            },
            KvOp::Get { key: 3 },
            KvOp::Delete { key: 9 },
            KvOp::Put {
                key: 1,
                value: vec![],
            },
        ],
        vec![
            KvOp::Cas {
                key: 7,
                expected: vec![1, 2],
                new: vec![3],
            },
            KvOp::Scan {
                lo: 0,
                hi: 10,
                limit: 4,
            },
        ],
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn wal_and_snapshot_bytes_match_the_golden_format() {
    let segment = unhex(GOLDEN_SEGMENT);
    let mut encoded = Vec::new();
    for (lsn, ops) in golden_batches().iter().enumerate() {
        encode_frame_into(
            &mut encoded,
            FRAME_MAGIC,
            lsn as u64,
            &encode_record(2, 2, ops),
        );
    }
    assert_eq!(encoded, segment, "the WAL encoding changed");

    let scan = txlog::read_frames(&segment);
    assert_eq!(scan.truncation, None);
    let decoded: Vec<BatchRecord> = scan
        .records
        .iter()
        .map(|(_, payload)| decode_record(payload).expect("a golden record"))
        .collect();
    let records: Vec<BatchRecord> = golden_batches()
        .into_iter()
        .map(|ops| BatchRecord {
            shards: 2,
            groups: 2,
            ops: ops
                .into_iter()
                .filter(|op| !matches!(op, KvOp::Get { .. } | KvOp::Scan { .. }))
                .collect(),
        })
        .collect();
    assert_eq!(decoded, records);

    // A store booted from the golden segment snapshots the golden payload.
    let dir = TempDir::new("txkv-golden");
    std::fs::write(txlog::files::segment_path(dir.path(), 0), &segment).unwrap();
    let config = DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: 2,
                expected_keys: 16,
            },
            batch_tasks: 2,
            tx: TxConfig::small(),
        },
        ..DurableKvConfig::default()
    };
    let store = DurableKvStore::<SeqRefRuntime>::boot(dir.path(), &config).unwrap();
    assert_eq!(store.recovery().replayed_records, 2);
    assert_eq!(store.snapshot().unwrap(), 2);
    let (_, path) = txlog::list_snapshots(dir.path()).unwrap().remove(0);
    let snapshot = unhex(GOLDEN_SNAPSHOT);
    assert_eq!(
        txlog::read_snapshot(&path),
        Some((2, snapshot.clone())),
        "the snapshot encoding changed"
    );
    assert_eq!(
        decode_snapshot(&snapshot),
        Some(vec![(1, vec![]), (7, vec![3])])
    );
}

#[test]
fn op_tags_are_pinned_and_decoding_never_panics() {
    let [first, second] = golden_batches();
    // Tags 1-3 are the WAL's; the reads follow them.
    let tagged = [(1, &first[0]), (4, &first[1]), (2, &first[2])]
        .into_iter()
        .chain([(3, &second[0]), (5, &second[1])]);
    for (tag, op) in tagged {
        let mut bytes = Vec::new();
        encode_op(&mut bytes, op);
        assert_eq!(bytes[0], tag, "{op:?}");
        let mut cur = Cursor::new(&bytes);
        assert_eq!(decode_op(&mut cur).as_ref(), Ok(op));
        assert!(cur.done());
        for cut in 0..bytes.len() {
            let got = decode_op(&mut Cursor::new(&bytes[..cut]));
            assert_eq!(got, Err(OpDecodeError::Truncated), "{op:?} cut at {cut}");
        }
    }
    for tag in [0, 6, 200] {
        let bytes = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
        let got = decode_op(&mut Cursor::new(&bytes));
        assert_eq!(got, Err(OpDecodeError::UnknownTag(tag)));
    }
}
