//! Torn-tail corruption matrix: a crash can leave the final frame of the
//! newest segment in any half-written or bit-damaged state. For a small log
//! this test truncates the file at **every** byte offset of the final frame
//! and flips **every** bit of its header and CRC; recovery must never panic,
//! must stop at the last valid LSN, and must preserve every earlier record.

use std::path::Path;

use tlstm_testutil::TempDir;
use txlog::frame::{encode_frame_into, FRAME_HEADER_LEN, FRAME_MAGIC};
use txlog::{files, recover};

/// Builds a segment of `n` records with distinct payload lengths and returns
/// `(bytes, frame boundaries)` — `boundaries[i]` is the byte offset where
/// record `i`'s frame starts; the file ends at `boundaries[n]`.
fn build_log(n: u64) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0];
    for lsn in 0..n {
        let payload: Vec<u8> = (0..(7 + lsn * 3)).map(|i| (lsn * 31 + i) as u8).collect();
        encode_frame_into(&mut bytes, FRAME_MAGIC, lsn, &payload);
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

fn write_log(dir: &Path, bytes: &[u8]) {
    std::fs::write(files::segment_path(dir, 0), bytes).unwrap();
}

/// Recovery of a log whose final frame was damaged must yield exactly the
/// records before it, and repair the file so a re-scan is clean.
fn assert_recovers_prefix(dir: &Path, want_records: u64, context: &str) {
    let log = recover(dir).unwrap_or_else(|e| panic!("{context}: recovery errored: {e}"));
    assert_eq!(log.next_lsn, want_records, "{context}: wrong replay stop");
    assert_eq!(log.records.len() as u64, want_records, "{context}");
    for (i, (lsn, _)) in log.records.iter().enumerate() {
        assert_eq!(*lsn, i as u64, "{context}: records must stay dense");
    }
    // The repair must leave a cleanly scannable file.
    let again = recover(dir).unwrap();
    assert_eq!(again.next_lsn, want_records, "{context}: repair not clean");
    assert!(
        again.diagnostics.is_empty(),
        "{context}: {:?}",
        again.diagnostics
    );
}

#[test]
fn truncation_at_every_byte_offset_of_the_final_frame() {
    let records = 4u64;
    let (bytes, boundaries) = build_log(records);
    let last_start = boundaries[records as usize - 1];
    let dir = TempDir::new("txlog-torn");
    for cut in last_start..bytes.len() {
        write_log(dir.path(), &bytes[..cut]);
        // cut == last_start removes the final frame exactly; anything past it
        // leaves a torn frame that must be discarded the same way.
        assert_recovers_prefix(dir.path(), records - 1, &format!("cut at byte {cut}"));
    }
    // The untouched log recovers fully.
    write_log(dir.path(), &bytes);
    assert_recovers_prefix(dir.path(), records, "no truncation");
}

#[test]
fn every_bit_flip_in_the_final_frame_header_and_crc() {
    let records = 3u64;
    let (bytes, boundaries) = build_log(records);
    let last_start = boundaries[records as usize - 1];
    let dir = TempDir::new("txlog-torn");
    // The header (magic, len, lsn) and the CRC field itself.
    for offset in last_start..last_start + FRAME_HEADER_LEN {
        for bit in 0..8u8 {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 1 << bit;
            write_log(dir.path(), &corrupt);
            assert_recovers_prefix(
                dir.path(),
                records - 1,
                &format!("flip byte {offset} bit {bit}"),
            );
        }
    }
}

#[test]
fn every_bit_flip_in_the_final_frame_payload() {
    let records = 3u64;
    let (bytes, boundaries) = build_log(records);
    let last_start = boundaries[records as usize - 1] + FRAME_HEADER_LEN;
    let dir = TempDir::new("txlog-torn");
    for offset in last_start..bytes.len() {
        for bit in 0..8u8 {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 1 << bit;
            write_log(dir.path(), &corrupt);
            assert_recovers_prefix(
                dir.path(),
                records - 1,
                &format!("flip payload byte {offset} bit {bit}"),
            );
        }
    }
}

/// The same torn-tail shapes, produced end-to-end by the fault injector
/// instead of post-hoc file surgery: an ENOSPC short write halfway through a
/// frame, whose cleanup truncation also fails, leaves a genuinely torn
/// segment straight from the writer — recovery must repair it identically.
/// The batch the fault lands on varies, so the torn frame sits at different
/// offsets and behind different numbers of acked records each round.
#[test]
fn fault_injected_short_writes_produce_repairable_torn_tails() {
    use std::sync::Arc;
    use tlstm_testutil::CrashPoints;
    use txlog::{
        Fault, FaultError, FaultFs, FsyncPolicy, LogWriter, RetryPolicy, StorageOp, WalError,
        WalOptions,
    };

    for fail_at in 0..4u64 {
        let context = format!("short write on record {fail_at}");
        let dir = TempDir::new("txlog-torn-fault");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let writer = LogWriter::open(
            dir.path(),
            &WalOptions {
                start_lsn: 0,
                fsync: FsyncPolicy::Always,
                crash_points: CrashPoints::disabled(),
                preallocate_bytes: 64 * 1024,
                fs: Arc::new(fs),
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
        for lsn in 0..fail_at {
            let payload: Vec<u8> = (0..(7 + lsn * 3)).map(|i| (lsn * 31 + i) as u8).collect();
            writer.append(lsn, payload).unwrap().wait().unwrap();
        }
        plan.arm(StorageOp::Write, Fault::once(FaultError::Enospc).short());
        plan.arm(StorageOp::SetLen, Fault::forever(FaultError::Eio));
        let payload: Vec<u8> = (0..64).collect();
        let outcome = writer.append(fail_at, payload).unwrap().wait();
        assert_eq!(
            outcome,
            Err(WalError::storage(
                StorageOp::Write,
                std::io::ErrorKind::StorageFull
            )),
            "{context}"
        );
        drop(writer);
        assert_recovers_prefix(dir.path(), fail_at, &context);
    }
}

#[test]
fn corruption_in_a_middle_frame_discards_everything_after_it() {
    // Not a torn tail, but the same "stop at the last valid LSN" rule: a
    // damaged middle frame invalidates it and everything behind it (the log
    // is only trusted as a dense prefix).
    let records = 5u64;
    let (bytes, boundaries) = build_log(records);
    let dir = TempDir::new("txlog-torn");
    let mid_start = boundaries[2];
    let mut corrupt = bytes.clone();
    corrupt[mid_start + FRAME_HEADER_LEN] ^= 0x01; // payload byte of record 2
    write_log(dir.path(), &corrupt);
    assert_recovers_prefix(dir.path(), 2, "mid-frame corruption");
}
