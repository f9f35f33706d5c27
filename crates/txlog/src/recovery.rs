//! The recovery scan: snapshot + contiguous record suffix + tail repair.
//!
//! [`recover`] runs **before** a new [`crate::LogWriter`] is opened on a log
//! directory. It rebuilds the durable state description:
//!
//! 1. load the **newest valid snapshot** (invalid/torn ones are skipped with
//!    a diagnostic, falling back to older snapshots, then to "empty");
//! 2. replay the segments from the snapshot's LSN on, collecting the
//!    **dense** record run `base, base+1, ...` (records below the base are
//!    covered by the snapshot and skipped);
//! 3. stop at the first torn or corrupt frame — the torn tail a crash
//!    mid-append leaves — and **repair** it: the torn segment is truncated
//!    back to its last valid frame boundary and any later segment is
//!    deleted, so the next scan of the directory is clean.
//!
//! The recovery invariants the tests pin down:
//!
//! * recovery never panics, whatever the bytes on disk;
//! * the recovered records are exactly `base..next_lsn` in order — a
//!   *batch-boundary prefix* of the committed history;
//! * every record acknowledged under `fsync=always`/`group` is below
//!   `next_lsn` (acks happen only after the covering fsync).

#![deny(clippy::unwrap_used)]

use std::io;
use std::path::Path;

use crate::files::{list_segments_with, list_snapshots_with, read_snapshot_with};
use crate::frame::read_frames;
use crate::vfs::{RealFs, WalFs};

/// What [`recover`] found in a log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredLog {
    /// The newest valid snapshot, as `(lsn, payload)`: the payload covers
    /// every record with `lsn <` the snapshot LSN.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// The dense record run to replay on top of the snapshot, ascending.
    pub records: Vec<(u64, Vec<u8>)>,
    /// The LSN the next committed record must carry (pass as
    /// [`crate::WalOptions::start_lsn`]).
    pub next_lsn: u64,
    /// Human-readable notes about anything skipped, repaired or discarded.
    pub diagnostics: Vec<String>,
}

/// Scans (and, where a torn tail is found, repairs) the log directory.
/// See the module docs for the exact rules. Creates the directory if absent.
///
/// # Errors
///
/// Propagates file-system failures (unreadable directory, failed truncation).
/// Corrupt *content* is never an error — it is skipped or discarded with a
/// diagnostic.
pub fn recover(dir: &Path) -> io::Result<RecoveredLog> {
    recover_with(&RealFs, dir)
}

/// [`recover`] through an explicit [`WalFs`] (fault-injection tests drive a
/// [`crate::FaultFs`] through this).
///
/// # Errors
///
/// Propagates file-system failures (unreadable directory, failed truncation).
pub fn recover_with(fs: &dyn WalFs, dir: &Path) -> io::Result<RecoveredLog> {
    fs.create_dir_all(dir)?;
    let mut diagnostics = Vec::new();

    let mut snapshot = None;
    for (_, path) in list_snapshots_with(fs, dir)? {
        match read_snapshot_with(fs, &path) {
            Some(found) => {
                snapshot = Some(found);
                break;
            }
            None => diagnostics.push(format!(
                "ignoring invalid snapshot {} (torn or corrupt)",
                path.display()
            )),
        }
    }
    let base = snapshot.as_ref().map_or(0, |(lsn, _)| *lsn);

    let segments = list_segments_with(fs, dir)?;
    // Replay starts in the last segment that begins at or below the base;
    // earlier segments are fully covered by the snapshot.
    let start_index = segments
        .iter()
        .rposition(|&(start, _)| start <= base)
        .unwrap_or(0);

    let mut records = Vec::new();
    let mut expected = base;
    let mut stopped = false;
    for (start, path) in &segments[start_index..] {
        if stopped {
            // Anything after the stop point is unreachable history; delete it
            // so the directory's "dense prefix" invariant holds again.
            fs.remove_file(path)?;
            diagnostics.push(format!(
                "deleted unreachable segment {} (starts at LSN {start} beyond the valid tail)",
                path.display()
            ));
            continue;
        }
        let bytes = fs.read(path)?;
        let scan = read_frames(&bytes);
        for (lsn, payload) in scan.records {
            if lsn < expected {
                continue; // covered by the snapshot
            }
            if lsn == expected {
                records.push((lsn, payload));
                expected += 1;
            } else {
                diagnostics.push(format!(
                    "LSN gap in {}: expected {expected}, found {lsn}; stopping replay",
                    path.display()
                ));
                stopped = true;
                break;
            }
        }
        if let Some(reason) = scan.truncation {
            if !stopped {
                // An all-zero tail is preallocation residue (the writer
                // extends segments with `set_len` and trims them at close;
                // a crash skips the trim) — expected, not corruption.
                if bytes[scan.valid_bytes..].iter().all(|&b| b == 0) {
                    diagnostics.push(format!(
                        "trimmed preallocated tail of {}: {} zero bytes",
                        path.display(),
                        bytes.len() - scan.valid_bytes
                    ));
                } else {
                    diagnostics.push(format!(
                        "discarded torn tail of {}: {reason}",
                        path.display()
                    ));
                }
            }
            // Repair: drop the torn bytes so future scans end cleanly.
            let file = fs.open_write(path)?;
            file.set_len(scan.valid_bytes as u64)?;
            file.sync_data()?;
            stopped = true;
        }
    }

    Ok(RecoveredLog {
        snapshot,
        records,
        next_lsn: expected,
        diagnostics,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::files::{segment_path, write_snapshot};
    use crate::frame::{encode_frame_into, FRAME_MAGIC};
    use tlstm_testutil::TempDir;

    fn write_segment(dir: &Path, start: u64, records: &[(u64, &[u8])]) {
        let mut bytes = Vec::new();
        for &(lsn, payload) in records {
            encode_frame_into(&mut bytes, FRAME_MAGIC, lsn, payload);
        }
        std::fs::write(segment_path(dir, start), bytes).unwrap();
    }

    #[test]
    fn empty_directory_recovers_to_empty() {
        let dir = TempDir::new("txlog-recover");
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.snapshot, None);
        assert_eq!(log.records, Vec::new());
        assert_eq!(log.next_lsn, 0);
        // A directory that does not exist yet is created.
        let log = recover(&dir.path().join("nested")).unwrap();
        assert_eq!(log.next_lsn, 0);
    }

    #[test]
    fn snapshot_plus_suffix_replay() {
        let dir = TempDir::new("txlog-recover");
        write_segment(dir.path(), 0, &[(0, b"a"), (1, b"b"), (2, b"c")]);
        write_segment(dir.path(), 3, &[(3, b"d"), (4, b"e")]);
        write_snapshot(dir.path(), 2, b"snap@2").unwrap();
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.snapshot, Some((2, b"snap@2".to_vec())));
        // Record 2 is in the first segment (below the rotation point) but not
        // covered by the snapshot; 0 and 1 are skipped.
        assert_eq!(
            log.records,
            vec![(2, b"c".to_vec()), (3, b"d".to_vec()), (4, b"e".to_vec()),]
        );
        assert_eq!(log.next_lsn, 5);
    }

    #[test]
    fn invalid_snapshot_falls_back_to_older() {
        let dir = TempDir::new("txlog-recover");
        write_segment(dir.path(), 0, &[(0, b"a"), (1, b"b")]);
        write_snapshot(dir.path(), 1, b"good").unwrap();
        let bad = write_snapshot(dir.path(), 2, b"newer-but-corrupt").unwrap();
        let mut bytes = std::fs::read(&bad).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&bad, bytes).unwrap();

        let log = recover(dir.path()).unwrap();
        assert_eq!(log.snapshot, Some((1, b"good".to_vec())));
        assert_eq!(log.records, vec![(1, b"b".to_vec())]);
        assert_eq!(log.next_lsn, 2);
        assert!(!log.diagnostics.is_empty());
    }

    #[test]
    fn torn_tail_is_discarded_and_repaired() {
        let dir = TempDir::new("txlog-recover");
        let mut bytes = Vec::new();
        encode_frame_into(&mut bytes, FRAME_MAGIC, 0, b"keep me");
        let keep = bytes.len();
        encode_frame_into(&mut bytes, FRAME_MAGIC, 1, b"torn record");
        let torn = keep + (bytes.len() - keep) / 2;
        std::fs::write(segment_path(dir.path(), 0), &bytes[..torn]).unwrap();

        let log = recover(dir.path()).unwrap();
        assert_eq!(log.records, vec![(0, b"keep me".to_vec())]);
        assert_eq!(log.next_lsn, 1);
        assert!(log.diagnostics.iter().any(|d| d.contains("torn tail")));
        // The file was truncated back to the valid prefix: a second recovery
        // is clean.
        assert_eq!(
            std::fs::metadata(segment_path(dir.path(), 0))
                .unwrap()
                .len(),
            keep as u64
        );
        let again = recover(dir.path()).unwrap();
        assert_eq!(again.records, log.records);
        assert!(again.diagnostics.is_empty());
    }

    #[test]
    fn segments_after_a_torn_segment_are_deleted() {
        // Simulates: crash left a torn tail in wal-0, a restart then opened
        // wal-1 and appended — recovery of *that* state must keep wal-1. But
        // if wal-0's torn tail were still present with a *stale* wal-2 from
        // an older incarnation beyond a gap, the stale segment is deleted.
        let dir = TempDir::new("txlog-recover");
        let mut bytes = Vec::new();
        encode_frame_into(&mut bytes, FRAME_MAGIC, 0, b"a");
        let keep = bytes.len();
        encode_frame_into(&mut bytes, FRAME_MAGIC, 1, b"torn");
        std::fs::write(segment_path(dir.path(), 0), &bytes[..bytes.len() - 3]).unwrap();
        write_segment(dir.path(), 5, &[(5, b"stale")]);

        let log = recover(dir.path()).unwrap();
        assert_eq!(log.records, vec![(0, b"a".to_vec())]);
        assert_eq!(log.next_lsn, 1);
        assert!(!segment_path(dir.path(), 5).exists());
        assert_eq!(
            std::fs::metadata(segment_path(dir.path(), 0))
                .unwrap()
                .len(),
            keep as u64
        );
    }

    #[test]
    fn lsn_gap_stops_replay() {
        let dir = TempDir::new("txlog-recover");
        write_segment(dir.path(), 0, &[(0, b"a"), (2, b"gap")]);
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.records, vec![(0, b"a".to_vec())]);
        assert_eq!(log.next_lsn, 1);
        assert!(log.diagnostics.iter().any(|d| d.contains("gap")));
    }

    #[test]
    fn recovery_never_panics_on_garbage() {
        let dir = TempDir::new("txlog-recover");
        std::fs::write(segment_path(dir.path(), 0), b"complete nonsense").unwrap();
        std::fs::write(crate::files::snapshot_path(dir.path(), 3), b"junk").unwrap();
        let log = recover(dir.path()).unwrap();
        assert_eq!(log.snapshot, None);
        assert_eq!(log.records, Vec::new());
        assert_eq!(log.next_lsn, 0);
    }
}
