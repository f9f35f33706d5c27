//! Log-directory layout: segment files, snapshot files, pruning.
//!
//! A log directory holds:
//!
//! * **segments** `wal-<start_lsn>.log` — frame sequences (see [`crate::frame`]).
//!   A segment's name is the LSN of its first record; the records of one
//!   segment are dense and in order, and segments tile the LSN space in file
//!   order. Only the newest segment can have a torn tail (older segments are
//!   closed at a frame boundary before a new one is opened).
//! * **snapshots** `snap-<lsn>.snap` — an opaque payload covering every
//!   record with `lsn < <lsn>`. Snapshots are written to a temp file and
//!   renamed into place, so a crash mid-snapshot leaves at most a stray
//!   `.tmp` — and a *storage error* mid-snapshot leaves nothing: the temp
//!   file is unlinked before the error propagates. The trailing CRC rejects
//!   torn or corrupt snapshots at read time and recovery falls back to an
//!   older one.
//!
//! After a snapshot at LSN `L` the log is truncated by [`prune_obsolete`]:
//! every snapshot older than `L` and every segment whose records all satisfy
//! `lsn < L` (i.e. whose *successor* segment starts at or below `L`) is
//! deleted.
//!
//! Every function has a `*_with` variant taking the [`WalFs`] to operate
//! through; the plain variants run on [`RealFs`]. Lock `unwrap`s are banned
//! here (`deny(clippy::unwrap_used)`): every storage failure propagates as a
//! typed `io::Error`.

#![deny(clippy::unwrap_used)]

use std::io;
use std::path::{Path, PathBuf};

use crate::frame::crc32;
use crate::vfs::{RealFs, WalFs};

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
const SNAPSHOT_PREFIX: &str = "snap-";
const SNAPSHOT_SUFFIX: &str = ".snap";

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TXSN";

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The path of the segment whose first record is `start_lsn`.
pub fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{start_lsn:020}{SEGMENT_SUFFIX}"))
}

/// The path of the snapshot covering records below `lsn`.
pub fn snapshot_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{lsn:020}{SNAPSHOT_SUFFIX}"))
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn list(fs: &dyn WalFs, dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for (name, path) in fs.list_dir(dir)? {
        if let Some(lsn) = parse_name(&name, prefix, suffix) {
            out.push((lsn, path));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Lists the log segments of `dir`, ascending by start LSN. Foreign files
/// (temp files, snapshots, anything unparseable) are ignored.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_segments_with(&RealFs, dir)
}

/// [`list_segments`] through an explicit [`WalFs`].
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments_with(fs: &dyn WalFs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list(fs, dir, SEGMENT_PREFIX, SEGMENT_SUFFIX)
}

/// Lists the snapshots of `dir`, **descending** by LSN (newest first, the
/// order recovery tries them in).
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_snapshots_with(&RealFs, dir)
}

/// [`list_snapshots`] through an explicit [`WalFs`].
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_snapshots_with(fs: &dyn WalFs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut snapshots = list(fs, dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?;
    snapshots.reverse();
    Ok(snapshots)
}

/// Writes the snapshot covering records below `lsn` atomically (temp file,
/// fsync, rename, directory fsync) and returns its final path. Older
/// snapshots are left for [`prune_obsolete`].
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_snapshot(dir: &Path, lsn: u64, payload: &[u8]) -> io::Result<PathBuf> {
    write_snapshot_with(&RealFs, dir, lsn, payload)
}

/// [`write_snapshot`] through an explicit [`WalFs`]. On any failure after
/// the temp file was created, the temp file is unlinked (best effort) before
/// the error propagates — a failed snapshot leaves no partial files behind.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_snapshot_with(
    fs: &dyn WalFs,
    dir: &Path,
    lsn: u64,
    payload: &[u8],
) -> io::Result<PathBuf> {
    let final_path = snapshot_path(dir, lsn);
    let tmp_path = final_path.with_extension("snap.tmp");
    let mut bytes = Vec::with_capacity(24 + payload.len() + 4);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&lsn.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let write_tmp = || -> io::Result<()> {
        let mut file = fs.create(&tmp_path)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        Ok(())
    };
    if let Err(error) = write_tmp().and_then(|()| fs.rename(&tmp_path, &final_path)) {
        // The create itself may have failed (no file) — removal is best
        // effort and the root cause is what propagates.
        let _ = fs.remove_file(&tmp_path);
        return Err(error);
    }
    // The snapshot's directory entry must be durable before the caller
    // prunes the segments it covers; if that fails, unlink the renamed file
    // too so a failed snapshot is all-or-nothing (recovery replays the log
    // instead).
    if let Err(error) = fs.sync_dir(dir) {
        let _ = fs.remove_file(&final_path);
        return Err(error);
    }
    Ok(final_path)
}

/// Reads and validates a snapshot file. Returns `None` (never panics) when
/// the file is unreadable, torn or corrupt — recovery then falls back to an
/// older snapshot.
pub fn read_snapshot(path: &Path) -> Option<(u64, Vec<u8>)> {
    read_snapshot_with(&RealFs, path)
}

/// [`read_snapshot`] through an explicit [`WalFs`].
pub fn read_snapshot_with(fs: &dyn WalFs, path: &Path) -> Option<(u64, Vec<u8>)> {
    let bytes = fs.read(path).ok()?;
    // The trailing CRC covers everything before it.
    if bytes.len() < 4 {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().ok()?);
    if crc32(body) != crc {
        return None;
    }
    let mut cur = crate::codec::Cursor::new(body);
    if cur.take(4)? != SNAPSHOT_MAGIC || cur.u32()? != SNAPSHOT_VERSION {
        return None;
    }
    let lsn = cur.u64()?;
    let payload_len = cur.u64()?;
    if payload_len != cur.remaining() as u64 {
        return None;
    }
    let payload = cur.take(payload_len as usize)?;
    Some((lsn, payload.to_vec()))
}

/// Deletes every snapshot older than `upto_lsn` and every segment whose
/// records are all covered by it (the successor segment starts at or below
/// `upto_lsn`; the newest segment is always kept). Returns the deleted
/// paths.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn prune_obsolete(dir: &Path, upto_lsn: u64) -> io::Result<Vec<PathBuf>> {
    prune_obsolete_with(&RealFs, dir, upto_lsn)
}

/// [`prune_obsolete`] through an explicit [`WalFs`].
///
/// # Errors
///
/// Propagates file-system failures.
pub fn prune_obsolete_with(fs: &dyn WalFs, dir: &Path, upto_lsn: u64) -> io::Result<Vec<PathBuf>> {
    let mut deleted = Vec::new();
    for (lsn, path) in list_snapshots_with(fs, dir)? {
        if lsn < upto_lsn {
            fs.remove_file(&path)?;
            deleted.push(path);
        }
    }
    let segments = list_segments_with(fs, dir)?;
    for pair in segments.windows(2) {
        let (_, ref path) = pair[0];
        let (successor_start, _) = pair[1];
        if successor_start <= upto_lsn {
            fs.remove_file(path)?;
            deleted.push(path.clone());
        }
    }
    if !deleted.is_empty() {
        fs.sync_dir(dir)?;
    }
    Ok(deleted)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::fs;
    use tlstm_testutil::TempDir;

    #[test]
    fn listing_orders_and_ignores_foreign_files() {
        let dir = TempDir::new("txlog-files");
        for lsn in [7u64, 0, 300] {
            fs::write(segment_path(dir.path(), lsn), b"").unwrap();
        }
        write_snapshot(dir.path(), 5, b"five").unwrap();
        write_snapshot(dir.path(), 90, b"ninety").unwrap();
        fs::write(dir.path().join("snap-bogus.snap"), b"x").unwrap();
        fs::write(dir.path().join("wal-1.log.tmp"), b"x").unwrap();
        fs::write(dir.path().join("README"), b"x").unwrap();

        let segments: Vec<u64> = list_segments(dir.path())
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(segments, vec![0, 7, 300]);
        let snapshots: Vec<u64> = list_snapshots(dir.path())
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(snapshots, vec![90, 5], "newest first");
    }

    #[test]
    fn snapshots_round_trip_and_reject_corruption() {
        let dir = TempDir::new("txlog-snap");
        let payload: Vec<u8> = (0..=255).collect();
        let path = write_snapshot(dir.path(), 42, &payload).unwrap();
        assert_eq!(read_snapshot(&path), Some((42, payload.clone())));

        // Every single-byte corruption is rejected.
        let good = fs::read(&path).unwrap();
        for i in [0usize, 5, 9, 17, 30, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert_eq!(read_snapshot(&path), None, "flip at byte {i}");
        }
        // Truncation is rejected.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(read_snapshot(&path), None);
        // Missing file is not an error, just absent.
        assert_eq!(read_snapshot(&snapshot_path(dir.path(), 1)), None);
        // Restore and re-validate.
        fs::write(&path, &good).unwrap();
        assert_eq!(read_snapshot(&path), Some((42, payload)));
    }

    #[test]
    fn prune_keeps_needed_segments_and_newest_snapshot() {
        let dir = TempDir::new("txlog-prune");
        // Segments covering [0,10), [10,25), [25,..].
        for lsn in [0u64, 10, 25] {
            fs::write(segment_path(dir.path(), lsn), b"").unwrap();
        }
        write_snapshot(dir.path(), 8, b"old").unwrap();
        write_snapshot(dir.path(), 12, b"new").unwrap();

        // Snapshot at 12 covers all of [0,10) but only part of [10,25).
        prune_obsolete(dir.path(), 12).unwrap();
        let segments: Vec<u64> = list_segments(dir.path())
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(
            segments,
            vec![10, 25],
            "only the fully covered segment goes"
        );
        let snapshots: Vec<u64> = list_snapshots(dir.path())
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(snapshots, vec![12]);

        // Pruning beyond everything keeps the newest segment.
        prune_obsolete(dir.path(), 1_000).unwrap();
        let segments: Vec<u64> = list_segments(dir.path())
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(segments, vec![25]);
    }

    #[test]
    fn failed_snapshot_writes_leave_no_tmp_files() {
        use crate::vfs::{Fault, FaultError, FaultFs, StorageOp};

        let dir = TempDir::new("txlog-snap-fault");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let no_stray_files = |stage: &str| {
            for entry in std::fs::read_dir(dir.path()).unwrap() {
                let name = entry.unwrap().file_name();
                let name = name.to_string_lossy().into_owned();
                assert!(
                    !name.ends_with(".tmp") && !name.ends_with(SNAPSHOT_SUFFIX),
                    "{stage} left {name} behind"
                );
            }
        };

        for op in [
            StorageOp::Create,
            StorageOp::Write,
            StorageOp::Fsync,
            StorageOp::Rename,
            StorageOp::SyncDir,
        ] {
            plan.arm(op, Fault::once(FaultError::Eio));
            let err = write_snapshot_with(&fs, dir.path(), 9, b"payload").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Other, "{op}");
            no_stray_files(op.label());
        }

        // With the faults spent, the same call succeeds.
        let path = write_snapshot_with(&fs, dir.path(), 9, b"payload").unwrap();
        assert_eq!(read_snapshot(&path), Some((9, b"payload".to_vec())));
    }
}
