//! # txlog — durability for the transactional key-value store
//!
//! The write-ahead-log subsystem of the TLSTM reproduction's serving stack:
//! a **logical redo log** of committed transactions layered *above* the STM
//! commit point, plus snapshots and crash recovery. `txlog` is payload
//! agnostic — records are opaque byte strings stamped with a dense **log
//! sequence number** (LSN) that the caller assigns at STM commit time — so
//! the same machinery can log `txkv` batch plans today and other subsystems
//! tomorrow.
//!
//! Three pieces:
//!
//! * [`frame`] — the record framing: length-prefixed, CRC-32 protected
//!   frames that recovery can validate byte-by-byte, so a torn tail (a
//!   crash mid-append) is detected and cleanly discarded. `txnet` frames
//!   its wire with the same codec under a magic of its own;
//! * [`LogWriter`] — the **group-commit** writer: one thread drains
//!   committed records (re-sequencing out-of-order arrivals into LSN order),
//!   appends each batch in a single `write` to a preallocated segment and
//!   fsyncs it per the configured [`FsyncPolicy`]; records that arrive
//!   during an fsync share the next one. Committers wait on — or, with
//!   other work to do, poll — a [`CommitTicket`] whose fast path is one
//!   atomic load of the durable watermark. The writer honors the `wal::*`
//!   crash points of [`tlstm_testutil::CrashPoints`] for deterministic
//!   crash-injection tests;
//! * [`recovery`] + [`files`] — snapshot files, log segments, and the
//!   recovery scan: load the newest valid snapshot, replay the contiguous
//!   record suffix, stop at the first torn/corrupt frame, and repair the
//!   tail so the next boot starts from a clean log.
//!
//! ## Example
//!
//! ```rust
//! use tlstm_testutil::TempDir;
//! use txlog::{FsyncPolicy, LogWriter, WalOptions};
//!
//! let dir = TempDir::new("txlog-doc");
//! let writer = LogWriter::open(dir.path(), &WalOptions::default()).unwrap();
//! let ticket = writer.append(0, b"first record".to_vec()).unwrap();
//! ticket.wait().unwrap(); // parks until LSN 0 is durable
//! drop(writer);
//!
//! let recovered = txlog::recover(dir.path()).unwrap();
//! assert_eq!(recovered.records, vec![(0, b"first record".to_vec())]);
//! assert_eq!(recovered.next_lsn, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod files;
pub mod frame;
pub mod recovery;
pub mod vfs;
pub mod writer;

pub use files::{list_segments, list_snapshots, prune_obsolete, read_snapshot, write_snapshot};
pub use frame::{crc32, read_frames, FrameScan};
pub use recovery::{recover, RecoveredLog};
pub use tlstm_testutil::CrashPoints;
pub use vfs::{
    Fault, FaultBudget, FaultError, FaultFs, FaultPlan, RealFs, StorageOp, WalFile, WalFs,
};
pub use writer::{CommitTicket, LogWriter, RetryPolicy, WalOptions, DEFAULT_SEGMENT_PREALLOC};

use std::fmt;
use std::time::Duration;

/// The crash points the WAL writer honors (names for
/// [`tlstm_testutil::CrashPoints::arm`]). Each simulates the process dying at
/// that instant: the writer abandons all further I/O and every unacknowledged
/// committer fails with [`WalError::Crashed`].
pub mod crash_points {
    /// Before the batch of frames is written to the segment file at all.
    pub const BEFORE_APPEND: &str = "wal::before-append";
    /// Mid-write: only a prefix of the batch reaches the file, leaving a
    /// torn final frame.
    pub const MID_FRAME: &str = "wal::mid-frame";
    /// After the frames are fully written but before the fsync.
    pub const AFTER_APPEND_BEFORE_FSYNC: &str = "wal::after-append-before-fsync";
    /// After the fsync but before committers are acknowledged.
    pub const AFTER_FSYNC_BEFORE_ACK: &str = "wal::after-fsync-before-ack";
    /// At the start of a segment rotation, before the outgoing segment is
    /// trimmed and fsynced.
    pub const BEFORE_ROTATE_FSYNC: &str = "wal::before-rotate-fsync";
    /// After the successor segment is created and preallocated but before
    /// its directory entry is fsynced.
    pub const AFTER_CREATE_BEFORE_DIRSYNC: &str = "wal::after-create-before-dirsync";
    /// After the directory fsync, before the rotation is published and
    /// waiters acknowledged.
    pub const AFTER_ROTATE_BEFORE_ACK: &str = "wal::after-rotate-before-ack";

    /// The append-path crash points, in pipeline order. These fire while a
    /// record batch is being handled, so an armed point is guaranteed to
    /// trigger on the next append.
    pub const APPEND: [&str; 4] = [
        BEFORE_APPEND,
        MID_FRAME,
        AFTER_APPEND_BEFORE_FSYNC,
        AFTER_FSYNC_BEFORE_ACK,
    ];

    /// The rotation-path crash points, in pipeline order. These fire only
    /// inside [`crate::LogWriter::rotate`] handling (e.g. the log-truncation
    /// step after a snapshot).
    pub const ROTATION: [&str; 3] = [
        BEFORE_ROTATE_FSYNC,
        AFTER_CREATE_BEFORE_DIRSYNC,
        AFTER_ROTATE_BEFORE_ACK,
    ];

    /// All WAL crash points (append path, then rotation path).
    pub const ALL: [&str; 7] = [
        BEFORE_APPEND,
        MID_FRAME,
        AFTER_APPEND_BEFORE_FSYNC,
        AFTER_FSYNC_BEFORE_ACK,
        BEFORE_ROTATE_FSYNC,
        AFTER_CREATE_BEFORE_DIRSYNC,
        AFTER_ROTATE_BEFORE_ACK,
    ];
}

/// The interval [`FsyncPolicy::Group`] carries when none is given. The
/// writer does not read it.
pub const DEFAULT_GROUP_INTERVAL: Duration = Duration::from_millis(2);

/// When the log writer issues `fsync` — the durability/latency trade-off of
/// the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every written batch at once, then acknowledge it. Group commit
    /// needs no clock: every record that arrives while an fsync is in flight
    /// rides the next one, so the device's fsync latency paces the batches
    /// and no acknowledged record can be lost.
    Always,
    /// Exactly [`FsyncPolicy::Always`]: the writer ignores the interval.
    /// The variant keeps its shape, and its `group[:<ms>]` spelling, for the
    /// callers and reports that name it.
    Group(Duration),
    /// Never fsync (acknowledge as soon as the OS has the bytes). For
    /// benchmarking the logging overhead in isolation — acknowledged writes
    /// can be lost on a real power failure.
    None,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Group(DEFAULT_GROUP_INTERVAL)
    }
}

impl FsyncPolicy {
    /// The identifier used in CLI flags and reports (`always`, `group`,
    /// `none`).
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Group(_) => "group",
            FsyncPolicy::None => "none",
        }
    }

    /// Parses a CLI token: `always`, `group`, `group:<ms>` or `none`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted options for anything else.
    pub fn parse(token: &str) -> Result<FsyncPolicy, String> {
        let unknown = || {
            format!("unknown fsync policy '{token}' (want one of: always, group, group:<ms>, none)")
        };
        match token {
            "always" => Ok(FsyncPolicy::Always),
            "group" => Ok(FsyncPolicy::Group(DEFAULT_GROUP_INTERVAL)),
            "none" => Ok(FsyncPolicy::None),
            other => match other.strip_prefix("group:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .map(|ms| FsyncPolicy::Group(Duration::from_millis(ms)))
                    .ok_or_else(unknown),
                None => Err(unknown()),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Group(interval) => write!(f, "group:{}", interval.as_millis()),
            other => f.write_str(other.label()),
        }
    }
}

/// Why a WAL operation failed — the error taxonomy of the failure model.
///
/// The three variants carry distinct contracts:
///
/// * [`WalError::Crashed`] — the writer *died* (an armed crash point
///   simulating the process dying). Only a restart + recovery brings the log
///   back.
/// * [`WalError::Storage`] — a storage operation failed after the configured
///   retries (or, for fsync, immediately — a failed fsync is never retried:
///   the kernel may have dropped the dirty pages, so a later "successful"
///   fsync proves nothing about them). This is the *root cause* reported to
///   the committer whose record was in flight; the log is poisoned.
/// * [`WalError::Degraded`] — the log was already poisoned by an earlier
///   [`WalError::Storage`] failure when this operation arrived; it was
///   refused up front without touching storage or staging the record. The
///   caller can keep reading and retry writes after the store re-arms onto a
///   fresh segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The writer died (injected crash point) before the record was
    /// acknowledged as durable. The in-memory commit happened; recovery
    /// may or may not include the record.
    Crashed,
    /// A storage operation failed; the record in flight was not acknowledged
    /// and the log is poisoned until it is re-armed (or the process restarts
    /// and recovers).
    Storage {
        /// The operation that failed.
        op: StorageOp,
        /// The `io::ErrorKind` the operation reported (e.g.
        /// [`std::io::ErrorKind::StorageFull`] for ENOSPC).
        kind: std::io::ErrorKind,
    },
    /// The log was already poisoned by an earlier storage failure; the
    /// operation was refused without side effects.
    Degraded,
}

impl WalError {
    /// A [`WalError::Storage`] for a failed `op`.
    pub fn storage(op: StorageOp, kind: std::io::ErrorKind) -> WalError {
        WalError::Storage { op, kind }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Crashed => {
                f.write_str("the WAL writer crashed before the record was durable")
            }
            WalError::Storage { op, kind } => {
                write!(f, "WAL storage failure: {op} failed ({kind}); the log is poisoned")
            }
            WalError::Degraded => f.write_str(
                "the WAL is degraded by an earlier storage failure; writes are refused until it is re-armed",
            ),
        }
    }
}

impl std::error::Error for WalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::parse("group"),
            Ok(FsyncPolicy::Group(DEFAULT_GROUP_INTERVAL))
        );
        assert_eq!(
            FsyncPolicy::parse("group:7"),
            Ok(FsyncPolicy::Group(Duration::from_millis(7)))
        );
        assert_eq!(FsyncPolicy::parse("none"), Ok(FsyncPolicy::None));
        for bad in ["", "Always", "group:", "group:0", "group:x", "sync"] {
            let err = FsyncPolicy::parse(bad).unwrap_err();
            assert!(err.contains("always, group, group:<ms>, none"), "{err}");
        }
    }

    #[test]
    fn fsync_policy_labels_and_display() {
        assert_eq!(FsyncPolicy::Always.label(), "always");
        assert_eq!(FsyncPolicy::default().label(), "group");
        assert_eq!(FsyncPolicy::None.label(), "none");
        assert_eq!(
            FsyncPolicy::Group(Duration::from_millis(5)).to_string(),
            "group:5"
        );
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
    }
}
