//! The durable front-end: `txkv` over the [`txlog`] write-ahead log.
//!
//! A [`DurableKvStore`] wraps a [`KvServer`] (any runtime) with a
//! **logical redo log** above the STM commit point:
//!
//! 1. every batch that contains a write is stamped with a **commit sequence
//!    number** (LSN) by reading and incrementing a dedicated heap word
//!    *inside* the batch's transaction (the same planned executor
//!    [`KvSession::batch`] runs, with the sequence word as its stamp) — STM
//!    serialisability makes the LSN order identical to the commit order, on
//!    every runtime alike;
//! 2. after the STM commit, the batch's *write* operations plus the plan
//!    parameters (shard count, effective group count) are encoded as a
//!    record — each write through [`crate::ops::encode_op`], the encoding
//!    `txnet` requests use too — and handed to the group-commit [`LogWriter`]
//!    ([`DurableKvSession::submit`]); the batch is acknowledged to the
//!    client only once its LSN is durable per the configured
//!    [`FsyncPolicy`] — the blocking calls park on the returned
//!    [`CommitTicket`], the network front-end polls it and executes later
//!    rounds meanwhile. Reads are never logged — a read-mostly batch's
//!    record carries only its few writes.
//!
//! The shared sequence word is a deliberate serialisation point: every
//! logged batch conflicts on it, which is exactly what makes the stamp a
//! total commit order (the classic commit-ticket design). Durable write
//! batches therefore serialise against each other even when their keys are
//! disjoint — part of the durability cost the `kv-*-durable` benchmark
//! scenarios measure against their in-memory twins.
//!
//! Because TLSTM batch tasks and SwissTM sequential plans execute the *same
//! deterministic plan* (PR 4's conformance property), every runtime logs the
//! identical record stream — so recovery is runtime-agnostic: replaying the
//! records sequentially in plan order reproduces the committed state
//! regardless of which runtime (or which task split) produced the log.
//!
//! [`DurableKvStore::snapshot`] writes a consistent shard-by-shard snapshot
//! from inside a single transaction, rotates the log to a fresh segment and
//! prunes everything the snapshot covers; booting a store recovers the
//! newest valid snapshot plus the contiguous record suffix and discards a
//! torn tail (see [`txlog::recovery`] for the invariants).
//!
//! ## Failure model
//!
//! The store degrades instead of dying when the disk misbehaves
//! ([`DurableKvStore::health`]):
//!
//! * a storage failure that survives the WAL's retry/backoff poisons the log
//!   and moves the store to [`Health::Degraded`] — the batch in flight gets
//!   the root-cause [`WalError::Storage`], every later write batch is
//!   refused *before* its in-memory commit with [`WalError::Degraded`], and
//!   reads ([`DurableKvSession::get`]/[`DurableKvSession::scan`]) keep
//!   serving the committed in-memory state;
//! * [`DurableKvStore::try_rearm`] recovers a degraded store without a
//!   restart: it snapshots the in-memory state, opens a fresh log segment at
//!   that LSN and swaps the writer — writes resume if the fault has cleared,
//!   and the snapshot preserves every committed batch (including any that
//!   were committed in memory but never acknowledged);
//! * an injected *crash* ([`WalError::Crashed`]) is [`Health::Failed`]:
//!   deliberately not re-armable, because it simulates the process dying —
//!   only a restart + recovery brings that store back.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use txlog::codec::{put_words, Cursor};
use txlog::files::{prune_obsolete_with, write_snapshot_with};
use txlog::recovery::recover_with;
use txlog::{
    CommitTicket, CrashPoints, FsyncPolicy, LogWriter, RealFs, RetryPolicy, WalError, WalFs,
    WalOptions,
};
use txmem::{TxMem, TxRuntime, TxSession, WordAddr};

use crate::ops::{decode_op, encode_op, KvOp, KvReply};
use crate::server::{KvServer, KvServerConfig, KvSession};
use crate::store::KvStore;

/// Version tag of the record and snapshot payload encodings. Both are pinned
/// byte for byte by a golden test: a change to either must bump this.
const PAYLOAD_VERSION: u32 = 1;

/// Configuration of a [`DurableKvStore`].
#[derive(Debug, Clone)]
pub struct DurableKvConfig {
    /// The wrapped server's configuration (store sizing, batch grouping,
    /// substrate).
    pub server: KvServerConfig,
    /// When log appends are fsynced (and therefore acknowledged).
    pub fsync: FsyncPolicy,
    /// Crash-injection registry for the WAL writer;
    /// [`CrashPoints::disabled`] outside crash tests.
    pub crash_points: CrashPoints,
    /// The storage layer the log goes through: [`RealFs`] in production, a
    /// [`txlog::FaultFs`] under fault injection.
    pub fs: Arc<dyn WalFs>,
    /// Retry/backoff for transient WAL append errors.
    pub retry: RetryPolicy,
}

impl Default for DurableKvConfig {
    fn default() -> Self {
        DurableKvConfig {
            server: KvServerConfig::default(),
            fsync: FsyncPolicy::default(),
            crash_points: CrashPoints::default(),
            fs: RealFs::shared(),
            retry: RetryPolicy::default(),
        }
    }
}

/// The store's serving state with respect to its write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The log accepts writes; batches are durable per the fsync policy.
    Healthy,
    /// The log was poisoned by the carried storage failure: reads serve the
    /// committed in-memory state, writes fail fast, and
    /// [`DurableKvStore::try_rearm`] can restore service in place.
    Degraded(WalError),
    /// The WAL writer crashed (injected crash point). Not re-armable — only
    /// a restart + recovery brings the store back.
    Failed,
}

/// What booting a [`DurableKvStore`] recovered from its log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot the boot loaded, if one was valid.
    pub snapshot_lsn: Option<u64>,
    /// Redo records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// The LSN the next committed batch will carry.
    pub next_lsn: u64,
    /// Diagnostics from the log scan (torn tails discarded, invalid
    /// snapshots skipped, ...).
    pub diagnostics: Vec<String>,
}

/// The swappable WAL slot shared by a store and its sessions: sessions take
/// the read side per batch, [`DurableKvStore::try_rearm`] takes the write
/// side to install a fresh writer after a storage failure.
#[derive(Debug)]
struct WalCell {
    writer: RwLock<LogWriter>,
    /// Last health code published to txobs (`trace::health` values), so the
    /// gauge updates and transition trace events fire once per transition,
    /// not once per observation.
    observed_health: AtomicU64,
}

impl WalCell {
    /// Lock poisoning mirrors the WAL's own policy: a thread that panicked
    /// holding the writer slot may have left a half-swapped writer, and
    /// serving from it could acknowledge non-durable records — propagate the
    /// panic loudly instead.
    fn read(&self) -> RwLockReadGuard<'_, LogWriter> {
        self.writer
            .read()
            .expect("WAL slot poisoned: a thread panicked mid-swap")
    }

    fn write(&self) -> RwLockWriteGuard<'_, LogWriter> {
        self.writer
            .write()
            .expect("WAL slot poisoned: a thread panicked mid-swap")
    }

    /// Publishes the store's health to txobs: the gauge always tracks the
    /// latest observation; a trace event fires only when the code changes.
    fn observe_health(&self, code: u64) {
        let previous = self.observed_health.swap(code, Ordering::Relaxed);
        txobs::metrics::kv().health.set(code);
        if previous != code {
            txobs::trace::trace(txobs::EventKind::KvHealth, code);
        }
    }
}

/// The txobs health code of a WAL failure observation.
fn health_code(failure: Option<&WalError>) -> u64 {
    match failure {
        None => txobs::trace::health::HEALTHY,
        Some(WalError::Crashed) => txobs::trace::health::FAILED,
        Some(_) => txobs::trace::health::DEGRADED,
    }
}

/// A crash-safe [`KvServer`]: acknowledged writes survive process death.
#[derive(Debug)]
pub struct DurableKvStore<R: TxRuntime> {
    server: KvServer<R>,
    seq: WordAddr,
    wal: Arc<WalCell>,
    /// The boot options sans `start_lsn` — [`Self::try_rearm`] reuses them
    /// to open the replacement writer.
    options: WalOptions,
    dir: PathBuf,
    recovery: RecoveryReport,
}

impl<R: TxRuntime> DurableKvStore<R> {
    /// Boots a durable store on runtime `R`, recovering whatever the log
    /// directory holds (an empty/missing directory boots a fresh store).
    /// Recovery replays snapshot and records through
    /// [`DirectMem`](txmem::DirectMem) and is therefore runtime-agnostic: the
    /// log stream is identical on every runtime.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures and undecodable (version-mismatched)
    /// log content. Torn/corrupt tails are *not* errors — they are discarded
    /// per the recovery invariants.
    pub fn boot(dir: &Path, config: &DurableKvConfig) -> io::Result<Self> {
        let recovered = recover_with(config.fs.as_ref(), dir)?;
        let server = KvServer::<R>::new(&config.server);
        let store = server.store();
        let mut mem = server.direct();
        let seq = mem
            .alloc(1)
            .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "sequence word"))?;

        let mut snapshot_lsn = None;
        if let Some((lsn, payload)) = &recovered.snapshot {
            snapshot_lsn = Some(*lsn);
            let entries = decode_snapshot(payload)
                .ok_or_else(|| invalid_data(format!("undecodable snapshot at LSN {lsn}")))?;
            for (key, value) in entries {
                store
                    .put(&mut mem, key, &value)
                    .map_err(|_| invalid_data("snapshot replay aborted (heap exhausted?)"))?;
            }
        }
        for (lsn, payload) in &recovered.records {
            let record = decode_record(payload)
                .ok_or_else(|| invalid_data(format!("undecodable record at LSN {lsn}")))?;
            for op in record.plan_order() {
                store
                    .apply(&mut mem, op)
                    .map_err(|_| invalid_data("record replay aborted (heap exhausted?)"))?;
            }
        }
        mem.write(seq, recovered.next_lsn)
            .expect("direct writes cannot abort");

        let options = WalOptions {
            start_lsn: recovered.next_lsn,
            fsync: config.fsync,
            crash_points: config.crash_points.clone(),
            fs: Arc::clone(&config.fs),
            retry: config.retry,
            ..WalOptions::default()
        };
        let writer = LogWriter::open(dir, &options)?;
        let wal = Arc::new(WalCell {
            writer: RwLock::new(writer),
            observed_health: AtomicU64::new(0),
        });
        wal.observe_health(txobs::trace::health::HEALTHY);
        Ok(DurableKvStore {
            server,
            seq,
            wal,
            options,
            dir: dir.to_path_buf(),
            recovery: RecoveryReport {
                snapshot_lsn,
                replayed_records: recovered.records.len() as u64,
                next_lsn: recovered.next_lsn,
                diagnostics: recovered.diagnostics,
            },
        })
    }

    /// The wrapped server (store handle, stats, direct access for tests).
    pub fn server(&self) -> &KvServer<R> {
        &self.server
    }

    /// The store handle.
    pub fn store(&self) -> KvStore {
        self.server.store()
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What booting this store recovered.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// All batches with LSN below this are durable and were acknowledged.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.read().durable_lsn()
    }

    /// `true` once the WAL writer has died (injected crash or I/O error);
    /// every subsequent write batch fails with a typed [`WalError`]
    /// ([`WalError::Crashed`] after a crash, [`WalError::Degraded`] after a
    /// storage failure) while reads keep serving.
    pub fn is_dead(&self) -> bool {
        self.wal.read().is_dead()
    }

    /// The store's serving state: [`Health::Healthy`] while the log accepts
    /// writes, [`Health::Degraded`] (with the root-cause storage failure)
    /// once the log is poisoned, [`Health::Failed`] after an injected crash.
    pub fn health(&self) -> Health {
        let failure = self.wal.read().failure();
        self.wal.observe_health(health_code(failure.as_ref()));
        match failure {
            None => Health::Healthy,
            Some(WalError::Crashed) => Health::Failed,
            Some(cause) => Health::Degraded(cause),
        }
    }

    /// Attempts to restore write service after a storage failure, without a
    /// restart: snapshots the committed in-memory state, opens a fresh log
    /// segment at the snapshot's LSN and swaps it in for the poisoned
    /// writer. Returns `Ok(true)` when a new writer was armed, `Ok(false)`
    /// when the store was healthy (nothing to do).
    ///
    /// The snapshot covers *every* committed batch — including any that were
    /// committed in memory but never acknowledged because the log was
    /// already poisoned — so a batch whose ticket reported a storage error
    /// may become durable after a successful re-arm. Acknowledged batches
    /// are always preserved.
    ///
    /// # Errors
    ///
    /// Fails with `Other` on a [`Health::Failed`] (crashed) store, and
    /// propagates storage errors when the fault has not cleared (snapshot or
    /// segment creation still failing) — the store then stays degraded and
    /// the call can be retried.
    pub fn try_rearm(&self) -> io::Result<bool> {
        // Hold the write side for the whole swap: sessions cannot fetch a
        // handle to a half-installed writer, and a racing batch that
        // committed in memory just before the swap re-checks the *new*
        // writer afterwards (its LSN is below the snapshot's, so the append
        // comes back pre-acknowledged — correct, the snapshot covers it).
        let mut writer = self.wal.write();
        let Some(failure) = writer.failure() else {
            return Ok(false);
        };
        if failure == WalError::Crashed {
            return Err(io::Error::other(
                "the WAL writer crashed; only a restart + recovery can bring the store back",
            ));
        }
        let (lsn, payload) = self.state_snapshot();
        write_snapshot_with(self.options.fs.as_ref(), &self.dir, lsn, &payload)?;
        let fresh = LogWriter::open(
            &self.dir,
            &WalOptions {
                start_lsn: lsn,
                ..self.options.clone()
            },
        )?;
        *writer = fresh;
        drop(writer);
        txobs::metrics::kv().rearms.inc();
        txobs::trace::trace(txobs::EventKind::KvRearm, lsn);
        self.wal.observe_health(txobs::trace::health::HEALTHY);
        // Best effort: the snapshot already covers the poisoned segments, so
        // a failed prune only costs disk space, not correctness.
        let _ = prune_obsolete_with(self.options.fs.as_ref(), &self.dir, lsn);
        Ok(true)
    }

    /// Loads `entries` non-transactionally — and **without logging** — for
    /// pre-measurement population. Call [`Self::snapshot`] afterwards to make
    /// the populated base durable; otherwise recovery starts from an empty
    /// store plus the logged batches.
    pub fn populate(&self, entries: impl IntoIterator<Item = (u64, Vec<u64>)>) {
        self.server.populate(entries);
    }

    /// Opens a durable session. Each client thread needs its own. Sessions
    /// share the store's WAL slot, so they follow a
    /// [`DurableKvStore::try_rearm`] onto the replacement writer
    /// automatically.
    pub fn session(&self) -> DurableKvSession<R> {
        DurableKvSession {
            inner: self.server.session(),
            seq: self.seq,
            wal: Arc::clone(&self.wal),
            shards: self.server.store().shards(),
            groups: self.server.batch_tasks(),
        }
    }

    /// A consistent `(lsn, payload)` snapshot of the committed in-memory
    /// state, taken inside one transaction (shared by [`Self::snapshot`] and
    /// [`Self::try_rearm`]).
    fn state_snapshot(&self) -> (u64, Vec<u8>) {
        let store = self.server.store();
        let seq = self.seq;
        let n_shards = store.shards();
        self.server.session().session.run(|mem| {
            let lsn = mem.read(seq)?;
            let mut payload = Vec::new();
            payload.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
            payload.extend_from_slice(&n_shards.to_le_bytes());
            for shard in 0..n_shards {
                let entries = store.dump_shard(mem, shard)?;
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for (key, value) in entries {
                    payload.extend_from_slice(&key.to_le_bytes());
                    put_words(&mut payload, &value);
                }
            }
            Ok((lsn, payload))
        })
    }

    /// Takes a consistent shard-by-shard snapshot inside one transaction,
    /// writes it (atomically) to the log directory, rotates the log to a
    /// fresh segment and prunes every snapshot/segment the new snapshot
    /// covers. Returns the snapshot's LSN: every record below it is covered.
    ///
    /// Concurrent sessions keep committing while the snapshot runs; their
    /// batches either serialise before the snapshot transaction (covered) or
    /// after it (stay in the log).
    ///
    /// # Errors
    ///
    /// Fails up front with a typed error — the [`std::io::ErrorKind`] of the
    /// root-cause storage failure, or `Other` after a crash — when the WAL
    /// writer is dead, *before* any snapshot file is created (no `.tmp`
    /// residue, no partial snapshot). Otherwise propagates file-system
    /// failures; [`txlog::write_snapshot`] itself is all-or-nothing.
    pub fn snapshot(&self) -> io::Result<u64> {
        if let Some(failure) = self.wal.read().failure() {
            return Err(wal_io_error(&failure));
        }
        let (lsn, payload) = self.state_snapshot();
        write_snapshot_with(self.options.fs.as_ref(), &self.dir, lsn, &payload)?;
        self.wal.read().rotate().map_err(|e| wal_io_error(&e))?;
        prune_obsolete_with(self.options.fs.as_ref(), &self.dir, lsn)?;
        Ok(lsn)
    }
}

/// Maps a [`WalError`] onto the `io::Error` surface of the snapshot/boot
/// paths, preserving the root cause's [`std::io::ErrorKind`].
fn wal_io_error(error: &WalError) -> io::Error {
    match error {
        WalError::Storage { kind, .. } => io::Error::new(*kind, error.to_string()),
        WalError::Crashed | WalError::Degraded => io::Error::other(error.to_string()),
    }
}

/// A per-client durable session: batches are atomic *and* — once the call
/// returns `Ok` — durable per the store's fsync policy.
#[derive(Debug)]
pub struct DurableKvSession<R: TxRuntime> {
    inner: KvSession<R>,
    seq: WordAddr,
    wal: Arc<WalCell>,
    shards: u64,
    groups: usize,
}

/// `true` if the operation can change store state (and must be logged).
fn op_writes(op: &KvOp) -> bool {
    matches!(
        op,
        KvOp::Put { .. } | KvOp::Delete { .. } | KvOp::Cas { .. }
    )
}

impl<R: TxRuntime> DurableKvSession<R> {
    /// The split primitive every durable write goes through: executes `ops`
    /// as one atomic transaction **in memory**, hands the batch's redo
    /// record to the WAL and returns the replies together with the
    /// [`CommitTicket`] *instead of waiting on it*. The caller decides when
    /// to acknowledge: nothing in `replies` may be shown to a client before
    /// the ticket reports durable ([`CommitTicket::wait`], or
    /// [`CommitTicket::poll`] from a thread with other work to do — the
    /// network front-end keeps executing later rounds while this one's
    /// fsync is in flight). Read-only batches skip the log and return no
    /// ticket.
    ///
    /// # Errors
    ///
    /// Only the refusals of a log that is already dead —
    /// [`WalError::Degraded`] after a storage failure, [`WalError::Crashed`]
    /// after a crash — which are issued **before** the in-memory commit, so
    /// the store state is untouched. (If the writer dies in the instant
    /// between that check and the append, the same error is returned with
    /// the commit standing unacknowledged, as when a ticket fails.) A
    /// failure of the record itself surfaces through the ticket — see
    /// [`Self::batch`].
    pub fn submit(
        &mut self,
        ops: impl AsRef<[KvOp]>,
    ) -> Result<(Vec<KvReply>, Option<CommitTicket>), WalError> {
        let ops = ops.as_ref();
        if !ops.iter().any(op_writes) {
            return Ok((self.inner.batch(ops), None));
        }
        // Fail fast while the log is dead: refusing *before* the in-memory
        // commit keeps degraded-mode write attempts free of side effects
        // (and off the sequence word).
        //
        // The read guard is held from the pre-check through the staging of
        // the append so the commit and its record land on the *same* writer:
        // `try_rearm` (which takes the write side) can then only snapshot
        // between whole commit+append pairs, never between a commit and its
        // append — a gap that would leave the replacement writer waiting
        // forever for an LSN that went to the poisoned one. The durability
        // wait happens on the ticket, outside the guard.
        let writer = self.wal.read();
        if let Some(failure) = writer.failure() {
            self.wal.observe_health(health_code(Some(&failure)));
            return Err(match failure {
                WalError::Crashed => WalError::Crashed,
                WalError::Storage { .. } | WalError::Degraded => WalError::Degraded,
            });
        }
        // The LSN lives in the frame header, not the payload.
        let payload = encode_record(self.shards, self.groups, ops);
        let (replies, lsn) = self.inner.execute(ops, Some(self.seq));
        let lsn = lsn.expect("a stamped write batch carries its LSN");
        Ok((replies, Some(writer.append(lsn, payload)?)))
    }

    /// Executes `ops` as one atomic transaction; if the batch contains any
    /// write, parks until its redo record is durable before returning
    /// ([`Self::submit`], then [`CommitTicket::wait`]). Read-only batches
    /// skip the log entirely.
    ///
    /// # Errors
    ///
    /// * [`WalError::Crashed`] — the WAL writer died before the record was
    ///   acknowledged. The in-memory commit stands, but the write is **not**
    ///   acknowledged as durable: after a restart, recovery may or may not
    ///   include it (it is beyond the acknowledged prefix).
    /// * [`WalError::Storage`] — this batch's record hit a storage failure
    ///   that survived the WAL's retries. Same contract as `Crashed`: the
    ///   in-memory commit stands, durability is not acknowledged (a later
    ///   [`DurableKvStore::try_rearm`] snapshots it in).
    /// * [`WalError::Degraded`] — the log was already poisoned when this
    ///   batch arrived; it was refused **before** the in-memory commit, so
    ///   the store state is untouched. Reads keep working throughout.
    pub fn batch(&mut self, ops: impl AsRef<[KvOp]>) -> Result<Vec<KvReply>, WalError> {
        let (replies, ticket) = self.submit(ops)?;
        if let Some(ticket) = ticket {
            ticket.wait()?;
        }
        Ok(replies)
    }

    /// Executes several independently-submitted sub-batches as **one**
    /// atomic, durable transaction and splits the replies back per
    /// sub-batch: the coalesced batch carries one commit sequence number,
    /// one redo record and one group-commit ticket, so N client requests
    /// amortise a single STM commit *and* a single fsync acknowledgement
    /// (the blocking form of what the network front-end does with
    /// [`Self::submit`]). If no sub-batch contains a write, the log is
    /// skipped entirely.
    ///
    /// # Errors
    ///
    /// See [`Self::batch`]; the durability contract applies to the coalesced
    /// batch as a whole (all sub-batches ack together or none do).
    pub fn batch_with_replies(
        &mut self,
        requests: Vec<Vec<KvOp>>,
    ) -> Result<Vec<Vec<KvReply>>, WalError> {
        let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
        let replies = self.batch(requests.into_iter().flatten().collect::<Vec<_>>())?;
        Ok(crate::ops::split_replies(&lens, replies))
    }

    /// Reads `key` (never logged).
    pub fn get(&mut self, key: u64) -> Option<Vec<u64>> {
        self.inner.get(key)
    }

    /// Ordered scan (never logged).
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u64) -> Vec<(u64, u64)> {
        self.inner.scan(lo, hi, limit)
    }

    /// Durable single-key write. Returns `true` on fresh insert.
    ///
    /// # Errors
    ///
    /// See [`Self::batch`].
    pub fn put(&mut self, key: u64, value: Vec<u64>) -> Result<bool, WalError> {
        match self.batch(vec![KvOp::Put { key, value }])?.pop() {
            Some(KvReply::Inserted(fresh)) => Ok(fresh),
            other => unreachable!("put produced {other:?}"),
        }
    }

    /// Durable single-key delete. Returns `true` if the key existed.
    ///
    /// # Errors
    ///
    /// See [`Self::batch`].
    pub fn delete(&mut self, key: u64) -> Result<bool, WalError> {
        match self.batch(vec![KvOp::Delete { key }])?.pop() {
            Some(KvReply::Removed(existed)) => Ok(existed),
            other => unreachable!("delete produced {other:?}"),
        }
    }

    /// Durable compare-and-swap.
    ///
    /// # Errors
    ///
    /// See [`Self::batch`].
    pub fn cas(&mut self, key: u64, expected: Vec<u64>, new: Vec<u64>) -> Result<bool, WalError> {
        match self.batch(vec![KvOp::Cas { key, expected, new }])?.pop() {
            Some(KvReply::Swapped(swapped)) => Ok(swapped),
            other => unreachable!("cas produced {other:?}"),
        }
    }
}

fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

// --- record / snapshot payload codecs ---------------------------------------

/// A decoded redo record: the **write** operations of one committed batch,
/// in submission order, plus the plan parameters needed to replay them in
/// the exact order the original execution applied them.
///
/// Reads (`Get`/`Scan`) have no state effect and are not logged — a
/// read-mostly batch's record carries only its few writes. Because the
/// original plan assigns an operation to a shard-group by its own key alone
/// (`shard_of(key, shards) % groups`) and preserves submission order inside
/// each group, replaying the writes group-by-group ([`Self::plan_order`])
/// reproduces the committed write sequence exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Shard count the original plan grouped by (kept in the record so
    /// replay reproduces the plan even if the store is re-configured).
    pub shards: u64,
    /// *Effective* shard-group count of the original plan (already clamped
    /// by the full batch length, reads included).
    pub groups: usize,
    /// The write operations, in submission order.
    pub ops: Vec<KvOp>,
}

impl BatchRecord {
    /// The record's writes in the original plan's application order:
    /// group-by-group, submission order within each group.
    pub fn plan_order(&self) -> impl Iterator<Item = &KvOp> {
        let shards = self.shards.max(1);
        let groups = self.groups.max(1) as u64;
        (0..groups).flat_map(move |group| {
            self.ops
                .iter()
                .filter(move |op| crate::ops::shard_of(op.planning_key(), shards) % groups == group)
        })
    }
}

/// Encodes one batch as a redo-record payload (the frame adds LSN and CRC):
/// a header, then the writes through [`encode_op`]. `ops` is the **full**
/// batch — the effective group count is derived from its length before the
/// reads are dropped from the encoding.
pub fn encode_record(shards: u64, groups: usize, ops: &[KvOp]) -> Vec<u8> {
    // Mirror `plan_batch`'s clamp so replay partitions exactly like the
    // original execution did.
    let effective_groups = groups.max(1).min(ops.len().max(1));
    let writes = ops.iter().filter(|op| op_writes(op));
    let mut out = Vec::with_capacity(20 + ops.len() * 16);
    out.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
    out.extend_from_slice(&shards.to_le_bytes());
    out.extend_from_slice(&(effective_groups as u32).to_le_bytes());
    out.extend_from_slice(&(writes.clone().count() as u32).to_le_bytes());
    for op in writes {
        encode_op(&mut out, op);
    }
    out
}

/// Decodes a redo-record payload; `None` on any structural violation,
/// including a read operation, which no record carries.
pub fn decode_record(payload: &[u8]) -> Option<BatchRecord> {
    let mut cur = Cursor::new(payload);
    if cur.u32()? != PAYLOAD_VERSION {
        return None;
    }
    let shards = cur.u64()?;
    let groups = cur.u32()? as usize;
    let n_ops = cur.u32()? as usize;
    if n_ops > payload.len() {
        return None; // cheaper than letting a corrupt count allocate wildly
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(decode_op(&mut cur).ok().filter(op_writes)?);
    }
    cur.done().then_some(BatchRecord {
        shards,
        groups,
        ops,
    })
}

/// Decodes a snapshot payload into its `(key, value)` entries (shard
/// sections flattened, in shard order); `None` on any structural violation.
pub fn decode_snapshot(payload: &[u8]) -> Option<Vec<(u64, Vec<u64>)>> {
    let mut cur = Cursor::new(payload);
    if cur.u32()? != PAYLOAD_VERSION {
        return None;
    }
    let n_shards = cur.u64()?;
    let mut entries = Vec::new();
    for expected_shard in 0..n_shards {
        if cur.u64()? != expected_shard {
            return None;
        }
        let count = cur.u64()? as usize;
        if count > payload.len() {
            return None;
        }
        for _ in 0..count {
            let key = cur.u64()?;
            let value = cur.words()?;
            entries.push((key, value));
        }
    }
    cur.done().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_codec_keeps_writes_and_drops_reads() {
        let ops = vec![
            KvOp::Get { key: 7 },
            KvOp::Put {
                key: 9,
                value: vec![1, 2, 3],
            },
            KvOp::Delete { key: 11 },
            KvOp::Cas {
                key: 13,
                expected: vec![],
                new: vec![u64::MAX],
            },
            KvOp::Scan {
                lo: 0,
                hi: 100,
                limit: 8,
            },
        ];
        let payload = encode_record(16, 4, &ops);
        assert_eq!(
            decode_record(&payload),
            Some(BatchRecord {
                shards: 16,
                groups: 4,
                ops: vec![ops[1].clone(), ops[2].clone(), ops[3].clone()],
            })
        );
        // A read-mostly batch's record is dominated by its single write, not
        // by the 15 reads around it.
        let mut read_heavy: Vec<KvOp> = (0..15).map(|k| KvOp::Get { key: k }).collect();
        read_heavy.push(KvOp::Put {
            key: 99,
            value: vec![1],
        });
        let payload = encode_record(16, 4, &read_heavy);
        let record = decode_record(&payload).unwrap();
        assert_eq!(record.ops.len(), 1);
        assert!(payload.len() < 64, "reads must not inflate the record");
    }

    #[test]
    fn plan_order_matches_the_original_plan_restricted_to_writes() {
        // Mixed batch: the plan-order of the record's writes must equal the
        // full plan_batch order of the same batch with reads skipped.
        let ops: Vec<KvOp> = (0..12u64)
            .map(|i| {
                if i % 3 == 0 {
                    KvOp::Get { key: i * 7 }
                } else {
                    KvOp::Put {
                        key: i * 7,
                        value: vec![i],
                    }
                }
            })
            .collect();
        let (shards, groups) = (16u64, 4usize);
        let payload = encode_record(shards, groups, &ops);
        let record = decode_record(&payload).unwrap();
        let replayed: Vec<KvOp> = record.plan_order().cloned().collect();
        let full_plan: Vec<KvOp> = crate::ops::plan_batch(&ops, shards, groups)
            .into_iter()
            .flatten()
            .map(|index| ops[index].clone())
            .filter(|op| matches!(op, KvOp::Put { .. }))
            .collect();
        assert_eq!(replayed, full_plan);
    }

    #[test]
    fn effective_group_count_survives_read_stripping() {
        // A 1-write batch of 8 ops planned into 4 groups must replay with 4
        // groups, not min(4, 1) — the clamp uses the full batch length.
        let mut ops: Vec<KvOp> = (0..7).map(|k| KvOp::Get { key: k }).collect();
        ops.push(KvOp::Put {
            key: 3,
            value: vec![9],
        });
        let record = decode_record(&encode_record(8, 4, &ops)).unwrap();
        assert_eq!(record.groups, 4);
        // And a 2-op batch clamps to 2 groups exactly like plan_batch does.
        let ops = vec![
            KvOp::Put {
                key: 1,
                value: vec![1],
            },
            KvOp::Put {
                key: 2,
                value: vec![2],
            },
        ];
        let record = decode_record(&encode_record(8, 4, &ops)).unwrap();
        assert_eq!(record.groups, 2);
    }

    #[test]
    fn record_decoder_rejects_corruption_without_panicking() {
        let ops = vec![
            KvOp::Put {
                key: 1,
                value: vec![10, 20],
            },
            KvOp::Cas {
                key: 2,
                expected: vec![5],
                new: vec![6, 7],
            },
        ];
        let good = encode_record(8, 2, &ops);
        assert!(decode_record(&good).is_some());
        // Truncations at every length.
        for cut in 0..good.len() {
            let _ = decode_record(&good[..cut]); // must not panic
        }
        // Trailing garbage is rejected (a CRC-valid frame can never carry
        // it, but the decoder must not silently accept it either).
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(decode_record(&padded), None);
        // A wrong version is rejected.
        let mut wrong = good.clone();
        wrong[0] ^= 0xFF;
        assert_eq!(decode_record(&wrong), None);
        // A read is a well-formed operation, but no record carries one.
        let mut with_read = good;
        with_read[16..20].copy_from_slice(&3u32.to_le_bytes());
        encode_op(&mut with_read, &KvOp::Get { key: 3 });
        assert_eq!(decode_record(&with_read), None);
    }

    #[test]
    fn snapshot_codec_round_trips() {
        // Hand-build a two-shard payload the way `snapshot()` does.
        let mut payload = Vec::new();
        payload.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        let shard_entries: [&[(u64, &[u64])]; 2] =
            [&[(4, &[40, 41][..])], &[(1, &[10][..]), (3, &[][..])]];
        for (shard, entries) in shard_entries.iter().enumerate() {
            payload.extend_from_slice(&(shard as u64).to_le_bytes());
            payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for &(key, value) in *entries {
                payload.extend_from_slice(&key.to_le_bytes());
                put_words(&mut payload, value);
            }
        }
        assert_eq!(
            decode_snapshot(&payload),
            Some(vec![(4, vec![40, 41]), (1, vec![10]), (3, vec![]),])
        );
        for cut in 0..payload.len() {
            let _ = decode_snapshot(&payload[..cut]); // must not panic
        }
    }
}
