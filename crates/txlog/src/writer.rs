//! The group-commit log writer: one `txlog-writer` thread that owns the
//! current segment file. Each turn of its loop:
//!
//! 1. waits for work: a contiguous run of pending records, a rotation
//!    request, or shutdown;
//! 2. drains committed `(lsn, payload)` records from the pending map
//!    (re-sequencing out-of-order arrivals so the on-disk log is always a
//!    dense, in-order prefix), encodes them into one batch buffer and
//!    `write`s it;
//! 3. fsyncs the batch at once — under every policy but
//!    [`None`](FsyncPolicy::None), which acknowledges right after the
//!    `write` — and acknowledges every record the fsync covered.
//!
//! Group commit needs no clock: committers never block the writer, so
//! records that arrive while it is inside `fsync(2)` collect in the pending
//! map and go out together as the next batch, under the next fsync. The
//! device's fsync latency paces the batches, and nothing written is left
//! owing its fsync from one turn to the next.
//!
//! Segments are pre-allocated with `set_len` when created, so steady-state
//! appends stay inside the allocated extent and `sync_data` never pays a
//! metadata update. The preallocated zero tail is trimmed back to the
//! written bytes whenever a segment is closed (rotation or clean shutdown);
//! only a crash can leave one behind, and recovery treats an all-zero tail
//! as clean preallocation residue, not corruption.
//!
//! Committers hand records to the writer via [`LogWriter::append`] **after**
//! their STM commit assigned the LSN, then wait on the returned
//! [`CommitTicket`]. Acknowledgement is a *sequence watermark*: the writer
//! publishes `durable_upto` both under the state lock and as an atomic
//! that [`CommitTicket::wait`] loads first — a committer whose record is
//! already durable returns without touching the lock or parking. Laggards
//! fall back to one shared condvar that is woken **once per fsync**, so the
//! ack fan-out is O(1) per batch, not O(committers). A committer with other
//! work to do does not wait at all: [`CommitTicket::poll`] answers from the
//! watermark (and a lock-free death flag), [`CommitTicket::wait_timeout`]
//! parks on the same condvar for a bounded time — the network front-end
//! keeps executing later rounds and lets many records share the fsync.
//!
//! ## Failure model
//!
//! All storage goes through the [`WalFs`]/[`WalFile`] traits (production:
//! [`crate::RealFs`]; tests: [`crate::FaultFs`]), and every failure follows
//! one policy:
//!
//! * **Failed appends retry.** A failed `write` may be transient (and may
//!   have landed a short prefix); the writer truncates the segment back to
//!   the last good byte, restores the cursor and retries with exponential
//!   backoff, bounded by [`RetryPolicy`]. Exhausted retries poison the log
//!   with [`WalError::Storage`].
//! * **A failed fsync is never retried.** After a failed `fsync(2)` the
//!   kernel may have dropped the dirty pages while keeping them clean in
//!   cache, so a *later* fsync that returns success proves nothing about
//!   them (the "fsyncgate" hazard). The writer poisons the log immediately;
//!   `durable_upto` and the watermark only ever advance over bytes a
//!   **successful** fsync covered.
//! * **A poisoned log refuses new work without side effects.** In-flight
//!   committers get the root-cause [`WalError::Storage`]; later appends and
//!   rotations get [`WalError::Degraded`] up front. The store layer can
//!   then keep serving reads and re-arm onto a fresh log (see
//!   `txkv::durable`).
//!
//! The writer also honors the [`crate::crash_points`] of the configured
//! [`CrashPoints`] registry: when one fires, it abandons all I/O exactly at
//! that pipeline position, marks the log dead with
//! [`WalError::Crashed`] and fails every unacknowledged ticket — an
//! in-process, deterministic stand-in for the machine dying at that instant.
//! The one exception is a ticket whose LSN a successful fsync had already
//! covered when the writer died: its record is durable, so it reports `Ok`
//! (tracked by a second atomic, the *synced* watermark, stored before the
//! post-fsync crash points are consulted).

#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tlstm_testutil::CrashPoints;

use crate::files::segment_path;
use crate::frame::{encode_frame_into, FRAME_MAGIC};
use crate::vfs::{StorageOp, WalFile, WalFs};
use crate::{crash_points, FsyncPolicy, RealFs, WalError};

/// Default segment preallocation ([`WalOptions::preallocate_bytes`]).
pub const DEFAULT_SEGMENT_PREALLOC: u64 = 4 * 1024 * 1024;

/// Bounded retry with exponential backoff for *transient* append errors
/// ([`WalOptions::retry`]). Only `write` failures retry — see the module
/// docs for why fsync failures never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a failed write is retried before the log is poisoned
    /// (`0` fails on the first error).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff × 2^(k-1)`, capped at 50ms.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// No retries: every storage error is immediately terminal. Used by
    /// fault tests that need the first injected error surfaced as-is.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
        }
    }

    /// The backoff before retry attempt `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        (self.base_backoff * 2u32.saturating_pow(exp)).min(Duration::from_millis(50))
    }
}

/// Configuration of a [`LogWriter`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// The LSN the next appended record will carry (0 for a fresh log,
    /// [`crate::RecoveredLog::next_lsn`] after recovery). The writer opens a
    /// fresh segment named after it.
    pub start_lsn: u64,
    /// When appends are fsynced (and therefore acknowledged).
    pub fsync: FsyncPolicy,
    /// Crash-injection registry; [`WalOptions::default`] hands out a fresh,
    /// disarmed one ([`CrashPoints::disabled`]); tests inject their own.
    pub crash_points: CrashPoints,
    /// Size each new segment is extended to at creation (`set_len`), so
    /// steady-state fsyncs never pay a metadata update. `0` disables
    /// preallocation. Segments grow past this transparently if needed.
    pub preallocate_bytes: u64,
    /// The storage layer: [`crate::RealFs`] in production, a
    /// [`crate::FaultFs`] under fault injection.
    pub fs: Arc<dyn WalFs>,
    /// Retry/backoff for transient append errors.
    pub retry: RetryPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            start_lsn: 0,
            fsync: FsyncPolicy::default(),
            crash_points: CrashPoints::disabled(),
            preallocate_bytes: DEFAULT_SEGMENT_PREALLOC,
            fs: RealFs::shared(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Poisoned-mutex policy: the writer's mutexes guard multi-field state
/// transitions, so a thread that panicked while holding one may have left
/// the state torn. Serving from it could acknowledge non-durable records —
/// strictly worse than crashing — so the panic is propagated loudly instead
/// of recovered. (The writer thread itself never panics on I/O failure: those
/// paths return typed [`WalError`]s; a poisoned lock therefore indicates a
/// bug, not a storage fault.)
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .expect("WAL mutex poisoned: a writer thread panicked mid-update")
}

#[derive(Debug)]
struct State {
    /// Committed records not yet written, keyed by LSN (re-sequencing buffer).
    pending: BTreeMap<u64, Vec<u8>>,
    /// The next LSN the writer will append — everything below is in the file
    /// (or, while the writer is between drain and `write`, in its batch).
    next_append: u64,
    /// All records with `lsn < durable_upto` are durable and acknowledged
    /// (≤ `next_append`; below it from a drain until the fsync that ends
    /// the same turn returns). Mirrored into [`Shared::durable_watermark`]
    /// under this lock.
    durable_upto: u64,
    /// Rotation handshake: requests vs completions.
    rotations_requested: u64,
    rotations_done: u64,
    /// Start LSN of the segment currently being written.
    segment_start: u64,
    /// The first failure the writer suffered, if any. `Some` means nothing
    /// further will be written or acknowledged: [`WalError::Crashed`] for a
    /// simulated crash, [`WalError::Storage`] for a poisoned log.
    failure: Option<WalError>,
    /// Clean-shutdown request (set by [`LogWriter::drop`]).
    shutdown: bool,
}

impl State {
    fn dead(&self) -> bool {
        self.failure.is_some()
    }

    /// Records appended but not yet acknowledged durable: the written ones
    /// an fsync still owes plus everything pending. The value of
    /// [`txobs::metrics::WalMetrics::queue_depth`].
    fn unacknowledged(&self) -> u64 {
        self.next_append - self.durable_upto + self.pending.len() as u64
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Lock-free mirror of [`State::durable_upto`]: the committers' ack
    /// fast path. Stored (release) under the state lock, loaded (acquire)
    /// without it.
    durable_watermark: AtomicU64,
    /// All records with `lsn <` this were covered by a **successful** fsync,
    /// whether or not the ack that follows it ever ran. Lets a ticket whose
    /// record became durable right before the writer died report `Ok`
    /// instead of `Crashed`. Always ≥ the durable watermark.
    synced_watermark: AtomicU64,
    /// Lock-free mirror of `State::failure.is_some()`, so a pending ticket
    /// can be polled without the state lock. Stored (release) under the
    /// state lock right after the failure, loaded (acquire) without it.
    dead: AtomicBool,
    /// Wakes the writer thread (new work, rotation request, shutdown).
    /// Exactly one waiter — notify with `notify_one`.
    work_cv: Condvar,
    /// Wakes committers and rotation waiters (durability advanced, death).
    ack_cv: Condvar,
}

impl Shared {
    /// Records the writer's (first) failure and wakes every waiter: in-flight
    /// committers fail with the root cause, new work is refused. Called only
    /// by the writer thread, which exits right after.
    fn fail(&self, error: WalError) {
        let mut state = lock(&self.state);
        if state.failure.is_none() {
            // Storage failures are faults worth alerting on; `Crashed` also
            // marks clean shutdown and simulated crashes, so it is excluded
            // from the fault counter.
            if matches!(error, WalError::Storage { .. }) {
                txobs::metrics::wal().faults.inc();
            }
            state.failure = Some(error);
            self.dead.store(true, Ordering::Release);
        }
        self.ack_cv.notify_all();
    }

    /// Records that a successful fsync covered everything below `upto`.
    /// Must happen *before* any post-fsync crash point is consulted, so a
    /// dying writer cannot take this knowledge with it.
    fn note_synced(&self, upto: u64) {
        self.synced_watermark.fetch_max(upto, Ordering::AcqRel);
    }

    /// Acknowledges every record below `upto` as durable: one watermark
    /// store and one condvar broadcast per batch, regardless of how many
    /// committers are waiting.
    fn ack_durable(&self, upto: u64) {
        let mut state = lock(&self.state);
        if upto > state.durable_upto {
            state.durable_upto = upto;
            self.note_synced(upto);
            // The gauge before the watermark: a committer that sees its ack
            // also sees the queue it left.
            txobs::metrics::wal()
                .queue_depth
                .set(state.unacknowledged());
            self.durable_watermark.store(upto, Ordering::Release);
            txobs::trace::trace(txobs::EventKind::WalWatermark, upto);
            self.ack_cv.notify_all();
        }
    }
}

/// The error a *new* operation gets when the log already failed earlier: a
/// storage-poisoned log degrades (the caller may re-arm and retry), a
/// simulated crash stays [`WalError::Crashed`] (only restart + recovery
/// helps). In-flight operations get the root cause itself instead.
fn refusal(failure: &WalError) -> WalError {
    match failure {
        WalError::Storage { .. } | WalError::Degraded => WalError::Degraded,
        WalError::Crashed => WalError::Crashed,
    }
}

/// The group-commit write-ahead-log writer: owns the `txlog-writer` thread.
///
/// Dropping the writer performs a clean shutdown: the contiguous pending
/// prefix is flushed, the segment is trimmed to its written bytes, fsynced
/// and acknowledged, then the thread exits (any record stranded behind a
/// sequence gap fails its ticket).
#[derive(Debug)]
pub struct LogWriter {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// A committer's claim ticket for one appended record. Cloneable: a caller
/// that gates later work on this record (the network front-end parks
/// read-only rounds behind its last write) holds a second claim on it.
#[derive(Debug, Clone)]
#[must_use = "wait on the ticket to learn whether the record became durable"]
pub struct CommitTicket {
    shared: Arc<Shared>,
    lsn: u64,
}

impl LogWriter {
    /// Opens (creating if needed) the log directory and starts the writer
    /// thread on a fresh segment starting at `options.start_lsn`. An
    /// existing file of that name is truncated — after recovery this is
    /// exactly the repaired tail position, so nothing valid is lost. The
    /// segment is preallocated per [`WalOptions::preallocate_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates directory/file creation failures (typed `io::Error`s, from
    /// the real file system or an armed fault plan alike).
    pub fn open(dir: &Path, options: &WalOptions) -> std::io::Result<LogWriter> {
        let fs = Arc::clone(&options.fs);
        fs.create_dir_all(dir)?;
        let file = fs.create(&segment_path(dir, options.start_lsn))?;
        if options.preallocate_bytes > 0 {
            file.set_len(options.preallocate_bytes)?;
            // Persist the size now (sync_all), so the steady-state
            // `sync_data` calls have no metadata left to write.
            file.sync_all()?;
        }
        // The segment's directory entry must be durable before any record
        // written to it is acknowledged.
        fs.sync_dir(dir)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: BTreeMap::new(),
                next_append: options.start_lsn,
                durable_upto: options.start_lsn,
                rotations_requested: 0,
                rotations_done: 0,
                segment_start: options.start_lsn,
                failure: None,
                shutdown: false,
            }),
            durable_watermark: AtomicU64::new(options.start_lsn),
            synced_watermark: AtomicU64::new(options.start_lsn),
            dead: AtomicBool::new(false),
            work_cv: Condvar::new(),
            ack_cv: Condvar::new(),
        });
        let writer = Writer {
            shared: Arc::clone(&shared),
            fs,
            dir: dir.to_path_buf(),
            file,
            written_bytes: 0,
            preallocate: options.preallocate_bytes,
            fsync: options.fsync,
            retry: options.retry,
            crash: options.crash_points.clone(),
        };
        let thread = std::thread::Builder::new()
            .name("txlog-writer".to_string())
            .spawn(move || writer.run())?;
        Ok(LogWriter {
            shared,
            thread: Some(thread),
        })
    }

    /// Submits the record `(lsn, payload)` for group commit. LSNs must be
    /// dense and unique (they are assigned by an STM commit-time counter);
    /// arrival order is free. Returns the ticket to wait on. One map insert
    /// and one `notify_one` under a short critical section; committers on
    /// any number of threads share the writer by reference.
    ///
    /// An `lsn` below the durable watermark returns a pre-acknowledged
    /// ticket without staging anything: the record is already durably
    /// covered (a snapshot taken at re-arm subsumed it).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Crashed`] if the writer died from a simulated
    /// crash or was shut down, [`WalError::Degraded`] if an earlier storage
    /// failure poisoned the log — either way the record will never be
    /// durable through this writer.
    ///
    /// # Panics
    ///
    /// Panics if `lsn` was already appended or is already pending (a caller
    /// logic error, not a recoverable condition).
    pub fn append(&self, lsn: u64, payload: Vec<u8>) -> Result<CommitTicket, WalError> {
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(WalError::Crashed);
        }
        if let Some(failure) = &state.failure {
            return Err(refusal(failure));
        }
        if lsn < state.durable_upto {
            return Ok(CommitTicket {
                shared: Arc::clone(&self.shared),
                lsn,
            });
        }
        assert!(
            lsn >= state.next_append && !state.pending.contains_key(&lsn),
            "LSN {lsn} appended twice (next_append {})",
            state.next_append
        );
        state.pending.insert(lsn, payload);
        let wal = txobs::metrics::wal();
        wal.enqueued.inc();
        wal.queue_depth.set(state.unacknowledged());
        txobs::trace::trace(txobs::EventKind::WalEnqueue, lsn);
        self.shared.work_cv.notify_one();
        Ok(CommitTicket {
            shared: Arc::clone(&self.shared),
            lsn,
        })
    }

    /// Asks the writer to close the current segment and start a new one (the
    /// log-truncation step after a snapshot), waiting until it has happened.
    /// Returns the new segment's start LSN.
    ///
    /// # Errors
    ///
    /// Returns the writer's failure if the rotation itself fails, or a
    /// refusal ([`WalError::Degraded`]/[`WalError::Crashed`]) if the
    /// writer was already dead.
    pub fn rotate(&self) -> Result<u64, WalError> {
        let mut state = lock(&self.shared.state);
        if let Some(failure) = &state.failure {
            return Err(refusal(failure));
        }
        state.rotations_requested += 1;
        let target = state.rotations_requested;
        self.shared.work_cv.notify_one();
        while state.rotations_done < target && !state.dead() {
            state = self
                .shared
                .ack_cv
                .wait(state)
                .expect("WAL mutex poisoned: a writer thread panicked mid-update");
        }
        if state.rotations_done >= target {
            Ok(state.segment_start)
        } else {
            Err(state.failure.clone().unwrap_or(WalError::Crashed))
        }
    }

    /// All records with `lsn <` this are durable and acknowledged (the
    /// locked, authoritative read).
    pub fn durable_lsn(&self) -> u64 {
        lock(&self.shared.state).durable_upto
    }

    /// Lock-free snapshot of the durable watermark — the committers' ack
    /// fast path. Trails [`LogWriter::durable_lsn`] only inside the ack
    /// critical section; they agree whenever the log is at rest.
    pub fn durable_watermark(&self) -> u64 {
        self.shared.durable_watermark.load(Ordering::Acquire)
    }

    /// Start LSN of the segment currently being written.
    pub fn segment_start(&self) -> u64 {
        lock(&self.shared.state).segment_start
    }

    /// `true` once the writer has died (crash point or storage failure).
    pub fn is_dead(&self) -> bool {
        lock(&self.shared.state).dead()
    }

    /// The first failure the writer suffered (`None` while healthy).
    pub fn failure(&self) -> Option<WalError> {
        lock(&self.shared.state).failure.clone()
    }
}

impl Drop for LogWriter {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_cv.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl CommitTicket {
    /// The ack fast path: one atomic load of the durable watermark, no lock.
    fn acked(&self) -> bool {
        self.shared.durable_watermark.load(Ordering::Acquire) > self.lsn
    }

    /// The ticket's outcome as of `state`: `None` while the record is
    /// neither durable nor lost. A dead writer fails the ticket with its
    /// root cause — unless a successful fsync had already covered the LSN
    /// (the synced watermark), in which case the record is durable even
    /// though the ack never ran.
    fn outcome(&self, state: &State) -> Option<Result<(), WalError>> {
        if state.durable_upto > self.lsn {
            return Some(Ok(()));
        }
        let failure = state.failure.as_ref()?;
        if self.shared.synced_watermark.load(Ordering::Acquire) > self.lsn {
            return Some(Ok(()));
        }
        Some(Err(failure.clone()))
    }

    /// Waits until the record is durable per the writer's fsync policy.
    ///
    /// Fast path: one atomic load of the durable watermark — a record an
    /// fsync has already covered returns without locking or parking.
    /// Otherwise the committer parks on the shared ack condvar, which is
    /// broadcast once per fsync.
    ///
    /// # Errors
    ///
    /// Returns the writer's failure if it died before the record was
    /// acknowledged ([`WalError::Crashed`] for a simulated crash, the
    /// root-cause [`WalError::Storage`] for a poisoned log; the in-memory
    /// commit stands; recovery may or may not surface the record) — *unless*
    /// a successful fsync had already covered the record's LSN, in which
    /// case it is durable regardless of the writer dying before the ack and
    /// `Ok` is returned.
    pub fn wait(self) -> Result<(), WalError> {
        if self.acked() {
            return Ok(());
        }
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(outcome) = self.outcome(&state) {
                return outcome;
            }
            state = self
                .shared
                .ack_cv
                .wait(state)
                .expect("WAL mutex poisoned: a writer thread panicked mid-update");
        }
    }

    /// [`Self::wait`] without parking: `None` while the record is still in
    /// flight, otherwise exactly what `wait` would return. While the writer
    /// is healthy this is two atomic loads and no lock, so a caller with
    /// other work to do (the network front-end's release step) can ask
    /// every iteration.
    pub fn poll(&self) -> Option<Result<(), WalError>> {
        if self.acked() {
            return Some(Ok(()));
        }
        if !self.shared.dead.load(Ordering::Acquire) {
            return None;
        }
        self.outcome(&lock(&self.shared.state))
    }

    /// [`Self::poll`] that first parks on the ack condvar for at most
    /// `timeout`: an fsync or a writer failure wakes the caller at once.
    /// Wakes early (with `None`) when an ack that does not reach this
    /// record is broadcast.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), WalError>> {
        if self.acked() {
            return Some(Ok(()));
        }
        let state = lock(&self.shared.state);
        if let Some(outcome) = self.outcome(&state) {
            return Some(outcome);
        }
        let (state, _) = self
            .shared
            .ack_cv
            .wait_timeout(state, timeout)
            .expect("WAL mutex poisoned: a writer thread panicked mid-update");
        self.outcome(&state)
    }

    /// The record's log sequence number.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }
}

/// The writer thread: drains pending records, encodes and writes batches,
/// fsyncs them per the [`FsyncPolicy`], acknowledges committers and rotates
/// segments. Owns the segment file.
struct Writer {
    shared: Arc<Shared>,
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    file: Box<dyn WalFile>,
    /// Valid bytes written to the current segment (the trim point for
    /// rotation/shutdown; everything beyond is preallocated zeros).
    written_bytes: u64,
    preallocate: u64,
    fsync: FsyncPolicy,
    retry: RetryPolicy,
    crash: CrashPoints,
}

impl Writer {
    fn run(mut self) {
        let mut batch = Vec::new();
        loop {
            // Phase 1 (locked): wait for work, then drain the contiguous run.
            batch.clear();
            let mut last_frame_start = 0usize;
            let mut frames = 0u64;
            let written_upto;
            let rotate_now;
            let exit_now;
            {
                let mut state: MutexGuard<'_, State> = lock(&self.shared.state);
                while !state.pending.contains_key(&state.next_append)
                    && state.rotations_requested == state.rotations_done
                    && !state.shutdown
                {
                    state = self
                        .shared
                        .work_cv
                        .wait(state)
                        .expect("WAL mutex poisoned: a writer thread panicked mid-update");
                }
                loop {
                    let next = state.next_append;
                    match state.pending.remove(&next) {
                        Some(payload) => {
                            last_frame_start = batch.len();
                            encode_frame_into(&mut batch, FRAME_MAGIC, next, &payload);
                            state.next_append = next + 1;
                            frames += 1;
                        }
                        None => break,
                    }
                }
                written_upto = state.next_append;
                rotate_now = state.rotations_requested > state.rotations_done;
                // A clean shutdown flushes the contiguous prefix; records
                // stranded behind a sequence gap can never be written and
                // their tickets fail when the log dies on exit.
                exit_now = state.shutdown && batch.is_empty() && !rotate_now;
            }

            // Phase 2 (unlocked): write the batch, honoring the crash points.
            if !batch.is_empty() {
                if self.crash.should_crash(crash_points::BEFORE_APPEND) {
                    return self.shared.fail(WalError::Crashed);
                }
                if self.crash.should_crash(crash_points::MID_FRAME) {
                    // Write everything up to the middle of the last frame:
                    // a torn final record, exactly what a crash mid-`write`
                    // leaves behind.
                    let torn = last_frame_start + (batch.len() - last_frame_start) / 2;
                    let _ = self.file.write_all(&batch[..torn]);
                    let _ = self.file.sync_data();
                    return self.shared.fail(WalError::Crashed);
                }
                txobs::trace::trace(txobs::EventKind::WalAppendStart, frames);
                let append_started = Instant::now();
                if let Err(error) = self.write_batch(&batch) {
                    return self.shared.fail(error);
                }
                let wal = txobs::metrics::wal();
                wal.batches.inc();
                wal.batch_records.add(frames);
                wal.batch_bytes.add(batch.len() as u64);
                wal.append_ns.record_ns(
                    append_started
                        .elapsed()
                        .as_nanos()
                        .min(u128::from(u64::MAX)) as u64,
                );
                txobs::trace::trace(txobs::EventKind::WalAppendDone, batch.len() as u64);
                if self
                    .crash
                    .should_crash(crash_points::AFTER_APPEND_BEFORE_FSYNC)
                {
                    return self.shared.fail(WalError::Crashed);
                }
            }

            // Phase 3: fsync the batch at once (unless the policy is `None`)
            // and acknowledge it. What arrived meanwhile is the next batch.
            if !batch.is_empty() {
                if self.fsync != FsyncPolicy::None {
                    if let Err(error) = self.sync(written_upto, false) {
                        return self.shared.fail(error);
                    }
                }
                if self
                    .crash
                    .should_crash(crash_points::AFTER_FSYNC_BEFORE_ACK)
                {
                    return self.shared.fail(WalError::Crashed);
                }
                self.shared.ack_durable(written_upto);
            }

            // Phase 4: segment rotation (requested after a snapshot).
            if rotate_now {
                if let Err(error) = self.rotate_segment(written_upto) {
                    return self.shared.fail(error);
                }
            }

            if exit_now {
                return self.finish(written_upto);
            }
        }
    }

    /// Appends `batch` at the current write position with bounded retry. A
    /// failed `write` may have landed a short prefix, so before every retry
    /// — and before giving up — the segment is truncated back to the last
    /// good byte and the cursor restored, keeping the on-disk log
    /// frame-aligned (the truncation drops the preallocated tail; the
    /// segment simply grows organically from there). If the cleanup itself
    /// fails, the file position is unknowable and the log is poisoned
    /// immediately with the *write* error as the root cause.
    fn write_batch(&mut self, batch: &[u8]) -> Result<(), WalError> {
        let mut attempt = 0u32;
        loop {
            match self.file.write_all(batch) {
                Ok(()) => {
                    self.written_bytes += batch.len() as u64;
                    return Ok(());
                }
                Err(error) => {
                    let failed = WalError::storage(StorageOp::Write, error.kind());
                    let cleaned = self.file.set_len(self.written_bytes).is_ok()
                        && self.file.seek_to(self.written_bytes).is_ok();
                    if !cleaned || attempt >= self.retry.max_retries {
                        return Err(failed);
                    }
                    attempt += 1;
                    txobs::metrics::wal().retries.inc();
                    std::thread::sleep(self.retry.delay(attempt));
                }
            }
        }
    }

    /// Fsyncs the segment — `sync_all` when `all`, which also persists a
    /// trim — and records that it covered every record below `upto`. That
    /// record is made *before* the caller consults a post-fsync crash point:
    /// a ticket whose LSN is covered is durable even if the writer dies
    /// before the ack.
    ///
    /// A failure is never retried: the kernel may have dropped the dirty
    /// pages while marking them clean, so a later fsync's success would
    /// prove nothing about these bytes (fsyncgate). The caller poisons the
    /// log and the watermark stays where the last successful fsync left it.
    fn sync(&mut self, upto: u64, all: bool) -> Result<(), WalError> {
        txobs::trace::trace(txobs::EventKind::WalFsyncStart, 0);
        let fsync_started = Instant::now();
        let synced = if all {
            self.file.sync_all()
        } else {
            self.file.sync_data()
        };
        synced.map_err(|e| WalError::storage(StorageOp::Fsync, e.kind()))?;
        let wal = txobs::metrics::wal();
        wal.fsyncs.inc();
        wal.fsync_ns
            .record_ns(fsync_started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        txobs::trace::trace(txobs::EventKind::WalFsyncDone, upto);
        self.shared.note_synced(upto);
        Ok(())
    }

    /// Closes the current segment cleanly and opens the next one at
    /// `next_start`, the current append position. The outgoing segment is
    /// trimmed to its written bytes and fsynced **before** the successor
    /// exists, so non-newest segments never carry a zero tail — recovery
    /// relies on that to treat any mid-scan stop as the end of history.
    fn rotate_segment(&mut self, next_start: u64) -> Result<(), WalError> {
        if self.crash.should_crash(crash_points::BEFORE_ROTATE_FSYNC) {
            return Err(WalError::Crashed);
        }
        self.file
            .set_len(self.written_bytes)
            .map_err(|e| WalError::storage(StorageOp::SetLen, e.kind()))?;
        // sync_all: the trim is a metadata change. A failure here is an
        // fsync failure — terminal, never retried (module docs).
        self.file
            .sync_all()
            .map_err(|e| WalError::storage(StorageOp::Fsync, e.kind()))?;
        let file = self
            .fs
            .create(&segment_path(&self.dir, next_start))
            .map_err(|e| WalError::storage(StorageOp::Create, e.kind()))?;
        if self.preallocate > 0 {
            file.set_len(self.preallocate)
                .map_err(|e| WalError::storage(StorageOp::SetLen, e.kind()))?;
            file.sync_all()
                .map_err(|e| WalError::storage(StorageOp::Fsync, e.kind()))?;
        }
        if self
            .crash
            .should_crash(crash_points::AFTER_CREATE_BEFORE_DIRSYNC)
        {
            return Err(WalError::Crashed);
        }
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| WalError::storage(StorageOp::SyncDir, e.kind()))?;
        if self
            .crash
            .should_crash(crash_points::AFTER_ROTATE_BEFORE_ACK)
        {
            return Err(WalError::Crashed);
        }
        self.file = file;
        self.written_bytes = 0;
        let mut state = lock(&self.shared.state);
        // Phase 3 acknowledged every batch in the turn that wrote it, so
        // the rotation has no records of its own to acknowledge.
        debug_assert_eq!(state.durable_upto, next_start);
        state.segment_start = next_start;
        state.rotations_done += 1;
        txobs::metrics::wal().rotations.inc();
        txobs::trace::trace(txobs::EventKind::WalRotate, state.rotations_done);
        self.shared.ack_cv.notify_all();
        Ok(())
    }

    /// Clean shutdown: trim the preallocated tail so the log ends at a frame
    /// boundary, fsync and acknowledge everything written below
    /// `written_upto`, then mark the log dead so any ticket stranded behind
    /// a sequence gap fails instead of hanging.
    fn finish(mut self, written_upto: u64) {
        if let Err(error) = self.file.set_len(self.written_bytes) {
            return self
                .shared
                .fail(WalError::storage(StorageOp::SetLen, error.kind()));
        }
        if let Err(error) = self.sync(written_upto, true) {
            return self.shared.fail(error);
        }
        self.shared.ack_durable(written_upto);
        self.shared.fail(WalError::Crashed);
    }
}
