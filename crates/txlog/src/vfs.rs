//! The storage abstraction under the WAL — and the fault injector behind it.
//!
//! Every file-system operation the log writer, segment/snapshot layout and
//! recovery scan perform goes through the [`WalFs`]/[`WalFile`] traits
//! instead of calling `std::fs` directly. Production uses [`RealFs`] (a
//! zero-cost passthrough); tests wrap it in a [`FaultFs`] whose shared
//! [`FaultPlan`] can arm any [`StorageOp`] to fail with an injected
//! EIO/ENOSPC — one-shot, N-times-then-succeed, forever, or probabilistically
//! — optionally leaving a *short write* behind (a written prefix of the
//! buffer, exactly what a real ENOSPC mid-`write(2)` leaves).
//!
//! The plan mirrors the [`tlstm_testutil::CrashPoints`] idiom: cheap cloned
//! handles share one registry, a disarmed plan answers every check with a
//! single relaxed atomic load, and everything that fired is recorded for the
//! test to assert on. Plans are armed from code only ([`FaultPlan::arm`]).
//!
//! A plan can also *hold* an operation ([`FaultPlan::hold`]): the next
//! matching operation parks before it touches the inner file system until
//! the test [releases](FaultPlan::release) it. A held fsync keeps records
//! unacknowledged for exactly as long as a test needs, with no clock.
//!
//! Fault *policy* — what the writer does when an injected (or real) error
//! comes back — lives in [`crate::writer`]: bounded retry with exponential
//! backoff for appends, poison-never-retry for fsync, typed
//! [`crate::WalError::Storage`] surfacing everywhere else.

use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use tlstm_testutil::TestRng;

/// The storage operations the WAL performs — the injection *sites* of a
/// [`FaultPlan`] and the `op` carried by [`crate::WalError::Storage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOp {
    /// Creating the log directory (`create_dir_all`).
    CreateDir,
    /// Creating (or truncating) a segment/snapshot file.
    Create,
    /// Re-opening an existing file for in-place repair.
    Open,
    /// Reading a whole file (segments and snapshots during recovery).
    Read,
    /// Listing the log directory.
    ListDir,
    /// Appending bytes to an open file.
    Write,
    /// `fsync`/`fdatasync` of an open file.
    Fsync,
    /// Truncating/extending an open file (`ftruncate`).
    SetLen,
    /// Renaming a file (snapshot tmp → final).
    Rename,
    /// Unlinking a file (pruning, discarding unreachable segments).
    Remove,
    /// `fsync` of the directory itself (entry durability).
    SyncDir,
}

impl StorageOp {
    /// Every operation, for exhaustive fault matrices.
    pub const ALL: [StorageOp; 11] = [
        StorageOp::CreateDir,
        StorageOp::Create,
        StorageOp::Open,
        StorageOp::Read,
        StorageOp::ListDir,
        StorageOp::Write,
        StorageOp::Fsync,
        StorageOp::SetLen,
        StorageOp::Rename,
        StorageOp::Remove,
        StorageOp::SyncDir,
    ];

    /// The identifier used in error messages.
    pub fn label(&self) -> &'static str {
        match self {
            StorageOp::CreateDir => "create-dir",
            StorageOp::Create => "create",
            StorageOp::Open => "open",
            StorageOp::Read => "read",
            StorageOp::ListDir => "list-dir",
            StorageOp::Write => "write",
            StorageOp::Fsync => "fsync",
            StorageOp::SetLen => "set-len",
            StorageOp::Rename => "rename",
            StorageOp::Remove => "remove",
            StorageOp::SyncDir => "sync-dir",
        }
    }
}

impl fmt::Display for StorageOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An open WAL file: the write-side surface the log writer needs. Reads go
/// through [`WalFs::read`] (recovery slurps whole files).
pub trait WalFile: Send + fmt::Debug {
    /// Appends `buf` at the current cursor. May fail after writing a prefix
    /// (a *short write*) — the writer repairs with [`WalFile::set_len`] +
    /// [`WalFile::seek_to`].
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Repositions the write cursor (recovery from a short write). Never
    /// fault-injected: it touches no storage, only the descriptor.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
    /// `fdatasync`: data durability, metadata only if needed.
    fn sync_data(&self) -> io::Result<()>;
    /// `fsync`: data + metadata durability.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates or extends the file.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The file-system surface of the WAL: everything `writer`, `files` and
/// `recovery` touch. Implementations must be shareable across threads
/// ([`Send`] + [`Sync`]): the writer thread shares one with whoever opened
/// the log.
pub trait WalFs: Send + Sync + fmt::Debug {
    /// `create_dir_all`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
    /// Opens an existing file for in-place repair (no truncation).
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists a directory as `(file_name, full_path)` pairs (files whose
    /// names are not valid UTF-8 are skipped — the WAL never creates any).
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>>;
    /// Renames a file (atomic within a directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making renames/creations/unlinks of its
    /// entries durable. Without this, a power failure could persist the
    /// unlink of an old snapshot while the rename of its replacement is
    /// still only in the page cache.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production file system: a passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl RealFs {
    /// A shared handle, for options defaults.
    pub fn shared() -> Arc<dyn WalFs> {
        Arc::new(RealFs)
    }
}

#[derive(Debug)]
struct RealFile(fs::File);

impl WalFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl WalFs for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(RealFile(fs::File::create(path)?)))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(RealFile(
            fs::OpenOptions::new().write(true).open(path)?,
        )))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                out.push((name.to_string(), entry.path()));
            }
        }
        Ok(out)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            // Directory handles cannot be fsynced portably elsewhere;
            // metadata durability then depends on the platform's rename
            // semantics.
            let _ = dir;
            Ok(())
        }
    }
}

/// Which errno an injected fault surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A generic I/O error (EIO — media failure, controller timeout, ...).
    Eio,
    /// Out of space (ENOSPC).
    Enospc,
}

impl FaultError {
    /// The `io::ErrorKind` the injected error carries (what
    /// [`crate::WalError::Storage`] ends up reporting).
    pub fn kind(self) -> io::ErrorKind {
        match self {
            FaultError::Eio => io::ErrorKind::Other,
            FaultError::Enospc => io::ErrorKind::StorageFull,
        }
    }

    /// The identifier used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultError::Eio => "eio",
            FaultError::Enospc => "enospc",
        }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// When an armed fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultBudget {
    /// Fail the next `n` matching operations, then succeed (disarms itself;
    /// `Times(1)` is the one-shot).
    Times(u32),
    /// Fail every matching operation until the plan is cleared.
    Forever,
    /// Fail each matching operation with probability `permille`/1000,
    /// deterministically drawn from a generator seeded at arm time.
    Permille {
        /// Firing probability in 1/1000ths.
        permille: u32,
        /// The draws' generator.
        rng: TestRng,
    },
}

/// One armed fault: which error, how often, and whether a failing write
/// leaves a short (half-written) prefix behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The injected errno.
    pub error: FaultError,
    /// How many / which matching operations fail.
    pub budget: FaultBudget,
    /// For [`StorageOp::Write`]: write the first half of the buffer before
    /// failing, modelling ENOSPC/EIO mid-`write(2)`.
    pub short_write: bool,
}

impl Fault {
    /// Fails exactly the next matching operation.
    pub fn once(error: FaultError) -> Fault {
        Fault::times(1, error)
    }

    /// Fails the next `n` matching operations, then succeeds.
    pub fn times(n: u32, error: FaultError) -> Fault {
        Fault {
            error,
            budget: FaultBudget::Times(n),
            short_write: false,
        }
    }

    /// Fails every matching operation until lifted.
    pub fn forever(error: FaultError) -> Fault {
        Fault {
            error,
            budget: FaultBudget::Forever,
            short_write: false,
        }
    }

    /// Fails each matching operation with probability `permille`/1000
    /// (deterministic per `seed`).
    pub fn permille(permille: u32, seed: u64, error: FaultError) -> Fault {
        Fault {
            error,
            budget: FaultBudget::Permille {
                permille,
                rng: TestRng::new(seed),
            },
            short_write: false,
        }
    }

    /// Marks the fault as a short write (half the buffer lands first).
    pub fn short(mut self) -> Fault {
        self.short_write = true;
        self
    }
}

/// The state of a [`FaultPlan::hold`] latch on one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// The next matching operation parks.
    Armed,
    /// A thread is parked in the operation until the latch is released.
    Parked,
}

#[derive(Debug, Default)]
struct Armed {
    /// Armed faults, at most one per op (re-arming replaces).
    faults: Vec<(StorageOp, Fault)>,
    /// Latches, at most one per op.
    holds: Vec<(StorageOp, Hold)>,
}

impl Armed {
    /// Whether a `check` must take the slow path.
    fn active(&self) -> bool {
        !self.faults.is_empty() || self.holds.iter().any(|&(_, hold)| hold == Hold::Armed)
    }

    fn parked(&self, op: StorageOp) -> bool {
        self.holds.contains(&(op, Hold::Parked))
    }
}

#[derive(Debug, Default)]
struct PlanInner {
    /// Fast-path gate: `false` ⇒ nothing armed, `check` is one load.
    enabled: AtomicBool,
    armed: Mutex<Armed>,
    /// Signals every change of a latch (parked, released).
    latch_cv: Condvar,
    /// Every fault that fired, in order.
    fired: Mutex<Vec<(StorageOp, FaultError)>>,
}

impl PlanInner {
    /// Re-derives the fast-path gate; called with `armed` locked.
    fn refresh(&self, armed: &Armed) {
        self.enabled.store(armed.active(), Ordering::Release);
    }

    fn wait<'a>(&self, armed: MutexGuard<'a, Armed>) -> MutexGuard<'a, Armed> {
        self.latch_cv.wait(armed).unwrap_or_else(|e| e.into_inner())
    }
}

/// A shared, armable fault schedule (the [`CrashPoints`] idiom for storage
/// errors). Clones share one registry; a disarmed plan costs one relaxed
/// atomic load per operation.
///
/// [`CrashPoints`]: tlstm_testutil::CrashPoints
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// A plan with nothing armed.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms `fault` on `op`, replacing any fault already armed there.
    pub fn arm(&self, op: StorageOp, fault: Fault) {
        let mut armed = lock_plan(&self.inner.armed);
        armed.faults.retain(|(armed_op, _)| *armed_op != op);
        armed.faults.push((op, fault));
        self.inner.refresh(&armed);
    }

    /// Lifts every armed fault and latch, releasing a parked operation (the
    /// "storage recovered" transition a successful `try_rearm` depends on).
    /// The fired record is kept.
    pub fn clear(&self) {
        let mut armed = lock_plan(&self.inner.armed);
        *armed = Armed::default();
        self.inner.refresh(&armed);
        self.inner.latch_cv.notify_all();
    }

    /// Holds `op`: the next matching operation parks before it touches the
    /// inner file system, until [`FaultPlan::release`]. Later matching
    /// operations pass.
    ///
    /// # Panics
    ///
    /// Panics if `op` is already held.
    pub fn hold(&self, op: StorageOp) {
        let mut armed = lock_plan(&self.inner.armed);
        assert!(
            armed.holds.iter().all(|&(held, _)| held != op),
            "{op} is already held"
        );
        armed.holds.push((op, Hold::Armed));
        self.inner.refresh(&armed);
    }

    /// Returns once a thread is parked in a held `op`.
    pub fn wait_held(&self, op: StorageOp) {
        let mut armed = lock_plan(&self.inner.armed);
        while !armed.parked(op) {
            armed = self.inner.wait(armed);
        }
    }

    /// Lifts the latch on `op`: a thread parked there goes on; if none had
    /// arrived yet, none will park.
    pub fn release(&self, op: StorageOp) {
        let mut armed = lock_plan(&self.inner.armed);
        armed.holds.retain(|&(held, _)| held != op);
        self.inner.refresh(&armed);
        self.inner.latch_cv.notify_all();
    }

    /// Consults the plan for `op`, first parking in a held `op` until it is
    /// released. `Some((error, short_write))` means the operation must fail
    /// with `error` (after a half-buffer prefix write if `short_write` and
    /// the op is a write). Decrements/consumes budgets and records the
    /// firing.
    pub fn check(&self, op: StorageOp) -> Option<(io::Error, bool)> {
        if !self.inner.enabled.load(Ordering::Acquire) {
            return None;
        }
        self.check_slow(op)
    }

    #[cold]
    fn check_slow(&self, op: StorageOp) -> Option<(io::Error, bool)> {
        let mut armed = lock_plan(&self.inner.armed);
        if let Some(latch) = armed
            .holds
            .iter_mut()
            .find(|latch| **latch == (op, Hold::Armed))
        {
            latch.1 = Hold::Parked;
            self.inner.refresh(&armed);
            self.inner.latch_cv.notify_all();
            while armed.parked(op) {
                armed = self.inner.wait(armed);
            }
        }
        let index = armed
            .faults
            .iter()
            .position(|(armed_op, _)| *armed_op == op)?;
        let (error, short) = {
            let fault = &mut armed.faults[index].1;
            let fires = match &mut fault.budget {
                FaultBudget::Times(n) => {
                    *n = n.saturating_sub(1);
                    true
                }
                FaultBudget::Forever => true,
                FaultBudget::Permille { permille, rng } => rng.below(1000) < u64::from(*permille),
            };
            if !fires {
                return None;
            }
            (fault.error, fault.short_write)
        };
        if matches!(armed.faults[index].1.budget, FaultBudget::Times(0)) {
            armed.faults.remove(index);
            self.inner.refresh(&armed);
        }
        drop(armed);
        lock_plan(&self.inner.fired).push((op, error));
        Some((
            io::Error::new(error.kind(), format!("injected {error} on {op}")),
            short,
        ))
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> Vec<(StorageOp, FaultError)> {
        lock_plan(&self.inner.fired).clone()
    }

    /// How many times a fault fired on `op`.
    pub fn fired_count(&self, op: StorageOp) -> usize {
        lock_plan(&self.inner.fired)
            .iter()
            .filter(|(fired_op, _)| *fired_op == op)
            .count()
    }
}

/// Poisoned-plan policy: the plan's locks protect test-harness bookkeeping
/// only; a panic while holding one means the *test* is already failing, so
/// continuing with the inner value cannot corrupt anything durable.
fn lock_plan<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A [`WalFs`] that injects the faults of a shared [`FaultPlan`] in front of
/// an inner file system (by default [`RealFs`]).
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: Arc<dyn WalFs>,
    plan: FaultPlan,
}

impl Default for FaultFs {
    fn default() -> Self {
        FaultFs::new()
    }
}

impl FaultFs {
    /// A fault layer over [`RealFs`] with a fresh (disarmed) plan.
    pub fn new() -> FaultFs {
        FaultFs::wrapping(Arc::new(RealFs))
    }

    /// A fault layer over an arbitrary inner file system.
    pub fn wrapping(inner: Arc<dyn WalFs>) -> FaultFs {
        FaultFs {
            inner,
            plan: FaultPlan::new(),
        }
    }

    /// A cloned handle to the plan, for arming/inspecting from the test
    /// while the file system itself is owned by the store under test.
    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn WalFile>,
    plan: FaultPlan,
}

impl WalFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some((error, short)) = self.plan.check(StorageOp::Write) {
            if short && buf.len() >= 2 {
                // A short write: half the buffer lands before the error —
                // best-effort, the error below is what the caller handles.
                let _ = self.inner.write_all(&buf[..buf.len() / 2]);
            }
            return Err(error);
        }
        self.inner.write_all(buf)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        // Never injected: repositioning touches only the descriptor.
        self.inner.seek_to(pos)
    }
    fn sync_data(&self) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::Fsync) {
            return Err(error);
        }
        self.inner.sync_data()
    }
    fn sync_all(&self) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::Fsync) {
            return Err(error);
        }
        self.inner.sync_all()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::SetLen) {
            return Err(error);
        }
        self.inner.set_len(len)
    }
}

impl WalFs for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::CreateDir) {
            return Err(error);
        }
        self.inner.create_dir_all(dir)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        if let Some((error, _)) = self.plan.check(StorageOp::Create) {
            return Err(error);
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            plan: self.plan.clone(),
        }))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        if let Some((error, _)) = self.plan.check(StorageOp::Open) {
            return Err(error);
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.open_write(path)?,
            plan: self.plan.clone(),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some((error, _)) = self.plan.check(StorageOp::Read) {
            return Err(error);
        }
        self.inner.read(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        if let Some((error, _)) = self.plan.check(StorageOp::ListDir) {
            return Err(error);
        }
        self.inner.list_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::Rename) {
            return Err(error);
        }
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::Remove) {
            return Err(error);
        }
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if let Some((error, _)) = self.plan.check(StorageOp::SyncDir) {
            return Err(error);
        }
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_passes_everything_through() {
        let plan = FaultPlan::new();
        for op in StorageOp::ALL {
            assert!(plan.check(op).is_none(), "{op}");
        }
        assert_eq!(plan.fired(), Vec::new());
    }

    #[test]
    fn one_shot_faults_fire_once_on_their_op_only() {
        let plan = FaultPlan::new();
        plan.arm(StorageOp::Fsync, Fault::once(FaultError::Eio));
        assert!(plan.check(StorageOp::Write).is_none(), "wrong op");
        let (error, short) = plan.check(StorageOp::Fsync).expect("armed");
        assert_eq!(error.kind(), io::ErrorKind::Other);
        assert!(!short);
        assert!(plan.check(StorageOp::Fsync).is_none(), "one-shot");
        assert_eq!(plan.fired(), vec![(StorageOp::Fsync, FaultError::Eio)]);
        assert_eq!(plan.fired_count(StorageOp::Fsync), 1);
        assert_eq!(plan.fired_count(StorageOp::Write), 0);
    }

    #[test]
    fn times_and_forever_budgets() {
        let plan = FaultPlan::new();
        plan.arm(StorageOp::Write, Fault::times(2, FaultError::Enospc));
        assert!(plan.check(StorageOp::Write).is_some());
        assert!(plan.check(StorageOp::Write).is_some());
        assert!(plan.check(StorageOp::Write).is_none(), "budget exhausted");

        plan.arm(StorageOp::Write, Fault::forever(FaultError::Eio));
        for _ in 0..10 {
            assert!(plan.check(StorageOp::Write).is_some());
        }
        plan.clear();
        assert!(plan.check(StorageOp::Write).is_none(), "cleared");
        assert_eq!(plan.fired_count(StorageOp::Write), 12, "history kept");
    }

    #[test]
    fn permille_faults_are_deterministic_per_seed() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new();
            plan.arm(
                StorageOp::Write,
                Fault::permille(500, seed, FaultError::Eio),
            );
            (0..64)
                .map(|_| plan.check(StorageOp::Write).is_some())
                .collect()
        };
        assert_eq!(fire_pattern(7), fire_pattern(7), "same seed, same schedule");
        let fired = fire_pattern(7).iter().filter(|&&f| f).count();
        assert!(
            (10..=54).contains(&fired),
            "p=0.5 over 64 draws fired {fired} times"
        );
    }

    #[test]
    fn enospc_maps_to_storage_full() {
        let plan = FaultPlan::new();
        plan.arm(StorageOp::Write, Fault::once(FaultError::Enospc));
        let (error, _) = plan.check(StorageOp::Write).expect("armed");
        assert_eq!(error.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn clones_share_the_registry() {
        let plan = FaultPlan::new();
        let clone = plan.clone();
        plan.arm(StorageOp::Remove, Fault::once(FaultError::Eio));
        assert!(clone.check(StorageOp::Remove).is_some());
        assert!(plan.check(StorageOp::Remove).is_none());
        assert_eq!(plan.fired_count(StorageOp::Remove), 1);
    }

    #[test]
    fn a_held_sync_data_blocks_until_released() {
        let dir = tlstm_testutil::TempDir::new("txlog-vfs-hold");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let mut file = fs.create(&dir.path().join("probe")).unwrap();
        file.write_all(b"0123").unwrap();

        plan.hold(StorageOp::Fsync);
        plan.hold(StorageOp::Write);
        plan.release(StorageOp::Write);
        file.write_all(b"4567").unwrap();
        let returned = Arc::new(AtomicBool::new(false));
        let syncer = {
            let returned = Arc::clone(&returned);
            std::thread::spawn(move || {
                let synced = file.sync_data();
                returned.store(true, Ordering::SeqCst);
                synced.and_then(|()| file.sync_data())
            })
        };
        plan.wait_held(StorageOp::Fsync);
        assert!(
            !returned.load(Ordering::SeqCst),
            "a held fsync must not return"
        );
        assert!(plan.check(StorageOp::Fsync).is_none(), "only one op parks");
        plan.release(StorageOp::Fsync);
        syncer
            .join()
            .unwrap()
            .expect("released: the fsync and the next one pass");
        assert!(returned.load(Ordering::SeqCst));
        assert_eq!(plan.fired(), Vec::new(), "a latch is not a fault");
    }

    #[test]
    fn fault_fs_injects_on_files_and_short_writes_leave_a_prefix() {
        let dir = tlstm_testutil::TempDir::new("txlog-vfs");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let path = dir.path().join("probe");

        let mut file = fs.create(&path).unwrap();
        file.write_all(b"0123456789").unwrap();

        plan.arm(StorageOp::Write, Fault::once(FaultError::Enospc).short());
        let err = file.write_all(b"ABCDEFGH").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(file);
        assert_eq!(
            fs.read(&path).unwrap(),
            b"0123456789ABCD",
            "half the failed buffer landed before the error"
        );

        plan.arm(StorageOp::Read, Fault::once(FaultError::Eio));
        assert!(fs.read(&path).is_err());
        assert_eq!(fs.read(&path).unwrap(), b"0123456789ABCD", "one-shot");
    }
}
