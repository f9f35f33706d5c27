//! Shared deterministic harness for the workspace's multi-threaded STM tests.
//!
//! The recurring needs of the integration/stress tests live here:
//!
//! * [`TestRng`] — a seeded, deterministic PRNG so every test run (and every
//!   `tlstm-workloads` benchmark run) replays the same operation streams
//!   (override the seed per call site, never from ambient entropy);
//! * [`bounded_threads`] — caps test thread counts at the machine's
//!   parallelism so oversubscribed CI runners don't turn contention tests
//!   into multi-minute crawls;
//! * [`with_watchdog`] — runs a test body on a helper thread and panics if it
//!   exceeds its deadline, turning a livelocked or deadlocked STM run into a
//!   loud failure instead of a CI job that hangs forever;
//! * [`CountingAlloc`] — an allocation-counting global allocator for the
//!   zero-allocation hot-path tests;
//! * [`CrashPoints`] — a named crash-point registry for deterministic
//!   crash-injection tests (the `txlog` WAL writer honors these), zero-cost
//!   when disabled;
//! * [`TempDir`] — a unique scratch directory removed on drop, for tests that
//!   exercise real file I/O (WAL segments, snapshots).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Process-wide counter behind [`CountingAlloc`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// An allocation-counting wrapper around the system allocator.
///
/// Install it in a test binary with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
/// read the running count with [`allocation_count`]. Every `alloc`,
/// `alloc_zeroed` and `realloc` increments the counter; `dealloc` does not.
/// Keep one measuring `#[test]` per binary — tests in a binary run
/// concurrently and would pollute each other's counts.
pub struct CountingAlloc;

impl std::fmt::Debug for CountingAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CountingAlloc")
    }
}

/// Number of heap allocations performed by this process so far (only counted
/// while [`CountingAlloc`] is installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting is a
// relaxed atomic add, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Default deadline applied by [`with_default_watchdog`]. Generous enough for
/// debug builds on slow CI, far below any CI-level job timeout.
pub const DEFAULT_TEST_DEADLINE: Duration = Duration::from_secs(120);

/// A small deterministic PRNG (xorshift*) for reproducible test inputs, and
/// the generator behind the workload streams and probabilistic storage
/// faults, so seeded runs replay the same operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed (zero is remapped to a constant).
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// `true` with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Caps a desired test thread count at the machine's available parallelism
/// (and at 1 from below), so contention tests scale down on small runners.
pub fn bounded_threads(desired: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2);
    desired.clamp(1, available.max(1))
}

/// Runs `body` on a helper thread and waits at most `deadline` for it.
///
/// If the body finishes, its panic (if any) is propagated to the caller so
/// ordinary assertion failures keep working. If the deadline expires the
/// calling test panics with a diagnostic — the runaway helper thread is
/// leaked, which is acceptable in a test process that is about to fail.
///
/// # Panics
///
/// Panics if `body` panics or does not finish within `deadline`.
pub fn with_watchdog<T: Send + 'static>(
    deadline: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("test-body".to_string())
        .spawn(move || {
            let _ = tx.send(body());
        })
        .expect("failed to spawn watchdog test thread");
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            worker.join().expect("test body panicked after reporting");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked before sending: join to propagate the panic.
            match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("worker disconnected without panicking"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Leave a post-mortem: dump the txobs trace rings (per-thread
            // event history with thread labels) before killing the test.
            // Empty unless the hung test enabled tracing, but stress tests
            // that opt in get a timeline of what each thread last did.
            eprintln!(
                "watchdog: dumping txobs trace rings (tracing {}):",
                if txobs::tracing_enabled() {
                    "enabled"
                } else {
                    "disabled — enable with txobs::set_tracing(true) for event history"
                }
            );
            txobs::dump_to_stderr();
            panic!(
                "test exceeded its {:?} watchdog deadline — probable deadlock or livelock \
                 in the STM runtime under test",
                deadline
            );
        }
    }
}

/// [`with_watchdog`] with the [`DEFAULT_TEST_DEADLINE`].
pub fn with_default_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    with_watchdog(DEFAULT_TEST_DEADLINE, body)
}

/// A named crash-point registry for deterministic crash-injection tests.
///
/// Production code inserts `if crash_points.should_crash("component::point")`
/// checks at interesting places (the `txlog` WAL writer honors the append
/// path `wal::before-append`, `wal::mid-frame`,
/// `wal::after-append-before-fsync`, `wal::after-fsync-before-ack` and the
/// rotation path `wal::before-rotate-fsync`,
/// `wal::after-create-before-dirsync`, `wal::after-rotate-before-ack` —
/// `txlog::crash_points` holds the authoritative list); tests
/// [`arm`](CrashPoints::arm) one
/// point and the component simulates a process crash when it is reached —
/// typically by abandoning all further I/O and failing every in-flight
/// acknowledgement.
///
/// The registry is designed to be **zero-cost when disabled**: the default
/// (disarmed) handle answers `should_crash` with a single relaxed atomic load
/// and never takes a lock. Firing is one-shot — the first matching check
/// consumes the armed point, so a "crashed" component that keeps calling
/// `should_crash` on its way down does not re-trigger.
///
/// Handles are cheap clones sharing one registry, so a test can keep a handle
/// while the component under test owns another. Each handle tree is
/// independent: concurrently running tests arm their own registries without
/// cross-talk (there is no process-global instance).
#[derive(Debug, Clone, Default)]
pub struct CrashPoints {
    inner: Arc<CrashInner>,
}

#[derive(Debug, Default)]
struct CrashInner {
    /// Fast-path gate: `false` ⇒ nothing armed, `should_crash` is one load.
    enabled: AtomicBool,
    armed: Mutex<Option<String>>,
    fired: Mutex<Option<String>>,
}

impl CrashPoints {
    /// A disarmed registry (every `should_crash` answers `false`).
    pub fn disabled() -> Self {
        CrashPoints::default()
    }

    /// Arms `point`: the next `should_crash(point)` returns `true` (once).
    /// Re-arming replaces any previously armed point.
    pub fn arm(&self, point: &str) {
        *self.inner.armed.lock().unwrap() = Some(point.to_string());
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Disarms the registry without clearing the fired record.
    pub fn disarm(&self) {
        self.inner.enabled.store(false, Ordering::Release);
        *self.inner.armed.lock().unwrap() = None;
    }

    /// `true` iff `point` is the armed crash point. The first matching call
    /// consumes the armed point (one-shot) and records it as fired. When
    /// nothing is armed this is a single relaxed atomic load.
    #[inline]
    pub fn should_crash(&self, point: &str) -> bool {
        if !self.inner.enabled.load(Ordering::Acquire) {
            return false;
        }
        self.check_slow(point)
    }

    #[cold]
    fn check_slow(&self, point: &str) -> bool {
        let mut armed = self.inner.armed.lock().unwrap();
        if armed.as_deref() == Some(point) {
            *self.inner.fired.lock().unwrap() = armed.take();
            self.inner.enabled.store(false, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// The point that fired, if any did.
    pub fn fired(&self) -> Option<String> {
        self.inner.fired.lock().unwrap().clone()
    }
}

/// Monotonic counter making [`TempDir`] names unique within one process.
static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A uniquely named scratch directory under the system temp dir, removed
/// (recursively) when dropped. For tests that exercise real file I/O.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<tmp>/<prefix>-<pid>-<seq>`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("failed to create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = TestRng::new(0);
        assert_ne!(r.next_u64(), 0);
        for _ in 0..100 {
            assert!(r.range(3, 9) < 9);
            let _ = r.percent(50);
        }
    }

    #[test]
    fn bounded_threads_clamps() {
        assert_eq!(bounded_threads(0), 1);
        assert!(bounded_threads(1_000_000) >= 1);
        assert!(bounded_threads(2) <= 2);
    }

    #[test]
    fn watchdog_returns_value() {
        assert_eq!(with_watchdog(Duration::from_secs(5), || 42), 42);
    }

    #[test]
    fn watchdog_propagates_body_panic() {
        let result = std::panic::catch_unwind(|| {
            with_watchdog(Duration::from_secs(5), || panic!("inner failure"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn crash_points_fire_once_and_only_when_armed() {
        let points = CrashPoints::disabled();
        assert!(!points.should_crash("wal::before-append"));
        assert_eq!(points.fired(), None);

        points.arm("wal::mid-frame");
        assert!(!points.should_crash("wal::before-append"), "wrong point");
        assert!(points.should_crash("wal::mid-frame"));
        assert!(!points.should_crash("wal::mid-frame"), "firing is one-shot");
        assert_eq!(points.fired(), Some("wal::mid-frame".to_string()));

        // Clones share the registry.
        let clone = points.clone();
        points.arm("wal::after-fsync-before-ack");
        assert!(clone.should_crash("wal::after-fsync-before-ack"));
        assert!(!points.should_crash("wal::after-fsync-before-ack"));

        points.arm("x");
        points.disarm();
        assert!(!points.should_crash("x"));
    }

    #[test]
    fn temp_dir_is_unique_and_removed_on_drop() {
        let a = TempDir::new("testutil-probe");
        let b = TempDir::new("testutil-probe");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "temp dir must be removed on drop");
    }

    #[test]
    fn watchdog_fires_on_hang() {
        let result = std::panic::catch_unwind(|| {
            with_watchdog(Duration::from_millis(50), || loop {
                std::thread::sleep(Duration::from_millis(10));
            });
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("watchdog"), "unexpected panic message: {msg}");
    }
}
