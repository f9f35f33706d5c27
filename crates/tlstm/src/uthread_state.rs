//! Shared per-user-thread state.
//!
//! Every task running on behalf of a user-thread shares one
//! [`UThreadShared`]: the `completed-task` / `completed-writer` counters of
//! the paper, the `owners[SPECDEPTH]` slot array used to signal individual
//! tasks, the running `execute`'s count of unfinished helper lanes, and a
//! condition variable that waiters use instead of burning CPU.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// How long a waiter sleeps on the progress condition variable before
/// re-checking its predicate. A timeout bounds the damage of any missed
/// notification.
pub(crate) const WAIT_SLICE: Duration = Duration::from_micros(200);

/// One entry of the `owners[SPECDEPTH]` array: the task currently occupying
/// the slot and its individual abort flag (`aborted-internally`).
#[derive(Debug, Default)]
pub struct TaskSlot {
    /// Serial number of the task currently installed in this slot
    /// (0 = slot unused so far).
    serial: AtomicU64,
    /// `aborted-internally`: set when another task of the same user-thread
    /// decides this task must roll back individually (intra-thread WAW).
    aborted_internally: AtomicBool,
}

impl TaskSlot {
    /// Installs task `serial` in this slot, clearing any stale abort flag.
    pub fn install(&self, serial: u64) {
        self.serial.store(serial, Ordering::Release);
        self.aborted_internally.store(false, Ordering::Release);
    }

    /// Signals the task `target_serial` to abort, but only if it still
    /// occupies this slot. Returns `true` if this call delivered the signal
    /// (`false` for a stale serial or a flag that was already raised).
    pub fn signal_abort(&self, target_serial: u64) -> bool {
        self.serial.load(Ordering::Acquire) == target_serial
            && !self.aborted_internally.swap(true, Ordering::AcqRel)
    }

    /// `true` if task `serial` currently occupies the slot and has been asked
    /// to abort.
    pub fn is_aborted(&self, serial: u64) -> bool {
        self.serial.load(Ordering::Acquire) == serial
            && self.aborted_internally.load(Ordering::Acquire)
    }
}

/// State shared by every task of one user-thread.
#[derive(Debug)]
pub struct UThreadShared {
    /// Program-thread identifier (`tid` / `ptid` in the paper).
    ptid: u32,
    /// Maximum number of simultaneously active tasks (`SPECDEPTH`).
    spec_depth: usize,
    /// Whether waiting tasks may busy-spin: only when the host has more
    /// cores than the user-thread can have lanes (`spec_depth`). Otherwise
    /// a spinning waiter takes its core from the task it is waiting for.
    spin_waits: bool,
    /// Serial of the last completed task (0 = none yet). `completed-task`.
    completed_task: AtomicU64,
    /// Serial of the last completed *writer* task. `completed-writer`.
    completed_writer: AtomicU64,
    /// Monotonic counter bumped every time `completed_writer` changes *or* a
    /// user-transaction rolls back. Tasks snapshot it as their `last-writer`
    /// and re-run intra-thread validation whenever it has advanced; unlike the
    /// raw `completed-writer` value it never repeats after a rollback, so a
    /// needed validation can never be skipped.
    writer_events: AtomicU64,
    /// `owners[SPECDEPTH]`.
    owners: Box<[TaskSlot]>,
    /// Helper lanes of the running `execute` that have not finished yet. A
    /// helper's release decrement, acquired by the caller's wait, publishes
    /// everything its lane's tasks did (result slots included).
    helper_lanes: AtomicUsize,
    /// Progress lock + condition variable: notified whenever any of the
    /// counters above change or a transaction commits / aborts.
    progress_lock: Mutex<()>,
    progress_cv: Condvar,
}

impl UThreadShared {
    /// Creates the shared state for a user-thread with the given speculative
    /// depth.
    ///
    /// # Panics
    ///
    /// Panics if `spec_depth` is zero.
    pub fn new(ptid: u32, spec_depth: usize) -> Self {
        assert!(spec_depth >= 1, "spec_depth must be at least 1");
        let mut owners = Vec::with_capacity(spec_depth);
        owners.resize_with(spec_depth, TaskSlot::default);
        UThreadShared {
            ptid,
            spec_depth,
            spin_waits: txmem::pause::cores() > spec_depth,
            completed_task: AtomicU64::new(0),
            completed_writer: AtomicU64::new(0),
            writer_events: AtomicU64::new(0),
            owners: owners.into_boxed_slice(),
            helper_lanes: AtomicUsize::new(0),
            progress_lock: Mutex::new(()),
            progress_cv: Condvar::new(),
        }
    }

    /// The user-thread identifier.
    pub fn ptid(&self) -> u32 {
        self.ptid
    }

    /// The speculative depth (`SPECDEPTH`).
    pub fn spec_depth(&self) -> usize {
        self.spec_depth
    }

    /// The `owners[]` slot a task with this serial occupies.
    pub fn slot(&self, serial: u64) -> &TaskSlot {
        &self.owners[(serial as usize) % self.spec_depth]
    }

    /// Serial of the last completed task.
    pub fn completed_task(&self) -> u64 {
        self.completed_task.load(Ordering::Acquire)
    }

    /// Serial of the last completed writer task.
    pub fn completed_writer(&self) -> u64 {
        self.completed_writer.load(Ordering::Acquire)
    }

    /// Current writer-event counter (see the field documentation).
    pub fn writer_events(&self) -> u64 {
        self.writer_events.load(Ordering::Acquire)
    }

    /// Marks task `serial` as completed; `wrote` indicates whether it is a
    /// writer task.
    pub fn mark_completed(&self, serial: u64, wrote: bool) {
        if wrote {
            self.completed_writer.store(serial, Ordering::Release);
            self.writer_events.fetch_add(1, Ordering::AcqRel);
        }
        self.completed_task.store(serial, Ordering::Release);
        self.notify();
    }

    /// Resets the counters after a user-transaction rollback: the transaction
    /// starting at `start_serial` un-completes all of its tasks.
    pub fn reset_after_rollback(&self, start_serial: u64) {
        let floor = start_serial.saturating_sub(1);
        // Clamp rather than overwrite: the counters can never exceed the
        // rolled-back transaction's serials at this point, but be defensive.
        let _ = self.completed_task.fetch_min(floor, Ordering::AcqRel);
        let _ = self.completed_writer.fetch_min(floor, Ordering::AcqRel);
        self.writer_events.fetch_add(1, Ordering::AcqRel);
        self.notify();
    }

    /// Arms the counter for an `execute` that hands `lanes` jobs to helpers.
    pub(crate) fn start_helper_lanes(&self, lanes: usize) {
        self.helper_lanes.store(lanes, Ordering::Release);
    }

    /// A helper reports that its lane's last task has retired.
    pub(crate) fn finish_helper_lane(&self) {
        self.helper_lanes.fetch_sub(1, Ordering::AcqRel);
        self.notify();
    }

    /// Blocks the caller until every helper lane of its `execute` finished.
    pub(crate) fn wait_for_helper_lanes(&self) {
        self.wait_until(|| self.helper_lanes.load(Ordering::Acquire) == 0);
    }

    /// Wakes every task waiting on this user-thread's progress.
    pub fn notify(&self) {
        let _guard = self.progress_lock.lock();
        self.progress_cv.notify_all();
    }

    /// Blocks until `predicate` returns `true`.
    ///
    /// The events tasks wait for (a past task completing, a transaction
    /// committing, a rollback epoch advancing) usually resolve within a few
    /// microseconds, so the wait first spins, then yields, and only then
    /// parks on the condition variable (with a timeout that bounds the effect
    /// of a missed wake-up).
    pub fn wait_until(&self, mut predicate: impl FnMut() -> bool) {
        // Spin phase (see `spin_waits`).
        if self.spin_waits {
            for _ in 0..2_000 {
                if predicate() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        // Yield phase.
        for _ in 0..64 {
            if predicate() {
                return;
            }
            std::thread::yield_now();
        }
        // Park phase.
        let mut guard = self.progress_lock.lock();
        loop {
            if predicate() {
                return;
            }
            self.progress_cv.wait_for(&mut guard, WAIT_SLICE);
        }
    }

    /// Backs off briefly inside polling loops that must also observe
    /// non-counter state (such as lock chains): spins, then yields, without
    /// parking — the caller re-checks its own condition after every call.
    pub fn wait_slice(&self) {
        if self.spin_waits {
            for _ in 0..128 {
                std::hint::spin_loop();
            }
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_map_serials_modulo_depth() {
        let u = UThreadShared::new(0, 3);
        u.slot(1).install(1);
        u.slot(4).install(4);
        // Serial 1 and 4 share slot 1 % 3 == 4 % 3.
        assert!(std::ptr::eq(u.slot(1), u.slot(4)));
        assert!(!std::ptr::eq(u.slot(1), u.slot(2)));
    }

    #[test]
    fn slot_signalling_checks_serial() {
        let u = UThreadShared::new(0, 2);
        u.slot(3).install(3);
        assert!(!u.slot(3).is_aborted(3));
        // Signalling a stale serial is a no-op.
        assert!(!u.slot(1).signal_abort(1));
        assert!(!u.slot(3).is_aborted(3));
        // Signalling the installed serial works.
        assert!(u.slot(3).signal_abort(3));
        assert!(u.slot(3).is_aborted(3));
        // A restart re-installs the task, which clears the flag.
        u.slot(3).install(3);
        assert!(!u.slot(3).is_aborted(3));
        // Installing a new task clears it too.
        u.slot(3).signal_abort(3);
        u.slot(5).install(5);
        assert!(!u.slot(5).is_aborted(5));
    }

    #[test]
    fn completion_counters_track_writers_separately() {
        let u = UThreadShared::new(0, 4);
        u.mark_completed(1, false);
        assert_eq!(u.completed_task(), 1);
        assert_eq!(u.completed_writer(), 0);
        let events_before = u.writer_events();
        u.mark_completed(2, true);
        assert_eq!(u.completed_task(), 2);
        assert_eq!(u.completed_writer(), 2);
        assert_eq!(u.writer_events(), events_before + 1);
    }

    #[test]
    fn rollback_resets_counters_and_bumps_writer_events() {
        let u = UThreadShared::new(0, 4);
        u.mark_completed(1, true);
        u.mark_completed(2, true);
        let events = u.writer_events();
        u.reset_after_rollback(2);
        assert_eq!(u.completed_task(), 1);
        assert_eq!(u.completed_writer(), 1);
        assert!(u.writer_events() > events);
        // Rolling back a transaction that starts before the counters does not
        // raise them.
        u.reset_after_rollback(5);
        assert_eq!(u.completed_task(), 1);
    }

    #[test]
    fn wait_until_observes_concurrent_progress() {
        let u = UThreadShared::new(0, 2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                u.wait_until(|| u.completed_task() >= 3);
                u.completed_task()
            });
            std::thread::sleep(Duration::from_millis(10));
            u.mark_completed(1, false);
            u.mark_completed(2, false);
            u.mark_completed(3, false);
            assert!(waiter.join().unwrap() >= 3);
        });
    }

    #[test]
    #[should_panic(expected = "spec_depth")]
    fn zero_depth_rejected() {
        let _ = UThreadShared::new(0, 0);
    }
}
