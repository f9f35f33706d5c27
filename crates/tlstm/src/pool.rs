//! The process-wide pool of helper threads TLSTM user-threads borrow lanes
//! from. A helper runs one [`Job`] — the claim loop over one `execute`'s
//! batch, until it finds nothing to claim — then drops its clone of the
//! batch and wakes the user-thread. The `execute` that claimed a helper
//! takes back a job it has not started and returns it to the idle list.
//! Helpers are named `tlstm-helper-N` and never exit; a claim never blocks.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::worker::{Batch, Worker};

/// How a user-thread's claims are served; its constructor decides.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Claim {
    /// `register_uthread_default`: idle helpers only, at most `cores − 1` of
    /// them out on such claims at once — none on a one-core host — and the
    /// pool grows for such a claim only while it holds fewer than that.
    Idle,
    /// `register_uthread(depth)`: every helper asked for, spawning helpers
    /// when too few are idle.
    Full,
}

/// One helper lane of an `execute`: a clone of the batch to claim tasks
/// from, and the calling user-thread's context to run them in. The batch's
/// borrow is erased (`UThread::execute` argues why that is sound).
struct Job {
    worker: Worker,
    batch: Arc<Batch<'static>>,
}

/// A helper thread's job slot.
pub(crate) struct Helper {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

struct Pool {
    idle: Vec<Arc<Helper>>,
    spawned: usize,
    /// Helpers out on [`Claim::Idle`] claims, whoever spawned them.
    lent_idle: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    idle: Vec::new(),
    spawned: 0,
    lent_idle: 0,
});

/// Claims up to `want` helpers for one `execute`.
pub(crate) fn claim(want: usize, policy: Claim) -> Vec<Arc<Helper>> {
    if want == 0 {
        return Vec::new();
    }
    let mut pool = POOL.lock();
    let (want, room) = match policy {
        Claim::Full => (want, usize::MAX),
        Claim::Idle => {
            let cap = txmem::pause::cores() - 1;
            (
                want.min(cap - pool.lent_idle),
                cap.saturating_sub(pool.spawned),
            )
        }
    };
    let keep = pool.idle.len().saturating_sub(want);
    let mut helpers = pool.idle.split_off(keep);
    let first = pool.spawned;
    pool.spawned += (want - helpers.len()).min(room);
    let last = pool.spawned;
    if let Claim::Idle = policy {
        pool.lent_idle += helpers.len() + (last - first);
    }
    drop(pool);
    helpers.extend((first..last).map(Helper::spawn));
    helpers
}

impl Helper {
    fn spawn(n: usize) -> Arc<Helper> {
        let helper = Arc::new(Helper {
            job: Mutex::new(None),
            wake: Condvar::new(),
        });
        let serving = Arc::clone(&helper);
        std::thread::Builder::new()
            .name(format!("tlstm-helper-{n}"))
            .spawn(move || serving.serve())
            .expect("failed to spawn a TLSTM helper thread");
        helper
    }

    /// Hands this claimed helper a lane of `worker`'s user-thread.
    pub(crate) fn start(&self, worker: Worker, batch: Arc<Batch<'static>>) {
        *self.job.lock() = Some(Job { worker, batch });
        self.wake.notify_one();
    }

    /// Takes back (and drops) a job this helper has not started.
    pub(crate) fn take_back(&self) {
        self.job.lock().take();
    }

    fn serve(self: Arc<Self>) {
        loop {
            let Job { worker, batch } = {
                let mut job = self.job.lock();
                loop {
                    match job.take() {
                        Some(job) => break job,
                        None => self.wake.wait(&mut job),
                    }
                }
            };
            let _abort = AbortOnUnwind;
            worker.run_batch(&batch, false);
            // The caller waits for this drop, the helper's last touch of it.
            drop(batch);
            worker.uthread.notify();
        }
    }
}

/// Puts the helpers one `execute` claimed back on the idle list, once none
/// of them runs its job any more.
pub(crate) fn release(helpers: Vec<Arc<Helper>>, policy: Claim) {
    if helpers.is_empty() {
        return;
    }
    let mut pool = POOL.lock();
    if let Claim::Idle = policy {
        pool.lent_idle -= helpers.len();
    }
    pool.idle.extend(helpers);
}

/// Aborts the process, after the panic message, when dropped during a panic.
/// Guards every lane that runs while helpers are out: a panicked task never
/// retires, so the other lanes would wait forever — and unwinding the
/// caller would free the batch (`UThread::execute`) helpers still claim from.
pub(crate) struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}
