//! The process-wide pool of helper threads TLSTM user-threads borrow lanes
//! from. A helper runs one [`Job`] — one lane's tasks, each to retirement —
//! goes back on the idle list and reports to the user-thread. Helpers are
//! named `tlstm-helper-N` and never exit; a claim never blocks.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::task::TaskBufs;
use crate::worker::{WorkItem, Worker};

/// How a user-thread's claims are served; its constructor decides.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Claim {
    /// `register_uthread_default`: idle helpers only, at most `cores − 1` of
    /// them out on such claims at once — none on a one-core host — and the
    /// pool grows for such a claim only while it holds fewer than that.
    Idle,
    /// `register_uthread(depth)`: the whole crew, spawning helpers when too
    /// few are idle.
    Full,
}

/// One helper lane of an `execute`: its tasks in serial order, and the
/// calling user-thread's context to run them in. The items' borrow is
/// erased (`UThread::execute` argues why that is sound).
struct Job {
    worker: Worker,
    items: Vec<WorkItem<'static>>,
}

/// A helper thread's mailbox.
pub(crate) struct Helper {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

struct Pool {
    idle: Vec<Arc<Helper>>,
    spawned: usize,
    /// Helpers out on [`Claim::Idle`] crews, whoever spawned them.
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
    let mut crew = pool.idle.split_off(keep);
    let first = pool.spawned;
    pool.spawned += (want - crew.len()).min(room);
    let last = pool.spawned;
    if let Claim::Idle = policy {
        pool.lent_idle += crew.len() + (last - first);
    }
    drop(pool);
    crew.extend((first..last).map(Helper::spawn));
    crew
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
    pub(crate) fn start(&self, worker: Worker, items: Vec<WorkItem<'static>>) {
        *self.job.lock() = Some(Job { worker, items });
        self.wake.notify_one();
    }

    fn serve(self: Arc<Self>) {
        // Recycled across every task of every user-thread the helper serves.
        let mut bufs = TaskBufs::default();
        loop {
            let Job { worker, items } = {
                let mut job = self.job.lock();
                loop {
                    match job.take() {
                        Some(job) => break job,
                        None => self.wake.wait(&mut job),
                    }
                }
            };
            {
                let _abort = AbortOnUnwind;
                // Consumes the items: the borrowed bodies are gone before
                // the caller hears the lane is done.
                worker.run_lane(items, &mut bufs);
            }
            // Idle before the caller hears the lane is done, so its next
            // `execute` can claim this helper straight back.
            let mut pool = POOL.lock();
            pool.idle.push(Arc::clone(&self));
            if let Claim::Idle = worker.claim {
                pool.lent_idle -= 1;
            }
            drop(pool);
            worker.uthread.finish_helper_lane();
        }
    }
}

/// Aborts the process, after the panic message, when dropped during a panic.
/// Guards every lane that runs while helpers are out: a panicked task never
/// retires, so the rest of its crew would wait forever — and unwinding the
/// caller would free borrowed bodies (`UThread::execute`) helpers still run.
pub(crate) struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}
