//! The speculative task execution context.
//!
//! A [`TaskCtx`] is the handle a task body uses to access transactional
//! memory. In a batch that claimed no helper lane it forwards each access
//! to the solo [`Transaction`] (SwissTM's), and nothing below applies.
//! Otherwise it implements the read/write rules of Algorithms 1 and 2 of the
//! paper and the per-task half of the commit/abort protocol of Algorithm 3
//! (the whole-transaction commit performed by the commit-task lives in
//! `TaskCtx::task_commit`). Reads of committed state, `extend` and the
//! commit sequence are SwissTM's, defined once in [`txmem::protocol`]; this
//! module adds what is TLSTM's: chain entries, `validate-task`, past-waiting
//! and the commit of every task's logs by the commit-task.
//!
//! Each task keeps its own snapshot, so the commit-task commits several: the
//! commit sequence checks only those another commit may have invalidated (a
//! snapshot whose `valid-ts` is the tick before the commit's timestamp is
//! skipped), and a read-only transaction only those older than the clock's
//! now ([`txmem::validate_at_now`]). A stale snapshot is checked even when
//! its sibling tasks' are fresh: tasks begin and extend independently.
//!
//! ## One copy of a task's state
//!
//! A task's writes live only in its entries of the lock chains
//! ([`txmem::chain`]), where its own and other tasks' reads, `validate-task`
//! and the commit-task's write-back find them. Everything else it keeps (the
//! snapshot, the task-read log, the locks it holds chain entries under, the
//! commit scratch) lives in the `TaskBufs` of its `owners[]` slot, recycled
//! across attempts and tasks: the lane running the task holds them, and once
//! it completes the commit-task reads them in place (or, on a rollback,
//! dismantles their chain entries). So in steady state the task paths do not
//! allocate; only the per-transaction orchestration (the `TxnShared`, the
//! batch, the task closures) does.

use std::sync::Arc;

use parking_lot::MutexGuard;
use txmem::chain::ChainRead;
use txmem::pause::contention_pause;
use txmem::{
    commit_locked, validate_at_now, Abort, AbortReason, LockEntry, LockIndex, OpCounters,
    OwnerHandle, OwnerToken, Snapshot, Transaction, TxMem, TxSubstrate, WordAddr,
};

use crate::txn_state::{TaskReadEntry, TxnShared};
use crate::uthread_state::{TaskSlot, UThreadShared};

/// Recyclable speculative buffers of one `owners[]` slot.
///
/// Every task that occupies the slot builds its state here; all vectors
/// retain their capacity across attempts and tasks.
#[derive(Debug, Default)]
pub(crate) struct TaskBufs {
    /// `valid-ts` and the reads from committed state.
    snapshot: Snapshot,
    /// Reads from past tasks' speculative values.
    task_read_log: Vec<TaskReadEntry>,
    /// Locks under which this task created chain entries, in acquisition
    /// order; the task wrote iff it is non-empty. The entries themselves,
    /// and whether the task holds one, are the lock chain's.
    pub(crate) acquired: Vec<LockIndex>,
    /// Commit-task scratch: the whole transaction's `(lock, pre-lock
    /// version)` pairs, sorted by lock index (replaces the former
    /// `old_versions` hash map).
    commit_locks: Vec<(LockIndex, u64)>,
}

/// The handle a task body accesses transactional memory through.
///
/// It dispatches once per access to one of two states. A batch that claimed
/// no helper lane runs *solo*: the bodies of each transaction one after
/// another, in program order, inside one [`Transaction`] (SwissTM's), so a
/// task nobody else can see pays no task bookkeeping. Otherwise it is a
/// speculative task of the paper, with its chain entries, task-read log and
/// `validate-task`.
#[derive(Debug)]
pub struct TaskCtx<'rt>(Mode<'rt>);

#[derive(Debug)]
enum Mode<'rt> {
    Solo(Transaction<'rt>),
    Spec(SpecTask<'rt>),
}

/// Execution context of one speculative task attempt.
///
/// The same context is reused across re-executions of the task (after
/// intra-thread or inter-thread conflicts); `reset_for_attempt` clears the
/// speculative state between attempts. The backing buffers are the task's
/// slot's recycled `TaskBufs`.
#[derive(Debug)]
pub(crate) struct SpecTask<'rt> {
    substrate: &'rt TxSubstrate,
    /// The owning user-thread's statistics shard.
    stats: &'rt txmem::StatsShard,
    uthread: &'rt UThreadShared,
    /// The task's `owners[]` slot, resolved once: `check_signals` runs on
    /// every access and must not pay the `serial mod SPECDEPTH` division.
    slot: &'rt TaskSlot,
    txn: Arc<TxnShared>,
    txn_owner: OwnerHandle,
    serial: u64,
    try_commit: bool,
    token: OwnerToken,
    last_writer_events: u64,
    bufs: &'rt mut TaskBufs,
    ops: OpCounters,
}

/// Internal result of probing a lock chain during a speculative read.
enum SpecProbe {
    Own(u64),
    Past { writer_serial: u64, value: u64 },
    WaitForWriter,
    Fallback,
    Released,
}

impl<'rt> TaskCtx<'rt> {
    /// The context of a speculative task (see [`SpecTask::new`]).
    pub(crate) fn new(
        substrate: &'rt TxSubstrate,
        uthread: &'rt UThreadShared,
        txn: Arc<TxnShared>,
        serial: u64,
        bufs: &'rt mut TaskBufs,
    ) -> Self {
        TaskCtx(Mode::Spec(SpecTask::new(
            substrate, uthread, txn, serial, bufs,
        )))
    }

    /// The context of a body that runs inside the solo transaction `tx`.
    pub(crate) fn solo(tx: Transaction<'rt>) -> Self {
        TaskCtx(Mode::Solo(tx))
    }

    /// Requests an explicit user-level retry of the task (and hence of its
    /// user-transaction once it propagates).
    pub fn retry<T>(&self) -> Result<T, Abort> {
        Err(Abort::user_retry())
    }

    /// The speculative task's state; the worker drives only speculative
    /// contexts.
    pub(crate) fn spec(&mut self) -> &mut SpecTask<'rt> {
        match &mut self.0 {
            Mode::Spec(task) => task,
            Mode::Solo(_) => unreachable!("a solo body has no task lifecycle"),
        }
    }
}

impl<'rt> SpecTask<'rt> {
    /// Creates the context for one task.
    fn new(
        substrate: &'rt TxSubstrate,
        uthread: &'rt UThreadShared,
        txn: Arc<TxnShared>,
        serial: u64,
        bufs: &'rt mut TaskBufs,
    ) -> Self {
        let token = OwnerToken::from_id(uthread.ptid());
        let txn_owner: OwnerHandle = Arc::clone(&txn) as _;
        let last_writer_events = uthread.writer_events();
        let stats = substrate.stats.shard(uthread.ptid());
        let try_commit = serial == txn.commit_serial();
        debug_assert!(
            bufs.acquired.is_empty(),
            "a slot's buffers are reused with no chain entries"
        );
        SpecTask {
            substrate,
            stats,
            uthread,
            slot: uthread.slot(serial),
            txn,
            txn_owner,
            serial,
            try_commit,
            token,
            last_writer_events,
            bufs,
            ops: OpCounters::default(),
        }
    }

    // --- crate-internal lifecycle -------------------------------------------

    /// Prepares the context for a (re-)execution attempt of the task body.
    /// Clearing retains the recycled buffers' capacity.
    pub(crate) fn reset_for_attempt(&mut self) {
        self.bufs.snapshot.begin(&self.substrate.clock);
        self.bufs.task_read_log.clear();
        debug_assert!(
            self.bufs.acquired.is_empty(),
            "chain entries must be removed before reset"
        );
        self.last_writer_events = self.uthread.writer_events();
        self.slot.install(self.serial);
    }

    /// Removes every speculative chain entry this task installed and releases
    /// write locks whose chains become empty. Called on every rollback.
    pub(crate) fn remove_chain_entries(&mut self) {
        remove_chain_entries(
            self.substrate,
            self.token,
            self.serial,
            &mut self.bufs.acquired,
        );
    }

    /// Flushes the local read/write counters into the user-thread's
    /// statistics shard.
    pub(crate) fn flush_op_counters(&mut self) {
        self.ops.flush(self.stats);
    }

    // --- signal handling ------------------------------------------------------

    /// Checks the abort-transaction and aborted-internally flags
    /// (Algorithm 1 line 12, Algorithm 2 lines 34/40, Algorithm 3 lines 67-68).
    fn check_signals(&self) -> Result<(), Abort> {
        task_signals(&self.txn, self.slot, self.serial)
    }

    // --- intra-thread validation ---------------------------------------------

    /// Runs `validate-task` if a writer task of this user-thread has completed
    /// (or a rollback happened) since the last successful validation.
    fn maybe_validate_task(&mut self) -> Result<(), Abort> {
        let events = self.uthread.writer_events();
        if events != self.last_writer_events {
            if !self.validate_task() {
                return Err(Abort::new(AbortReason::IntraThreadWar));
            }
            self.last_writer_events = events;
        }
        Ok(())
    }

    /// `validate-task` (Algorithm 1, lines 17-31): checks that every
    /// speculative read still observes the most recent past writer, and that
    /// no past task has speculatively written to a location this task read
    /// from committed state.
    pub(crate) fn validate_task(&self) -> bool {
        self.stats.validations.inc();
        // Part 1: reads from past tasks' speculative values.
        for rec in &self.bufs.task_read_log {
            let entry = self.substrate.locks.entry(rec.lock);
            // A never-allocated chain means the writer's entry is gone.
            let Some(chain) = entry.try_chain() else {
                return false;
            };
            if !self.owns_chain(entry) {
                // The writer's transaction committed or aborted and released
                // the lock: the speculative read is no longer backed.
                return false;
            }
            let mut latest_past_writer = None;
            for e in chain.iter() {
                if e.serial < self.serial && e.value_of(rec.addr).is_some() {
                    latest_past_writer = Some(e.serial);
                }
            }
            if latest_past_writer != Some(rec.writer_serial) {
                return false;
            }
        }
        // Part 2: reads from committed state must not have been overwritten
        // speculatively by a past task of this user-thread.
        for &(idx, _version) in self.bufs.snapshot.reads() {
            let entry = self.substrate.locks.entry(idx);
            // No chain allocated: nobody ever wrote speculatively here.
            let Some(chain) = entry.try_chain() else {
                continue;
            };
            if self.owns_chain(entry) && chain.iter().any(|e| e.serial < self.serial) {
                return false;
            }
        }
        true
    }

    /// `true` if this task's user-thread holds `entry`'s w-lock. Asked with
    /// the entry's chain mutex held, it also answers whether every entry of
    /// the chain is this user-thread's (see [`txmem::chain`]).
    fn owns_chain(&self, entry: &LockEntry) -> bool {
        entry.writer_token() == self.token
    }

    // --- speculative read (Algorithm 1) ---------------------------------------

    fn read_word(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.check_signals()?;
        let (idx, entry) = self.substrate.locks.lookup(addr);
        loop {
            if !self.owns_chain(entry) {
                // Not locked by this user-thread (or just released): read the
                // committed value exactly as SwissTM would. A word this task
                // wrote is under a lock its user-thread holds, so this test
                // also answers "not written by me".
                break;
            }
            let probe = {
                // `try_chain` never allocates: a missing chain behaves like
                // an empty one (the writer has not recorded its entry yet).
                let chain = entry.try_chain();
                // Re-check ownership under the chain mutex: the lock may have
                // been released and re-acquired by another user-thread between
                // the token check above and taking the mutex.
                match chain.as_deref() {
                    Some(chain) if !chain.is_empty() && self.owns_chain(entry) => {
                        match chain.read_visible(addr, self.serial) {
                            ChainRead::Own(value) => SpecProbe::Own(value),
                            ChainRead::Past {
                                writer_serial,
                                value,
                            } => {
                                if self.uthread.completed_task() >= writer_serial {
                                    SpecProbe::Past {
                                        writer_serial,
                                        value,
                                    }
                                } else {
                                    SpecProbe::WaitForWriter
                                }
                            }
                            ChainRead::Committed => SpecProbe::Fallback,
                        }
                    }
                    _ => SpecProbe::Released,
                }
            };
            match probe {
                // Reads from the task's own writes need no validation.
                SpecProbe::Own(value) => return Ok(value),
                SpecProbe::Past {
                    writer_serial,
                    value,
                } => {
                    // Validate pending intra-thread conflicts before trusting
                    // the speculative value (Algorithm 1, line 13), then log
                    // the read for later re-validation.
                    self.maybe_validate_task()?;
                    self.bufs.task_read_log.push(TaskReadEntry {
                        lock: idx,
                        addr,
                        writer_serial,
                    });
                    return Ok(value);
                }
                SpecProbe::WaitForWriter => {
                    // The most recent past writer is still running: wait for
                    // it to complete (Algorithm 1, line 11).
                    self.stats.reader_waits.inc();
                    self.check_signals()?;
                    self.uthread.wait_slice();
                    continue;
                }
                SpecProbe::Fallback => break,
                SpecProbe::Released => {
                    // Ownership changed under us: re-evaluate from the top
                    // (the next iteration will take the committed-read path
                    // unless our user-thread re-acquires the lock).
                    continue;
                }
            }
        }
        // Only the wait on a committer's write-back re-checks the signals;
        // the fast path was checked on entry.
        let (txn, slot, serial) = (&self.txn, self.slot, self.serial);
        self.bufs
            .snapshot
            .read_committed(self.substrate, self.stats, idx, entry, addr, || {
                task_signals(txn, slot, serial)
            })
    }

    // --- speculative write (Algorithm 2) ---------------------------------------

    fn write_word(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.check_signals()?;
        let (idx, entry) = self.substrate.locks.lookup(addr);
        let (serial, owner) = (self.serial, &self.txn_owner);
        // Fast path: this task already has a chain entry under this lock.
        // While it does, the w-lock stays its user-thread's and the entry is
        // the newest: a future writer that meets it self-aborts (Alg. 2
        // line 45), and a past writer signals it and waits until it is gone.
        // Serials are numbered per user-thread, so ownership is re-read
        // under the chain mutex before the serial is trusted.
        if self.owns_chain(entry) {
            let mut chain = entry.chain();
            if self.owns_chain(entry) && chain.newest().is_some_and(|e| e.serial == serial) {
                chain.record_write(serial, owner, addr, value);
                return Ok(());
            }
        }
        enum WwAction {
            Acquired { created: bool },
            SelfAbort,
            SignalRunning(u64),
            SignalCompletedTxn(OwnerHandle),
            InterThread(OwnerToken),
            Retry,
        }
        let mut spin = 0u32;
        loop {
            self.check_signals()?;
            let token = entry.writer_token();
            let action = if token.is_unlocked() {
                if entry.try_acquire_writer(self.token).is_ok() {
                    let created = entry.chain().record_write(serial, owner, addr, value);
                    WwAction::Acquired { created }
                } else {
                    WwAction::Retry
                }
            } else if token == self.token {
                // Locked by another task of this user-thread.
                let mut chain = entry.chain();
                // Re-check ownership under the chain mutex (see read_word).
                if entry.writer_token() != self.token {
                    drop(chain);
                    WwAction::Retry
                } else {
                    match chain.newest_serial() {
                        None => WwAction::Retry,
                        Some(newest) if newest <= self.serial => {
                            if newest < self.serial && self.uthread.completed_task() < newest {
                                // The most recent past writer is still running:
                                // this (future) task rolls back (Alg. 2 line 45).
                                WwAction::SelfAbort
                            } else {
                                let created = chain.record_write(serial, owner, addr, value);
                                WwAction::Acquired { created }
                            }
                        }
                        Some(newest) => {
                            // A future task holds the most speculative entry: it
                            // must abort (Alg. 2 line 47).
                            if self.uthread.completed_task() >= newest {
                                // Already completed: it can no longer observe an
                                // individual abort signal, so its whole
                                // user-transaction is asked to abort instead.
                                match chain.entry_for_serial(newest) {
                                    Some(e) => {
                                        WwAction::SignalCompletedTxn(OwnerHandle::clone(&e.owner))
                                    }
                                    None => WwAction::Retry,
                                }
                            } else {
                                WwAction::SignalRunning(newest)
                            }
                        }
                    }
                }
            } else {
                WwAction::InterThread(token)
            };
            match action {
                WwAction::Acquired { created } => {
                    debug_assert!(created, "the fast path handles held locks");
                    if created {
                        self.bufs.acquired.push(idx);
                    }
                    break;
                }
                WwAction::SelfAbort => {
                    return Err(Abort::new(AbortReason::IntraThreadWaw));
                }
                WwAction::SignalRunning(target) => {
                    // The target may be parked in `task_commit` waiting for
                    // its past (this task included): wake it on delivery.
                    if self.uthread.slot(target).signal_abort(target) {
                        self.uthread.notify();
                    }
                    self.uthread.wait_slice();
                    continue;
                }
                WwAction::SignalCompletedTxn(owner) => {
                    owner.signal_abort();
                    self.uthread.wait_slice();
                    continue;
                }
                WwAction::InterThread(token) => {
                    // Write lock held by another user-thread or a SwissTM
                    // thread: task-aware contention management (Alg. 2 lines
                    // 41-43, 54-64). An owner that is gone, or a lock that
                    // passed to this user-thread since the token read, means
                    // retry.
                    self.substrate
                        .contend(self.stats, entry, token, &*self.txn)?;
                }
                WwAction::Retry => {}
            }
            contention_pause(spin);
            spin = spin.wrapping_add(1);
        }
        // Post-write consistency checks (Algorithm 2, lines 52-53).
        self.bufs
            .snapshot
            .after_write_lock(self.substrate, self.stats, entry)?;
        self.maybe_validate_task()?;
        Ok(())
    }

    // --- task / transaction commit (Algorithm 3) --------------------------------

    /// Commits the task: waits for every past task of the user-thread to
    /// complete, re-validates intra-thread conflicts, and then either marks
    /// the task completed (intermediate tasks) or commits the whole
    /// user-transaction (the commit-task).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] when the task (or its whole transaction) must roll
    /// back; the worker loop interprets the abort reason.
    pub(crate) fn task_commit(&mut self) -> Result<(), Abort> {
        // Wait for all past tasks of the user-thread to complete (line 66),
        // or for a signal that makes waiting pointless (lines 67-68). Every
        // one of these events notifies the user-thread, so the wait parks
        // instead of competing with the past task for a core.
        let (uthread, slot, serial) = (self.uthread, self.slot, self.serial);
        let txn = &self.txn;
        uthread.wait_until(|| {
            uthread.completed_task() >= serial.saturating_sub(1)
                || txn.descriptor().abort_requested()
                || slot.is_aborted(serial)
        });
        self.check_signals()?;
        // Final intra-thread WAR validation (lines 69-70).
        self.maybe_validate_task()?;

        if !self.try_commit {
            // Intermediate task (lines 71-77): mark completion. Its state
            // stays in its slot for the commit-task, and its lane moves on.
            self.uthread
                .mark_completed(self.serial, !self.bufs.acquired.is_empty());
            return Ok(());
        }
        // Commit-task: commit the whole user-transaction (lines 78-94).
        self.check_signals()?;
        self.commit_transaction()
    }

    /// Performs the user-transaction commit on behalf of every task.
    fn commit_transaction(&mut self) -> Result<(), Abort> {
        // The completed tasks' buffers, read in place in their slots.
        let mut past: Vec<MutexGuard<'_, TaskBufs>> = (self.txn.start_serial()..self.serial)
            .map(|serial| self.uthread.slot(serial).bufs.lock())
            .collect();
        let mut locked = std::mem::take(&mut self.bufs.commit_locks);
        let outcome = self.commit_all_tasks(&past, &mut locked);
        self.bufs.commit_locks = locked;
        let wrote = outcome.inspect_err(|_| self.txn.request_abort())?;
        // The transaction's chain entries are gone; nothing left to dismantle.
        for bufs in &mut past {
            bufs.acquired.clear();
        }
        drop(past);
        self.bufs.acquired.clear();
        self.stats.tx_commits.inc();
        txobs::tx_commit();
        self.txn.mark_committed();
        self.uthread.mark_completed(self.serial, wrote);
        Ok(())
    }

    /// Validates and writes back every task of the transaction: the
    /// completed tasks' buffers `past`, in serial order, then this task's
    /// own (its serial is the highest). `locked` is the recycled scratch for
    /// the `(lock, pre-lock version)` pairs. Returns whether the transaction
    /// wrote.
    fn commit_all_tasks(
        &self,
        past: &[MutexGuard<'_, TaskBufs>],
        locked: &mut Vec<(LockIndex, u64)>,
    ) -> Result<bool, Abort> {
        let own: &TaskBufs = self.bufs;
        let tasks = || {
            let start = self.txn.start_serial();
            (start..)
                .zip(past.iter().map(|bufs| &**bufs))
                .chain([(self.serial, own)])
        };
        let (heap, locks) = (&self.substrate.heap, &self.substrate.locks);

        if tasks().all(|(_, bufs)| bufs.acquired.is_empty()) {
            // Read user-transactions only need validation when their tasks
            // completed at different snapshots (§3.2 "Transaction Commit"),
            // and then only of the snapshots older than the clock's now.
            let valid_ts = own.snapshot.valid_ts();
            if !tasks().all(|(_, bufs)| bufs.snapshot.valid_ts() == valid_ts) {
                let snapshots = tasks().map(|(_, bufs)| &bufs.snapshot);
                validate_at_now(self.substrate, self.stats, snapshots)?;
            }
            return Ok(false);
        }

        // Write transaction: commit every task's writes under the union of
        // their locks.
        self.txn.descriptor().set_finishing();
        locked.clear();
        locked.extend(tasks().flat_map(|(_, bufs)| bufs.acquired.iter().map(|&idx| (idx, 0u64))));
        let (txn, token) = (&self.txn, self.token);
        commit_locked(
            self.substrate,
            self.stats,
            locked,
            tasks().map(|(_, bufs)| &bufs.snapshot),
            // Every task's chain-entry writes by ascending serial, so later
            // tasks' values win for locations written by several tasks and
            // the applied order is deterministic.
            || {
                for (serial, bufs) in tasks() {
                    for &idx in &bufs.acquired {
                        let chain = locks.entry(idx).chain();
                        let entry = chain
                            .entry_for_serial(serial)
                            .expect("a lock a task lists holds its chain entry until commit");
                        for &(addr, value) in &entry.writes {
                            heap.store_committed(addr, value);
                        }
                    }
                }
            },
            // Remove the transaction's speculative entries and release the
            // write locks that become free.
            |entry| {
                let mut chain = entry.chain();
                chain.remove_transaction(txn.start_serial(), txn.commit_serial());
                if chain.is_empty() {
                    entry.release_writer_if(token);
                }
            },
        )?;
        Ok(true)
    }
}

impl TxMem for TaskCtx<'_> {
    #[inline]
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        match &mut self.0 {
            Mode::Solo(tx) => tx.read(addr),
            Mode::Spec(task) => {
                task.ops.reads += 1;
                task.read_word(addr)
            }
        }
    }

    #[inline]
    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        match &mut self.0 {
            Mode::Solo(tx) => tx.write(addr, value),
            Mode::Spec(task) => {
                task.ops.writes += 1;
                task.write_word(addr, value)
            }
        }
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        match &mut self.0 {
            Mode::Solo(tx) => tx.alloc(words),
            Mode::Spec(task) => task
                .substrate
                .heap
                .alloc(words)
                .map_err(|_| Abort::new(AbortReason::OutOfMemory)),
        }
    }
}

/// Removes every chain entry task `serial` installed under the locks in
/// `acquired`, and releases the write locks (held as `token`) whose chains
/// become empty. Called on every rollback.
pub(crate) fn remove_chain_entries(
    substrate: &TxSubstrate,
    token: OwnerToken,
    serial: u64,
    acquired: &mut Vec<LockIndex>,
) {
    for &idx in acquired.iter() {
        let entry = substrate.locks.entry(idx);
        let mut chain = entry.chain();
        chain.remove_serial(serial);
        if chain.is_empty() {
            entry.release_writer_if(token);
        }
    }
    acquired.clear();
}

/// Checks the abort-transaction and aborted-internally flags of task `serial`
/// of `txn`, whose `owners[]` slot is `slot`.
fn task_signals(txn: &TxnShared, slot: &TaskSlot, serial: u64) -> Result<(), Abort> {
    txn.descriptor().check_abort()?;
    if slot.is_aborted(serial) {
        return Err(Abort::new(AbortReason::TaskAbortSignal));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::{TxConfig, WORDS_PER_LOCK};

    /// Two tasks of one transaction write several words under one lock: the
    /// chain holds one entry per task, each task lists the lock once, and the
    /// commit-task's commit (reading the completed first task's state in its
    /// slot) leaves the chain empty, the w-lock free and both slots clean.
    #[test]
    fn tasks_sharing_a_lock_list_it_once_and_commit_clears_the_chain() {
        let substrate = TxSubstrate::new(TxConfig::small());
        let region = substrate.heap.alloc(2 * WORDS_PER_LOCK).unwrap();
        let base = region.index().next_multiple_of(WORDS_PER_LOCK);
        let word = |i: u64| WordAddr::new(base + i);
        let (idx, entry) = substrate.locks.lookup(word(0));
        assert!((1..WORDS_PER_LOCK).all(|i| substrate.locks.lookup(word(i)).0 == idx));
        let uthread = Arc::new(UThreadShared::new(1, 2));
        let txn = Arc::new(TxnShared::new(Arc::clone(&uthread), 1, 2));

        {
            let mut bufs = uthread.slot(1).bufs.lock();
            let mut ctx = TaskCtx::new(&substrate, &uthread, Arc::clone(&txn), 1, &mut bufs);
            ctx.spec().reset_for_attempt();
            for i in 0..3 {
                ctx.write(word(i), 10 + i).unwrap();
            }
            assert_eq!(ctx.spec().bufs.acquired, [idx]);
            // Completes without waiting for the commit: its lane is free.
            ctx.spec().task_commit().unwrap();
        }
        assert_eq!(uthread.completed_task(), 1);
        assert_eq!(uthread.slot(1).bufs.lock().acquired, [idx]);

        let mut bufs = uthread.slot(2).bufs.lock();
        let mut ctx = TaskCtx::new(&substrate, &uthread, Arc::clone(&txn), 2, &mut bufs);
        ctx.spec().reset_for_attempt();
        for i in 1..WORDS_PER_LOCK {
            ctx.write(word(i), 20 + i).unwrap();
        }
        assert_eq!(ctx.spec().bufs.acquired, [idx]);
        assert_eq!(entry.chain().len(), 2);
        ctx.spec().task_commit().unwrap();
        assert!(ctx.spec().bufs.acquired.is_empty());
        assert!(uthread.slot(1).bufs.lock().acquired.is_empty());
        assert!(txn.is_committed());
        assert!(entry.chain().is_empty());
        assert!(entry.writer_token().is_unlocked());
        assert_eq!(substrate.heap.load_committed(word(0)), 10);
        for i in 1..WORDS_PER_LOCK {
            assert_eq!(substrate.heap.load_committed(word(i)), 20 + i);
        }
    }
}
