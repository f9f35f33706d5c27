//! The speculative task execution context.
//!
//! A [`TaskCtx`] is the handle a task body uses to access transactional
//! memory. It implements the read/write rules of Algorithms 1 and 2 of the
//! paper and the per-task half of the commit/abort protocol of Algorithm 3
//! (the whole-transaction commit performed by the commit-task lives in
//! `TaskCtx::task_commit`). Reads of committed state, `extend` and the
//! commit sequence are SwissTM's, defined once in [`txmem::protocol`]; this
//! module adds what is TLSTM's: chain entries, `validate-task`, past-waiting
//! and the commit of every task's logs by the commit-task.
//!
//! ## One copy of a task's state
//!
//! All per-task speculative state lives in a `TaskBufs` owned by the
//! *lane* — the calling thread or a pool helper — and lent to each
//! [`TaskCtx`] it runs: the snapshot and task-read log, the log-structured
//! write set ([`txmem::WriteSet`]), the locks under which the task holds
//! chain entries and the commit scratch vector are recycled across attempts
//! **and across tasks**. A completed intermediate task *moves* its buffers
//! into the transaction's mailbox, where the commit-task reads them in
//! place, and takes them back once the transaction has committed or started
//! its rollback; the move copies a few `Vec` headers and allocates nothing.
//! So in steady state the task read/write/commit/rollback paths stop
//! allocating; only the per-transaction orchestration (the `TxnShared`
//! handle and its mailbox, work items and task closures) still allocates,
//! independent of how many transactional operations a task performs.

use std::sync::Arc;

use txmem::chain::{ChainRead, WriteChain};
use txmem::pause::contention_pause;
use txmem::{
    commit_locked, Abort, AbortReason, CmDecision, LockIndex, OpCounters, OwnerHandle, OwnerToken,
    Snapshot, TxMem, TxSubstrate, WordAddr, WriteSet,
};

use crate::cm::TaskAwareCm;
use crate::txn_state::{TaskReadEntry, TxnShared};
use crate::uthread_state::{TaskSlot, UThreadShared};

/// Recyclable speculative buffers of one lane.
///
/// A lane keeps one `TaskBufs` for its lifetime and lends it to every
/// [`TaskCtx`] it runs; all vectors and the write set retain their capacity
/// across attempts and tasks.
#[derive(Debug, Default)]
pub(crate) struct TaskBufs {
    /// `valid-ts` and the reads from committed state.
    snapshot: Snapshot,
    /// Reads from past tasks' speculative values.
    task_read_log: Vec<TaskReadEntry>,
    /// Log-structured buffered writes.
    write_set: WriteSet,
    /// Locks under which this task created chain entries, in acquisition
    /// order. Whether the task holds one is the lock chain's to answer.
    pub(crate) acquired: Vec<LockIndex>,
    /// Commit-task scratch: the whole transaction's `(lock, pre-lock
    /// version)` pairs, sorted by lock index (replaces the former
    /// `old_versions` hash map).
    commit_locks: Vec<(LockIndex, u64)>,
}

/// Execution context of one speculative task attempt.
///
/// The same context is reused across re-executions of the task (after
/// intra-thread or inter-thread conflicts); `TaskCtx::reset_for_attempt`
/// clears the speculative state between attempts. The backing buffers come
/// from the lane's recycled `TaskBufs`.
#[derive(Debug)]
pub struct TaskCtx<'rt> {
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
    /// Creates the context for one task.
    pub(crate) fn new(
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
            "recycled buffers must be handed over with no chain entries"
        );
        TaskCtx {
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

    /// Requests an explicit user-level retry of the task (and hence of its
    /// user-transaction once it propagates).
    pub fn retry<T>(&self) -> Result<T, Abort> {
        Err(Abort::user_retry())
    }

    // --- crate-internal lifecycle -------------------------------------------

    /// Prepares the context for a (re-)execution attempt of the task body.
    /// Clearing retains the recycled buffers' capacity.
    pub(crate) fn reset_for_attempt(&mut self) {
        self.bufs.snapshot.begin(&self.substrate.clock);
        self.bufs.task_read_log.clear();
        self.bufs.write_set.clear();
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
        for &idx in &self.bufs.acquired {
            let entry = self.substrate.locks.entry(idx);
            let mut chain = entry.chain();
            chain.remove_serial(self.serial);
            if chain.is_empty() {
                entry.release_writer_if(self.token);
            }
        }
        self.bufs.acquired.clear();
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
            if chain.owner_ptid() != Some(self.uthread.ptid()) {
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
            if chain.owner_ptid() == Some(self.uthread.ptid())
                && chain.iter().any(|e| e.serial < self.serial)
            {
                return false;
            }
        }
        true
    }

    // --- speculative read (Algorithm 1) ---------------------------------------

    fn read_word(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.check_signals()?;
        let (idx, entry) = self.substrate.locks.lookup(addr);
        loop {
            if entry.writer_token() != self.token {
                // Not locked by this user-thread (or just released): read the
                // committed value exactly as SwissTM would. A word this task
                // wrote is under a lock its user-thread holds, so this test
                // also answers "not written by me" without probing the write
                // set (whose bloom summary saturates on long tasks).
                break;
            }
            // Reads from the task's own writes need no validation.
            if let Some(value) = self.bufs.write_set.lookup(addr) {
                return Ok(value);
            }
            let probe = {
                // `try_chain` never allocates: a missing chain behaves like
                // an empty one (the writer has not recorded its entry yet).
                let chain = entry.try_chain();
                // Re-check ownership under the chain mutex: the lock may have
                // been released and re-acquired by another user-thread between
                // the token check above and taking the mutex.
                if chain
                    .as_deref()
                    .is_none_or(|c| c.is_empty() || c.owner_ptid() != Some(self.uthread.ptid()))
                {
                    SpecProbe::Released
                } else {
                    let chain = chain.as_deref().expect("checked non-empty above");
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
            };
            match probe {
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

    /// Records the write in the lock's chain (the caller holds its mutex and
    /// has established that this task may write under the lock) and buffers
    /// the value in the write set. Shared by every write-recording path.
    /// Returns `true` if the write created this task's entry in the chain.
    fn record_own_write(&mut self, chain: &mut WriteChain, addr: WordAddr, value: u64) -> bool {
        let created = chain.record_write(
            self.uthread.ptid(),
            self.serial,
            &self.txn_owner,
            addr,
            value,
        );
        if !self.bufs.write_set.update(addr, value) {
            self.bufs.write_set.insert_new(addr, value);
        }
        created
    }

    fn write_word(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.check_signals()?;
        let (idx, entry) = self.substrate.locks.lookup(addr);
        // Fast path: this task already has a chain entry under this lock.
        // While it does, the w-lock stays its user-thread's and the entry is
        // the newest: a future writer that meets it self-aborts (Alg. 2
        // line 45), and a past writer signals it and waits until it is gone.
        // Serials are numbered per user-thread, so the ptid is compared too.
        if entry.writer_token() == self.token {
            let mut chain = entry.chain();
            if chain
                .newest()
                .is_some_and(|e| e.ptid == self.uthread.ptid() && e.serial == self.serial)
            {
                self.record_own_write(&mut chain, addr, value);
                return Ok(());
            }
        }
        enum WwAction {
            Acquired { created: bool },
            SelfAbort,
            SignalRunning(u64),
            SignalCompletedTxn(OwnerHandle),
            InterThread,
            Retry,
        }
        let mut spin = 0u32;
        loop {
            self.check_signals()?;
            let token = entry.writer_token();
            let action = if token.is_unlocked() {
                if entry.try_acquire_writer(self.token).is_ok() {
                    let created = self.record_own_write(&mut entry.chain(), addr, value);
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
                                let created = self.record_own_write(&mut chain, addr, value);
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
                WwAction::InterThread
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
                WwAction::InterThread => {
                    // Write lock held by another user-thread: task-aware
                    // contention management (Alg. 2 lines 41-43, 54-64).
                    // `try_chain` keeps this inspection allocation-free: a
                    // missing chain reads as "no entry yet", i.e. Wait.
                    let decision = match entry.try_chain().as_deref().and_then(|c| c.newest()) {
                        None => CmDecision::Wait,
                        // Ownership switched to our own user-thread since the
                        // token read: retry and take the intra-thread path
                        // instead of contending against ourselves.
                        Some(spec) if spec.ptid == self.uthread.ptid() => CmDecision::Wait,
                        Some(spec) => TaskAwareCm::resolve(&self.txn, spec.owner.as_ref()),
                    };
                    match decision {
                        CmDecision::AbortSelf => {
                            self.stats.cm_self_aborts.inc();
                            return Err(Abort::new(AbortReason::InterThreadWriteConflict));
                        }
                        CmDecision::AbortOwner => self.stats.cm_owner_aborts.inc(),
                        CmDecision::Wait => {}
                    }
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
    /// complete, re-validates intra-thread conflicts, and then either waits
    /// for the commit-task (intermediate tasks) or commits the whole
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
                || txn.abort_requested()
                || slot.is_aborted(serial)
        });
        self.check_signals()?;
        // Final intra-thread WAR validation (lines 69-70).
        self.maybe_validate_task()?;

        if !self.try_commit {
            // Intermediate task (lines 71-77): lend the buffers to the
            // commit-task, mark completion, then wait for the outcome of the
            // whole user-transaction.
            let wrote = !self.bufs.write_set.is_empty();
            self.txn
                .publish(self.serial, std::mem::take(&mut *self.bufs));
            self.uthread.mark_completed(self.serial, wrote);
            let txn = &self.txn;
            self.uthread
                .wait_until(|| txn.is_committed() || txn.rollback_started());
            // Taken back on either outcome: a rollback dismantles the chain
            // entries `acquired` lists, and the commit-task's rollback
            // expects an empty mailbox once every task has acknowledged.
            *self.bufs = self.txn.take_back(self.serial);
            if !self.txn.is_committed() {
                return Err(Abort::new(AbortReason::TransactionAbortSignal));
            }
            // The commit-task dismantled the transaction's chain entries.
            self.bufs.acquired.clear();
            return Ok(());
        }
        // Commit-task: commit the whole user-transaction (lines 78-94).
        self.check_signals()?;
        self.commit_transaction()
    }

    /// Performs the user-transaction commit on behalf of every task.
    fn commit_transaction(&mut self) -> Result<(), Abort> {
        let mut locked = std::mem::take(&mut self.bufs.commit_locks);
        let outcome = self.commit_all_tasks(&mut locked);
        self.bufs.commit_locks = locked;
        // The mailbox is unlocked again, so the tasks this wakes can take
        // their buffers back.
        let wrote = match outcome {
            Ok(wrote) => wrote,
            Err(abort) => {
                self.txn.request_abort();
                return Err(abort);
            }
        };
        self.stats.tx_commits.inc();
        txobs::tx_commit();
        self.txn.mark_committed();
        self.uthread.mark_completed(self.serial, wrote);
        // The transaction's chain entries are gone; nothing left to dismantle.
        self.bufs.acquired.clear();
        Ok(())
    }

    /// Validates and writes back every task of the transaction, reading the
    /// buffers lent to the mailbox in place and this task's own last (its
    /// serial is the highest). `locked` is the recycled scratch for the
    /// `(lock, pre-lock version)` pairs. Returns whether the transaction
    /// wrote.
    fn commit_all_tasks(&self, locked: &mut Vec<(LockIndex, u64)>) -> Result<bool, Abort> {
        let mut published = self.txn.published();
        published.sort_unstable_by_key(|&(serial, _)| serial);
        debug_assert_eq!(
            published.len() as u64 + 1,
            self.txn.n_tasks(),
            "commit-task must see the buffers of every task of its transaction"
        );
        let own: &TaskBufs = self.bufs;
        let tasks = || published.iter().map(|(_, bufs)| bufs).chain([own]);

        if tasks().all(|bufs| bufs.write_set.is_empty()) {
            // Read user-transactions only need validation when their tasks
            // completed at different snapshots (§3.2 "Transaction Commit").
            let valid_ts = own.snapshot.valid_ts();
            if !tasks().all(|bufs| bufs.snapshot.valid_ts() == valid_ts) {
                self.stats.validations.inc();
                let locks = &self.substrate.locks;
                if !tasks().all(|bufs| bufs.snapshot.validate(locks)) {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
            }
            return Ok(false);
        }

        // Write transaction: commit every task's writes under the union of
        // their locks.
        self.txn.set_finishing();
        locked.clear();
        locked.extend(tasks().flat_map(|bufs| bufs.acquired.iter().map(|&idx| (idx, 0u64))));
        let (heap, txn, token) = (&self.substrate.heap, &self.txn, self.token);
        commit_locked(
            self.substrate,
            self.stats,
            locked,
            tasks().map(|bufs| &bufs.snapshot),
            // Every task's buffered writes in program order — across tasks by
            // ascending serial, within a task in write-log order — so later
            // tasks' values win for locations written by several tasks and
            // the applied order is deterministic.
            || {
                for bufs in tasks() {
                    for write in bufs.write_set.iter() {
                        heap.store_committed(write.addr, write.value);
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
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.ops.reads += 1;
        self.read_word(addr)
    }

    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.ops.writes += 1;
        self.write_word(addr, value)
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        self.substrate
            .heap
            .alloc(words)
            .map_err(|_| Abort::new(AbortReason::OutOfMemory))
    }
}

/// Checks the abort-transaction and aborted-internally flags of task `serial`
/// of `txn`, whose `owners[]` slot is `slot`.
fn task_signals(txn: &TxnShared, slot: &TaskSlot, serial: u64) -> Result<(), Abort> {
    if txn.abort_requested() {
        return Err(Abort::new(AbortReason::TransactionAbortSignal));
    }
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
    /// commit-task's commit (reading the first task's lent buffers) leaves
    /// the chain empty and the w-lock free.
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

        let mut first_bufs = TaskBufs::default();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                let mut ctx =
                    TaskCtx::new(&substrate, &uthread, Arc::clone(&txn), 1, &mut first_bufs);
                ctx.reset_for_attempt();
                for i in 0..3 {
                    ctx.write(word(i), 10 + i).unwrap();
                }
                assert_eq!(ctx.bufs.acquired, [idx]);
                // Lends the buffers and waits for the commit.
                ctx.task_commit()
            });
            uthread.wait_until(|| uthread.completed_task() >= 1 || first.is_finished());
            if first.is_finished() {
                panic!(
                    "the first task ended before lending its buffers: {:?}",
                    first.join()
                );
            }

            let mut bufs = TaskBufs::default();
            let mut ctx = TaskCtx::new(&substrate, &uthread, Arc::clone(&txn), 2, &mut bufs);
            ctx.reset_for_attempt();
            for i in 1..WORDS_PER_LOCK {
                ctx.write(word(i), 20 + i).unwrap();
            }
            assert_eq!(ctx.bufs.acquired, [idx]);
            assert_eq!(entry.chain().len(), 2);
            let published = txn.published();
            assert_eq!(published.len(), 1);
            assert_eq!(published[0].0, 1);
            assert_eq!(published[0].1.acquired, [idx]);
            drop(published);

            ctx.task_commit().unwrap();
            assert!(ctx.bufs.acquired.is_empty());
            first.join().unwrap().unwrap();
        });
        assert!(first_bufs.acquired.is_empty());
        assert!(txn.is_committed());
        assert!(entry.chain().is_empty());
        assert!(entry.writer_token().is_unlocked());
        assert_eq!(substrate.heap.load_committed(word(0)), 10);
        for i in 1..WORDS_PER_LOCK {
            assert_eq!(substrate.heap.load_committed(word(i)), 20 + i);
        }
    }
}
