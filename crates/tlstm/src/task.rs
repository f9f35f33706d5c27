//! The speculative task execution context.
//!
//! A [`TaskCtx`] is the handle a task body uses to access transactional
//! memory. It implements the read/write rules of Algorithms 1 and 2 of the
//! paper and the per-task half of the commit/abort protocol of Algorithm 3
//! (the whole-transaction commit performed by the commit-task lives in
//! `TaskCtx::task_commit`).
//!
//! ## Recycled task state
//!
//! All per-task speculative state lives in a `TaskBufs` owned by the
//! *lane* — the calling thread or a pool helper — and lent to each
//! [`TaskCtx`] it runs: the read logs, the log-structured write set
//! ([`txmem::WriteSet`]) and the acquired-locks and commit scratch vectors
//! are recycled across attempts **and across tasks**.
//! Published [`TaskLogs`] are drawn from (and returned to) a per-user-thread
//! pool, so in steady state the task read/write/commit/rollback paths stop
//! allocating; only the per-transaction orchestration (the `TxnShared`
//! handle, work items and task closures) still allocates, independent of how
//! many transactional operations a task performs.

use std::sync::Arc;

use txmem::chain::{ChainRead, WriteChain};
use txmem::pause::contention_pause;
use txmem::{
    Abort, AbortReason, CmDecision, LockIndex, OwnerHandle, OwnerToken, TxMem, TxSubstrate,
    WordAddr, WriteSet, LOCKED,
};

use crate::acquired::AcquiredLocks;
use crate::cm::TaskAwareCm;
use crate::txn_state::{TaskLogs, TaskReadEntry, TxnShared};
use crate::uthread_state::{TaskSlot, UThreadShared};

/// Recyclable speculative buffers of one lane.
///
/// A lane keeps one `TaskBufs` for its lifetime and lends it to every
/// [`TaskCtx`] it runs; all vectors and the write set retain their capacity
/// across attempts and tasks.
#[derive(Debug, Default)]
pub(crate) struct TaskBufs {
    /// Reads from committed state: (lock, observed version).
    read_log: Vec<(LockIndex, u64)>,
    /// Reads from past tasks' speculative values.
    task_read_log: Vec<TaskReadEntry>,
    /// Log-structured buffered writes.
    write_set: WriteSet,
    /// Locks under which this task created chain entries.
    acquired: AcquiredLocks,
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
    valid_ts: u64,
    last_writer_events: u64,
    bufs: &'rt mut TaskBufs,
    local_reads: u64,
    local_writes: u64,
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
        let valid_ts = substrate.clock.now();
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
            valid_ts,
            last_writer_events,
            bufs,
            local_reads: 0,
            local_writes: 0,
        }
    }

    // --- public inspection ---------------------------------------------------

    /// The task's serial number (its position in the user-thread's program
    /// order).
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The identifier of the user-thread this task belongs to.
    pub fn ptid(&self) -> u32 {
        self.uthread.ptid()
    }

    /// Serial of the first task of the enclosing user-transaction.
    pub fn tx_start_serial(&self) -> u64 {
        self.txn.start_serial()
    }

    /// The snapshot timestamp the task's committed reads are valid at.
    pub fn valid_ts(&self) -> u64 {
        self.valid_ts
    }

    /// `true` if the task has not written anything so far.
    pub fn is_read_only(&self) -> bool {
        self.bufs.write_set.is_empty()
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
        self.bufs.read_log.clear();
        self.bufs.task_read_log.clear();
        self.bufs.write_set.clear();
        debug_assert!(
            self.bufs.acquired.is_empty(),
            "chain entries must be removed before reset"
        );
        self.bufs.acquired.clear();
        self.valid_ts = self.substrate.clock.now();
        self.last_writer_events = self.uthread.writer_events();
        self.slot.install(self.serial);
    }

    /// Removes every speculative chain entry this task installed and releases
    /// write locks whose chains become empty. Called on every rollback.
    pub(crate) fn remove_chain_entries(&mut self) {
        for &idx in self.bufs.acquired.as_slice() {
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
        if self.local_reads > 0 {
            self.stats.reads.add(self.local_reads);
            self.local_reads = 0;
        }
        if self.local_writes > 0 {
            self.stats.writes.add(self.local_writes);
            self.local_writes = 0;
        }
    }

    // --- signal handling ------------------------------------------------------

    /// Checks the abort-transaction and aborted-internally flags
    /// (Algorithm 1 line 12, Algorithm 2 lines 34/40, Algorithm 3 lines 67-68).
    fn check_signals(&self) -> Result<(), Abort> {
        if self.txn.abort_requested() {
            return Err(Abort::new(AbortReason::TransactionAbortSignal));
        }
        if self.slot.is_aborted(self.serial) {
            return Err(Abort::new(AbortReason::TaskAbortSignal));
        }
        Ok(())
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
        for &(idx, _version) in &self.bufs.read_log {
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

    // --- inter-thread validation (inherited from SwissTM) ---------------------

    /// Tries to extend `valid-ts` to the current commit timestamp.
    fn extend(&mut self) -> Result<(), Abort> {
        let target = self.substrate.clock.now();
        self.stats.validations.inc();
        if self
            .substrate
            .locks
            .validate_read_log(&self.bufs.read_log, None)
        {
            self.valid_ts = target;
            self.stats.extensions.inc();
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    /// Reads the committed value of `addr` with the SwissTM consistency rule
    /// (extend-before-use, re-checked version). The caller has already
    /// resolved `(idx, entry)`, so the lock mapping is computed once per read.
    fn read_committed(
        &mut self,
        idx: LockIndex,
        entry: &txmem::LockEntry,
        addr: WordAddr,
    ) -> Result<u64, Abort> {
        let mut spin = 0u32;
        loop {
            let v1 = entry.version();
            if v1 == LOCKED {
                // Only the waiting path needs to stay responsive to abort
                // signals; the fast path was already checked by the caller.
                self.check_signals()?;
                contention_pause(spin);
                spin = spin.wrapping_add(1);
                continue;
            }
            if v1 > self.valid_ts {
                self.extend()?;
                continue;
            }
            let value = self.substrate.heap.load_committed(addr);
            let v2 = entry.version();
            if v1 != v2 {
                contention_pause(spin);
                spin = spin.wrapping_add(1);
                continue;
            }
            self.bufs.read_log.push((idx, v1));
            return Ok(value);
        }
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
                return self.read_committed(idx, entry, addr);
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
                SpecProbe::Fallback => {
                    return self.read_committed(idx, entry, addr);
                }
                SpecProbe::Released => {
                    // Ownership changed under us: re-evaluate from the top
                    // (the next iteration will take the committed-read path
                    // unless our user-thread re-acquires the lock).
                    continue;
                }
            }
        }
    }

    // --- speculative write (Algorithm 2) ---------------------------------------

    /// Records the write in the lock's chain (the caller holds its mutex and
    /// has established that this task may write under the lock) and buffers
    /// the value in the write set. Shared by every write-recording path.
    fn record_own_write(
        &mut self,
        chain: &mut WriteChain,
        idx: LockIndex,
        addr: WordAddr,
        value: u64,
    ) {
        chain.record_write(
            self.uthread.ptid(),
            self.serial,
            self.txn.start_serial(),
            &self.txn_owner,
            addr,
            value,
        );
        if !self.bufs.write_set.update(addr, value) {
            self.bufs.write_set.insert_new(addr, value, idx);
        }
    }

    fn write_word(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.check_signals()?;
        let (idx, entry) = self.substrate.locks.lookup(addr);
        // Fast path: this task already has a chain entry under this lock.
        if self.bufs.acquired.holds(idx) {
            self.record_own_write(&mut entry.chain(), idx, addr, value);
            return Ok(());
        }
        enum WwAction {
            Acquired,
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
                    self.record_own_write(&mut entry.chain(), idx, addr, value);
                    WwAction::Acquired
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
                                self.record_own_write(&mut chain, idx, addr, value);
                                WwAction::Acquired
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
                WwAction::Acquired => {
                    let first_under_lock = self.bufs.acquired.insert(idx);
                    debug_assert!(first_under_lock, "the fast path handles held locks");
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
        let version = entry.version();
        if version != LOCKED && version > self.valid_ts {
            self.extend()?;
        }
        self.maybe_validate_task()?;
        Ok(())
    }

    // --- task / transaction commit (Algorithm 3) --------------------------------

    /// Builds the publishable snapshot of this task's logs.
    ///
    /// The backing storage comes from the user-thread's `TaskLogs` pool: the
    /// read logs are *swapped* with the pooled (empty, capacity-bearing)
    /// vectors — once a task has completed it never validates itself again,
    /// and a transaction rollback clears and rebuilds them anyway — while the
    /// write log is copied in program order (the task still needs `acquired`
    /// to dismantle its chain entries on rollback). In steady state the pool
    /// round-trips the same buffers, so publishing allocates nothing.
    fn make_logs(&mut self) -> TaskLogs {
        let mut logs = self.uthread.take_pooled_logs();
        logs.valid_ts = self.valid_ts;
        std::mem::swap(&mut logs.read_log, &mut self.bufs.read_log);
        std::mem::swap(&mut logs.task_read_log, &mut self.bufs.task_read_log);
        self.bufs.write_set.append_values_to(&mut logs.writes);
        logs.acquired
            .extend_from_slice(self.bufs.acquired.as_slice());
        logs
    }

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
            // Intermediate task (lines 71-77): publish logs, mark completion,
            // then wait for the outcome of the whole user-transaction.
            let wrote = !self.bufs.write_set.is_empty();
            let logs = self.make_logs();
            self.txn.publish_logs(self.serial, logs);
            self.uthread.mark_completed(self.serial, wrote);
            let txn = &self.txn;
            self.uthread
                .wait_until(|| txn.is_committed() || txn.rollback_started());
            if !self.txn.is_committed() {
                return Err(Abort::new(AbortReason::TransactionAbortSignal));
            }
            // The commit-task dismantled the transaction's chain entries;
            // hand the recycled buffers to the next task with a clean
            // acquired list.
            self.bufs.acquired.clear();
            return Ok(());
        }
        // Commit-task: commit the whole user-transaction (lines 78-94).
        self.check_signals()?;
        self.commit_transaction()
    }

    /// Performs the user-transaction commit on behalf of every task.
    fn commit_transaction(&mut self) -> Result<(), Abort> {
        let own_logs = self.make_logs();
        let mut all = self.txn.collect_logs();
        all.push((self.serial, own_logs));
        all.sort_by_key(|(serial, _)| *serial);
        debug_assert_eq!(
            all.len() as u64,
            self.txn.n_tasks(),
            "commit-task must see the logs of every task of its transaction"
        );

        let read_only = all.iter().all(|(_, logs)| logs.is_read_only());
        if read_only {
            // Read user-transactions only need validation when their tasks
            // completed at different snapshots (§3.2 "Transaction Commit").
            let same_ts = all.windows(2).all(|w| w[0].1.valid_ts == w[1].1.valid_ts);
            if !same_ts {
                self.stats.validations.inc();
                let locks = &self.substrate.locks;
                let valid = all
                    .iter()
                    .all(|(_, logs)| locks.validate_read_log(&logs.read_log, None));
                if !valid {
                    self.txn.request_abort();
                    self.recycle_collected_logs(all);
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
            }
            self.finish_transaction_commit(false, all);
            return Ok(());
        }

        // Write transaction: acquire the r-locks of every written location.
        // The lock set and the pre-lock versions live together in the
        // recycled `commit_locks` scratch (sorted by lock index), which also
        // serves as the undo list if validation fails.
        self.txn.set_finishing();
        self.bufs.commit_locks.clear();
        self.bufs.commit_locks.extend(
            all.iter()
                .flat_map(|(_, logs)| logs.acquired.iter().map(|&idx| (idx, 0u64))),
        );
        self.bufs
            .commit_locks
            .sort_unstable_by_key(|&(idx, _)| idx.0);
        self.bufs.commit_locks.dedup_by_key(|&mut (idx, _)| idx);
        for slot in self.bufs.commit_locks.iter_mut() {
            slot.1 = self.substrate.locks.entry(slot.0).lock_version();
        }
        let ts = self.substrate.clock.tick();
        self.stats.validations.inc();
        // Reads under a lock this commit holds check its pre-lock version.
        let locked_by_me = Some(self.bufs.commit_locks.as_slice());
        let locks = &self.substrate.locks;
        if !all
            .iter()
            .all(|(_, logs)| locks.validate_read_log(&logs.read_log, locked_by_me))
        {
            for &(idx, prev) in &self.bufs.commit_locks {
                self.substrate.locks.entry(idx).set_version(prev);
            }
            self.txn.request_abort();
            self.recycle_collected_logs(all);
            return Err(Abort::new(AbortReason::ReadValidation));
        }
        // Write back every task's buffered writes in program order — across
        // tasks by ascending serial, within a task in write-log order — so
        // later tasks' values win for locations written by several tasks and
        // the applied order is deterministic.
        for (_, logs) in &all {
            for &(addr, value) in &logs.writes {
                self.substrate.heap.store_committed(addr, value);
            }
        }
        // Publish the new version first, then remove the transaction's
        // speculative entries and release the write locks that become free.
        // The r-lock must be released (set_version) before the w-lock: a
        // contender that grabbed a prematurely-released w-lock could run
        // `lock_version` on the still-LOCKED r-lock, recording LOCKED as the
        // version to restore and racing its swap against our store.
        for i in 0..self.bufs.commit_locks.len() {
            let idx = self.bufs.commit_locks[i].0;
            let entry = self.substrate.locks.entry(idx);
            entry.set_version(ts);
            let mut chain = entry.chain();
            chain.remove_transaction(self.txn.start_serial(), self.txn.commit_serial());
            if chain.is_empty() {
                entry.release_writer_if(self.token);
            }
        }
        self.finish_transaction_commit(true, all);
        Ok(())
    }

    fn finish_transaction_commit(&mut self, wrote: bool, consumed_logs: Vec<(u64, TaskLogs)>) {
        self.stats.tx_commits.inc();
        txobs::tx_commit();
        self.txn.mark_committed();
        self.uthread.mark_completed(self.serial, wrote);
        // The transaction's chain entries are gone; nothing left to dismantle.
        self.bufs.acquired.clear();
        self.recycle_collected_logs(consumed_logs);
    }

    /// Returns a batch of consumed per-task logs (collected for a commit
    /// attempt, successful or not) to the user-thread's pool, so the next
    /// publications — including the rollback retry's — reuse their storage.
    fn recycle_collected_logs(&self, consumed_logs: Vec<(u64, TaskLogs)>) {
        for (_, logs) in consumed_logs {
            self.uthread.recycle_logs(logs);
        }
    }
}

impl TxMem for TaskCtx<'_> {
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.local_reads += 1;
        self.read_word(addr)
    }

    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.local_writes += 1;
        self.write_word(addr, value)
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        self.substrate
            .heap
            .alloc(words)
            .map_err(|_| Abort::new(AbortReason::OutOfMemory))
    }
}
