//! The SwissTM transaction.
//!
//! Implements the algorithm of §3.1 of the TLSTM paper: eager write/write
//! locking through the global lock table, invisible reads with lazy
//! counter-based validation (`valid-ts` + read-log extension), buffered writes
//! applied at commit under the written locations' r-locks.
//!
//! ## Zero-allocation hot path
//!
//! Mirroring the original SwissTM implementation (whose descriptors and
//! read/write logs are reused across transactions precisely so the fast path
//! stays allocation-free), a [`Transaction`] owns **no** speculative state of
//! its own: it borrows its thread's recycled
//! [`TxContext`], which provides
//!
//! * the **read log** — an append-only `(lock, version)` vector whose
//!   capacity survives resets;
//! * the **log-structured write set** ([`txmem::WriteSet`]) — an append-only
//!   write log in program order plus a 64-bit bloom summary, so the dominant
//!   read-path question "did I write this address?" is answered by two bit
//!   tests instead of a hash-map probe, and commit write-back applies each
//!   word exactly once (final value, deterministic order);
//! * the **acquired-locks log** — `(lock, previous r-lock version)` pairs
//!   that double as the commit-time undo list, replacing the per-commit
//!   `old_versions` hash map;
//! * the thread's **reused descriptor**, re-armed per attempt and published
//!   to contenders through the runtime's owner registry (the lock table's
//!   write chains are no longer touched by SwissTM at all — chains are a
//!   TLSTM-only structure, allocated lazily).
//!
//! After a thread's context has warmed up to the workload's footprint, the
//! read, write, commit and rollback paths perform zero heap allocations;
//! `crates/swisstm/tests/zero_alloc.rs` pins this with a counting allocator.

use txmem::pause::contention_pause;
use txmem::{
    Abort, AbortReason, CmDecision, GlobalClock, LockEntry, LockIndex, LockTable, OwnerToken,
    StatsShard, TxHeap, TxMem, WordAddr, LOCKED,
};

use crate::cm::GreedyCm;
use crate::context::TxContext;
use crate::descriptor::TxDescriptor;
use crate::runtime::SwisstmRuntime;

/// A single SwissTM transaction attempt.
///
/// Created by [`SwisstmThread::atomic`](crate::SwisstmThread::atomic) over the
/// thread's recycled context; user code interacts with it through the
/// [`TxMem`] trait.
#[derive(Debug)]
pub struct Transaction<'a> {
    heap: &'a TxHeap,
    locks: &'a LockTable,
    clock: &'a GlobalClock,
    /// This thread's statistics shard (never shared with other threads).
    stats: &'a StatsShard,
    /// Owner registry used to resolve write-lock conflicts.
    runtime: &'a SwisstmRuntime,
    token: OwnerToken,
    valid_ts: u64,
    /// The thread's recycled speculative state.
    ctx: &'a mut TxContext,
    /// Local operation counters, flushed into the shared stats at the end.
    local_reads: u64,
    local_writes: u64,
}

impl<'a> Transaction<'a> {
    /// Starts a new transaction attempt on behalf of `thread_id`, recycling
    /// the thread's context (which is reset here).
    pub(crate) fn new(
        runtime: &'a SwisstmRuntime,
        ctx: &'a mut TxContext,
        thread_id: u32,
        priority: u64,
    ) -> Self {
        let substrate = runtime.substrate();
        ctx.reset_for_attempt(priority);
        Transaction {
            heap: &substrate.heap,
            locks: &substrate.locks,
            clock: &substrate.clock,
            stats: substrate.stats.shard(thread_id),
            runtime,
            token: OwnerToken::from_id(thread_id),
            valid_ts: substrate.clock.now(),
            ctx,
            local_reads: 0,
            local_writes: 0,
        }
    }

    /// The transaction's current validity timestamp.
    pub fn valid_ts(&self) -> u64 {
        self.valid_ts
    }

    /// `true` if this transaction has not written anything (read-only so far).
    pub fn is_read_only(&self) -> bool {
        self.ctx.write_set.is_empty()
    }

    /// The descriptor other threads use to signal this transaction.
    pub fn descriptor(&self) -> &std::sync::Arc<TxDescriptor> {
        &self.ctx.descriptor
    }

    fn check_abort_signal(&self) -> Result<(), Abort> {
        if self.ctx.descriptor.abort_requested() {
            Err(Abort::new(AbortReason::TransactionAbortSignal))
        } else {
            Ok(())
        }
    }

    /// Validates every read-log entry against the current lock-table state.
    ///
    /// `locked_by_me` supplies the `(lock, pre-lock version)` pairs of r-locks
    /// this transaction itself locked during commit — **sorted by lock
    /// index** — so that its own commit-time locking does not invalidate its
    /// reads.
    fn validate(&self, locked_by_me: Option<&[(LockIndex, u64)]>) -> bool {
        self.locks
            .validate_read_log(&self.ctx.read_log, locked_by_me)
    }

    /// Attempts to extend `valid-ts` to the current commit timestamp by
    /// re-validating the read log (`extend` in the paper).
    fn extend(&mut self) -> Result<(), Abort> {
        let target = self.clock.now();
        self.stats.validations.inc();
        if self.validate(None) {
            self.valid_ts = target;
            self.stats.extensions.inc();
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    /// Reads the committed value of `addr` consistently with respect to the
    /// location's r-lock, extending `valid-ts` if the version is too new.
    ///
    /// The caller has already resolved `(idx, entry)` for `addr`, so the
    /// lock-table mapping is computed exactly once per read.
    ///
    /// The extension happens *before* the value is used: a version newer than
    /// `valid-ts` first forces a successful read-log extension and then the
    /// read is retried under the new timestamp, which is what preserves
    /// opacity (a stale value must never be returned alongside newer ones).
    fn read_committed(
        &mut self,
        idx: LockIndex,
        entry: &LockEntry,
        addr: WordAddr,
    ) -> Result<u64, Abort> {
        let mut spin = 0u32;
        loop {
            let v1 = entry.version();
            if v1 == LOCKED {
                // A committing transaction is writing this location back;
                // stay responsive to abort signals while waiting.
                self.check_abort_signal()?;
                contention_pause(spin);
                spin = spin.wrapping_add(1);
                continue;
            }
            if v1 > self.valid_ts {
                // The location was committed after our snapshot: try to move
                // the snapshot forward, then re-read the version.
                self.extend()?;
                continue;
            }
            let value = self.heap.load_committed(addr);
            let v2 = entry.version();
            if v1 != v2 {
                contention_pause(spin);
                spin = spin.wrapping_add(1);
                continue;
            }
            self.ctx.read_log.push((idx, v1));
            return Ok(value);
        }
    }

    /// Commits the transaction: locks the written locations' r-locks, draws a
    /// commit timestamp, validates the read log and writes the buffered
    /// values back.
    ///
    /// Write-back iterates the log-structured write set, so every written
    /// word is stored exactly once with its final value, in first-write
    /// program order — deterministic regardless of how addresses collide in
    /// the lock table.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if validation fails or an abort was signalled; the
    /// caller must then roll the transaction back and retry.
    pub(crate) fn commit(&mut self) -> Result<(), Abort> {
        self.check_abort_signal()?;
        self.ctx.descriptor.set_finishing();
        if self.ctx.write_set.is_empty() {
            // Read-only transactions are already consistent at `valid-ts`.
            return Ok(());
        }
        // Lock the r-locks of every written location, remembering the
        // previous versions in the acquired-locks log so they can be restored
        // if validation fails. Sorting first makes the log binary-searchable
        // during validation (locking order is irrelevant: `lock_version` is a
        // plain swap that only the w-lock holder may perform).
        self.ctx.acquired.sort_unstable_by_key(|&(idx, _)| idx.0);
        for slot in self.ctx.acquired.iter_mut() {
            slot.1 = self.locks.entry(slot.0).lock_version();
        }
        let ts = self.clock.tick();
        self.stats.validations.inc();
        if !self.validate(Some(&self.ctx.acquired)) {
            for &(idx, prev) in &self.ctx.acquired {
                self.locks.entry(idx).set_version(prev);
            }
            return Err(Abort::new(AbortReason::ReadValidation));
        }
        // Write back and release.
        for e in self.ctx.write_set.iter() {
            self.heap.store_committed(e.addr, e.value);
        }
        for &(idx, _) in &self.ctx.acquired {
            let entry = self.locks.entry(idx);
            entry.set_version(ts);
            entry.release_writer();
        }
        Ok(())
    }

    /// Rolls the transaction back: releases all acquired write locks and
    /// clears the speculative state (retaining its capacity for the retry).
    pub(crate) fn rollback(&mut self, reason: AbortReason) {
        for &(idx, _) in &self.ctx.acquired {
            self.locks.entry(idx).release_writer_if(self.token);
        }
        self.ctx.acquired.clear();
        self.ctx.write_set.clear();
        self.ctx.read_log.clear();
        self.stats.record_abort_reason(reason);
    }

    /// Flushes the per-transaction operation counters into this thread's
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
}

impl TxMem for Transaction<'_> {
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.local_reads += 1;
        let locks = self.locks;
        let (idx, entry) = locks.lookup(addr);
        // Read-after-write is only possible under a lock this transaction
        // already owns, so the owner-token check (on a cache line the read
        // touches anyway) keeps unrelated reads out of the write set even
        // when a large write set has saturated the bloom summary; the bloom
        // then settles the common same-lock-different-word miss cheaply.
        if entry.writer_token() == self.token {
            if let Some(value) = self.ctx.write_set.lookup(addr) {
                return Ok(value);
            }
        }
        self.read_committed(idx, entry, addr)
    }

    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.local_writes += 1;
        // Repeated write to an address already in the set: update in place.
        if self.ctx.write_set.update(addr, value) {
            return Ok(());
        }
        let locks = self.locks;
        let (idx, entry) = locks.lookup(addr);
        if entry.writer_token() == self.token {
            // Same lock already held (a neighbouring word was written first).
            self.ctx.write_set.insert_new(addr, value, idx);
            return Ok(());
        }
        let mut spin = 0u32;
        loop {
            self.check_abort_signal()?;
            match entry.try_acquire_writer(self.token) {
                Ok(()) => {
                    self.ctx.acquired.push((idx, 0));
                    self.ctx.write_set.insert_new(addr, value, idx);
                    break;
                }
                Err(owner_token) => {
                    // Reach the owner's descriptor through the runtime's
                    // registry (the token encodes the owning thread id); the
                    // lock's write chain is never touched by SwissTM.
                    let decision = match self.runtime.owner_for(owner_token) {
                        // Owner released (or is not a SwissTM thread of this
                        // runtime): just wait for the lock and retry.
                        None => CmDecision::Wait,
                        Some(owner) => {
                            let decision =
                                GreedyCm::resolve(self.ctx.descriptor.priority(), owner.as_ref());
                            if decision == CmDecision::AbortOwner {
                                owner.signal_abort();
                                self.stats.cm_owner_aborts.inc();
                            }
                            decision
                        }
                    };
                    match decision {
                        CmDecision::AbortSelf => {
                            self.stats.cm_self_aborts.inc();
                            return Err(Abort::new(AbortReason::InterThreadWriteConflict));
                        }
                        CmDecision::AbortOwner | CmDecision::Wait => {
                            contention_pause(spin);
                            spin = spin.wrapping_add(1);
                            continue;
                        }
                    }
                }
            }
        }
        // Opacity check inherited from SwissTM (Algorithm 2, line 52): if the
        // location has a version newer than valid-ts the read set must still
        // be extendable, otherwise the transaction is doomed.
        if entry.version() != LOCKED && entry.version() > self.valid_ts {
            self.extend()?;
        }
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        self.heap
            .alloc(words)
            .map_err(|_| Abort::new(AbortReason::OutOfMemory))
    }
}
