//! The SwissTM transaction.
//!
//! Implements the algorithm of §3.1 of the TLSTM paper: eager write/write
//! locking through the global lock table, invisible reads with lazy
//! counter-based validation (`valid-ts` + read-log extension), buffered writes
//! applied at commit under the written locations' r-locks. The read rule,
//! `extend` and the commit sequence are [`txmem::protocol`]'s, shared with
//! TLSTM; this module adds the eager write path, which resolves conflicts
//! through the substrate's contention layer ([`TxSubstrate::contend`]).
//! As in SwissTM, a commit validates the read log only if another commit
//! drew a timestamp since `valid-ts`: a transaction no other commit
//! overtook commits without re-reading a lock, and a read-only one never
//! validates at commit.
//!
//! ## Zero-allocation hot path
//!
//! Mirroring the original SwissTM implementation (whose descriptors and
//! read/write logs are reused across transactions precisely so the fast path
//! stays allocation-free), a [`Transaction`] owns **no** speculative state of
//! its own: it borrows its thread's recycled
//! [`TxContext`], which provides
//!
//! * the **snapshot** ([`txmem::Snapshot`]) — `valid-ts` and an append-only
//!   `(lock, version)` read log whose capacity survives resets;
//! * the **log-structured write set** ([`txmem::WriteSet`]) — an append-only
//!   write log in program order plus a 64-bit bloom summary, so the dominant
//!   read-path question "did I write this address?" is answered by two bit
//!   tests instead of a hash-map probe, and commit write-back applies each
//!   word exactly once (final value, deterministic order);
//! * the **acquired-locks log** — `(lock, previous r-lock version)` pairs
//!   that double as the commit-time undo list, replacing the per-commit
//!   `old_versions` hash map;
//! * the thread's **reused descriptor** ([`txmem::TxDescriptor`]), re-armed
//!   per attempt and published to contenders through the substrate's owner
//!   registry (SwissTM adds no chain entries; its conflict path reads a
//!   lock's chain only to find a TLSTM owner).
//!
//! After a thread's context has warmed up to the workload's footprint, the
//! read, write, commit and rollback paths perform zero heap allocations;
//! `crates/swisstm/tests/zero_alloc.rs` pins this with a counting allocator.

use txmem::pause::contention_pause;
use txmem::{
    commit_locked, Abort, AbortReason, LockEntry, OpCounters, OwnerToken, StatsShard, TxMem,
    TxSubstrate, WordAddr,
};

use crate::context::TxContext;

/// A single SwissTM transaction attempt.
///
/// Created by [`SwisstmThread::atomic`](crate::SwisstmThread::atomic) over the
/// thread's recycled context; user code interacts with it through the
/// [`TxMem`] trait.
#[derive(Debug)]
pub struct Transaction<'a> {
    sub: &'a TxSubstrate,
    /// This thread's statistics shard (never shared with other threads).
    stats: &'a StatsShard,
    token: OwnerToken,
    /// The thread's recycled speculative state.
    ctx: &'a mut TxContext,
    /// Local operation counters, flushed into the shared stats at the end.
    ops: OpCounters,
}

impl<'a> Transaction<'a> {
    /// Starts a new transaction attempt on behalf of `thread_id`, recycling
    /// the thread's context (which is reset here).
    pub(crate) fn new(
        sub: &'a TxSubstrate,
        ctx: &'a mut TxContext,
        thread_id: u32,
        priority: u64,
    ) -> Self {
        ctx.reset_for_attempt(priority);
        ctx.snapshot.begin(&sub.clock);
        Transaction {
            sub,
            stats: sub.stats.shard(thread_id),
            token: OwnerToken::from_id(thread_id),
            ctx,
            ops: OpCounters::default(),
        }
    }

    /// Commits the transaction through [`commit_locked`] over the locks it
    /// acquired.
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
        let ctx = &mut *self.ctx;
        ctx.descriptor.check_abort()?;
        ctx.descriptor.set_finishing();
        if ctx.write_set.is_empty() {
            // Read-only transactions are already consistent at `valid-ts`.
            return Ok(());
        }
        let (heap, write_set) = (&self.sub.heap, &ctx.write_set);
        commit_locked(
            self.sub,
            self.stats,
            &mut ctx.acquired,
            [&ctx.snapshot],
            || {
                for e in write_set.iter() {
                    heap.store_committed(e.addr, e.value);
                }
            },
            LockEntry::release_writer,
        )
    }

    /// Rolls the transaction back: releases all acquired write locks and
    /// clears the speculative state (retaining its capacity for the retry).
    pub(crate) fn rollback(&mut self, reason: AbortReason) {
        for &(idx, _) in &self.ctx.acquired {
            self.sub.locks.entry(idx).release_writer_if(self.token);
        }
        self.ctx.acquired.clear();
        self.ctx.write_set.clear();
        self.ctx.snapshot.clear();
        self.stats.record_abort_reason(reason);
    }

    /// Flushes the per-transaction operation counters into this thread's
    /// statistics shard.
    pub(crate) fn flush_op_counters(&mut self) {
        self.ops.flush(self.stats);
    }
}

impl TxMem for Transaction<'_> {
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.ops.reads += 1;
        let sub = self.sub;
        let (idx, entry) = sub.locks.lookup(addr);
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
        // The wait on a committer's write-back answers this thread's abort
        // signal.
        let ctx = &mut *self.ctx;
        let descriptor = &ctx.descriptor;
        ctx.snapshot
            .read_committed(sub, self.stats, idx, entry, addr, || {
                descriptor.check_abort()
            })
    }

    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.ops.writes += 1;
        // Repeated write to an address already in the set: update in place.
        if self.ctx.write_set.update(addr, value) {
            return Ok(());
        }
        let sub = self.sub;
        let (idx, entry) = sub.locks.lookup(addr);
        if entry.writer_token() == self.token {
            // Same lock already held (a neighbouring word was written first).
            self.ctx.write_set.insert_new(addr, value);
            return Ok(());
        }
        let mut spin = 0u32;
        loop {
            self.ctx.descriptor.check_abort()?;
            match entry.try_acquire_writer(self.token) {
                Ok(()) => {
                    self.ctx.acquired.push((idx, 0));
                    self.ctx.write_set.insert_new(addr, value);
                    break;
                }
                Err(owner_token) => {
                    // The owner may be a SwissTM thread or a TLSTM
                    // user-transaction; unless this transaction must abort,
                    // wait for the lock and retry.
                    sub.contend(self.stats, entry, owner_token, &*self.ctx.descriptor)?;
                    contention_pause(spin);
                    spin = spin.wrapping_add(1);
                }
            }
        }
        self.ctx.snapshot.after_write_lock(sub, self.stats, entry)
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        self.sub
            .heap
            .alloc(words)
            .map_err(|_| Abort::new(AbortReason::OutOfMemory))
    }
}
