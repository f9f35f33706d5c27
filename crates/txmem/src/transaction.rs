//! The SwissTM transaction: the one transaction type of every transaction
//! that stays on one thread.
//!
//! Implements the algorithm of §3.1 of the TLSTM paper: eager write/write
//! locking through the global lock table, invisible reads with lazy
//! counter-based validation (`valid-ts` + read-log extension), buffered writes
//! applied at commit under the written locations' r-locks. The read rule,
//! `extend` and the commit sequence are [`crate::protocol`]'s; this module
//! adds the eager write path, which resolves conflicts through the
//! substrate's contention layer ([`TxSubstrate::contend`]), and the retry
//! loop ([`TxContext::atomic`]). As in SwissTM, a commit validates the read
//! log only if another commit drew a timestamp since `valid-ts`: a
//! transaction no other commit overtook commits without re-reading a lock,
//! and a read-only one never validates at commit.
//!
//! Both runtimes run it. A `swisstm` thread runs every transaction here; a
//! `tlstm` user-thread runs here every batch that claims no helper lane,
//! the bodies of each transaction one after another (the paper builds TLSTM
//! on SwissTM, and a transaction no other lane can see needs nothing more).
//!
//! ## Zero-allocation hot path
//!
//! Mirroring the original SwissTM implementation (whose descriptors and
//! read/write logs are reused across transactions precisely so the fast path
//! stays allocation-free), a [`Transaction`] owns **no** speculative state of
//! its own: it borrows its thread's recycled [`TxContext`], which provides
//!
//! * the **snapshot** ([`Snapshot`]) — `valid-ts` and an append-only
//!   `(lock, version)` read log whose capacity survives resets;
//! * the **log-structured write set** ([`WriteSet`]) — an append-only write
//!   log in program order plus a 64-bit bloom summary, so the dominant
//!   read-path question "did I write this address?" is answered by two bit
//!   tests instead of a hash-map probe, and commit write-back applies each
//!   word exactly once (final value, deterministic order);
//! * the **acquired-locks log** — `(lock, previous r-lock version)` pairs
//!   that double as the commit-time undo list;
//! * the thread's **reused descriptor** ([`TxDescriptor`]), re-armed per
//!   attempt and published to contenders through the substrate's owner
//!   registry (this transaction adds no chain entries).
//!
//! After a thread's context has warmed up to the workload's footprint, the
//! read, write, commit and rollback paths perform zero heap allocations;
//! `crates/swisstm/tests/zero_alloc.rs` and `crates/tlstm/tests/zero_alloc.rs`
//! pin this with a counting allocator.

use std::sync::Arc;

use crate::cm::{should_turn_greedy, TIMID};
use crate::error::{Abort, AbortReason};
use crate::lock_table::{LockEntry, LockIndex};
use crate::owner::{OwnerHandle, OwnerToken};
use crate::pause::contention_pause;
use crate::protocol::{commit_locked, Snapshot};
use crate::stats::{OpCounters, StatsShard};
use crate::traits::TxMem;
use crate::write_set::WriteSet;
use crate::{TxDescriptor, TxSubstrate, WordAddr};

/// Recyclable speculative state of one thread's transactions.
///
/// All vectors and the write set retain their capacity across attempts; the
/// descriptor is a single long-lived allocation shared with contending
/// threads through the substrate's owner registry.
#[derive(Debug)]
pub struct TxContext {
    /// The owner id this context's transactions lock and count under.
    id: u32,
    /// The thread's long-lived descriptor (re-armed per attempt, never
    /// reallocated), also published in the substrate's owner registry.
    descriptor: Arc<TxDescriptor>,
    /// `valid-ts` and the read log.
    snapshot: Snapshot,
    /// Log-structured buffered writes.
    write_set: WriteSet,
    /// Write locks acquired by the current transaction, paired with the
    /// r-lock version observed when commit locked them (filled at commit
    /// time).
    acquired: Vec<(LockIndex, u64)>,
    /// The attempt's read and write counts, flushed once per attempt.
    ops: OpCounters,
}

impl TxContext {
    /// Creates the context of owner `id`. The caller publishes
    /// [`owner`](Self::owner) in the substrate's registry under `id`.
    pub fn new(id: u32) -> Self {
        TxContext {
            id,
            descriptor: Arc::default(),
            snapshot: Snapshot::default(),
            write_set: WriteSet::new(),
            acquired: Vec::new(),
            ops: OpCounters::default(),
        }
    }

    /// The owner id of this context's transactions.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The descriptor contenders resolve this context's transactions by.
    pub fn owner(&self) -> OwnerHandle {
        self.descriptor.clone()
    }

    /// Empties all speculative state (keeping capacity) and re-arms the
    /// descriptor for an attempt running at `priority`.
    fn reset_for_attempt(&mut self, priority: u64) {
        self.snapshot.clear();
        self.write_set.clear();
        self.acquired.clear();
        self.descriptor.reset_for_attempt(priority);
    }

    /// `true` if the context carries no speculative state — what a freshly
    /// created context looks like, and what a recycled context must look like
    /// after a commit plus reset or a rollback plus reset (used by the
    /// context-reuse tests).
    pub fn is_clean(&self) -> bool {
        self.snapshot.reads().is_empty()
            && self.write_set.is_empty()
            && self.acquired.is_empty()
            && !self.descriptor.abort_requested()
    }

    /// Runs `body` as an atomic transaction, retrying until it commits, and
    /// returns the body's result and the number of aborted attempts.
    ///
    /// The body must access shared state exclusively through the transaction
    /// handle it receives; it may be re-executed an arbitrary number of
    /// times. Counts one `tx_starts`, one `tx_commits` and a `tx_aborts` per
    /// aborted attempt in the shard of [`id`](Self::id). After
    /// [`GREEDY_AFTER_ABORTS`](crate::GREEDY_AFTER_ABORTS) aborts in a row
    /// the transaction draws a greedy ticket.
    pub fn atomic<T>(
        &mut self,
        sub: &TxSubstrate,
        mut body: impl FnMut(&mut Transaction<'_>) -> Result<T, Abort>,
    ) -> (T, u32) {
        let stats = sub.stats.shard(self.id);
        stats.tx_starts.inc();
        let mut aborts = 0u32;
        let mut priority = TIMID;
        loop {
            txobs::tx_begin();
            let mut tx = Transaction::new(sub, self, priority);
            let abort = match body(&mut tx).and_then(|value| tx.commit().map(|()| value)) {
                Ok(value) => {
                    tx.ctx.ops.flush(stats);
                    stats.tx_commits.inc();
                    txobs::tx_commit();
                    return (value, aborts);
                }
                Err(abort) => abort,
            };
            tx.rollback(abort.reason);
            tx.ctx.ops.flush(stats);
            stats.tx_aborts.inc();
            txobs::tx_abort(abort.reason.trace_cause());
            aborts += 1;
            if priority == TIMID && should_turn_greedy(aborts) {
                priority = sub.tickets.draw();
            }
            // Brief backoff proportional to the abort streak, to break
            // symmetric livelocks.
            for i in 0..aborts.min(16) * 8 {
                contention_pause(i);
            }
        }
    }
}

/// A single SwissTM transaction attempt.
///
/// Created by [`TxContext::atomic`] over the thread's recycled context; user
/// code interacts with it through the [`TxMem`] trait.
#[derive(Debug)]
pub struct Transaction<'a> {
    sub: &'a TxSubstrate,
    /// This thread's statistics shard (never shared with other threads).
    stats: &'a StatsShard,
    token: OwnerToken,
    /// The thread's recycled speculative state.
    ctx: &'a mut TxContext,
}

impl<'a> Transaction<'a> {
    /// Starts a new attempt over `ctx`, which is reset here.
    fn new(sub: &'a TxSubstrate, ctx: &'a mut TxContext, priority: u64) -> Self {
        ctx.reset_for_attempt(priority);
        ctx.snapshot.begin(&sub.clock);
        Transaction {
            sub,
            stats: sub.stats.shard(ctx.id),
            token: OwnerToken::from_id(ctx.id),
            ctx,
        }
    }

    /// The same attempt, borrowed for a shorter lifetime (to hand to a
    /// wrapper that holds its transaction by value).
    pub fn reborrow(&mut self) -> Transaction<'_> {
        Transaction {
            sub: self.sub,
            stats: self.stats,
            token: self.token,
            ctx: &mut *self.ctx,
        }
    }

    /// Commits the transaction through [`commit_locked`] over the locks it
    /// acquired.
    ///
    /// Write-back iterates the log-structured write set, so every written
    /// word is stored exactly once with its final value, in first-write
    /// program order — deterministic regardless of how addresses collide in
    /// the lock table.
    fn commit(&mut self) -> Result<(), Abort> {
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
    fn rollback(&mut self, reason: AbortReason) {
        for &(idx, _) in &self.ctx.acquired {
            self.sub.locks.entry(idx).release_writer_if(self.token);
        }
        self.ctx.acquired.clear();
        self.ctx.write_set.clear();
        self.ctx.snapshot.clear();
        self.stats.record_abort_reason(reason);
    }
}

impl TxMem for Transaction<'_> {
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        self.ctx.ops.reads += 1;
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
        self.ctx.ops.writes += 1;
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
                    // The owner may be another thread's transaction or a
                    // TLSTM user-transaction; unless this transaction must
                    // abort, wait for the lock and retry.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockOwner, TxConfig};

    /// Logs a committed read of each of the words `1..=n` through the
    /// snapshot's read rule.
    fn read_words(ctx: &mut TxContext, n: u64) {
        let sub = TxSubstrate::new(TxConfig::small());
        sub.heap.alloc(n).unwrap();
        for i in 1..=n {
            let addr = WordAddr::new(i);
            let (idx, entry) = sub.locks.lookup(addr);
            let stats = sub.stats.shard(0);
            ctx.snapshot
                .read_committed(&sub, stats, idx, entry, addr, || Ok(()))
                .unwrap();
        }
    }

    #[test]
    fn reset_scrubs_all_speculative_state() {
        let mut ctx = TxContext::new(0);
        assert!(ctx.is_clean());
        read_words(&mut ctx, 1);
        ctx.write_set.insert_new(WordAddr::new(9), 1);
        ctx.acquired.push((LockIndex(1), 0));
        ctx.descriptor.signal_abort();
        assert!(!ctx.is_clean());
        ctx.reset_for_attempt(42);
        assert!(ctx.is_clean());
        assert_eq!(ctx.descriptor.priority(), 42);
    }

    #[test]
    fn reset_retains_capacity() {
        let mut ctx = TxContext::new(0);
        read_words(&mut ctx, 64);
        for i in 0..64 {
            ctx.acquired.push((LockIndex(i), 0));
        }
        let read_cap = ctx.snapshot.capacity();
        let acq_cap = ctx.acquired.capacity();
        ctx.reset_for_attempt(0);
        assert_eq!(ctx.snapshot.capacity(), read_cap);
        assert_eq!(ctx.acquired.capacity(), acq_cap);
    }

    #[test]
    fn atomic_counts_aborted_attempts_and_turns_greedy() {
        let sub = TxSubstrate::new(TxConfig::small());
        let word = sub.heap.alloc(1).unwrap();
        let mut ctx = TxContext::new(0);
        let mut attempts = 0;
        let ((), aborts) = ctx.atomic(&sub, |tx| {
            attempts += 1;
            tx.write(word, attempts)?;
            if attempts <= 2 {
                return Err(Abort::user_retry());
            }
            Ok(())
        });
        assert_eq!((aborts, sub.heap.load_committed(word)), (2, 3));
        // The third attempt ran with a ticket.
        assert_ne!(ctx.descriptor.cm_priority(), TIMID);
        let stats = sub.stats.snapshot();
        assert_eq!(
            (stats.tx_starts, stats.tx_commits, stats.tx_aborts),
            (1, 1, 2)
        );
    }
}
