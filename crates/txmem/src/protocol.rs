//! SwissTM's committed-state protocol, shared by both runtimes.
//!
//! TLSTM is built on SwissTM (Dragojević, Guerraoui & Kapałka, PLDI '09):
//! tasks add chains, task validation and past-waiting, but committed state is
//! read, extended and committed by SwissTM's rules, defined here once — the
//! [`Snapshot`] read rule, `extend` and post-lock check, and the
//! [`commit_locked`] sequence. A commit validates only the snapshots that
//! another commit may have invalidated: one whose `valid-ts` is the tick just
//! before the commit's timestamp is skipped (SwissTM's and TL2's clock rule),
//! so a transaction no other commit overtook commits without re-reading a
//! lock. Runtime-specific steps (observing an abort
//! signal, writing back, releasing a w-lock) enter as generic closures, so
//! neither runtime boxes or allocates on these paths.

use crate::error::{Abort, AbortReason};
use crate::lock_table::{LockEntry, LockIndex, LockTable, LOCKED};
use crate::pause::contention_pause;
use crate::{GlobalClock, StatsShard, TxSubstrate, WordAddr};

/// A view of committed state: `valid-ts` and the `(lock, observed version)`
/// read log, whose capacity survives [`begin`](Self::begin) and
/// [`clear`](Self::clear) so a recycled snapshot stops allocating.
///
/// Every logged read holds at `valid-ts`. A commit whose timestamp is at
/// most `valid-ts` locked its r-locks before it drew that timestamp, so
/// before the snapshot read `valid-ts`: the reads saw its lock or its
/// version, or the validation that extended the snapshot to `valid-ts` did.
/// So a snapshot still valid at the moment it is used needs no validation:
/// at a commit whose timestamp is `valid-ts + 1` ([`commit_locked`]), or in a
/// read-only commit while the clock still reads `valid-ts`
/// ([`validate_at_now`]).
#[derive(Debug, Default)]
pub struct Snapshot {
    valid_ts: u64,
    read_log: Vec<(LockIndex, u64)>,
}

impl Snapshot {
    /// Starts an attempt: an empty read log valid at the clock's now.
    pub fn begin(&mut self, clock: &GlobalClock) {
        self.valid_ts = clock.now();
        self.read_log.clear();
    }

    /// Empties the read log, keeping its capacity.
    pub fn clear(&mut self) {
        self.read_log.clear();
    }

    /// The timestamp every logged read is valid at.
    pub fn valid_ts(&self) -> u64 {
        self.valid_ts
    }

    /// The logged reads, in read order.
    pub fn reads(&self) -> &[(LockIndex, u64)] {
        &self.read_log
    }

    /// Retained read-log capacity, in entries.
    pub fn capacity(&self) -> usize {
        self.read_log.capacity()
    }

    /// `true` if every logged read still holds the version it observed.
    fn validate(&self, locks: &LockTable) -> bool {
        self.holds(locks, &[])
    }

    /// [`validate`](Self::validate) during a commit: a read of an r-lock in
    /// `locked_by_me` (the commit's own `(lock, pre-lock version)` pairs,
    /// sorted by lock) reads [`LOCKED`] and is checked against its pre-lock
    /// version instead.
    fn holds(&self, locks: &LockTable, locked_by_me: &[(LockIndex, u64)]) -> bool {
        self.read_log.iter().all(|&(idx, seen)| {
            let now = locks.entry(idx).version();
            now == seen
                || now == LOCKED
                    && locked_by_me
                        .binary_search_by_key(&idx, |&(i, _)| i)
                        .is_ok_and(|pos| locked_by_me[pos].1 == seen)
        })
    }

    /// `extend` in the paper: moves `valid-ts` to the clock's now if the read
    /// log is still valid. Counts a validation and, on success, an extension.
    ///
    /// # Errors
    ///
    /// [`AbortReason::ReadValidation`] if a logged read has changed.
    pub fn extend(&mut self, sub: &TxSubstrate, stats: &StatsShard) -> Result<(), Abort> {
        let target = sub.clock.now();
        stats.validations.inc();
        if !self.validate(&sub.locks) {
            return Err(Abort::new(AbortReason::ReadValidation));
        }
        self.valid_ts = target;
        stats.extensions.inc();
        Ok(())
    }

    /// Reads the committed value of `addr` under `(idx, entry)`, resolved
    /// once by the caller, and logs the observed version.
    ///
    /// A version newer than `valid-ts` first forces a successful
    /// [`extend`](Self::extend), then the read is retried: extending *before*
    /// the value is used preserves opacity (a stale value must never be
    /// returned alongside newer ones). The version is re-read after the load,
    /// so a concurrent write-back is never observed half-done. While the
    /// r-lock is [`LOCKED`] a committer is writing back, and each round of
    /// the wait calls `signals`, the caller runtime's abort-signal check.
    ///
    /// # Errors
    ///
    /// [`AbortReason::ReadValidation`] if the extension fails, or what
    /// `signals` returns.
    #[inline]
    pub fn read_committed(
        &mut self,
        sub: &TxSubstrate,
        stats: &StatsShard,
        idx: LockIndex,
        entry: &LockEntry,
        addr: WordAddr,
        mut signals: impl FnMut() -> Result<(), Abort>,
    ) -> Result<u64, Abort> {
        let mut spin = 0u32;
        loop {
            let v1 = entry.version();
            if v1 == LOCKED {
                signals()?;
            } else if v1 > self.valid_ts {
                self.extend(sub, stats)?;
                continue;
            } else {
                let value = sub.heap.load_committed(addr);
                if entry.version() == v1 {
                    self.read_log.push((idx, v1));
                    return Ok(value);
                }
            }
            contention_pause(spin);
            spin = spin.wrapping_add(1);
        }
    }

    /// The opacity check after acquiring `entry`'s w-lock (Algorithm 2,
    /// line 52): a version newer than `valid-ts` must be extendable to,
    /// otherwise the writer is doomed.
    ///
    /// # Errors
    ///
    /// [`AbortReason::ReadValidation`] if the extension fails.
    #[inline]
    pub fn after_write_lock(
        &mut self,
        sub: &TxSubstrate,
        stats: &StatsShard,
        entry: &LockEntry,
    ) -> Result<(), Abort> {
        let version = entry.version();
        if version != LOCKED && version > self.valid_ts {
            self.extend(sub, stats)?;
        }
        Ok(())
    }
}

/// Checks, honouring `locked_by_me`, every snapshot of `read_logs` that is
/// valid only before `upto`, and counts one validation if any check runs. A
/// snapshot valid at `upto` is skipped: see [`Snapshot`].
fn holds_at<'s>(
    sub: &TxSubstrate,
    stats: &StatsShard,
    read_logs: impl IntoIterator<Item = &'s Snapshot>,
    upto: u64,
    locked_by_me: &[(LockIndex, u64)],
) -> bool {
    let mut stale = read_logs
        .into_iter()
        .filter(|s| s.valid_ts < upto)
        .peekable();
    if stale.peek().is_some() {
        stats.validations.inc();
    }
    stale.all(|s| s.holds(&sub.locks, locked_by_me))
}

/// The commit of a read-only transaction made of several snapshots (TLSTM's
/// tasks, each with its own `valid-ts`): makes every logged read valid at the
/// clock's now. A snapshot valid at now is already; every other one is
/// checked (one validation is counted if any is).
///
/// # Errors
///
/// [`AbortReason::ReadValidation`] if a logged read has changed.
pub fn validate_at_now<'s>(
    sub: &TxSubstrate,
    stats: &StatsShard,
    read_logs: impl IntoIterator<Item = &'s Snapshot>,
) -> Result<(), Abort> {
    if holds_at(sub, stats, read_logs, sub.clock.now(), &[]) {
        Ok(())
    } else {
        Err(Abort::new(AbortReason::ReadValidation))
    }
}

/// Commits a write set whose w-locks the caller holds, listed in `locked` as
/// `(lock, _)` pairs (the second half is scratch for the pre-lock version):
///
/// 1. sort and dedup `locked` (several tasks may write under one lock), then
///    lock each r-lock, recording its pre-lock version;
/// 2. draw the commit timestamp `ts`;
/// 3. validate each snapshot of `read_logs` whose `valid-ts` is older than
///    `ts - 1` (one validation is counted if any is). A snapshot valid at
///    `ts - 1` is not checked, SwissTM's rule (TL2's `wv = rv + 1`): every
///    committer locks its r-locks *before* it draws its timestamp, so the
///    snapshot cannot have missed a commit with a timestamp at most
///    `valid-ts` (see [`Snapshot`]), and a tick right after `valid-ts`
///    means no commit drew a timestamp in between. Commits that draw a
///    later one serialize after this one. The rule is sound only while
///    every commit ticks the clock here, after locking;
/// 4. on failure, restore every pre-lock version and return
///    [`AbortReason::ReadValidation`] without running `write_back` or
///    `release`: the w-locks stay held for the caller's rollback;
/// 5. otherwise run `write_back`, then per lock publish `ts` and only then
///    call `release`.
///
/// Step 5's order is the protocol. Values are stored before `ts` is
/// published, so a reader that sees `ts` sees them. The r-lock is released
/// before the w-lock: a contender that grabbed a prematurely released w-lock
/// could run `lock_version` on the still-[`LOCKED`] r-lock, recording
/// `LOCKED` as the version to restore and racing its swap against our store.
///
/// # Errors
///
/// [`AbortReason::ReadValidation`] if a logged read has changed.
pub fn commit_locked<'s>(
    sub: &TxSubstrate,
    stats: &StatsShard,
    locked: &mut Vec<(LockIndex, u64)>,
    read_logs: impl IntoIterator<Item = &'s Snapshot>,
    write_back: impl FnOnce(),
    mut release: impl FnMut(&LockEntry),
) -> Result<(), Abort> {
    // Sorted, the list is validation's binary-searchable `locked_by_me`; the
    // locking order is irrelevant, because `lock_version` is a plain swap
    // only the w-lock holder performs.
    locked.sort_unstable_by_key(|&(idx, _)| idx.0);
    locked.dedup_by_key(|&mut (idx, _)| idx);
    for slot in locked.iter_mut() {
        slot.1 = sub.locks.entry(slot.0).lock_version();
    }
    let ts = sub.clock.tick();
    if !holds_at(sub, stats, read_logs, ts - 1, locked) {
        for &(idx, prev) in locked.iter() {
            sub.locks.entry(idx).set_version(prev);
        }
        return Err(Abort::new(AbortReason::ReadValidation));
    }
    write_back();
    for &(idx, _) in locked.iter() {
        let entry = sub.locks.entry(idx);
        entry.set_version(ts);
        release(entry);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OwnerToken, TxConfig};

    const ME: u32 = 1;

    /// A substrate whose heap covers the words the tests use (8, 16, 64).
    fn substrate() -> TxSubstrate {
        let sub = TxSubstrate::new(TxConfig::small());
        sub.heap.alloc(128).unwrap();
        sub
    }

    /// Two words under distinct locks, each w-locked by `ME`, with the
    /// given committed versions.
    fn two_held_locks(sub: &TxSubstrate, versions: [u64; 2]) -> [(LockIndex, WordAddr); 2] {
        let addrs = [WordAddr::new(8), WordAddr::new(16)];
        let mut held = [(LockIndex(0), WordAddr::new(0)); 2];
        for (i, (&addr, &version)) in addrs.iter().zip(&versions).enumerate() {
            let (idx, entry) = sub.locks.lookup(addr);
            entry.set_version(version);
            entry.try_acquire_writer(OwnerToken::from_id(ME)).unwrap();
            held[i] = (idx, addr);
        }
        assert_ne!(held[0].0, held[1].0);
        held
    }

    /// A snapshot that has read `addr` at its current version.
    fn snapshot_reading(sub: &TxSubstrate, addrs: &[WordAddr]) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.begin(&sub.clock);
        for &addr in addrs {
            let (idx, entry) = sub.locks.lookup(addr);
            snap.read_committed(sub, sub.stats.shard(ME), idx, entry, addr, || Ok(()))
                .unwrap();
        }
        snap
    }

    #[test]
    fn validation_honours_own_commit_locks() {
        let sub = substrate();
        let t = &sub.locks;
        let (i0, e0) = t.lookup(WordAddr::new(0));
        let (i1, e1) = t.lookup(WordAddr::new(4));
        e0.set_version(5);
        e1.set_version(7);
        let snap = Snapshot {
            valid_ts: 7,
            read_log: vec![(i0, 5), (i1, 7)],
        };
        assert!(snap.validate(t));
        // A foreign commit lock invalidates the entry...
        e0.lock_version();
        assert!(!snap.validate(t));
        // ...unless it is our own and the pre-lock version matches.
        assert!(snap.holds(t, &[(i0, 5)]));
        assert!(!snap.holds(t, &[(i0, 4)]));
        // A genuinely newer version always fails.
        e0.set_version(9);
        assert!(!snap.holds(t, &[(i0, 5)]));
    }

    #[test]
    fn failed_validation_restores_versions_and_keeps_w_locks() {
        let sub = substrate();
        sub.clock.tick();
        sub.clock.tick();
        let held = two_held_locks(&sub, [1, 2]);
        let read = WordAddr::new(64);
        let snap = snapshot_reading(&sub, &[read, held[0].1]);
        // A foreign commit overwrites the logged read.
        sub.locks.entry_for(read).set_version(sub.clock.tick());
        let mut locked = vec![(held[0].0, 0), (held[1].0, 0)];
        let (mut wrote, mut released) = (false, 0);
        let result = commit_locked(
            &sub,
            sub.stats.shard(ME),
            &mut locked,
            [&snap],
            || wrote = true,
            |_| released += 1,
        );
        assert_eq!(result.unwrap_err().reason, AbortReason::ReadValidation);
        assert!(!wrote, "write_back ran after a failed validation");
        assert_eq!(released, 0, "release ran after a failed validation");
        for (&(idx, _), version) in held.iter().zip([1, 2]) {
            let entry = sub.locks.entry(idx);
            assert_eq!(entry.version(), version, "pre-lock version not restored");
            assert_eq!(entry.writer_token(), OwnerToken::from_id(ME));
        }
    }

    #[test]
    fn success_publishes_ts_before_release() {
        let sub = substrate();
        let held = two_held_locks(&sub, [0, 0]);
        // Reading a word under a lock this commit holds stays valid.
        let snap = snapshot_reading(&sub, &[held[1].1, WordAddr::new(64)]);
        let mut locked = vec![(held[1].0, 0), (held[0].0, 0)];
        let mut released = Vec::new();
        commit_locked(
            &sub,
            sub.stats.shard(ME),
            &mut locked,
            [&snap],
            || {
                for &(idx, addr) in &held {
                    assert_eq!(sub.locks.entry(idx).version(), LOCKED);
                    sub.heap.store_committed(addr, 7);
                }
            },
            |entry| {
                released.push(entry.version());
                entry.release_writer();
            },
        )
        .unwrap();
        let ts = sub.clock.now();
        assert_eq!(ts, 1);
        assert_eq!(released, [ts, ts], "release saw an unpublished version");
        for &(idx, addr) in &held {
            assert_eq!(sub.locks.entry(idx).version(), ts);
            assert!(sub.locks.entry(idx).writer_token().is_unlocked());
            assert_eq!(sub.heap.load_committed(addr), 7);
        }
    }

    #[test]
    fn a_lock_listed_twice_is_locked_and_released_once() {
        let sub = substrate();
        let held = two_held_locks(&sub, [3, 3]);
        let mut locked = vec![(held[0].0, 0), (held[1].0, 0), (held[0].0, 0)];
        let mut released = 0;
        commit_locked(
            &sub,
            sub.stats.shard(ME),
            &mut locked,
            [] as [&Snapshot; 0],
            || {},
            |entry| {
                released += 1;
                entry.release_writer();
            },
        )
        .unwrap();
        assert_eq!(released, 2);
        assert_eq!(locked.len(), 2);
        // A second `lock_version` would have recorded LOCKED as the version.
        assert!(locked.iter().all(|&(_, prev)| prev == 3));
    }

    /// Commits under `lock` (w-locked by `ME`) with `snap` as the read log.
    fn commit_one(sub: &TxSubstrate, lock: LockIndex, snap: &Snapshot) -> Result<(), Abort> {
        let mut locked = vec![(lock, 0)];
        let stats = sub.stats.shard(ME);
        commit_locked(
            sub,
            stats,
            &mut locked,
            [snap],
            || {},
            LockEntry::release_writer,
        )
    }

    #[test]
    fn a_commit_validates_only_after_another_commit_ticked() {
        let sub = substrate();
        let validations = || sub.stats.shard(ME).validations.get();
        let held = two_held_locks(&sub, [0, 0]);
        let read = WordAddr::new(64);
        // No commit since `valid-ts`: the commit's tick follows it directly.
        let snap = snapshot_reading(&sub, &[read]);
        commit_one(&sub, held[0].0, &snap).unwrap();
        assert_eq!(validations(), 0, "validated although no commit intervened");
        // Another commit ticks between the snapshot and the commit.
        let snap = snapshot_reading(&sub, &[read]);
        sub.clock.tick();
        commit_one(&sub, held[1].0, &snap).unwrap();
        assert_eq!(validations(), 1, "an intervening commit went unchecked");
    }

    #[test]
    fn a_read_only_commit_checks_only_snapshots_older_than_now() {
        let sub = substrate();
        let stats = sub.stats.shard(ME);
        let (a, b) = (WordAddr::new(8), WordAddr::new(16));
        let old = snapshot_reading(&sub, &[a]);
        sub.locks.entry_for(b).set_version(sub.clock.tick());
        let fresh = snapshot_reading(&sub, &[b]);
        validate_at_now(&sub, stats, [&fresh]).unwrap();
        assert_eq!(
            stats.validations.get(),
            0,
            "a snapshot valid at now was checked"
        );
        validate_at_now(&sub, stats, [&fresh, &old]).unwrap();
        assert_eq!(stats.validations.get(), 1);
        // The stale snapshot is checked even though its sibling is fresh.
        sub.locks.entry_for(a).set_version(sub.clock.tick());
        let fresh = snapshot_reading(&sub, &[b]);
        let err = validate_at_now(&sub, stats, [&fresh, &old]).unwrap_err();
        assert_eq!(err.reason, AbortReason::ReadValidation);
    }

    #[test]
    fn reads_extend_before_use_and_fail_on_a_changed_read() {
        let sub = substrate();
        let stats = sub.stats.shard(ME);
        let (a, b) = (WordAddr::new(8), WordAddr::new(16));
        sub.heap.store_committed(b, 42);
        let mut snap = snapshot_reading(&sub, &[a]);
        assert_eq!(snap.valid_ts(), 0);
        // `b` is committed after the snapshot began: reading it extends.
        sub.locks.entry_for(b).set_version(sub.clock.tick());
        let (idx, entry) = sub.locks.lookup(b);
        let value = snap.read_committed(&sub, stats, idx, entry, b, || Ok(()));
        assert_eq!(value.unwrap(), 42);
        assert_eq!(snap.valid_ts(), 1);
        assert_eq!(snap.reads(), &[(sub.locks.index_for(a), 0), (idx, 1)]);
        assert_eq!(stats.extensions.get(), 1);
        // Once a logged read has changed, the same kind of read fails.
        sub.locks.entry_for(a).set_version(sub.clock.tick());
        sub.locks.entry_for(b).set_version(sub.clock.tick());
        let err = snap.read_committed(&sub, stats, idx, entry, b, || Ok(()));
        assert_eq!(err.unwrap_err().reason, AbortReason::ReadValidation);
        assert_eq!(snap.valid_ts(), 1);
    }
}
