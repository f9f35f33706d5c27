//! Runtime statistics, sharded per user-thread.
//!
//! Both runtimes update a shared [`StatsCollector`]; the evaluation harness
//! and the tests read a window by taking [`StatsCollector::snapshot`] at both
//! edges and subtracting. Counters are deliberately coarse (relaxed atomics) —
//! they are diagnostics, not part of the synchronisation protocol.
//!
//! The counter group is declared with [`txobs::instrument_group!`], like the
//! WAL, KV and network groups. Unlike those process-wide statics it is kept
//! as cache-line-aligned [`StatsShard`]s, one per user-thread id (masked):
//! with 64 committing threads, one shared line would take a cache miss on
//! every counter bump. The shards are only ever read summed.

use std::fmt;

use crate::error::AbortReason;

/// Number of shards in a [`StatsCollector`].
///
/// Shard selection masks the thread id by the shard count, so ids beyond the
/// shard count wrap around (counts stay exact; only threads aliasing onto one
/// shard share its line). 64 shards cover every machine this reproduction
/// targets while costing only a few kilobytes per collector.
pub const DEFAULT_STATS_SHARDS: usize = 64;

txobs::instrument_group! {
    /// One cache-line-aligned shard of the runtime counters.
    ///
    /// Each user-thread updates exactly one shard, so the relaxed
    /// `fetch_add`s of different threads never contend on the same cache
    /// line. The alignment also prevents false sharing between neighbouring
    /// shards in the collector's shard array.
    #[repr(align(64))]
    group StatsShard;
    /// A point-in-time copy of the collector's counters, summed over its
    /// shards by [`StatsCollector::snapshot`].
    snapshot StatsSnapshot;
    counters {
        /// User-transactions started (first attempt only).
        tx_starts,
        /// User-transactions committed.
        tx_commits,
        /// User-transaction aborts (whole-transaction rollbacks).
        tx_aborts,
        /// Speculative tasks started (first attempt only).
        task_starts,
        /// Speculative tasks committed (reached retirement).
        task_commits,
        /// Individual task rollbacks (task restarted without aborting the
        /// whole user-transaction).
        task_aborts,
        /// Transactional read operations.
        reads,
        /// Transactional write operations.
        writes,
        /// Aborts caused by failed read validation (inter-thread R/W).
        aborts_read_validation,
        /// Aborts caused by inter-thread write/write conflicts.
        aborts_inter_ww,
        /// Aborts caused by intra-thread write-after-read conflicts.
        aborts_intra_war,
        /// Aborts caused by intra-thread write-after-write conflicts.
        aborts_intra_waw,
        /// Aborts caused by an external abort-transaction signal.
        aborts_tx_signal,
        /// Aborts caused by an internal (single-task) abort signal.
        aborts_task_signal,
        /// Aborts requested explicitly by user code.
        aborts_user_retry,
        /// Aborts caused by allocation failure.
        aborts_oom,
        /// Successful read-log extensions (`extend`).
        extensions,
        /// Full task/transaction validations executed: `extend`s,
        /// `validate-task`s, and commits that check at least one snapshot
        /// (a commit no other commit overtook checks none).
        validations,
        /// Times a reader had to wait for a past writer task to complete.
        reader_waits,
        /// Times the contention manager aborted the lock owner.
        cm_owner_aborts,
        /// Times the contention manager aborted the requester.
        cm_self_aborts,
    }
}

impl StatsShard {
    /// Records an abort with the given reason against the per-reason counters.
    /// The caller is responsible for also bumping `tx_aborts`/`task_aborts` as
    /// appropriate.
    pub fn record_abort_reason(&self, reason: AbortReason) {
        let counter = match reason {
            AbortReason::ReadValidation => &self.aborts_read_validation,
            AbortReason::InterThreadWriteConflict => &self.aborts_inter_ww,
            AbortReason::IntraThreadWar => &self.aborts_intra_war,
            AbortReason::IntraThreadWaw => &self.aborts_intra_waw,
            AbortReason::TransactionAbortSignal => &self.aborts_tx_signal,
            AbortReason::TaskAbortSignal => &self.aborts_task_signal,
            AbortReason::UserRetry => &self.aborts_user_retry,
            AbortReason::OutOfMemory => &self.aborts_oom,
        };
        counter.inc();
    }
}

/// A transaction handle's read and write counts, kept as plain integers on
/// the access paths and flushed into the thread's shard once per attempt.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Transactional reads since the last flush.
    pub reads: u64,
    /// Transactional writes since the last flush.
    pub writes: u64,
}

impl OpCounters {
    /// Adds the counts to `stats` and zeroes them.
    pub fn flush(&mut self, stats: &StatsShard) {
        if self.reads > 0 {
            stats.reads.add(std::mem::take(&mut self.reads));
        }
        if self.writes > 0 {
            stats.writes.add(std::mem::take(&mut self.writes));
        }
    }
}

/// Sharded runtime statistics.
///
/// The collector owns [`DEFAULT_STATS_SHARDS`] cache-line-aligned shards. Hot
/// paths obtain their shard once via [`StatsCollector::shard`] and bump
/// counters on it; reporting code sums the shards with
/// [`StatsCollector::snapshot`].
#[derive(Debug)]
pub struct StatsCollector {
    shards: Box<[StatsShard]>,
}

impl StatsCollector {
    /// Creates a collector with every counter zero.
    pub fn new() -> Self {
        StatsCollector {
            shards: (0..DEFAULT_STATS_SHARDS)
                .map(|_| StatsShard::new())
                .collect(),
        }
    }

    /// The shard user-thread `id` should update.
    ///
    /// Ids are masked by the (power-of-two) shard count, so any id is valid;
    /// ids beyond the shard count alias onto existing shards.
    #[inline]
    pub fn shard(&self, id: u32) -> &StatsShard {
        &self.shards[id as usize & (DEFAULT_STATS_SHARDS - 1)]
    }

    /// The counters summed over all shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in self.shards.iter() {
            total.merge(&shard.snapshot());
        }
        total
    }
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsSnapshot {
    /// Total aborts of any kind (transaction + individual task aborts).
    pub fn total_aborts(&self) -> u64 {
        self.tx_aborts + self.task_aborts
    }

    /// Commit rate: committed transactions over attempted commits.
    /// Returns 1.0 when nothing was attempted.
    pub fn commit_ratio(&self) -> f64 {
        let attempts = self.tx_commits + self.tx_aborts;
        if attempts == 0 {
            1.0
        } else {
            self.tx_commits as f64 / attempts as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tx: {} started, {} committed, {} aborted ({:.1}% commit ratio)",
            self.tx_starts,
            self.tx_commits,
            self.tx_aborts,
            self.commit_ratio() * 100.0
        )?;
        writeln!(
            f,
            "tasks: {} started, {} committed, {} aborted",
            self.task_starts, self.task_commits, self.task_aborts
        )?;
        writeln!(f, "ops: {} reads, {} writes", self.reads, self.writes)?;
        writeln!(
            f,
            "aborts by cause: validation={} inter-ww={} intra-war={} intra-waw={} tx-signal={} task-signal={} retry={} oom={}",
            self.aborts_read_validation,
            self.aborts_inter_ww,
            self.aborts_intra_war,
            self.aborts_intra_waw,
            self.aborts_tx_signal,
            self.aborts_task_signal,
            self.aborts_user_retry,
            self.aborts_oom
        )?;
        write!(
            f,
            "misc: extensions={} validations={} reader-waits={} cm-owner-aborts={} cm-self-aborts={}",
            self.extensions,
            self.validations,
            self.reader_waits,
            self.cm_owner_aborts,
            self.cm_self_aborts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = StatsCollector::new();
        let shard = s.shard(0);
        shard.tx_commits.inc();
        shard.tx_commits.inc();
        shard.reads.inc();
        let snap = s.snapshot();
        assert_eq!(snap.tx_commits, 2);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 0);
    }

    #[test]
    fn abort_reasons_map_to_counters() {
        let s = StatsCollector::new();
        let shard = s.shard(3);
        shard.record_abort_reason(AbortReason::IntraThreadWar);
        shard.record_abort_reason(AbortReason::IntraThreadWar);
        shard.record_abort_reason(AbortReason::ReadValidation);
        let snap = s.snapshot();
        assert_eq!(snap.aborts_intra_war, 2);
        assert_eq!(snap.aborts_read_validation, 1);
        assert_eq!(snap.aborts_intra_waw, 0);
    }

    #[test]
    fn commit_ratio_handles_zero() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.commit_ratio(), 1.0);
        let snap = StatsSnapshot {
            tx_commits: 3,
            tx_aborts: 1,
            ..Default::default()
        };
        assert!((snap.commit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn delta_since_subtracts() {
        let s = StatsCollector::new();
        let shard = s.shard(0);
        shard.reads.inc();
        let early = s.snapshot();
        shard.reads.inc();
        shard.writes.inc();
        let late = s.snapshot();
        let delta = late.delta_since(&early);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn display_is_nonempty_and_mentions_commits() {
        let snap = StatsSnapshot {
            tx_commits: 5,
            ..Default::default()
        };
        let text = snap.to_string();
        assert!(text.contains("5 committed"));
    }

    #[test]
    fn shards_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<StatsShard>(), 64);
        // The shard array inherits the alignment, so neighbouring shards can
        // never share a cache line.
        let s = StatsCollector::new();
        let a = s.shard(0) as *const _ as usize;
        let b = s.shard(1) as *const _ as usize;
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b - a >= 64);
    }

    #[test]
    fn shard_ids_wrap_by_masking() {
        let s = StatsCollector::new();
        // id 65 aliases onto shard 1.
        let wrapped = DEFAULT_STATS_SHARDS as u32 + 1;
        assert!(std::ptr::eq(s.shard(wrapped), s.shard(1)));
        s.shard(wrapped).tx_commits.inc();
        assert_eq!(s.shard(1).snapshot().tx_commits, 1);
    }

    #[test]
    fn sharded_counts_aggregate_to_global_totals() {
        // The sharded collector must report exactly the totals the old single
        // global collector produced: distribute bumps over many (aliasing)
        // shard ids and compare against a straight count.
        let s = StatsCollector::new();
        let mut expected_commits = 0u64;
        let mut expected_reads = 0u64;
        for id in 0..100u32 {
            let shard = s.shard(id);
            shard.tx_commits.inc();
            expected_commits += 1;
            shard.reads.add(u64::from(id));
            expected_reads += u64::from(id);
        }
        let snap = s.snapshot();
        assert_eq!(snap.tx_commits, expected_commits);
        assert_eq!(snap.reads, expected_reads);
    }

    #[test]
    fn fields_name_every_counter_exactly_once() {
        // The tmbench JSON report writes one entry per `fields()` pair, so
        // every counter must appear, once, under its own name.
        let snap = StatsSnapshot {
            tx_commits: 17,
            cm_self_aborts: 3,
            ..Default::default()
        };
        let fields = snap.fields();
        assert_eq!(
            fields.len(),
            std::mem::size_of::<StatsSnapshot>() / std::mem::size_of::<u64>(),
            "a counter is missing from fields()"
        );
        let names: std::collections::HashSet<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len(), "a counter is named twice");
        assert!(fields.contains(&("tx_commits", 17)));
        assert!(fields.contains(&("cm_self_aborts", 3)));
        assert_eq!(fields.iter().map(|(_, v)| v).sum::<u64>(), 20);
    }
}
