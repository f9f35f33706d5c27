//! Runtime statistics, sharded per user-thread.
//!
//! Both runtimes update a shared [`StatsCollector`]; the evaluation harness
//! and the tests read consistent snapshots through [`StatsCollector::snapshot`].
//! Counters are deliberately coarse (relaxed atomics) — they are diagnostics,
//! not part of the synchronisation protocol.
//!
//! To keep the counters off the hot paths' shared cache lines, the collector
//! is split into cache-line-aligned [`StatsShard`]s. Each user-thread bumps
//! only its own shard (selected by its dense thread/user-thread id), so
//! counter updates never ping-pong a cache line between threads; totals are
//! aggregated lazily at snapshot time. The per-shard snapshots also give the
//! benchmark harness a per-user-thread attribution of commits, aborts and
//! contention-manager escalations.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::AbortReason;

/// Default number of shards in a [`StatsCollector`].
///
/// Shard selection masks the thread id by the shard count, so ids beyond the
/// shard count wrap around (counts stay exact, only the per-thread attribution
/// aliases). 64 shards cover every machine this reproduction targets while
/// costing only a few kilobytes per collector.
pub const DEFAULT_STATS_SHARDS: usize = 64;

macro_rules! counters {
    ($(#[$shard_meta:meta])* shard $shard:ident;
     $(#[$snapshot_meta:meta])* snapshot $snapshot:ident;
     fields { $($(#[$field_meta:meta])* $field:ident),+ $(,)? }) => {
        $(#[$shard_meta])*
        #[derive(Debug, Default)]
        #[repr(align(64))]
        pub struct $shard {
            $($(#[$field_meta])* pub $field: AtomicU64,)+
        }

        $(#[$snapshot_meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $snapshot {
            $($(#[$field_meta])* pub $field: u64,)+
        }

        impl $shard {
            /// Takes a snapshot of this shard's counters.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }

            /// Resets every counter of this shard to zero.
            pub fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }
        }

        impl $snapshot {
            /// Field-wise sum of two snapshots, saturating at `u64::MAX`.
            pub fn merged(&self, other: &$snapshot) -> $snapshot {
                $snapshot {
                    $($field: self.$field.saturating_add(other.$field),)+
                }
            }

            /// Difference between two snapshots (`self - earlier`), saturating
            /// at 0.
            pub fn delta_since(&self, earlier: &$snapshot) -> $snapshot {
                $snapshot {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }

            /// Every counter as a `(name, value)` pair, in declaration order.
            ///
            /// Used by the benchmark reporter to serialise the full breakdown
            /// without hand-maintaining a parallel field list.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}

counters! {
    /// One cache-line-aligned shard of atomic counters.
    ///
    /// Each user-thread updates exactly one shard, so the relaxed
    /// `fetch_add`s of different threads never contend on the same cache
    /// line. The alignment also prevents false sharing between neighbouring
    /// shards in the collector's shard array.
    shard StatsShard;
    /// A point-in-time copy of one shard's — or, via
    /// [`StatsCollector::snapshot`], the whole collector's — counters.
    snapshot StatsSnapshot;
    fields {
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
        /// Full task/transaction validations executed.
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
    /// Bumps a counter of this shard by one.
    #[inline]
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter of this shard.
    #[inline]
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

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
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sharded runtime statistics.
///
/// The collector owns [`DEFAULT_STATS_SHARDS`] (or an explicit power-of-two
/// number of) cache-line-aligned shards. Hot paths obtain their shard once via
/// [`StatsCollector::shard`] and bump counters on it; reporting code sums the
/// shards with [`StatsCollector::snapshot`] or inspects the per-thread
/// attribution with [`StatsCollector::shard_snapshots`].
#[derive(Debug)]
pub struct StatsCollector {
    shards: Box<[StatsShard]>,
}

impl StatsCollector {
    /// Creates a collector with the default shard count, all counters zero.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_STATS_SHARDS)
    }

    /// Creates a collector with at least `shards` shards (rounded up to a
    /// power of two so shard selection is a mask, never a division).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        StatsCollector {
            shards: (0..n).map(|_| StatsShard::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard user-thread `id` should update.
    ///
    /// Ids are masked by the (power-of-two) shard count, so any id is valid;
    /// ids beyond the shard count alias onto existing shards.
    #[inline]
    pub fn shard(&self, id: u32) -> &StatsShard {
        &self.shards[id as usize & (self.shards.len() - 1)]
    }

    /// Aggregated snapshot of all shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.shards
            .iter()
            .fold(StatsSnapshot::default(), |acc, shard| {
                acc.merged(&shard.snapshot())
            })
    }

    /// Per-shard snapshots, in shard order (index = thread id modulo the
    /// shard count). Shards that no thread ever used are all-zero.
    pub fn shard_snapshots(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(StatsShard::snapshot).collect()
    }

    /// Resets every counter of every shard to zero.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.reset();
        }
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
        shard.bump(&shard.tx_commits);
        shard.bump(&shard.tx_commits);
        shard.bump(&shard.reads);
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
        shard.bump(&shard.reads);
        let early = s.snapshot();
        shard.bump(&shard.reads);
        shard.bump(&shard.writes);
        let late = s.snapshot();
        let delta = late.delta_since(&early);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = StatsCollector::new();
        let shard = s.shard(9);
        shard.bump(&shard.tx_aborts);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
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
        let s = StatsCollector::with_shards(4);
        let a = s.shard(0) as *const _ as usize;
        let b = s.shard(1) as *const _ as usize;
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b - a >= 64);
    }

    #[test]
    fn shard_ids_wrap_by_masking() {
        let s = StatsCollector::with_shards(4);
        assert_eq!(s.num_shards(), 4);
        // id 5 aliases onto shard 1.
        assert!(std::ptr::eq(s.shard(5), s.shard(1)));
        let shard = s.shard(5);
        shard.bump(&shard.tx_commits);
        assert_eq!(s.shard_snapshots()[1].tx_commits, 1);
    }

    #[test]
    fn with_shards_rounds_up_to_power_of_two() {
        assert_eq!(StatsCollector::with_shards(0).num_shards(), 1);
        assert_eq!(StatsCollector::with_shards(3).num_shards(), 4);
        assert_eq!(StatsCollector::with_shards(64).num_shards(), 64);
    }

    #[test]
    fn sharded_counts_aggregate_to_global_totals() {
        // The sharded collector must report exactly the totals the old single
        // global collector produced: distribute bumps over many (aliasing)
        // shard ids and compare against a straight count.
        let s = StatsCollector::with_shards(8);
        let mut expected_commits = 0u64;
        let mut expected_reads = 0u64;
        for id in 0..100u32 {
            let shard = s.shard(id);
            shard.bump(&shard.tx_commits);
            expected_commits += 1;
            shard.add(&shard.reads, u64::from(id));
            expected_reads += u64::from(id);
        }
        let snap = s.snapshot();
        assert_eq!(snap.tx_commits, expected_commits);
        assert_eq!(snap.reads, expected_reads);
        // Per-shard attribution sums to the same totals.
        let merged = s
            .shard_snapshots()
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merged(s));
        assert_eq!(merged, snap);
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
