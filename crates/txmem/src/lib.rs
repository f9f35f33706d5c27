//! # txmem — word-based transactional memory substrate
//!
//! This crate provides the shared substrate used by both the [`SwissTM`
//! baseline](https://dl.acm.org/doi/10.1145/1542476.1542494) reimplementation
//! (`swisstm` crate) and the TLSTM unified STM+TLS runtime (`tlstm` crate)
//! from *"Unifying Thread-Level Speculation and Transactional Memory"*
//! (Barreto et al., Middleware 2012).
//!
//! The substrate consists of:
//!
//! * [`TxHeap`] — a growable arena of 64-bit words ([`WordAddr`] addressed).
//!   Committed state is stored in plain atomics, so no `unsafe` is required
//!   for speculative execution: speculative values live in per-task logs and
//!   in per-lock write chains until commit.
//! * [`LockTable`] — the global table mapping every word address to an
//!   (r-lock, w-lock) pair, exactly as SwissTM does. The r-lock holds either a
//!   commit timestamp or a `LOCKED` sentinel; the w-lock holds the owner of
//!   the location plus a chain of speculative write entries
//!   ([`WriteChain`]) used by TLSTM tasks of the owning user-thread.
//! * [`WriteSet`] — the log-structured transactional write set shared by both
//!   runtimes: an append-only write log in program order with a bloom summary
//!   and a generation-stamped index, recyclable so steady-state transactions
//!   allocate nothing.
//! * [`GlobalClock`] — the global commit counter (`commit-ts` in the paper).
//! * [`protocol`] — SwissTM's committed-state protocol, written once for both
//!   runtimes: the [`Snapshot`] read rule and `extend`, and the
//!   [`commit_locked`] commit sequence.
//! * [`TxMem`] — the uniform access trait implemented by both runtimes'
//!   transaction/task handles, so that transactional data structures
//!   (`txcollections`) and benchmarks (`tlstm-workloads`) are written once and
//!   run unchanged on either runtime.
//! * [`TxRuntime`] / [`TxSession`] — the *inter*-transaction counterpart to
//!   [`TxMem`]: construction from a config or shared substrate, per-thread
//!   sessions with a commit-retry loop ([`TxSession::run`]) and one
//!   transaction split into ordered tasks ([`TxSession::run_split`]), and
//!   statistics access.
//!   Implemented by the `swisstm` and `tlstm` runtimes and by the in-crate
//!   sequential reference runtime [`SeqRefRuntime`], so servers, workloads
//!   and the benchmark matrix are generic over the runtime.
//! * [`StatsCollector`] — cheap atomic counters for commits, aborts and
//!   conflict classes, declared with `txobs::instrument_group!` and sharded
//!   per user-thread into cache-line-aligned [`StatsShard`]s so committing
//!   threads never share a counter line; read summed by the evaluation
//!   harness and by tests.
//!
//! ## Example
//!
//! ```rust
//! use txmem::{TxHeap, LockTable, GlobalClock, TxConfig};
//!
//! let config = TxConfig::default();
//! let heap = TxHeap::new(&config);
//! let locks = LockTable::new(&config);
//! let clock = GlobalClock::new();
//!
//! // Allocate three words of committed state and initialise them directly
//! // (outside of any transaction).
//! let block = heap.alloc(3).unwrap();
//! heap.store_committed(block, 42);
//! assert_eq!(heap.load_committed(block), 42);
//! assert_eq!(clock.now(), 0);
//! let _ = locks.entry_for(block);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod chain;
pub mod clock;
pub mod config;
pub mod error;
pub mod heap;
pub mod lock_table;
pub mod owner;
pub mod pause;
pub mod protocol;
pub mod runtime;
pub mod seqref;
pub mod stats;
pub mod traits;
pub mod write_set;

pub use addr::{WordAddr, NULL_ADDR};
pub use chain::{SpecEntry, WriteChain};
pub use clock::{GlobalClock, ThreadIdAllocator};
pub use config::TxConfig;
pub use error::{Abort, AbortReason, MemError};
pub use heap::TxHeap;
pub use lock_table::{LockEntry, LockIndex, LockTable, LOCKED, WORDS_PER_LOCK};
pub use owner::OwnerHandle;
pub use owner::{CmDecision, LockOwner, OwnerToken};
pub use protocol::{commit_locked, Snapshot};
pub use runtime::{
    assert_txmem_object_safe, run_boxed_tasks, BoxedTaskBody, TaskBody, TxRuntime, TxSession,
};
pub use seqref::{SeqRefRuntime, SeqRefSession};
pub use stats::{OpCounters, StatsCollector, StatsShard, StatsSnapshot};
pub use traits::{DirectMem, TxMem};
pub use write_set::{WriteEntry, WriteSet};

/// Shared, immutable bundle of the global structures a runtime needs.
///
/// Both the SwissTM and the TLSTM runtime are built around one [`TxSubstrate`]
/// instance; benchmarks that compare the two runtimes on the *same* data
/// simply hand the same substrate to both.
#[derive(Debug)]
pub struct TxSubstrate {
    /// The word heap holding committed state.
    pub heap: TxHeap,
    /// The global lock table.
    pub locks: LockTable,
    /// The global commit timestamp (`commit-ts`).
    pub clock: GlobalClock,
    /// Global statistics counters.
    pub stats: StatsCollector,
    /// Configuration used to build the substrate.
    pub config: TxConfig,
}

impl TxSubstrate {
    /// Builds a substrate from a configuration.
    pub fn new(config: TxConfig) -> Self {
        Self {
            heap: TxHeap::new(&config),
            locks: LockTable::new(&config),
            clock: GlobalClock::new(),
            stats: StatsCollector::new(),
            config,
        }
    }
}

impl Default for TxSubstrate {
    fn default() -> Self {
        Self::new(TxConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_default_builds() {
        let s = TxSubstrate::default();
        assert_eq!(s.clock.now(), 0);
        // Only the reserved null word is allocated on a fresh heap.
        assert_eq!(s.heap.words_allocated(), 1);
    }

    #[test]
    fn substrate_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TxSubstrate>();
    }
}
