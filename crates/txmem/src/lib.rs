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
//!   for speculative execution: speculative values live in SwissTM's write
//!   sets and TLSTM's per-lock write chains until commit.
//! * [`LockTable`] — the global table mapping every word address to an
//!   (r-lock, w-lock) pair, exactly as SwissTM does. The r-lock holds either a
//!   commit timestamp or a `LOCKED` sentinel; the w-lock holds the owner's
//!   token and, under TLSTM, heads the chain of its tasks' write entries
//!   ([`WriteChain`]), the only copy of a TLSTM write.
//! * [`WriteSet`] — SwissTM's log-structured write set: an append-only write
//!   log in program order with a bloom summary and a generation-stamped
//!   index, recyclable so steady-state transactions allocate nothing.
//! * [`GlobalClock`] — the global commit counter (`commit-ts` in the paper).
//! * [`ThreadIdAllocator`], [`GreedyTicket`], [`OwnerRegistry`] — owner ids,
//!   greedy tickets and SwissTM's descriptors, one of each per lock table.
//! * The contention layer of both runtimes: [`TxDescriptor`] (a
//!   transaction's abort request, finishing flag and greedy priority),
//!   [`TxSubstrate::owner_of`] (the holder of a w-lock, whichever runtime it
//!   belongs to) and [`resolve`] (the paper's task-aware rule with two-phase
//!   greedy as its tie-break), joined by [`TxSubstrate::contend`].
//! * [`protocol`] — SwissTM's committed-state protocol, written once for both
//!   runtimes: the [`Snapshot`] read rule and `extend`, and the
//!   [`commit_locked`] commit sequence, which validates a snapshot only if
//!   another commit drew a timestamp since the snapshot's `valid-ts`.
//! * [`Transaction`] over a recycled [`TxContext`] — SwissTM's transaction
//!   and retry loop ([`TxContext::atomic`]): the one transaction type of
//!   every transaction that stays on one thread, whether a `swisstm` thread
//!   or a `tlstm` user-thread that claimed no helper runs it.
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
pub mod cm;
pub mod config;
pub mod descriptor;
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
pub mod transaction;
pub mod write_set;

pub use addr::{WordAddr, NULL_ADDR};
pub use chain::{SpecEntry, WriteChain};
pub use clock::{GlobalClock, GreedyTicket, ThreadIdAllocator};
pub use cm::{resolve, should_turn_greedy, GREEDY_AFTER_ABORTS, TIMID};
pub use config::TxConfig;
pub use descriptor::TxDescriptor;
pub use error::{Abort, AbortReason, MemError};
pub use heap::TxHeap;
pub use lock_table::{LockEntry, LockIndex, LockTable, LOCKED, WORDS_PER_LOCK};
pub use owner::{CmDecision, LockOwner, OwnerHandle, OwnerRegistry, OwnerToken};
pub use protocol::{commit_locked, validate_at_now, Snapshot};
pub use runtime::{
    assert_txmem_object_safe, run_boxed_tasks, BoxedTaskBody, TaskBody, TxRuntime, TxSession,
};
pub use seqref::{SeqRefRuntime, SeqRefSession};
pub use stats::{OpCounters, StatsCollector, StatsShard, StatsSnapshot};
pub use traits::{DirectMem, TxMem};
pub use transaction::{Transaction, TxContext};
pub use write_set::{WriteEntry, WriteSet};

/// Shared bundle of the global structures a runtime needs.
///
/// Every runtime handle is built around one [`TxSubstrate`]; benchmarks that
/// compare the runtimes on the *same* data hand the same substrate to each
/// (see [`TxRuntime::with_substrate`] for what sharing guarantees).
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
    /// Owner ids (SwissTM threads, TLSTM user-threads, seqref sessions).
    pub ids: ThreadIdAllocator,
    /// Two-phase greedy contention-manager tickets.
    pub tickets: GreedyTicket,
    /// SwissTM threads' descriptors, keyed by owner id; read through
    /// [`TxSubstrate::owner_of`], which finds TLSTM owners in the chains.
    pub owners: OwnerRegistry,
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
            ids: ThreadIdAllocator::new(),
            tickets: GreedyTicket::new(),
            owners: OwnerRegistry::default(),
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
