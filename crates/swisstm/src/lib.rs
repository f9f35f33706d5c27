//! # swisstm — the baseline word-based STM
//!
//! A from-scratch Rust reimplementation of **SwissTM** (Dragojević, Guerraoui,
//! Kapałka — *Stretching Transactional Memory*, PLDI 2009), which is the
//! baseline system that the TLSTM paper (Barreto et al., Middleware 2012)
//! extends and compares against.
//!
//! The algorithm, as described in §3.1 of the TLSTM paper:
//!
//! * a global commit counter `commit-ts` ([`txmem::GlobalClock`]);
//! * a global lock table mapping each location to an (r-lock, w-lock) pair
//!   ([`txmem::LockTable`]);
//! * **eager write/write conflict detection**: a transaction wishing to write
//!   first acquires the location's w-lock; conflicts are resolved by the
//!   substrate's contention manager ([`txmem::cm`]), which between two
//!   SwissTM transactions is two-phase greedy;
//! * **lazy (counter-based) read validation**: each transaction keeps a
//!   `valid-ts`; reading a location with a newer version triggers a read-log
//!   extension, which re-validates every read so far at the new timestamp;
//! * writes are buffered in a private write log and applied at commit, while
//!   the written locations' r-locks are held.
//!
//! The transaction itself ([`Transaction`], its recycled [`TxContext`] and
//! the retry loop) is defined in [`txmem::transaction`]: TLSTM runs every
//! batch that claims no helper lane on the same transaction, so that a
//! TLSTM transaction no other lane can see costs what a SwissTM one does.
//! This crate adds the runtime and the per-thread handle.
//!
//! ## Example
//!
//! ```rust
//! use swisstm::SwisstmRuntime;
//! use txmem::{TxConfig, TxMem};
//!
//! let runtime = SwisstmRuntime::new(TxConfig::small());
//! // Allocate one shared counter word, non-transactionally.
//! let counter = runtime.heap().alloc(1)?;
//!
//! let mut thread = runtime.register_thread();
//! let value = thread.atomic(|tx| {
//!     let v = tx.read(counter)?;
//!     tx.write(counter, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(value, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod runtime;

pub use runtime::{SwisstmRuntime, SwisstmThread};
/// SwissTM's transaction and its recycled per-thread context live in
/// [`txmem::transaction`], where TLSTM runs them too.
pub use txmem::{Transaction, TxContext};

// Re-export the substrate types users need to interact with the API.
pub use txmem::{Abort, AbortReason, StatsSnapshot, TxConfig, TxMem, WordAddr};
