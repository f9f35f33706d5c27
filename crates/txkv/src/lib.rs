//! # txkv — a sharded transactional key-value store
//!
//! The serving-shaped subsystem of the TLSTM reproduction: a concurrent,
//! transactionally-consistent key-value store layered on the word heap
//! ([`txmem`]) and the transactional collections ([`txcollections`]), generic
//! over every runtime through the shared [`txmem::TxMem`] trait.
//!
//! Three layers:
//!
//! * [`KvStore`] — N hash-sharded [`txcollections::TxHashMap`] buckets (shard
//!   chosen by an independent key hash, each shard pre-sized so steady state
//!   never rehashes) plus a [`txcollections::TxRbTree`] secondary index that
//!   serves ordered `scan(lo..hi)` queries. Operations: `get`, `put`,
//!   `delete`, `cas`, `scan`, and multi-operation atomic batches.
//! * [`KvServer`] / [`KvSession`] — the in-process front-end: one of the
//!   three runtimes (SwissTM, TLSTM or the sequential `seqref` reference) and
//!   per-client session handles. Under TLSTM a batch
//!   is split into speculative tasks, one per shard-group, the paper's
//!   TLS-inside-transactions model for long multi-key operations (run in
//!   order inside one transaction when the session claims no helper).
//! * [`RefStore`] — the sequential oracle with identical semantics
//!   (including batch plan order), used by the conformance tests.
//!
//! A fourth, optional layer makes the store crash-safe: [`DurableKvStore`]
//! (module [`durable`]) wraps a [`KvServer`] with the `txlog` write-ahead
//! log — committed write batches are redo-logged with a commit sequence
//! number assigned at STM commit time, group-committed with a configurable
//! fsync policy, snapshotted, and recovered after a crash to an exact
//! batch-boundary prefix that contains every acknowledged write. On a
//! storage fault the store degrades instead of dying ([`Health`]): reads
//! keep serving the committed in-memory state, writes fail fast with typed
//! [`WalError`]s, and [`DurableKvStore::try_rearm`] restores write service
//! in place once the fault clears.
//!
//! ## Example
//!
//! ```rust
//! use tlstm::TlstmRuntime;
//! use txkv::{KvOp, KvReply, KvServer, KvServerConfig};
//!
//! let server = KvServer::<TlstmRuntime>::new(&KvServerConfig::default());
//! server.populate((0..100u64).map(|k| (k, vec![k, k])));
//!
//! let mut session = server.session();
//! let replies = session.batch(vec![
//!     KvOp::Get { key: 7 },
//!     KvOp::Cas { key: 7, expected: vec![7, 7], new: vec![8, 8] },
//!     KvOp::Scan { lo: 0, hi: 10, limit: 100 },
//! ]);
//! assert_eq!(replies[0], KvReply::Value(Some(vec![7, 7])));
//! assert_eq!(replies[1], KvReply::Swapped(true));
//! assert_eq!(session.get(7), Some(vec![8, 8]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod ops;
pub mod ref_store;
pub mod server;
pub mod store;

pub use durable::{DurableKvConfig, DurableKvSession, DurableKvStore, Health, RecoveryReport};
pub use ops::{
    checksum, decode_op, encode_op, plan_batch, shard_of, split_replies, KvOp, KvReply,
    OpDecodeError,
};
pub use ref_store::RefStore;
pub use server::{KvServer, KvServerConfig, KvSession};
pub use store::{KvStore, KvStoreParams};

pub use txlog::{
    CommitTicket, CrashPoints, Fault, FaultBudget, FaultError, FaultFs, FaultPlan, FsyncPolicy,
    RealFs, RetryPolicy, StorageOp, WalError, WalFs,
};
pub use txmem::{Abort, TxMem, WordAddr};
