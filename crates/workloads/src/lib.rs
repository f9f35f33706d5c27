//! # tlstm-workloads — the benchmark applications of the TLSTM paper
//!
//! This crate re-implements the three benchmark applications used in the
//! evaluation section (§4) of *"Unifying Thread-Level Speculation and
//! Transactional Memory"* (Barreto et al., Middleware 2012) on top of the
//! `swisstm` and `tlstm` runtimes, plus the throughput harness that drives
//! them:
//!
//! * [`rbtree_bench`] — the modified red-black-tree micro-benchmark of
//!   Figure 1a: one thread runs transactions of `N` read-only lookups, which
//!   TLSTM splits into 2 or 4 tasks;
//! * [`vacation`] — a re-implementation of the STAMP *Vacation* travel
//!   reservation system, modified as in the paper (Figure 1b): each client
//!   transaction performs 8 operations and is split into 2 tasks;
//! * [`stmbench7`] — a reduced-but-structurally-faithful STMBench7 object
//!   graph whose "long traversals" are split into 3 or 9 tasks
//!   (Figures 2a and 2b);
//! * [`harness`] — duration-based throughput measurement utilities shared by
//!   the workloads and the `tmbench` runner in the `tlstm-bench` crate;
//! * [`kv`] — the YCSB-style serving workload over the `txkv` sharded
//!   transactional key-value store (zipfian/uniform key choice, mixes
//!   A/B/C/scan-heavy, batches split into speculative tasks under TLSTM);
//! * [`overhead`] — single-thread uncontended microworkloads (read-only and
//!   write-heavy) that isolate the raw per-operation fast-path overhead of
//!   each runtime, used to track the zero-allocation hot-path work.
//!
//! All workload *operations* are written once against [`txmem::TxMem`], so the
//! exact same operation code runs on SwissTM transactions and on TLSTM tasks —
//! the comparisons measure the runtimes, not different benchmark code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod kv;
pub mod overhead;
pub mod rbtree_bench;
pub mod stmbench7;
pub mod vacation;

pub use harness::{LatencyHistogram, RunMetrics, Throughput, WorkloadConfig};
