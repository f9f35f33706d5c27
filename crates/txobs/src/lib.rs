//! `txobs` — the observability layer of the transactional-memory stack.
//!
//! The paper's evaluation (and ours, in `tmbench`) reports end-of-run
//! aggregates. This crate makes the *interior* of a run visible without
//! perturbing it:
//!
//! * [`trace`] — per-thread lock-free flight-recorder rings of timestamped
//!   events (transaction begin/commit/abort-with-cause, the WAL pipeline's
//!   stages, durable-KV health transitions), exported as Chrome trace-event
//!   JSON for Perfetto. Disabled (the default), every probe costs one
//!   relaxed atomic load; enabled, probes stay allocation-free.
//! * [`metrics`] — always-on counters, gauges and log₂ histograms with a
//!   dependency-free Prometheus-style text exposition.
//! * [`LatencyHistogram`] — the log₂ histogram shared by the harness, the
//!   metrics registry and the bench reporter (promoted here from
//!   `workloads::harness`).
//!
//! `txobs` sits at the bottom of the workspace dependency graph: it depends
//! on nothing so that every other crate — runtimes, WAL, durable KV, the
//! test harness — can emit into it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
pub mod metrics;
pub mod trace;

pub use histogram::{LatencyHistogram, LATENCY_BUCKETS};
pub use trace::{
    dropped_events, dump_to_stderr, label_current_thread, set_tracing, tracing_enabled,
    write_chrome_trace, EventKind,
};

/// Traces the start of a transaction attempt (one event per attempt,
/// retries included).
#[inline]
pub fn tx_begin() {
    trace::trace(EventKind::TxBegin, 0);
}

/// Traces a transaction commit.
#[inline]
pub fn tx_commit() {
    trace::trace(EventKind::TxCommit, 0);
}

/// Traces a transaction abort with its cause code (see [`trace::cause`]).
#[inline]
pub fn tx_abort(cause: u64) {
    trace::trace(EventKind::TxAbort, cause);
}
