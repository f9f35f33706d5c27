//! Runnable example applications for the TLSTM reproduction.
//!
//! The examples are ordinary binaries (see `src/bin/`):
//!
//! * `quickstart` — the smallest possible TLSTM program: one user-thread, one
//!   user-transaction split into two speculative tasks.
//! * `bank_transfer` — concurrent money transfers on both runtimes, checking
//!   the conservation-of-money invariant and reporting abort statistics.
//! * `travel_booking` — drives the Vacation reservation system (the paper's
//!   Figure 1b application) with speculatively decomposed client transactions.
//! * `speculative_pipeline` — demonstrates speculative execution of *future*
//!   transactions within one user-thread and the program-order guarantee.
//!
//! Run them with `cargo run -p examples-app --release --bin <name>`.

#![forbid(unsafe_code)]
