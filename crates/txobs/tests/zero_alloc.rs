//! Proves the trace and metrics probe paths are allocation-free once a
//! thread's ring is registered — the property that lets the runtimes keep
//! probes in their commit paths.

use tlstm_testutil::CountingAlloc;
use txobs::trace::{self, EventKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn probe_paths_do_not_allocate_with_tracing_enabled() {
    txobs::set_tracing(true);
    // Warm-up: the first event registers this thread's ring (one-time
    // allocation by design); metrics statics never allocate.
    txobs::tx_begin();
    trace::trace(EventKind::WalEnqueue, 1);
    let wal = txobs::metrics::wal();
    wal.append_ns.record_ns(1);

    let before = tlstm_testutil::thread_allocation_count();
    for i in 0..4096u64 {
        txobs::tx_begin();
        txobs::tx_commit();
        txobs::tx_abort(trace::cause::INTER_WW);
        trace::trace(EventKind::WalEnqueue, i);
        trace::trace(EventKind::WalAppendStart, i);
        trace::trace(EventKind::WalAppendDone, i * 24);
        trace::trace(EventKind::WalFsyncStart, 0);
        trace::trace(EventKind::WalFsyncDone, i);
        trace::trace(EventKind::WalWatermark, i);
        wal.enqueued.inc();
        wal.queue_depth.set(i);
        wal.append_ns.record_ns(i);
        wal.fsync_ns.record_ns(i * 3);
        txobs::metrics::kv().health.set(trace::health::HEALTHY);
    }
    let after = tlstm_testutil::thread_allocation_count();
    txobs::set_tracing(false);
    assert_eq!(
        after - before,
        0,
        "trace/metrics probes must not allocate (saw {} allocations)",
        after - before
    );

    // The loop wrapped the ring several times; accounting stays exact.
    let (emitted, dropped) = trace::current_thread_stats();
    let expected = 2 + 4096 * 9;
    assert_eq!(emitted, expected);
    assert_eq!(dropped, expected - trace::RING_CAPACITY as u64);
}
