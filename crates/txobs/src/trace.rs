//! Per-thread lock-free trace rings with a Chrome-trace-event exporter.
//!
//! Every instrumented thread owns one fixed-capacity ring of timestamped
//! events. Emitting an event is wait-free: one relaxed load of the global
//! enable flag (the only cost when tracing is disabled), one relaxed
//! `fetch_add` on the ring head, and three relaxed stores into the slot —
//! no locks, and no allocation after the thread's ring has been registered
//! (registration happens on the thread's first event or on
//! [`label_current_thread`]).
//!
//! Rings deliberately overwrite their oldest events when full: a trace is a
//! flight recorder, not a log. The number of overwritten events is exact —
//! the head counts every emission ever made, so
//! `dropped = head.saturating_sub(capacity)`.
//!
//! [`write_chrome_trace`] merges all rings into Chrome trace-event JSON that
//! loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; [`dump_to_stderr`] renders the same events as text for
//! post-mortems (the test watchdog calls it when a test hangs).

use std::cell::OnceCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of one thread's trace ring, in events. With ~32 bytes per slot
/// this is ~256 KiB per instrumented thread — large enough to hold several
/// milliseconds of a contended run, small enough to leave resident.
pub const RING_CAPACITY: usize = 8192;

/// Everything the stack can trace. Discriminants are stable: they appear in
/// exported traces and in the watchdog's stderr dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction attempt started (one event per attempt, including
    /// retries).
    TxBegin = 0,
    /// A transaction committed.
    TxCommit = 1,
    /// A transaction attempt aborted; the argument is the abort-cause code
    /// (see [`cause`]).
    TxAbort = 2,
    /// A commit batch was handed to the WAL writer; the argument is the
    /// batch's LSN.
    WalEnqueue = 3,
    /// The WAL writer started writing a batch; the argument is the number of
    /// records in the batch.
    WalAppendStart = 4,
    /// The WAL writer finished writing a batch; the argument is the number
    /// of bytes written.
    WalAppendDone = 5,
    /// The WAL writer started an fsync.
    WalFsyncStart = 6,
    /// The WAL writer finished an fsync; the argument is the watermark it
    /// covered (every LSN below is durable).
    WalFsyncDone = 7,
    /// The durable watermark advanced; the argument is the new watermark LSN.
    WalWatermark = 8,
    /// The WAL rotated to a fresh segment; the argument is the rotation
    /// count.
    WalRotate = 9,
    /// The durable KV store's health changed; the argument is the health code
    /// (see [`health`]).
    KvHealth = 10,
    /// The durable KV store re-armed a fresh WAL after degradation; the
    /// argument is the snapshot LSN the new log starts at.
    KvRearm = 11,
    /// A serving thread decoded one network request frame; the argument is
    /// the request's payload length in bytes.
    NetRead = 12,
    /// A serving thread coalesced its readable connections' requests into one
    /// store batch; the argument is the number of requests coalesced.
    NetBatch = 13,
    /// A serving thread wrote one reply frame back to a connection; the
    /// argument is the reply's payload length in bytes.
    NetWrite = 14,
    /// A serving thread released one parked round: its replies may leave
    /// now. The argument is the durable watermark the round waited for (its
    /// gate's LSN + 1, comparable with [`EventKind::WalFsyncDone`]'s
    /// argument), or 0 if it waited for nothing.
    NetRelease = 15,
}

impl EventKind {
    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::TxBegin,
            1 => EventKind::TxCommit,
            2 => EventKind::TxAbort,
            3 => EventKind::WalEnqueue,
            4 => EventKind::WalAppendStart,
            5 => EventKind::WalAppendDone,
            6 => EventKind::WalFsyncStart,
            7 => EventKind::WalFsyncDone,
            8 => EventKind::WalWatermark,
            9 => EventKind::WalRotate,
            10 => EventKind::KvHealth,
            11 => EventKind::KvRearm,
            12 => EventKind::NetRead,
            13 => EventKind::NetBatch,
            14 => EventKind::NetWrite,
            15 => EventKind::NetRelease,
            _ => return None,
        })
    }

    /// The event's name in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxBegin => "tx-begin",
            EventKind::TxCommit => "tx-commit",
            EventKind::TxAbort => "tx-abort",
            EventKind::WalEnqueue => "wal-enqueue",
            EventKind::WalAppendStart | EventKind::WalAppendDone => "wal-append",
            EventKind::WalFsyncStart | EventKind::WalFsyncDone => "wal-fsync",
            EventKind::WalWatermark => "wal-watermark",
            EventKind::WalRotate => "wal-rotate",
            EventKind::KvHealth => "kv-health",
            EventKind::KvRearm => "kv-rearm",
            EventKind::NetRead => "net-read",
            EventKind::NetBatch => "net-batch",
            EventKind::NetWrite => "net-write",
            EventKind::NetRelease => "net-release",
        }
    }
}

/// Abort-cause codes carried by [`EventKind::TxAbort`] events. The mapping
/// from runtime abort reasons lives with the runtimes; these constants fix
/// the wire values.
pub mod cause {
    /// Commit-time read-set validation failure.
    pub const READ_VALIDATION: u64 = 0;
    /// Inter-thread write-write conflict.
    pub const INTER_WW: u64 = 1;
    /// Intra-thread write-after-read between tasks.
    pub const INTRA_WAR: u64 = 2;
    /// Intra-thread write-after-write between tasks.
    pub const INTRA_WAW: u64 = 3;
    /// Whole-transaction abort signal.
    pub const TX_SIGNAL: u64 = 4;
    /// Single-task abort signal.
    pub const TASK_SIGNAL: u64 = 5;
    /// Explicit user retry.
    pub const USER_RETRY: u64 = 6;
    /// Transactional allocator exhaustion.
    pub const OOM: u64 = 7;

    /// Human-readable label of a cause code.
    pub fn label(code: u64) -> &'static str {
        match code {
            READ_VALIDATION => "read-validation",
            INTER_WW => "inter-ww",
            INTRA_WAR => "intra-war",
            INTRA_WAW => "intra-waw",
            TX_SIGNAL => "tx-signal",
            TASK_SIGNAL => "task-signal",
            USER_RETRY => "user-retry",
            OOM => "oom",
            _ => "unknown",
        }
    }
}

/// Health codes carried by [`EventKind::KvHealth`] events and the
/// `txobs_kv_health` gauge.
pub mod health {
    /// The WAL is accepting and acknowledging batches.
    pub const HEALTHY: u64 = 1;
    /// The WAL failed; the store serves reads and refuses writes.
    pub const DEGRADED: u64 = 2;
    /// The store is permanently failed.
    pub const FAILED: u64 = 3;

    /// Human-readable label of a health code.
    pub fn label(code: u64) -> &'static str {
        match code {
            HEALTHY => "healthy",
            DEGRADED => "degraded",
            FAILED => "failed",
            _ => "unknown",
        }
    }
}

struct Slot {
    ts_ns: AtomicU64,
    kind: AtomicU64,
    arg: AtomicU64,
}

/// One thread's trace ring. Written only by the owning thread; read by the
/// exporter and the watchdog dump (reads of a live ring may observe an event
/// mid-write — acceptable for a diagnostic flight recorder).
struct Ring {
    /// Stable export identifier (assigned at registration, dense from 1).
    tid: u64,
    label: Mutex<String>,
    /// Total events ever emitted; the next write goes to
    /// `slots[head % RING_CAPACITY]`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64, label: String) -> Ring {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot {
                ts_ns: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect();
        Ring {
            tid,
            label: Mutex::new(label),
            head: AtomicU64::new(0),
            slots,
        }
    }

    #[inline]
    fn emit(&self, ts_ns: u64, kind: EventKind, arg: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % RING_CAPACITY as u64) as usize];
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
    }

    fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn dropped(&self) -> u64 {
        self.emitted().saturating_sub(RING_CAPACITY as u64)
    }

    /// The retained events, oldest first.
    fn snapshot(&self) -> Vec<(u64, EventKind, u64)> {
        let head = self.emitted();
        let len = head.min(RING_CAPACITY as u64);
        let start = head - len;
        (start..head)
            .filter_map(|seq| {
                let slot = &self.slots[(seq % RING_CAPACITY as u64) as usize];
                let kind = EventKind::from_code(slot.kind.load(Ordering::Relaxed))?;
                Some((
                    slot.ts_ns.load(Ordering::Relaxed),
                    kind,
                    slot.arg.load(Ordering::Relaxed),
                ))
            })
            .collect()
    }
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

fn register_current_thread() -> Arc<Ring> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let label = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(Ring::new(tid, label));
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&ring));
    ring
}

fn with_ring(f: impl FnOnce(&Ring)) {
    // `try_with` so late events during thread teardown are silently dropped
    // instead of panicking in a destructor.
    let _ = RING.try_with(|cell| f(cell.get_or_init(register_current_thread)));
}

/// Globally enables or disables tracing. Disabled (the default), every probe
/// is a single relaxed atomic load.
pub fn set_tracing(enabled: bool) {
    // Initialise the epoch before the first event so timestamps are small
    // positive offsets from enablement, not from an arbitrary first probe.
    let _ = epoch();
    TRACE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Emits one event into the calling thread's ring. A no-op (one relaxed
/// load) when tracing is disabled.
#[inline]
pub fn trace(kind: EventKind, arg: u64) {
    if !TRACE_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ts = now_ns();
    with_ring(|ring| ring.emit(ts, kind, arg));
}

/// Registers the calling thread's ring (if it has none yet) and names it in
/// exported traces. Threads that never call this are labelled with their OS
/// thread name, or `thread-N`.
pub fn label_current_thread(label: &str) {
    with_ring(|ring| {
        *ring.label.lock().unwrap_or_else(|e| e.into_inner()) = label.to_owned();
    });
}

/// Exact number of events overwritten across all rings since the process
/// started (each ring keeps its newest [`RING_CAPACITY`] events).
pub fn dropped_events() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|ring| ring.dropped())
        .sum()
}

/// `(emitted, dropped)` of the calling thread's ring — zero if the thread
/// has not traced anything yet. Exact even after wrap-around.
pub fn current_thread_stats() -> (u64, u64) {
    let mut stats = (0, 0);
    with_ring(|ring| stats = (ring.emitted(), ring.dropped()));
    stats
}

/// Clears every ring (head reset, registrations kept) and re-enables exact
/// dropped accounting from zero. Intended for tests and for tools that trace
/// several runs from one process.
pub fn clear() {
    for ring in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        ring.head.store(0, Ordering::Relaxed);
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Writes all rings as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable in Perfetto or `chrome://tracing`.
///
/// WAL appends and fsyncs become duration (`B`/`E`) pairs; every other
/// event is an instant. Timestamps are microseconds since the trace epoch.
pub fn write_chrome_trace(w: &mut dyn Write) -> io::Result<()> {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut body = String::new();
    let mut first = true;
    let mut push = |line: String, body: &mut String| {
        if !std::mem::take(&mut first) {
            body.push_str(",\n");
        }
        body.push_str(&line);
    };
    for ring in &rings {
        let tid = ring.tid;
        let label = ring.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut escaped = String::new();
        escape_json(&label, &mut escaped);
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{escaped}\"}}}}"
            ),
            &mut body,
        );
        // Depth per duration name so an `E` whose `B` was overwritten by the
        // ring (or dropped) never reaches the output unmatched.
        let mut append_depth = 0u32;
        let mut fsync_depth = 0u32;
        for (ts_ns, kind, arg) in ring.snapshot() {
            let ts_us = ts_ns as f64 / 1_000.0;
            let name = kind.name();
            let line = match kind {
                EventKind::WalAppendStart | EventKind::WalFsyncStart => {
                    match kind {
                        EventKind::WalAppendStart => append_depth += 1,
                        _ => fsync_depth += 1,
                    }
                    format!(
                        "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\
                         \"name\":\"{name}\",\"args\":{{\"arg\":{arg}}}}}"
                    )
                }
                EventKind::WalAppendDone | EventKind::WalFsyncDone => {
                    let depth = match kind {
                        EventKind::WalAppendDone => &mut append_depth,
                        _ => &mut fsync_depth,
                    };
                    if *depth == 0 {
                        continue;
                    }
                    *depth -= 1;
                    format!(
                        "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\
                         \"name\":\"{name}\",\"args\":{{\"arg\":{arg}}}}}"
                    )
                }
                EventKind::TxAbort => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"s\":\"t\",\
                     \"name\":\"{name}\",\"args\":{{\"cause\":\"{}\"}}}}",
                    cause::label(arg)
                ),
                EventKind::KvHealth => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"s\":\"t\",\
                     \"name\":\"{name}\",\"args\":{{\"health\":\"{}\"}}}}",
                    health::label(arg)
                ),
                _ => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"s\":\"t\",\
                     \"name\":\"{name}\",\"args\":{{\"arg\":{arg}}}}}"
                ),
            };
            push(line, &mut body);
        }
        // Close stage spans left open by the snapshot boundary so the JSON
        // stays well-nested.
        let end_ts = now_ns() as f64 / 1_000.0;
        for name in std::iter::repeat_n("wal-append", append_depth as usize)
            .chain(std::iter::repeat_n("wal-fsync", fsync_depth as usize))
        {
            push(
                format!(
                    "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{end_ts:.3},\
                     \"name\":\"{name}\",\"args\":{{}}}}"
                ),
                &mut body,
            );
        }
    }
    writeln!(
        w,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"droppedEvents\":{}}},\
         \"traceEvents\":[\n{}\n]}}",
        dropped_events(),
        body
    )
}

/// Renders every ring to `w` as plain text, one event per line, for
/// post-mortem inspection (the test watchdog dumps this on timeout).
pub fn dump_text(w: &mut dyn Write) -> io::Result<()> {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    if rings.is_empty() {
        return writeln!(w, "txobs: no trace rings registered");
    }
    for ring in &rings {
        let label = ring.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        writeln!(
            w,
            "txobs ring tid={} label={:?} emitted={} dropped={}",
            ring.tid,
            label,
            ring.emitted(),
            ring.dropped()
        )?;
        for (ts_ns, kind, arg) in ring.snapshot() {
            let detail = match kind {
                EventKind::TxAbort => cause::label(arg),
                EventKind::KvHealth => health::label(arg),
                _ => "",
            };
            writeln!(
                w,
                "  {:>14} ns  {:<14} arg={} {}",
                ts_ns,
                kind.name(),
                arg,
                detail
            )?;
        }
    }
    Ok(())
}

/// [`dump_text`] to stderr, ignoring write errors (safe to call from a
/// panicking watchdog).
pub fn dump_to_stderr() {
    let stderr = io::stderr();
    let mut lock = stderr.lock();
    let _ = dump_text(&mut lock);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; serialise the tests that toggle it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let _guard = lock();
        set_tracing(false);
        std::thread::spawn(|| {
            trace(EventKind::TxBegin, 0);
            trace(EventKind::TxCommit, 0);
            assert_eq!(current_thread_stats(), (0, 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn wraparound_drops_are_counted_exactly() {
        let _guard = lock();
        set_tracing(true);
        let overflow = 1234u64;
        let emitted = RING_CAPACITY as u64 + overflow;
        std::thread::spawn(move || {
            for i in 0..emitted {
                trace(EventKind::WalEnqueue, i);
            }
            let (seen, dropped) = current_thread_stats();
            assert_eq!(seen, emitted);
            assert_eq!(dropped, overflow, "exact dropped-event accounting");
            // The ring retains exactly the newest RING_CAPACITY events, in
            // order.
            let snapshot = {
                let regs = registry().lock().unwrap();
                let ring = regs.iter().find(|r| r.dropped() == overflow).unwrap();
                ring.snapshot()
            };
            assert_eq!(snapshot.len(), RING_CAPACITY);
            assert_eq!(snapshot.first().unwrap().2, overflow);
            assert_eq!(snapshot.last().unwrap().2, emitted - 1);
        })
        .join()
        .unwrap();
        set_tracing(false);
    }

    #[test]
    fn chrome_trace_contains_labels_and_events() {
        let _guard = lock();
        set_tracing(true);
        std::thread::Builder::new()
            .name("chrome-test".into())
            .spawn(|| {
                label_current_thread("chrome-test-labelled");
                trace(EventKind::TxBegin, 0);
                trace(EventKind::TxAbort, cause::INTER_WW);
                trace(EventKind::WalAppendStart, 3);
                trace(EventKind::WalAppendDone, 96);
                trace(EventKind::WalFsyncStart, 0);
                trace(EventKind::WalFsyncDone, 7);
                trace(EventKind::KvHealth, health::DEGRADED);
                trace(EventKind::NetRelease, 8);
            })
            .unwrap()
            .join()
            .unwrap();
        set_tracing(false);
        let mut out = Vec::new();
        write_chrome_trace(&mut out).unwrap();
        let json = String::from_utf8(out).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("chrome-test-labelled"));
        assert!(json.contains("\"name\":\"tx-begin\""));
        assert!(json.contains("\"cause\":\"inter-ww\""));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"wal-fsync\""));
        assert!(json.contains("\"health\":\"degraded\""));
        assert!(json.contains("\"name\":\"net-release\",\"args\":{\"arg\":8}"));
        // Quotes and braces must balance for any JSON parser to accept it.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn dump_text_renders_every_ring() {
        let _guard = lock();
        set_tracing(true);
        std::thread::Builder::new()
            .name("dump-test".into())
            .spawn(|| {
                trace(EventKind::WalRotate, 2);
            })
            .unwrap()
            .join()
            .unwrap();
        set_tracing(false);
        let mut out = Vec::new();
        dump_text(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("dump-test"));
        assert!(text.contains("wal-rotate"));
    }

    #[test]
    fn cause_and_health_labels_cover_their_codes() {
        for code in 0..8 {
            assert_ne!(cause::label(code), "unknown", "cause {code}");
        }
        assert_eq!(cause::label(99), "unknown");
        for code in [health::HEALTHY, health::DEGRADED, health::FAILED] {
            assert_ne!(health::label(code), "unknown");
        }
        assert_eq!(health::label(0), "unknown");
    }
}
