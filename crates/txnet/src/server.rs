//! The serving front-end: a hand-rolled thread-per-core nonblocking TCP
//! server with **server-side batch coalescing** and **pipelined durability**.
//!
//! Each serving thread owns a nonblocking clone of the listener and a private
//! set of connections, and runs a small readiness poll loop:
//!
//! 1. accept any pending connections (the kernel hands each one to exactly
//!    one accepting thread);
//! 2. drain every readable connection's bytes and decode complete request
//!    frames;
//! 3. **execute**: all requests decoded this iteration — across all of the
//!    thread's connections — commit as one store batch, *in memory*
//!    ([`KvSession::batch`]; durable path: one [`DurableKvSession::submit`],
//!    i.e. one commit sequence number, one redo record and one group-commit
//!    ticket shared by every coalesced request — which the thread does
//!    **not** wait on);
//! 4. **park**: the round — its routes, its encoded replies and its *gate* —
//!    goes onto the thread's FIFO, and the loop is free to read, decode and
//!    execute the next round while this one's fsync is in flight;
//! 5. **release**: rounds leave the head of the FIFO once the WAL's durable
//!    watermark covers their gate (one atomic load); only then are their
//!    reply frames queued, and writable connections flushed.
//!
//! Step 3 is the point of the coalescing: N clients' concurrent batches share
//! a single STM commit and a single WAL record. Steps 4–5 are what lets the
//! group-commit WAL run at its design point: the serving thread keeps
//! committing rounds while an fsync is in flight, so every round that
//! arrived meanwhile lands under the next fsync instead of one fsync per
//! round.
//!
//! **The gate** of a round is the highest LSN this thread had appended when
//! the round committed: a round with writes is gated by its own ticket, a
//! read-only round by the ticket of the last round still parked ahead of it.
//! No reply therefore ever exposes one of this thread's writes before it is
//! durable, and — the FIFO being strict — replies on a connection leave in
//! request order. In-memory rounds carry no gate and pass through the same
//! FIFO within the iteration that executed them: there is one reply path.
//!
//! Error containment follows [`ProtocolError::is_frame_level`]: a corrupt
//! frame closes the connection cleanly (after its parked and queued replies
//! have left); a CRC-valid but undecodable request is answered on the live
//! connection with a typed error reply that travels through the FIFO like
//! any other, so it cannot overtake an earlier request's reply, and so does
//! the [`crate::proto::ERR_REPLY_TOO_LARGE`] that stands in for a reply over
//! the frame limit (the request executed; the connection stays). A durability
//! failure follows the [`CommitTicket::wait`] contract: parked rounds a
//! successful fsync had covered are answered OK, the others — and every
//! later write, refused before its in-memory commit — with an
//! [`crate::proto::ERR_WAL`] error reply; connections stay open and
//! read-only batches keep serving (the degraded-mode contract of
//! [`DurableKvSession::batch`]).
//!
//! Nothing a peer does makes a thread's memory grow without bound: a
//! connection's undecoded bytes stop being read at one maximal frame
//! ([`NetServerConfig::max_frame_len`] plus the header), parked requests are
//! capped at [`PARKED_ROUNDS_LIMIT`] rounds' worth — past either, the bytes
//! wait in the kernel's socket buffers (TCP backpressure) — and a connection
//! that does not read its replies stops being read from at
//! [`WRITE_BUF_SOFT_LIMIT`] unflushed bytes and is closed at
//! [`WRITE_BUF_HARD_LIMIT`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use txkv::{
    CommitTicket, DurableKvSession, DurableKvStore, KvOp, KvReply, KvServer, KvSession, WalError,
};
use txmem::TxRuntime;

use crate::error::ProtocolError;
use crate::frame::{
    decode_frame, encode_frame_into, FrameDecode, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN,
};
use crate::proto;

/// Upper bound on requests coalesced into one store batch (the coalescing
/// window). The batch executes as a single transaction (and a single WAL
/// record), so this bounds commit latency when many connections are readable
/// at once; excess requests wait for a subsequent iteration, scanned from a
/// rotating start so no connection starves.
const MAX_COALESCED_REQUESTS: usize = 64;

/// How long an idle serving thread sleeps between poll iterations (with
/// rounds parked it waits on the WAL's ack instead, for at most this long,
/// so an fsync wakes it at once).
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How many full coalescing windows (64 requests each) a serving thread
/// parks behind the durable watermark before it stops reading sockets. Four
/// windows already cover the 256 callers of the repo's benchmark; the rest
/// is headroom for slower disks.
pub const PARKED_ROUNDS_LIMIT: usize = 16;

/// Unflushed reply bytes above which a connection is no longer read from:
/// a peer that pipelines without reading its replies stalls itself instead
/// of growing the server. One maximum-size reply frame.
pub const WRITE_BUF_SOFT_LIMIT: usize = DEFAULT_MAX_FRAME_LEN as usize;

/// Unflushed reply bytes above which a connection is closed. Only requests
/// already decoded when the soft limit tripped can carry a connection past
/// it, so this is reached by a peer that asks for far more than it reads.
pub const WRITE_BUF_HARD_LIMIT: usize = 16 * WRITE_BUF_SOFT_LIMIT;

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Serving threads. Defaults to one per core ([`txmem::pause::cores`]) —
    /// coalescing happens *within* a thread, so fewer threads mean wider
    /// coalescing and more threads mean more parallel commits.
    pub threads: usize,
    /// Upper bound on a frame's payload length, both ways: a longer request
    /// closes its connection, a longer reply is replaced by a
    /// [`proto::ERR_REPLY_TOO_LARGE`] error reply.
    pub max_frame_len: u32,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            threads: txmem::pause::cores(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// What a serving thread executes its coalesced rounds against: an
/// in-memory session or a durable one. One per thread (sessions are
/// per-thread handles).
enum Backend<R: TxRuntime> {
    Mem(KvSession<R>),
    Durable(DurableKvSession<R>),
}

impl<R: TxRuntime> Backend<R> {
    /// Commits one coalesced round in memory. The durable path also returns
    /// the ticket of the round's redo record — the round's gate — without
    /// waiting on it; an `Err` is a refusal *before* the commit.
    fn execute(&mut self, ops: &[KvOp]) -> Result<(Vec<KvReply>, Option<CommitTicket>), WalError> {
        match self {
            Backend::Mem(session) => Ok((session.batch(ops), None)),
            Backend::Durable(session) => session.submit(ops),
        }
    }
}

/// The shared store behind all serving threads.
enum Shared<R: TxRuntime> {
    Mem(Arc<KvServer<R>>),
    Durable(Arc<DurableKvStore<R>>),
}

impl<R: TxRuntime> Clone for Shared<R> {
    fn clone(&self) -> Self {
        match self {
            Shared::Mem(s) => Shared::Mem(Arc::clone(s)),
            Shared::Durable(s) => Shared::Durable(Arc::clone(s)),
        }
    }
}

impl<R: TxRuntime> Shared<R> {
    fn backend(&self) -> Backend<R> {
        match self {
            Shared::Mem(server) => Backend::Mem(server.session()),
            Shared::Durable(store) => Backend::Durable(store.session()),
        }
    }
}

/// A running network server: serving threads plus the bound address.
/// Dropping the handle shuts the server down and joins the threads.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Serves the in-memory [`KvServer`] on `addr` (use port 0 for an
    /// ephemeral loopback port; the bound address is [`NetServer::addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures (bind, nonblocking mode, clone).
    pub fn serve<R: TxRuntime>(
        server: Arc<KvServer<R>>,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        Self::start(Shared::Mem(server), addr, config)
    }

    /// Serves the durable [`DurableKvStore`] on `addr`: no reply leaves
    /// before every write it could have observed is durable per the store's
    /// fsync policy, coalesced requests share one WAL record, and rounds
    /// committed while one fsync is in flight share the next.
    ///
    /// # Errors
    ///
    /// See [`NetServer::serve`].
    pub fn serve_durable<R: TxRuntime>(
        store: Arc<DurableKvStore<R>>,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        Self::start(Shared::Durable(store), addr, config)
    }

    fn start<R: TxRuntime>(
        shared: Shared<R>,
        addr: impl ToSocketAddrs,
        config: &NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let n_threads = config.threads.max(1);
        let mut threads = Vec::with_capacity(n_threads);
        for worker in 0..n_threads {
            let listener = listener.try_clone()?;
            let shared = shared.clone();
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("txnet-serve-{worker}"))
                    .spawn(move || serve_loop(listener, shared.backend(), &shutdown, &config))
                    .expect("spawning a serving thread failed"),
            );
        }
        Ok(NetServer {
            addr,
            shutdown,
            threads,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the serving threads to stop and joins them. Each thread first
    /// resolves the rounds it still has parked (waiting out the fsync they
    /// are gated on) and flushes their replies once; then its connections
    /// are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// One connection's state inside a serving thread.
struct Conn {
    /// Unique within the thread and increasing in accept order, so routes
    /// find their connection by binary search even after others were reaped.
    id: u64,
    stream: TcpStream,
    /// Bytes read but not yet decoded. [`Conn::fill`] stops reading once
    /// this holds one maximal frame, so it never exceeds that plus one read.
    read_buf: Vec<u8>,
    /// Encoded reply frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Requests of this connection whose replies are still parked in the
    /// thread's FIFO; the connection outlives them even when condemned.
    parked: usize,
    /// `false` once the connection is condemned (EOF, I/O error, a
    /// frame-level protocol violation, or the write-buffer hard limit):
    /// parked and queued replies are still flushed, then the connection is
    /// dropped.
    open: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            parked: 0,
            open: true,
        }
    }

    /// Reads what the socket holds into `read_buf` until it holds one
    /// maximal frame — which always fits, so decoding always progresses — and
    /// leaves the rest in the kernel; `true` if any bytes arrived.
    fn fill(&mut self, scratch: &mut [u8], max_frame_len: u32) -> bool {
        let mut progressed = false;
        while self.read_buf.len() < FRAME_HEADER_LEN + max_frame_len as usize {
            match self.stream.read(scratch) {
                Ok(0) => {
                    // EOF: whatever complete frames are already buffered
                    // still get decoded, executed and answered.
                    self.open = false;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    txobs::metrics::net().bytes_in.add(n as u64);
                    self.read_buf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.open = false;
                    break;
                }
            }
        }
        progressed
    }

    /// Decodes buffered request frames into `round` (their operations into
    /// the round's flat `ops` list, straight from `read_buf`) until the
    /// coalescing `window` is full; an undecoded tail stays in `read_buf`
    /// for the next iteration.
    fn decode_into(
        &mut self,
        round: &mut Round,
        ops: &mut Vec<KvOp>,
        window: usize,
        max_frame_len: u32,
    ) {
        let net = txobs::metrics::net();
        let mut offset = 0usize;
        while round.routes.len() < window {
            match decode_frame(&self.read_buf[offset..], max_frame_len) {
                Ok(FrameDecode::Frame {
                    req_id,
                    payload,
                    consumed,
                }) => {
                    offset += consumed;
                    txobs::trace::trace(txobs::EventKind::NetRead, payload.len() as u64);
                    net.requests.inc();
                    let start = ops.len();
                    let (span, executed) = match proto::decode_request_into(payload, ops) {
                        Ok(()) => {
                            round.executed += 1;
                            (start..ops.len(), true)
                        }
                        Err(error) => {
                            // Payload-level: a typed error reply on the live
                            // connection, parked with the round so it leaves
                            // in request order. None of the request's
                            // operations stayed in `ops`.
                            debug_assert!(!error.is_frame_level());
                            net.protocol_errors.inc();
                            let payloads = &mut round.payloads;
                            let start = payloads.len();
                            let message = error.to_string();
                            proto::encode_err_reply_into(payloads, error.wire_code(), &message);
                            (start..payloads.len(), false)
                        }
                    };
                    round.routes.push(Route {
                        conn: self.id,
                        req_id,
                        span,
                        executed,
                    });
                    self.parked += 1;
                }
                Ok(FrameDecode::Incomplete) => break,
                Err(error) => {
                    // Frame-level: the stream is desynced; close once the
                    // replies already parked or queued have left.
                    let _: ProtocolError = error;
                    net.protocol_errors.inc();
                    self.open = false;
                    self.read_buf.clear();
                    offset = 0;
                    break;
                }
            }
        }
        if offset > 0 {
            self.read_buf.drain(..offset);
        }
    }

    fn queue_reply(&mut self, req_id: u64, payload: &[u8]) {
        txobs::trace::trace(txobs::EventKind::NetWrite, payload.len() as u64);
        txobs::metrics::net().replies.inc();
        encode_frame_into(&mut self.write_buf, req_id, payload);
    }

    /// Writes as much of the queued reply bytes as the socket accepts.
    fn flush(&mut self) {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    // The peer is gone: discard what it will never read.
                    self.open = false;
                    self.written = self.write_buf.len();
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    txobs::metrics::net().bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.open = false;
                    self.written = self.write_buf.len();
                    break;
                }
            }
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
    }

    /// Reply bytes queued but not yet accepted by the socket.
    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Closes a connection that is past [`WRITE_BUF_HARD_LIMIT`]: the socket
    /// is shut down both ways and everything buffered for it is discarded
    /// (replies still parked for it are discarded by the failing writes).
    fn abort(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.open = false;
        self.read_buf = Vec::new();
        self.write_buf = Vec::new();
        self.written = 0;
    }
}

/// One request's way back: the connection and request-id its reply goes to,
/// and where the reply's payload is.
struct Route {
    conn: u64,
    req_id: u64,
    /// An executed request's span in the round's flat operation list — and,
    /// once the round has executed, its reply payload's span in
    /// [`Round::payloads`]. A rejected request's span is its typed error
    /// payload's from the start.
    span: Range<usize>,
    /// `false` for a request rejected at decode (payload-level protocol
    /// error): its reply is fixed, whatever becomes of the round.
    executed: bool,
}

/// One executed round waiting in a serving thread's FIFO for its gate.
struct Round {
    /// The round's requests, in decode order.
    routes: Vec<Route>,
    /// How many of them executed (the rest were rejected at decode).
    executed: usize,
    /// The encoded reply payloads the routes' spans point into.
    payloads: Vec<u8>,
    /// The WAL record this round's replies wait for: the round's own if it
    /// wrote, else the gate of the round parked ahead of it. `None` if
    /// nothing this thread appended is still in flight.
    gate: Option<CommitTicket>,
    /// When the round committed and was parked.
    committed: Instant,
}

impl Round {
    fn new() -> Round {
        Round {
            routes: Vec::new(),
            executed: 0,
            payloads: Vec::new(),
            gate: None,
            committed: Instant::now(),
        }
    }

    /// Empties a released round for reuse; its buffers keep their capacity
    /// (short of what one oversized reply made of it).
    fn recycle(mut self) -> Round {
        self.routes.clear();
        self.executed = 0;
        self.payloads.clear();
        self.payloads.shrink_to(WRITE_BUF_SOFT_LIMIT);
        self.gate = None;
        self
    }

    /// Queues the round's reply frames on their connections. `outcome` is
    /// the verdict on the round's gate: after a durability failure every
    /// executed request is answered with the typed [`proto::ERR_WAL`] error
    /// instead of its reply.
    fn release(&self, outcome: Result<(), WalError>, conns: &mut [Conn]) {
        debug_assert!(
            outcome.is_err()
                || self
                    .gate
                    .as_ref()
                    .is_none_or(|gate| gate.poll() == Some(Ok(()))),
            "a round's replies must not leave before its gate is durable"
        );
        // The argument is the durable watermark the round waited for (0:
        // none), matching what `wal-fsync` and `wal-watermark` carry.
        let waited_for = self.gate.as_ref().map_or(0, |gate| gate.lsn() + 1);
        txobs::trace::trace(txobs::EventKind::NetRelease, waited_for);
        let net = txobs::metrics::net();
        net.parked_rounds.sub(1);
        net.ack_lag_ns.record_ns(
            self.committed
                .elapsed()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
        );
        let wal_error = outcome
            .err()
            .map(|wal| proto::encode_err_reply(proto::ERR_WAL, &wal.to_string()));
        for route in &self.routes {
            let index = conns
                .binary_search_by_key(&route.conn, |conn| conn.id)
                .expect("a connection outlives its parked replies");
            let conn = &mut conns[index];
            conn.parked -= 1;
            let payload = match &wal_error {
                Some(error) if route.executed => error,
                _ => &self.payloads[route.span.clone()],
            };
            conn.queue_reply(route.req_id, payload);
        }
    }
}

/// The poll loop of one serving thread.
fn serve_loop<R: TxRuntime>(
    listener: TcpListener,
    mut backend: Backend<R>,
    shutdown: &AtomicBool,
    config: &NetServerConfig,
) {
    let net = txobs::metrics::net();
    let park_limit = MAX_COALESCED_REQUESTS * PARKED_ROUNDS_LIMIT;
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn_id = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    // Executed rounds whose replies wait for the durable watermark, oldest
    // first, and how many requests they hold.
    let mut parked: VecDeque<Round> = VecDeque::new();
    let mut parked_requests = 0usize;
    // Released rounds, kept for their buffers: a steady-state iteration
    // allocates no route or payload storage.
    let mut spare: Vec<Round> = Vec::new();
    // Where the read/decode scan starts, advanced every iteration: when the
    // coalescing window fills before the scan completes, the connections
    // that were skipped go first next time.
    let mut scan_start = 0usize;
    // The operations decoded this iteration, emptied after each execution
    // and kept for its capacity.
    let mut ops: Vec<KvOp> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        let mut busy = false;

        // 1. Accept.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    busy = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    net.connections.add(1);
                    conns.push(Conn::new(next_conn_id, stream));
                    next_conn_id += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        // 2. Read and decode, scanning from a rotating start — unless enough
        // requests are parked already: then the bytes stay in the kernel's
        // socket buffers (TCP backpressure) until the WAL catches up.
        let mut round = spare.pop().unwrap_or_else(Round::new);
        let n_conns = conns.len();
        scan_start = if n_conns == 0 {
            0
        } else {
            (scan_start + 1) % n_conns
        };
        if parked_requests < park_limit {
            for step in 0..n_conns {
                // The coalescing window is full: the remaining connections
                // keep their bytes for a later iteration.
                if round.routes.len() >= MAX_COALESCED_REQUESTS {
                    break;
                }
                let conn = &mut conns[(scan_start + step) % n_conns];
                // A peer that does not read its replies is not read from.
                if !conn.open || conn.unflushed() > WRITE_BUF_SOFT_LIMIT {
                    continue;
                }
                busy |= conn.fill(&mut scratch, config.max_frame_len);
                conn.decode_into(
                    &mut round,
                    &mut ops,
                    MAX_COALESCED_REQUESTS,
                    config.max_frame_len,
                );
            }
        }

        // 3. Execute: every request decoded this iteration — across all of
        // this thread's connections — commits as ONE store batch, in memory.
        if round.executed > 0 {
            busy = true;
            txobs::trace::trace(txobs::EventKind::NetBatch, round.executed as u64);
            net.coalesced_batches.inc();
            net.coalesced_requests.add(round.executed as u64);
            let Round {
                routes,
                payloads,
                gate,
                ..
            } = &mut round;
            let executed = routes.iter_mut().filter(|route| route.executed);
            let executed_round = backend.execute(&ops);
            ops.clear();
            match executed_round {
                Ok((replies, ticket)) => {
                    for route in executed {
                        let start = payloads.len();
                        proto::encode_ok_reply_into(payloads, &replies[route.span.clone()]);
                        let len = payloads.len() - start;
                        if len > config.max_frame_len as usize {
                            // The peer would take this frame for corruption:
                            // the error reply takes the encoded reply's place.
                            payloads.truncate(start);
                            let message = format!(
                                "the request was executed, but its {len}-byte reply exceeds \
                                 the {}-byte frame limit",
                                config.max_frame_len
                            );
                            proto::encode_err_reply_into(
                                payloads,
                                proto::ERR_REPLY_TOO_LARGE,
                                &message,
                            );
                        }
                        route.span = start..payloads.len();
                    }
                    *gate = ticket;
                }
                Err(wal) => {
                    // Refused before the in-memory commit (the log is
                    // already dead): every request gets the typed
                    // durability error — through the FIFO, behind the
                    // replies of the rounds ahead.
                    let start = payloads.len();
                    proto::encode_err_reply_into(payloads, proto::ERR_WAL, &wal.to_string());
                    let span = start..payloads.len();
                    for route in executed {
                        route.span = span.clone();
                    }
                }
            }
        }

        // 4. Park. A round that appended nothing inherits the gate of the
        // round ahead of it: its reads may have seen that round's writes.
        if round.routes.is_empty() {
            spare.push(round);
        } else {
            if round.gate.is_none() {
                round.gate = parked.back().and_then(|ahead| ahead.gate.clone());
            }
            round.committed = Instant::now();
            parked_requests += round.routes.len();
            net.parked_rounds.add(1);
            parked.push_back(round);
        }

        // 5. Release, flush and reap. Rounds leave the head of the FIFO once
        // their gate is resolved: durable (or no gate at all) → their
        // replies; writer dead → `ERR_WAL` unless the last successful fsync
        // had covered them.
        while let Some(round) = parked.front() {
            let outcome = match &round.gate {
                None => Ok(()),
                Some(gate) => match gate.poll() {
                    Some(outcome) => outcome,
                    None => break,
                },
            };
            round.release(outcome, &mut conns);
            parked_requests -= round.routes.len();
            // The peers are about to answer: look at the sockets again
            // before sleeping.
            busy = true;
            let round = parked.pop_front().expect("the head was just inspected");
            spare.push(round.recycle());
        }
        let before = conns.len();
        for conn in &mut conns {
            conn.flush();
            if conn.unflushed() > WRITE_BUF_HARD_LIMIT {
                conn.abort();
            }
        }
        conns.retain(|conn| conn.open || conn.unflushed() > 0 || conn.parked > 0);
        net.connections.sub((before - conns.len()) as u64);

        if !busy {
            // With rounds parked, the next event is either a socket or the
            // fsync they wait for: sleep on the latter, which wakes at once.
            match parked.front().and_then(|round| round.gate.as_ref()) {
                Some(gate) => {
                    let _ = gate.wait_timeout(IDLE_SLEEP);
                }
                None => std::thread::sleep(IDLE_SLEEP),
            }
        }
    }

    // Shutdown: resolve what is still parked — a blocking wait per gate, for
    // an fsync that is already due — and flush once.
    for round in parked.drain(..) {
        let outcome = round.gate.clone().map_or(Ok(()), CommitTicket::wait);
        round.release(outcome, &mut conns);
    }
    for conn in &mut conns {
        conn.flush();
    }
    net.connections.sub(conns.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    #[test]
    fn a_fast_pipelining_peer_cannot_grow_the_read_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        // 8 MiB of pipelined requests, written as fast as the socket takes
        // them, while the server drains one coalescing window per round.
        let frame = encode_frame(7, &proto::encode_request(&[KvOp::Get { key: 1 }]));
        let frames = (8 << 20) / frame.len();
        let writer = std::thread::spawn(move || peer.write_all(&frame.repeat(frames)));

        let mut conn = Conn::new(0, stream);
        let mut scratch = vec![0u8; 64 * 1024];
        let (mut decoded, mut peak) = (0, 0);
        loop {
            conn.fill(&mut scratch, DEFAULT_MAX_FRAME_LEN);
            peak = peak.max(conn.read_buf.len());
            let mut round = Round::new();
            conn.decode_into(&mut round, &mut Vec::new(), 64, DEFAULT_MAX_FRAME_LEN);
            decoded += round.routes.len();
            if !conn.open && round.routes.is_empty() {
                break;
            }
        }
        writer.join().unwrap().unwrap();
        assert_eq!(decoded, frames, "every request is decoded, none lost");
        let bound = FRAME_HEADER_LEN + DEFAULT_MAX_FRAME_LEN as usize + scratch.len();
        assert!(
            peak <= bound,
            "read_buf peaked at {peak} B, bound {bound} B"
        );
    }
}
