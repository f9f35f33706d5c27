//! The `net-*` workloads: a closed-loop load generator over loopback TCP and
//! the verifier that replays what it sent.
//!
//! One generator thread drives two connections; each connection keeps 128
//! requests outstanding, i.e. 128 callers that each send their next request
//! when their previous one is answered. The thread blocks in `poll(2)` while
//! every caller is waiting, and the time spent there is `gen_idle_frac`: a
//! generator that never waits would be measuring itself.
//!
//! Request frames are encoded once during set-up into a ring per connection
//! and sent round-robin from it, so the generator's memory and set-up time
//! do not grow with the server's speed. A connection's keys all have its
//! parity; its reply stream is therefore a pure function of its own request
//! stream and can be checked against a `RefStore` replay after the window.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swisstm::SwisstmRuntime;
use txkv::{DurableKvStore, KvOp, KvServer, RefStore};
use txnet::{FrameDecode, NetServer, NetServerConfig, DEFAULT_MAX_FRAME_LEN};

use crate::gen::{self, InputHash};
use crate::layers::{ReplayPlan, REPLAY_REQUESTS};
use crate::quantile::Recorder;
use crate::rep::{
    durable_config, peak_rss_mib, server_config, Fault, Live, RepCtx, WindowCounters, Workload,
};

/// Connections of the generator.
pub const LANES: usize = 2;
/// Requests each connection keeps outstanding (closed-loop callers).
pub const WINDOW: u64 = 128;
/// Requests pre-encoded per connection; the generator cycles through them.
const RING: usize = 32_768;

type Runtime = SwisstmRuntime;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Blocks until a descriptor is ready or `timeout` passes; returns the
/// per-descriptor readiness bits.
fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ms = timeout.as_millis().clamp(1, 1000) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)` structs
    // laid out as `struct pollfd`, and its length is passed alongside; poll(2)
    // writes only the `revents` fields inside that slice.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// One connection's pre-encoded request ring.
struct Ring {
    ops: Vec<KvOp>,
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i + 1]` is frame `i`; request-id = `i + 1`.
    offsets: Vec<usize>,
}

impl Ring {
    fn build(ops: Vec<KvOp>) -> Ring {
        let mut bytes = Vec::with_capacity(ops.len() * 72);
        let mut offsets = Vec::with_capacity(ops.len() + 1);
        for (i, op) in ops.iter().enumerate() {
            offsets.push(bytes.len());
            let payload = txnet::encode_request(std::slice::from_ref(op));
            txnet::encode_frame_into(&mut bytes, i as u64 + 1, &payload);
        }
        offsets.push(bytes.len());
        Ring {
            ops,
            bytes,
            offsets,
        }
    }

    /// Byte position of request number `seq` in the endless stream the ring
    /// unrolls to.
    fn stream_pos(&self, seq: u64) -> u64 {
        let len = self.ops.len() as u64;
        (seq / len) * self.bytes.len() as u64 + self.offsets[(seq % len) as usize] as u64
    }

    fn op(&self, seq: u64) -> &KvOp {
        &self.ops[(seq % self.ops.len() as u64) as usize]
    }
}

struct Lane {
    stream: TcpStream,
    ring: Ring,
    /// Requests handed to the socket layer / answered so far.
    sent: u64,
    acked: u64,
    /// Bytes of the unrolled ring already written to the socket.
    written: u64,
    /// Send stamps (ns since the generator's epoch) of outstanding requests.
    send_ns: VecDeque<u64>,
    read_buf: Vec<u8>,
    read_at: usize,
    reply_hash: InputHash,
    error_replies: u64,
    misrouted: u64,
    drop_next_reply: bool,
}

struct WindowTally<'a> {
    t0_ns: u64,
    t1_ns: u64,
    ops: u64,
    latencies: &'a mut Recorder,
}

impl Lane {
    fn in_flight(&self) -> u64 {
        self.sent - self.acked
    }

    /// Refills the caller window and writes as much as the socket takes.
    fn fill(&mut self, now_ns: u64, sending: bool) -> io::Result<()> {
        if sending {
            while self.in_flight() < WINDOW {
                self.send_ns.push_back(now_ns);
                self.sent += 1;
            }
        }
        let target = self.ring.stream_pos(self.sent);
        let ring_len = self.ring.bytes.len() as u64;
        while self.written < target {
            let at = (self.written % ring_len) as usize;
            let end = (at as u64 + (target - self.written)).min(ring_len) as usize;
            match self.stream.write(&self.ring.bytes[at..end]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn wants_write(&self) -> bool {
        self.written < self.ring.stream_pos(self.sent)
    }

    /// Reads whatever the socket holds and accounts every complete reply.
    fn drain(
        &mut self,
        scratch: &mut [u8],
        epoch: Instant,
        tally: &mut WindowTally<'_>,
    ) -> io::Result<()> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    // The callers see their replies now, whatever the decode
                    // below costs the generator.
                    let now_ns = epoch.elapsed().as_nanos() as u64;
                    self.decode(now_ns, tally)?;
                    if n < scratch.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn decode(&mut self, now_ns: u64, tally: &mut WindowTally<'_>) -> io::Result<()> {
        loop {
            let frame = txnet::decode_frame(&self.read_buf[self.read_at..], DEFAULT_MAX_FRAME_LEN)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let FrameDecode::Frame {
                req_id,
                payload,
                consumed,
            } = frame
            else {
                break;
            };
            self.read_at += consumed;
            if std::mem::take(&mut self.drop_next_reply) {
                continue;
            }
            if req_id != self.acked % self.ring.ops.len() as u64 + 1 {
                self.misrouted += 1;
            }
            // Byte 1 of a reply payload is its status; anything but OK is a
            // typed error the server sent instead of an answer.
            if payload.get(1) != Some(&0) {
                self.error_replies += 1;
            }
            self.reply_hash.bytes(&payload);
            self.acked += 1;
            let sent_ns = self.send_ns.pop_front().expect("a reply without a request");
            if (tally.t0_ns..tally.t1_ns).contains(&now_ns) {
                tally.ops += 1;
                tally.latencies.record(now_ns - sent_ns);
            }
        }
        if self.read_at == self.read_buf.len() {
            self.read_buf.clear();
            self.read_at = 0;
        }
        Ok(())
    }
}

/// The store behind the server, in either flavour.
enum Backend {
    Mem(Arc<KvServer<Runtime>>),
    Durable(Arc<DurableKvStore<Runtime>>, PathBuf),
}

impl Backend {
    fn boot(workload: Workload, ctx: &RepCtx) -> Backend {
        if workload == Workload::NetMemA {
            let server = Arc::new(KvServer::<Runtime>::new(&server_config()));
            server.populate(gen::population());
            return Backend::Mem(server);
        }
        let dir = ctx.out_dir.join(format!(
            "wal-{}-{}-{}",
            workload.name(),
            ctx.rep,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableKvStore::<Runtime>::boot(&dir, &durable_config())
            .expect("booting the durable store failed");
        store.populate(gen::population());
        // The population is not logged; the snapshot makes it the durable base
        // the reboot check recovers from.
        store.snapshot().expect("baseline snapshot failed");
        Backend::Durable(Arc::new(store), dir)
    }

    fn serve(&self) -> NetServer {
        let config = NetServerConfig {
            threads: 1,
            ..NetServerConfig::default()
        };
        match self {
            Backend::Mem(server) => NetServer::serve(Arc::clone(server), ("127.0.0.1", 0), &config),
            Backend::Durable(store, _) => {
                NetServer::serve_durable(Arc::clone(store), ("127.0.0.1", 0), &config)
            }
        }
        .expect("binding the loopback server failed")
    }

    fn server(&self) -> &KvServer<Runtime> {
        match self {
            Backend::Mem(server) => server,
            Backend::Durable(store, _) => store.server(),
        }
    }
}

fn connect(addr: SocketAddr, ring: Ring) -> Lane {
    let stream = TcpStream::connect(addr).expect("connecting to the loopback server failed");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream.set_nonblocking(true).expect("O_NONBLOCK");
    Lane {
        stream,
        ring,
        sent: 0,
        acked: 0,
        written: 0,
        send_ns: VecDeque::with_capacity(WINDOW as usize),
        read_buf: Vec::with_capacity(64 * 1024),
        read_at: 0,
        reply_hash: InputHash::default(),
        error_replies: 0,
        misrouted: 0,
        drop_next_reply: false,
    }
}

fn read_pct(workload: Workload) -> u64 {
    match workload {
        Workload::NetDurableB => 95,
        _ => 50,
    }
}

/// Keys on which the server's store and the oracle's dump disagree (missing
/// keys included).
fn diff_from_oracle(server: &KvServer<Runtime>, want: &[(u64, Vec<u64>)]) -> u64 {
    let got = server
        .store()
        .dump(&mut server.direct())
        .expect("direct dump cannot abort");
    if got.len() != want.len() {
        return got.len().abs_diff(want.len()).max(1) as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

fn truncate_segments(dir: &Path) {
    for (_, path) in txlog::list_segments(dir).expect("listing WAL segments failed") {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("opening a WAL segment failed");
        let len = file.metadata().expect("segment metadata").len();
        file.set_len(len / 2)
            .expect("truncating a WAL segment failed");
    }
}

pub fn run(ctx: &RepCtx) -> (Live, Option<ReplayPlan>) {
    let workload = ctx.workload;
    // --- set-up: store boot (WAL preallocation, populate, snapshot), request
    // rings, bind, connect.
    let backend = Backend::boot(workload, ctx);
    let mut input_hash = InputHash::default();
    let rings: Vec<Ring> = (0..LANES as u64)
        .map(|lane| {
            let ops = gen::net_stream(
                ctx.seed,
                ctx.rep,
                lane,
                LANES as u64,
                RING,
                read_pct(workload),
            );
            ops.iter().for_each(|op| input_hash.op(op));
            Ring::build(ops)
        })
        .collect();
    let net = backend.serve();
    let mut lanes: Vec<Lane> = rings
        .into_iter()
        .map(|ring| connect(net.addr(), ring))
        .collect();
    // Room for a window at far above any rate this stack reaches; untouched
    // capacity is never resident.
    let mut latencies = Recorder::with_capacity(8 << 20);
    let mut scratch = vec![0u8; 256 * 1024];
    let runtime_stats = || backend.server().stats();
    let setup = ctx.process_start.elapsed();

    // --- warm-up, then the timed window.
    let epoch = Instant::now();
    let t0_ns = ctx.warmup.as_nanos() as u64;
    let t1_ns = t0_ns + ctx.window.as_nanos() as u64;
    let mut tally = WindowTally {
        t0_ns,
        t1_ns,
        ops: 0,
        latencies: &mut latencies,
    };
    let mut idle_ns = 0u64;
    // Counters and per-connection send counts at the window's opening edge.
    let mut window_open: Option<(WindowCounters, Vec<u64>)> = None;
    // Counter deltas and the drain deadline, set at the closing edge.
    let mut window_closed: Option<(WindowCounters, u64)> = None;
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if window_open.is_none() && now_ns >= t0_ns {
            if ctx.traced {
                txobs::set_tracing(true);
            }
            window_open = Some((
                WindowCounters::read(runtime_stats()),
                lanes.iter().map(|l| l.sent).collect(),
            ));
            lanes[0].drop_next_reply = ctx.fault == Some(Fault::DropReply);
        }
        let sending = now_ns < t1_ns;
        if !sending && window_closed.is_none() {
            // Give the outstanding requests until the deadline to be answered.
            let (before, _) = window_open.as_ref().expect("the window opened");
            let counters = WindowCounters::read(runtime_stats()).delta_since(before);
            txobs::set_tracing(false);
            window_closed = Some((counters, now_ns + ctx.drain_deadline.as_nanos() as u64));
        }
        let drain_until_ns = window_closed.as_ref().map(|(_, deadline)| *deadline);
        if !sending
            && (lanes.iter().all(|l| l.in_flight() == 0)
                || drain_until_ns.is_some_and(|deadline| now_ns >= deadline))
        {
            break;
        }
        for lane in &mut lanes {
            lane.fill(now_ns, sending).expect("request send failed");
        }
        let mut fds: [PollFd; LANES] = std::array::from_fn(|i| PollFd {
            fd: lanes[i].stream.as_raw_fd(),
            events: POLLIN | if lanes[i].wants_write() { POLLOUT } else { 0 },
            revents: 0,
        });
        // Sleep no further than the next phase edge.
        let boundary = [t0_ns, t1_ns]
            .into_iter()
            .chain(drain_until_ns)
            .find(|b| *b > now_ns)
            .unwrap_or(now_ns + 1_000_000);
        poll_ready(&mut fds, Duration::from_nanos(boundary - now_ns)).expect("poll failed");
        let woke_ns = epoch.elapsed().as_nanos() as u64;
        if now_ns >= t0_ns && woke_ns <= t1_ns {
            idle_ns += woke_ns - now_ns;
        }
        for (lane, fd) in lanes.iter_mut().zip(&fds) {
            if fd.revents & !POLLOUT != 0 {
                lane.drain(&mut scratch, epoch, &mut tally)
                    .expect("reply stream failed");
            }
        }
    }
    let window_ops = tally.ops;
    let peak_rss_mib = peak_rss_mib();
    let (_, sent_at_t0) = window_open.expect("the window opened");
    let (counters, _) = window_closed.expect("the window closed");

    // --- verification.
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let attempted: u64 = lanes.iter().map(|l| l.sent).sum();
    drop(net);
    let mut oracle = RefStore::new(gen::SHARDS);
    for (key, value) in gen::population() {
        oracle.put(key, &value);
    }
    for (index, lane) in lanes.iter_mut().enumerate() {
        let mut want = InputHash::default();
        for seq in 0..lane.sent {
            let reply = oracle.apply(lane.ring.op(seq));
            if seq < lane.acked {
                want.bytes(&txnet::encode_ok_reply(std::slice::from_ref(&reply)));
            }
        }
        if ctx.fault == Some(Fault::CorruptReplyHash) && index == 0 {
            lane.reply_hash.0 ^= 1;
        }
        let unanswered = lane.in_flight();
        if unanswered > 0 {
            failed += unanswered;
            notes.push(format!(
                "connection {index}: {unanswered} requests unanswered at the drain deadline"
            ));
        }
        if lane.error_replies + lane.misrouted > 0 {
            failed += lane.error_replies + lane.misrouted;
            notes.push(format!(
                "connection {index}: {} error replies, {} replies out of order",
                lane.error_replies, lane.misrouted
            ));
        }
        if lane.reply_hash != want {
            // A running hash cannot say which reply differed: every answered
            // request of the connection counts as unverified.
            failed += lane.acked;
            notes.push(format!(
                "connection {index}: reply stream hash {:016x} differs from the oracle's {:016x}",
                lane.reply_hash.0, want.0
            ));
        }
    }
    let want_dump = oracle.dump();
    let live_diff = diff_from_oracle(backend.server(), &want_dump);
    if live_diff > 0 {
        failed += live_diff;
        notes.push(format!(
            "final store differs from the oracle on {live_diff} keys"
        ));
    }
    let durable = matches!(backend, Backend::Durable(..));
    if let Backend::Durable(store, dir) = backend {
        // Reboot-and-compare: everything acknowledged must be recoverable
        // from the directory alone.
        drop(Arc::into_inner(store).expect("the server threads are joined"));
        if ctx.fault == Some(Fault::TruncateWal) {
            truncate_segments(&dir);
        }
        let recovered = DurableKvStore::<Runtime>::boot(&dir, &durable_config())
            .expect("rebooting the durable store failed");
        let diff = diff_from_oracle(recovered.server(), &want_dump);
        if diff > 0 {
            failed += diff;
            notes.push(format!(
                "recovered store differs from the oracle on {diff} keys"
            ));
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The layer replay takes the window's first requests, in the order the
    // two connections interleave, grouped into rounds of the size the server
    // averaged over the window.
    let plan = ctx.traced.then(|| {
        let mut requests = Vec::with_capacity(REPLAY_REQUESTS);
        'replay: for step in 0.. {
            for (lane, start) in lanes.iter().zip(&sent_at_t0) {
                if requests.len() == REPLAY_REQUESTS || start + step >= lane.sent {
                    break 'replay;
                }
                requests.push(vec![lane.ring.op(start + step).clone()]);
            }
        }
        let net = &counters.net;
        let round = (net.coalesced_requests as f64 / net.coalesced_batches.max(1) as f64).round();
        ReplayPlan {
            rounds: requests
                .chunks((round as usize).max(1))
                .map(<[_]>::to_vec)
                .collect(),
            wire: true,
            durable,
        }
    });
    let live = Live {
        input_hash: input_hash.0,
        attempted,
        failed: failed.min(attempted),
        notes,
        window_ops,
        window: ctx.window,
        latencies: latencies.finish(),
        setup,
        peak_rss_mib,
        counters,
        gen_idle_frac: Some(idle_ns as f64 / ctx.window.as_nanos() as f64),
    };
    (live, plan)
}
