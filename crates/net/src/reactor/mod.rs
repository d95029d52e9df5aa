//! The event-loop transport: nonblocking sockets multiplexed by
//! `poll(2)`.
//!
//! This is the C10k-scale engine behind [`crate::server::HttpServer`].
//! The public server API is unchanged — what changed is what a
//! connection costs. The thread-per-connection transport paid one OS
//! thread (stack, scheduler slot) per open socket, capping a market at a
//! few hundred concurrent clients; here a connection is a slab slot (a
//! socket, two byte buffers, a state tag) and the thread count is fixed:
//!
//! * **one acceptor** — blocking `accept`, with bounded backoff on
//!   transient errors (EMFILE must not busy-loop) and load shedding
//!   above [`ReactorConfig::max_connections`] (an immediate `503` +
//!   `connection: close`, never a silent drop);
//! * **N event-loop shards** ([`ReactorConfig::shards`]) — each owns a
//!   set of connections outright (no cross-shard locking on the hot
//!   path) and runs `poll` → read → parse → dispatch → write;
//! * **M handler-pool workers** ([`ReactorConfig::handler_threads`]) —
//!   the [`Handler`] trait is blocking by
//!   contract, so handlers run on a bounded pool, never on a shard.
//!
//! # Connection state machine
//!
//! ```text
//!            adopt                    parse_partial
//!   accept ────────▶ Reading ──(complete request)──▶ Handling
//!                    ▲   │                              │
//!     residual bytes │   │ EOF / parse error /          │ handler pool:
//!     re-parsed      │   │ idle keep-alive              │ faults, spans,
//!                    │   ▼                              │ handler.handle
//!                    │  close ◀──(close_after | reset)  ▼
//!                    └────────────(keep-alive)─────── Writing
//! ```
//!
//! A connection in `Handling` has **no poll interest**: one request is
//! in flight per connection at a time, which preserves HTTP/1.1 response
//! ordering and keeps the fault injector's per-path occurrence counting
//! identical to the thread-per-connection transport.
//!
//! # Why the fault and trace seams survive
//!
//! The chaos-replay and trace-propagation suites pin *logical seam
//! order*, not threads. A pool worker replays exactly the sequence the
//! old per-connection thread ran: `FaultInjector::decide` first (before
//! any span opens — a reset market must not trace), then the server
//! request span as a remote child of the propagated context, then the
//! `handler` and `write` child spans, with `note_response` between
//! handler and write. Because the whole sequence runs on one worker
//! thread, the tracer's thread-local implicit parenting links the spans
//! exactly as before.

pub(crate) mod io;
pub(crate) mod sys;

use crate::fault::{FaultAction, FaultInjector};
use crate::http::{Request, Response, Status};
use crate::server::{Handler, ServerMetrics};
use marketscope_telemetry::LogLevel;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-loop transport. The defaults suit a fleet
/// of loopback market servers: thread cost per server stays fixed at
/// `1 + shards + handler_threads` regardless of how many thousands of
/// connections are open.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop shard threads. Connections are distributed round-robin
    /// at accept time and never migrate.
    pub shards: usize,
    /// Handler-pool worker threads running the blocking
    /// [`Handler`] trait (and fault stalls).
    pub handler_threads: usize,
    /// Open-connection ceiling. Beyond it the acceptor sheds new
    /// connections with `503` + `connection: close` and counts them in
    /// `marketscope_net_connections_shed_total`.
    pub max_connections: usize,
    /// Idle keep-alive connections are reaped after this long (the
    /// blocking transport's 30s read timeout, made explicit).
    pub keep_alive: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: 2,
            handler_threads: 4,
            max_connections: 8192,
            keep_alive: Duration::from_secs(30),
        }
    }
}

/// Accept-error backoff bounds: EMFILE/ENFILE are transient (a peer will
/// close eventually) but must not spin the acceptor at 100% CPU.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The canned shed answer — a full, honest response, unlike a silent
/// drop the peer would misread as a network fault.
const SHED_RESPONSE: &[u8] =
    b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";

/// What a finished handler tells the owning shard to do with the
/// connection.
enum Directive {
    /// Write these serialized bytes, then keep alive or close.
    Respond { bytes: Vec<u8>, close: bool },
    /// Drop the connection without further bytes: fault resets,
    /// truncation of empty bodies, handler panics.
    Close,
}

/// One parsed request in flight to the handler pool, addressed back to
/// its connection by shard id + generation token.
struct Job {
    shard: usize,
    token: u64,
    req: Request,
}

/// Blocking MPMC job queue for the handler pool. A mutex-guarded deque
/// is plenty: queue operations are nanoseconds next to handler work.
struct JobQueue {
    inner: Mutex<JobQueueInner>,
    ready: Condvar,
}

struct JobQueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        inner.jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Blocks for work; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.ready.wait(&mut inner);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Cross-thread mailbox for one shard: sockets from the acceptor,
/// directives from the pool, and the wake pipe that interrupts its
/// `poll`.
struct ShardMailbox {
    inject: Mutex<Vec<TcpStream>>,
    done: Mutex<Vec<(u64, Directive)>>,
    pipe: io::WakePipe,
}

/// State shared by the acceptor, every shard, and every pool worker.
struct Shared {
    handler: Arc<dyn Handler>,
    metrics: Arc<ServerMetrics>,
    faults: Option<Arc<FaultInjector>>,
    shutdown: Arc<AtomicBool>,
    cfg: ReactorConfig,
    jobs: JobQueue,
    shards: Vec<Arc<ShardMailbox>>,
}

/// Per-connection state tag (see the module-level diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request; poll interest `POLLIN`.
    Reading,
    /// A request is with the handler pool; no poll interest.
    Handling,
    /// Flushing a response; poll interest `POLLOUT`.
    Writing {
        /// Close instead of re-entering keep-alive once flushed.
        close_after: bool,
    },
}

/// One connection in a shard's slab.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed inbound bytes (may span pipelined requests).
    buf: Vec<u8>,
    /// Serialized outbound response and write cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Peer half-closed its write side; serve what's buffered, then close.
    eof: bool,
    last_activity: Instant,
    /// Generation tag guarding against slot reuse between a dispatch and
    /// its completion (the ABA problem on tokens).
    gen: u32,
}

fn token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// One event-loop shard: a slab of connections it owns exclusively.
struct ShardState {
    id: usize,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
}

/// Outcome of trying to advance the parser on buffered bytes.
enum ParseOutcome {
    /// A full request was cut; dispatch it to the pool.
    Dispatch(u64, Box<Request>),
    /// Incomplete and the peer already half-closed — nothing more comes.
    CloseNow,
    /// Protocol violation: answer 400 and close.
    Reject,
    /// Incomplete; wait for more bytes.
    Wait,
}

impl ShardState {
    fn new(id: usize, shared: Arc<Shared>) -> ShardState {
        ShardState {
            id,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    fn run(mut self) {
        let mailbox = Arc::clone(&self.shared.shards[self.id]);
        let mut pollfds: Vec<sys::PollFd> = Vec::new();
        // `owners[i]` maps `pollfds[i]` back to (slab index, generation);
        // entry 0 is the wake pipe.
        let mut owners: Vec<(usize, u32)> = Vec::new();
        loop {
            pollfds.clear();
            owners.clear();
            pollfds.push(mailbox.pipe.pollfd());
            owners.push((usize::MAX, 0));
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let interest = match conn.state {
                    ConnState::Reading if !conn.eof => sys::POLLIN,
                    ConnState::Writing { .. } => sys::POLLOUT,
                    _ => continue,
                };
                pollfds.push(sys::PollFd::new(conn.stream.as_raw_fd(), interest));
                owners.push((idx, conn.gen));
            }
            let _ = sys::poll_fds(&mut pollfds, self.poll_timeout());
            if pollfds[0].readable() {
                mailbox.pipe.drain();
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Completions before injections: finished responses free
            // slots that new connections can then reuse.
            let done = std::mem::take(&mut *mailbox.done.lock());
            for (tok, directive) in done {
                self.apply(tok, directive);
            }
            let injected = std::mem::take(&mut *mailbox.inject.lock());
            for stream in injected {
                self.adopt(stream);
            }
            for (i, pfd) in pollfds.iter().enumerate().skip(1) {
                if pfd.revents() == 0 {
                    continue;
                }
                let (idx, gen) = owners[i];
                // A completion above may have closed or repurposed the
                // slot; the generation tag catches stale readiness.
                let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) else {
                    continue;
                };
                if conn.gen != gen {
                    continue;
                }
                match conn.state {
                    ConnState::Reading => self.drive_read(idx),
                    ConnState::Writing { .. } => self.drive_write(idx),
                    ConnState::Handling => {}
                }
            }
            self.sweep_idle();
        }
        // Teardown: every still-open connection leaves the gauge exactly
        // balanced (the acceptor counted it on the way in).
        for idx in 0..self.conns.len() {
            self.close(idx);
        }
    }

    /// Next keep-alive deadline across parked connections, as a poll
    /// timeout. `None` (block forever) when the shard is empty or only
    /// handling — the wake pipe covers every other event source.
    fn poll_timeout(&self) -> Option<Duration> {
        let ka = self.shared.cfg.keep_alive;
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter(|c| c.state != ConnState::Handling)
            .map(|c| (c.last_activity + ka).saturating_duration_since(now))
            .min()
    }

    fn sweep_idle(&mut self) {
        let ka = self.shared.cfg.keep_alive;
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let expired = matches!(
                &self.conns[idx],
                Some(c) if c.state != ConnState::Handling
                    && now.duration_since(c.last_activity) > ka
            );
            if expired {
                self.close(idx);
            }
        }
    }

    /// Take ownership of a freshly accepted socket.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            // The acceptor already counted it; balance the gauge.
            self.shared.metrics.live.dec();
            return;
        }
        let _ = stream.set_nodelay(true);
        self.next_gen = self.next_gen.wrapping_add(1);
        let conn = Conn {
            stream,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            eof: false,
            last_activity: Instant::now(),
            gen: self.next_gen,
        };
        match self.free.pop() {
            Some(idx) => self.conns[idx] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn close(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            self.free.push(idx);
            self.shared.metrics.live.dec();
        }
    }

    /// Read what the socket has, then try to cut a request out of the
    /// buffer.
    fn drive_read(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        match io::read_available(&conn.stream, &mut conn.buf) {
            // EOF is *deferred*: the buffer may still hold a full request
            // the peer half-closed behind (shutdown-write clients); serve
            // it before closing.
            Ok((_, eof)) => {
                conn.eof |= eof;
                conn.last_activity = Instant::now();
                self.advance_parse(idx);
            }
            Err(_) => self.close(idx),
        }
    }

    /// Try to cut one request from the connection's buffer and dispatch
    /// it. Called after every read and after every keep-alive write
    /// completion (pipelined requests are already buffered — no further
    /// readiness event will announce them).
    fn advance_parse(&mut self, idx: usize) {
        let outcome = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            match Request::parse_partial(&conn.buf) {
                Ok(Some((req, used))) => {
                    conn.buf.drain(..used);
                    conn.state = ConnState::Handling;
                    ParseOutcome::Dispatch(token(idx, conn.gen), Box::new(req))
                }
                Ok(None) if conn.eof => ParseOutcome::CloseNow,
                Ok(None) => ParseOutcome::Wait,
                Err(_) => ParseOutcome::Reject,
            }
        };
        match outcome {
            ParseOutcome::Dispatch(tok, req) => self.shared.jobs.push(Job {
                shard: self.id,
                token: tok,
                req: *req,
            }),
            ParseOutcome::CloseNow => self.close(idx),
            ParseOutcome::Reject => {
                // Same wire behavior as the blocking transport: answer
                // 400, count it, close.
                self.shared
                    .metrics
                    .note_response(Status::BadRequest, Duration::ZERO);
                let mut bytes = Vec::new();
                let _ = Response::status(Status::BadRequest).write_to(&mut bytes);
                self.start_write(idx, bytes, true);
            }
            ParseOutcome::Wait => {}
        }
    }

    fn start_write(&mut self, idx: usize, bytes: Vec<u8>, close_after: bool) {
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            conn.out = bytes;
            conn.out_pos = 0;
            conn.state = ConnState::Writing { close_after };
            conn.last_activity = Instant::now();
        }
        // Opportunistic flush: most responses fit the socket buffer and
        // complete without another poll round trip.
        self.drive_write(idx);
    }

    /// Nonblocking write until flushed or the socket pushes back.
    fn drive_write(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let ConnState::Writing { close_after } = conn.state else {
            return;
        };
        match io::write_pending(&conn.stream, &conn.out, &mut conn.out_pos) {
            Ok(false) => {}
            Ok(true) if !close_after => {
                conn.state = ConnState::Reading;
                conn.out = Vec::new();
                conn.out_pos = 0;
                conn.last_activity = Instant::now();
                self.advance_parse(idx);
            }
            Ok(true) | Err(_) => self.close(idx),
        }
    }

    /// Apply a handler-pool directive to the connection it belongs to
    /// (if the slot still holds that generation).
    fn apply(&mut self, tok: u64, directive: Directive) {
        let idx = (tok & u32::MAX as u64) as usize;
        let gen = (tok >> 32) as u32;
        let valid = matches!(
            self.conns.get(idx).and_then(Option::as_ref),
            Some(c) if c.gen == gen && c.state == ConnState::Handling
        );
        if !valid {
            return;
        }
        match directive {
            Directive::Close => self.close(idx),
            Directive::Respond { bytes, close } => self.start_write(idx, bytes, close),
        }
    }
}

/// The handler-pool worker loop: runs the request seam sequence the
/// per-connection thread used to run, then mails the directive back.
fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.jobs.pop() {
        let directive = process_request(&shared, &job.req);
        let mb = &shared.shards[job.shard];
        mb.done.lock().push((job.token, directive));
        mb.pipe.wake();
    }
}

/// One request through the preserved seam order: fault decision first
/// (before any span), then request span → handler span → handler →
/// `note_response` → write span → serialization.
fn process_request(shared: &Shared, req: &Request) -> Directive {
    let metrics = &shared.metrics;
    let close = req.wants_close();
    // The fault injector gets first refusal, before any span opens: a
    // reset market never answers, so it must not trace either.
    let fault = match &shared.faults {
        Some(f) => f.decide(&req.path),
        None => FaultAction::Serve,
    };
    match fault {
        FaultAction::Serve | FaultAction::Truncate => {}
        // Slam the door without a byte: the client sees a reset or a
        // mid-message EOF.
        FaultAction::Reset => return Directive::Close,
        // Added latency, then serve normally. Sleeping a pool worker is
        // deliberate: a stalled market is slow *capacity*, not just a
        // slow socket.
        FaultAction::Stall(d) => std::thread::sleep(d),
        // Answer for the handler: the market is erroring, not slow.
        FaultAction::Error {
            status,
            retry_after,
        } => {
            let resp = match retry_after {
                Some(d) => Response::status_with_retry_after(status, d),
                None => Response::status(status),
            };
            metrics.note_response(status, Duration::ZERO);
            return Directive::Respond {
                bytes: serialize(&resp),
                close,
            };
        }
    }
    // A propagated trace context makes this request a remote child of
    // the client-side attempt span; without one every span below is a
    // no-op.
    let req_span = metrics.tracer.child_of(
        req.trace_context(),
        "server",
        &format!("{} {}", req.method.as_str(), req.path),
    );
    let start = Instant::now();
    let handler_span = metrics.tracer.span("server", "handler");
    // A panicking handler must not kill a pool worker (that would shrink
    // the pool forever). Catch it and drop the connection — the same
    // observable outcome the per-connection transport gave the peer.
    let handled =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.handler.handle(req)));
    handler_span.finish();
    let resp = match handled {
        Ok(resp) => resp,
        Err(_) => {
            req_span.event("handler-panic");
            req_span.finish();
            return Directive::Close;
        }
    };
    // Count and time *after* the handler so a `/__metrics` scrape
    // renders a self-consistent exposition: for every market,
    // `requests_total == handler_nanos_count` and the in-flight scrape
    // itself is excluded from both.
    metrics.note_response(resp.status, start.elapsed());
    req_span.event(&format!("status:{}", resp.status.code()));
    let write_span = metrics.tracer.span("server", "write");
    let directive = if fault == FaultAction::Truncate {
        // Cut the body mid-stream and close so the client sees an
        // unexpected EOF. An empty body can't be cut — drop the
        // connection instead (same observable failure).
        if resp.body.is_empty() {
            Directive::Close
        } else {
            let mut bytes = Vec::new();
            let _ = resp.write_truncated_to(&mut bytes, resp.body.len() / 2);
            Directive::Respond { bytes, close: true }
        }
    } else {
        Directive::Respond {
            bytes: serialize(&resp),
            close,
        }
    };
    write_span.finish();
    req_span.finish();
    directive
}

fn serialize(resp: &Response) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(resp.body.len() + 128);
    // Writing to a Vec cannot fail.
    let _ = resp.write_to(&mut bytes);
    bytes
}

/// The blocking accept loop: backoff on transient errors, shed above the
/// connection ceiling, round-robin the rest across shards.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_shard = 0usize;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => {
                backoff = ACCEPT_BACKOFF_MIN;
                s
            }
            Err(_) => {
                // EMFILE, ENFILE, ECONNABORTED: transient. Count it and
                // back off instead of spinning hot on the error.
                shared.metrics.accept_errors.inc();
                shared.metrics.log.record(
                    LogLevel::Warn,
                    "net.reactor",
                    "transient accept error, backing off",
                    &[("backoff_ms", &backoff.as_millis().to_string())],
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        if shared.metrics.live.get() >= shared.cfg.max_connections as i64 {
            shared.metrics.shed.inc();
            shared.metrics.log.record(
                LogLevel::Warn,
                "net.reactor",
                "connection shed at ceiling",
                &[("max_connections", &shared.cfg.max_connections.to_string())],
            );
            // Best-effort single write; the shed path must never block
            // the acceptor.
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(SHED_RESPONSE);
            continue;
        }
        shared.metrics.live.inc();
        let mb = &shared.shards[next_shard % shared.shards.len()];
        next_shard = next_shard.wrapping_add(1);
        mb.inject.lock().push(stream);
        mb.pipe.wake();
    }
}

/// A running reactor transport: the fixed thread set serving one bound
/// listener. Owned by [`ServerHandle`](crate::server::ServerHandle).
pub(crate) struct Transport {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    shard_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Transport {
    /// Spawn the acceptor, shard, and worker threads for `listener`.
    pub(crate) fn spawn(
        listener: TcpListener,
        handler: Arc<dyn Handler>,
        metrics: Arc<ServerMetrics>,
        faults: Option<Arc<FaultInjector>>,
        cfg: ReactorConfig,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<Transport> {
        let local = listener.local_addr()?;
        let cfg = ReactorConfig {
            shards: cfg.shards.max(1),
            handler_threads: cfg.handler_threads.max(1),
            max_connections: cfg.max_connections.max(1),
            keep_alive: cfg.keep_alive,
        };
        let mut mailboxes = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            mailboxes.push(Arc::new(ShardMailbox {
                inject: Mutex::new(Vec::new()),
                done: Mutex::new(Vec::new()),
                pipe: io::WakePipe::new()?,
            }));
        }
        let shared = Arc::new(Shared {
            handler,
            metrics,
            faults,
            shutdown,
            cfg,
            jobs: JobQueue::new(),
            shards: mailboxes,
        });
        let mut shard_threads = Vec::with_capacity(shared.cfg.shards);
        for id in 0..shared.cfg.shards {
            let shard_shared = Arc::clone(&shared);
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("http-shard-{id}"))
                    .spawn(move || ShardState::new(id, shard_shared).run())?,
            );
        }
        let mut worker_threads = Vec::with_capacity(shared.cfg.handler_threads);
        for w in 0..shared.cfg.handler_threads {
            let worker_shared = Arc::clone(&shared);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{w}"))
                    .spawn(move || worker_loop(worker_shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("http-accept-{local}"))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Transport {
            shared,
            accept,
            shard_threads,
            worker_threads,
        })
    }

    /// Wake and join every thread. The caller has already set the shared
    /// shutdown flag.
    pub(crate) fn stop(self, addr: SocketAddr) {
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(addr);
        let _ = self.accept.join();
        for mb in &self.shared.shards {
            mb.pipe.wake();
        }
        for t in self.shard_threads {
            let _ = t.join();
        }
        // Sockets the acceptor counted but no shard adopted before the
        // flag flipped: balance the gauge as they drop.
        for mb in &self.shared.shards {
            let leftover = std::mem::take(&mut *mb.inject.lock());
            for _ in leftover {
                self.shared.metrics.live.dec();
            }
        }
        self.shared.jobs.close();
        for t in self.worker_threads {
            let _ = t.join();
        }
    }
}
