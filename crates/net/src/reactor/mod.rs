//! The event-loop transport: nonblocking sockets multiplexed by
//! `poll(2)`.
//!
//! This is the C10k-scale engine behind [`crate::server::HttpServer`].
//! The thread-per-connection transport paid one OS thread (stack,
//! scheduler slot) per open socket, capping a market at a few hundred
//! concurrent clients; here a connection is a slab slot (a socket, two
//! byte buffers, a state tag) and the thread count is a property of the
//! [`Transport`], not of a server or of its connections. A transport
//! serves any number of registered listeners — a standalone server owns
//! one, a whole fleet of market servers shares one — on:
//!
//! * **one acceptor** — watches every registered nonblocking listener,
//!   with bounded backoff on transient errors (EMFILE must not
//!   busy-loop) and load shedding above
//!   [`ReactorConfig::max_connections`] (an immediate `503` +
//!   `connection: close`, never a silent drop);
//! * **[`SHARDS`] event-loop shards** — each owns a slab of connections
//!   outright (no cross-shard locking on the hot path) and runs turn →
//!   read → parse → handle → write. The [`Handler`] runs on the shard
//!   that cut the request: market handlers only compute (a listing in
//!   microseconds, an APK build in about 100 µs), and by contract never
//!   block on I/O or on another request.
//!
//! What differs between the servers on one transport — handler,
//! instruments, fault injector — is an `Endpoint`, created when a
//! listener registers and carried by every connection accepted on it,
//! so each close, shed, reject and response records into the
//! instruments of the connection's own server.
//!
//! Acceptor and shards are loop bodies over the loop core in
//! `reactor::io`, each with its own message order: a shard handles
//! messages before readiness, the acceptor readiness before messages.
//!
//! # Connection state machine
//!
//! ```text
//!            adopt             parse_partial, decide
//!   accept ────────▶ Reading ──(injected stall)──────────▶ Stalled
//!                    ▲ │ │ │                                  │
//!     residual bytes │ │ │ └──(handle → response)───┐         │ deadline:
//!     re-parsed      │ │ │                          ▼         │ handle
//!                    │ │ │ reset / panic:         Writing ◀───┘
//!                    │ │ ▼ hang up                  │  │
//!                    │ │ Draining ◀─(close_after)───┘  │
//!                    │ │  │ EOF / idle                 │
//!                    │ ▼  ▼                            │
//!                    │ close   (Reading: EOF / idle)   │
//!                    └────────────(keep-alive)─────────┘
//! ```
//!
//! A `Stalled` connection has **no poll interest**, and a `Writing` one
//! polls only for `POLLOUT`: one request is in flight per connection at
//! a time, which preserves HTTP/1.1 response ordering and keeps the
//! fault injector's per-path occurrence counting identical to the
//! thread-per-connection transport. Pipelined requests already buffered
//! are served in a loop, one after another, never by recursion. An
//! injected stall holds the *connection* — parked on its shard until a
//! deadline, armed on the same poller as keep-alive expiry — never the
//! shard: one slow market must not freeze the others.
//!
//! # Why the fault and trace seams survive
//!
//! The chaos-replay and trace-propagation suites pin *logical seam
//! order*, not threads. The shard replays exactly the sequence the old
//! per-connection thread ran: `FaultInjector::decide` first, once per
//! request (before any span opens — a reset market must not trace), then
//! the verdict's effect and the server request span as a remote child of
//! the propagated context, then the `handler` and `write` child spans,
//! with `note_response` between handler and write. Because every span of
//! the sequence opens on one thread, the tracer's thread-local implicit
//! parenting links the spans exactly as before.

pub(crate) mod io;
pub(crate) mod sys;

use crate::error::NetError;
use crate::fault::{FaultAction, FaultInjector};
use crate::http::{Request, Response, Status};
use crate::server::{Handler, ServerMetrics};
use io::{Inbox, Poller, Slab};
use marketscope_telemetry::{LogLevel, TraceSpan};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event-loop shard threads per transport, which also run the handlers.
/// Connections are distributed round-robin at accept time and never
/// migrate.
pub const SHARDS: usize = 2;

/// Tuning knobs for the event-loop transport. The defaults suit a fleet
/// of loopback market servers sharing one transport. Thread cost is
/// fixed at `1 + SHARDS` per transport regardless of how many listeners
/// are registered on it or how many thousands of connections are open.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Open-connection ceiling of each listener. Beyond it the acceptor
    /// sheds that listener's new connections with `503` +
    /// `connection: close` and counts them in its
    /// `marketscope_net_connections_shed_total`.
    pub max_connections: usize,
    /// Idle keep-alive connections are reaped after this long (the
    /// blocking transport's 30s read timeout, made explicit).
    pub keep_alive: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
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

/// What one registered listener serves and records into: the part of a
/// server that is its own when the threads are shared. Every connection
/// accepted on the listener carries it.
pub(crate) struct Endpoint {
    handler: Box<dyn Handler>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) faults: Option<Arc<FaultInjector>>,
}

impl Endpoint {
    pub(crate) fn new(
        handler: impl Handler,
        metrics: ServerMetrics,
        faults: Option<Arc<FaultInjector>>,
    ) -> Arc<Endpoint> {
        Arc::new(Endpoint {
            handler: Box::new(handler),
            metrics,
            faults,
        })
    }
}

/// Receipt for a [`Transport::retire`] message: the loop that handled it
/// drops the sender, and the retiring thread's `recv` returns once every
/// sender is gone.
type Ack = mpsc::Sender<()>;

/// What other threads tell the acceptor.
enum AcceptorMsg {
    /// Start accepting on this (nonblocking) listener for this endpoint.
    Listen(TcpListener, Arc<Endpoint>),
    /// Close the endpoint's listener.
    Retire(Arc<Endpoint>, Ack),
}

/// What other threads tell a shard.
enum ShardMsg {
    /// A freshly accepted socket, already counted in its endpoint's live
    /// gauge.
    Adopt(TcpStream, Arc<Endpoint>),
    /// Drop every connection of the endpoint. The shard runs handlers
    /// itself, so when it handles this message no call is in flight.
    Retire(Arc<Endpoint>, Ack),
}

/// State shared by the acceptor and every shard.
struct Shared {
    cfg: ReactorConfig,
    shutdown: AtomicBool,
    acceptor: Inbox<AcceptorMsg>,
    shards: Vec<Inbox<ShardMsg>>,
}

/// Per-connection state (see the module-level diagram).
#[derive(Debug)]
enum ConnState {
    /// Waiting for (more of) a request; poll interest `POLLIN`.
    Reading,
    /// Sitting out an injected stall; no poll interest. The request is
    /// handled once `until` has passed.
    Stalled { until: Instant, req: Box<Request> },
    /// Flushing a response; poll interest `POLLOUT`.
    Writing {
        /// Hang up instead of re-entering keep-alive once flushed.
        close_after: bool,
    },
    /// Hung up: the write side is shut, so the peer reads every queued
    /// response and then EOF. Inbound bytes are discarded until the peer
    /// closes or the keep-alive expires; poll interest `POLLIN`.
    Draining,
}

/// One connection in a shard's slab.
struct Conn {
    stream: TcpStream,
    endpoint: Arc<Endpoint>,
    state: ConnState,
    /// Unparsed inbound bytes (may span pipelined requests).
    buf: Vec<u8>,
    /// Serialized outbound response and write cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Peer half-closed its write side; serve what's buffered, then close.
    eof: bool,
    last_activity: Instant,
}

/// One event-loop shard: a slab of connections it owns exclusively.
struct ShardState {
    id: usize,
    shared: Arc<Shared>,
    conns: Slab<Conn>,
    /// Armed with every keep-alive expiry and stall end as it starts.
    poller: Poller,
}

impl ShardState {
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let inbox = &shared.shards[self.id];
        loop {
            for (tok, conn) in self.conns.iter() {
                let interest = match conn.state {
                    ConnState::Reading | ConnState::Draining if !conn.eof => sys::POLLIN,
                    ConnState::Writing { .. } => sys::POLLOUT,
                    _ => continue,
                };
                self.poller.watch(conn.stream.as_raw_fd(), interest, tok);
            }
            let due = self.poller.turn(inbox);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // In posting order, so an endpoint's last `Adopt` is handled
            // before its `Retire`.
            for msg in inbox.take() {
                match msg {
                    ShardMsg::Adopt(stream, endpoint) => self.adopt(stream, endpoint),
                    ShardMsg::Retire(endpoint, _ack) => self.close_all_of(&endpoint),
                }
            }
            // A message above may have closed or repurposed a slot: its
            // stale token reads nothing.
            while let Some((tok, _)) = self.poller.ready() {
                match self.conns.get_mut(tok).map(|c| &c.state) {
                    Some(ConnState::Reading | ConnState::Draining) => self.drive_read(tok),
                    Some(ConnState::Writing { .. }) => {
                        self.drive_write(tok);
                        self.advance_parse(tok);
                    }
                    _ => {}
                }
            }
            if due {
                self.sweep();
            }
        }
        // Teardown: every still-open connection leaves its endpoint's
        // gauge exactly balanced (the acceptor counted it on the way in).
        for (_, conn) in self.conns.iter() {
            conn.endpoint.metrics.live.dec();
        }
    }

    /// Once the armed bound has passed: reap idle keep-alive connections
    /// and serve the requests whose stall is over.
    fn sweep(&mut self) {
        let keep_alive = self.shared.cfg.keep_alive;
        let expired = self.poller.expired(&self.conns, |conn| match conn.state {
            ConnState::Stalled { until, .. } => Some(until),
            _ => Some(conn.last_activity + keep_alive),
        });
        for tok in expired {
            let Some(conn) = self.conns.get_mut(tok) else {
                continue;
            };
            match std::mem::replace(&mut conn.state, ConnState::Reading) {
                ConnState::Stalled { req, .. } => {
                    self.respond(tok, &req, FaultAction::Serve);
                    self.advance_parse(tok);
                }
                _ => self.close(tok),
            }
        }
    }

    /// Take ownership of a freshly accepted socket.
    fn adopt(&mut self, stream: TcpStream, endpoint: Arc<Endpoint>) {
        if stream.set_nonblocking(true).is_err() {
            // The acceptor already counted it; balance the gauge.
            endpoint.metrics.live.dec();
            return;
        }
        let _ = stream.set_nodelay(true);
        let now = self.poller.now();
        self.conns.insert(Conn {
            stream,
            endpoint,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            eof: false,
            last_activity: now,
        });
        // Reads and writes only move the expiry later: they re-arm nothing.
        self.poller.arm(now + self.shared.cfg.keep_alive);
    }

    fn close(&mut self, tok: u64) {
        if let Some(conn) = self.conns.remove(tok) {
            conn.endpoint.metrics.live.dec();
        }
    }

    /// End a connection the server gives up on. Dropping a socket with
    /// pipelined requests unread resets it, and a reset can discard the
    /// answers still queued for the peer. So the write side shuts behind
    /// them and the connection drains until the peer closes.
    fn hang_up(&mut self, tok: u64) {
        match self.conns.get_mut(tok) {
            Some(conn) if !conn.eof && conn.stream.shutdown(Shutdown::Write).is_ok() => {
                conn.state = ConnState::Draining;
            }
            _ => self.close(tok),
        }
    }

    /// Drop every connection of a retiring endpoint, whatever its state.
    fn close_all_of(&mut self, endpoint: &Arc<Endpoint>) {
        let toks: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| Arc::ptr_eq(&c.endpoint, endpoint))
            .map(|(tok, _)| tok)
            .collect();
        for tok in toks {
            self.close(tok);
        }
    }

    /// Read what the socket has, then serve the requests in the buffer.
    fn drive_read(&mut self, tok: u64) {
        let now = self.poller.now();
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        match io::read_available(&conn.stream, &mut conn.buf) {
            // EOF is *deferred*: the buffer may still hold a full request
            // the peer half-closed behind (shutdown-write clients); serve
            // it before closing.
            Ok((_, eof)) => {
                conn.eof |= eof;
                conn.last_activity = now;
                if matches!(conn.state, ConnState::Draining) {
                    conn.buf.clear();
                    if eof {
                        self.close(tok);
                    }
                    return;
                }
                self.advance_parse(tok);
            }
            Err(_) => self.close(tok),
        }
    }

    /// Cut requests from the connection's buffer and serve them, one at a
    /// time, while it is `Reading`: until the buffer needs more bytes, a
    /// response waits on the socket, a stall parks the connection, or it
    /// closes. Called after every read and after every keep-alive write
    /// completion (pipelined requests are already buffered — no further
    /// readiness event will announce them). A loop, not a recursion: a
    /// response flushed at once returns here for the next request.
    fn advance_parse(&mut self, tok: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(tok) else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) {
                return;
            }
            match Request::parse_partial(&conn.buf) {
                Ok(Some((req, used))) => {
                    conn.buf.drain(..used);
                    self.admit(tok, req);
                }
                // Incomplete and the peer already half-closed — nothing
                // more comes.
                Ok(None) if conn.eof => return self.close(tok),
                Ok(None) => return,
                Err(_) => {
                    // Same wire behavior as the blocking transport: answer
                    // 400, count it, close.
                    conn.endpoint
                        .metrics
                        .note_response(Status::BadRequest, Duration::ZERO);
                    let bytes = serialize(&Response::status(Status::BadRequest));
                    return self.start_write(tok, bytes, true);
                }
            }
        }
    }

    /// The fault seam: the endpoint's injector gets first refusal on a
    /// freshly cut request, exactly once and before any span opens — a
    /// reset market never answers, so it must not trace either. A stall
    /// is sat out by the connection; every other verdict is acted on at
    /// once.
    fn admit(&mut self, tok: u64, req: Request) {
        let now = self.poller.now();
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        let fault = match &conn.endpoint.faults {
            Some(f) => f.decide(&req.path),
            None => FaultAction::Serve,
        };
        match fault {
            // Added latency, then serve normally. The connection waits,
            // not the shard: it serves a whole fleet's connections, and
            // a stalled market must slow its own clients only.
            FaultAction::Stall(d) => {
                let until = now + d;
                conn.state = ConnState::Stalled {
                    until,
                    req: Box::new(req),
                };
                self.poller.arm(until);
            }
            fault => self.respond(tok, &req, fault),
        }
    }

    /// One request through the preserved seam order, the fault verdict
    /// already taken (before any span): request span → handler span →
    /// handler → `note_response` → write span → serialization and the
    /// write.
    fn respond(&mut self, tok: u64, req: &Request, fault: FaultAction) {
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        let endpoint = Arc::clone(&conn.endpoint);
        let metrics = &endpoint.metrics;
        let close = req.wants_close();
        match fault {
            // A stall is over by the time its request gets here.
            FaultAction::Serve | FaultAction::Truncate | FaultAction::Stall(_) => {}
            // Hang up without a byte: the client sees a mid-message EOF.
            FaultAction::Reset => return self.hang_up(tok),
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
                return self.start_write(tok, serialize(&resp), close);
            }
        }
        // A propagated trace context makes this request a remote child of
        // the client-side attempt span; without one every span below is a
        // no-op, and no span text is built.
        let req_span = match req.trace_context() {
            Some(ctx) => metrics.tracer.child_of(
                Some(ctx),
                "server",
                &format!("{} {}", req.method.as_str(), req.path),
            ),
            None => TraceSpan::noop(),
        };
        let start = Instant::now();
        let handler_span = metrics.tracer.span("server", "handler");
        // A panicking handler must not take the shard, and every
        // connection it owns, down with it. Catch it and drop this
        // connection — the same observable outcome the per-connection
        // transport gave the peer.
        let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            endpoint.handler.handle(req)
        }));
        handler_span.finish();
        let resp = match handled {
            Ok(resp) => resp,
            Err(_) => {
                req_span.event("handler-panic");
                req_span.finish();
                return self.hang_up(tok);
            }
        };
        // Count and time *after* the handler so a `/__metrics` scrape
        // renders a self-consistent exposition: for every market,
        // `requests_total == handler_nanos_count` and the in-flight scrape
        // itself is excluded from both.
        metrics.note_response(resp.status, start.elapsed());
        if req_span.is_sampled() {
            req_span.event(&format!("status:{}", resp.status.code()));
        }
        let write_span = metrics.tracer.span("server", "write");
        if fault == FaultAction::Truncate {
            // Cut the body mid-stream and close so the client sees an
            // unexpected EOF. An empty body can't be cut — drop the
            // connection instead (same observable failure).
            if resp.body.is_empty() {
                self.hang_up(tok);
            } else {
                let mut bytes = Vec::new();
                let _ = resp.write_truncated_to(&mut bytes, resp.body.len() / 2);
                self.start_write(tok, bytes, true);
            }
        } else {
            self.start_write(tok, serialize(&resp), close);
        }
        write_span.finish();
        req_span.finish();
    }

    fn start_write(&mut self, tok: u64, bytes: Vec<u8>, close_after: bool) {
        let now = self.poller.now();
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        conn.out = bytes;
        conn.out_pos = 0;
        conn.state = ConnState::Writing { close_after };
        conn.last_activity = now;
        // Coming out of a stall, whose deadline the sweep disarmed: arm
        // the keep-alive expiry again.
        self.poller.arm(now + self.shared.cfg.keep_alive);
        // Opportunistic flush: most responses fit the socket buffer and
        // complete without another poll round trip.
        self.drive_write(tok);
    }

    /// Nonblocking write until flushed or the socket pushes back. A
    /// flushed keep-alive response leaves the connection `Reading`; the
    /// caller serves what is buffered behind it.
    fn drive_write(&mut self, tok: u64) {
        let now = self.poller.now();
        let Some(conn) = self.conns.get_mut(tok) else {
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
                conn.last_activity = now;
            }
            Ok(true) => self.hang_up(tok),
            Err(_) => self.close(tok),
        }
    }
}

fn serialize(resp: &Response) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(resp.body.len() + 128);
    // Writing to a Vec cannot fail.
    let _ = resp.write_to(&mut bytes);
    bytes
}

/// The accept loop: watch every registered listener, back off on
/// transient errors, shed above a listener's connection ceiling,
/// round-robin the rest across shards.
fn accept_loop(shared: Arc<Shared>) {
    let inbox = &shared.acceptor;
    let mut listeners: Vec<(TcpListener, Arc<Endpoint>)> = Vec::new();
    let mut poller = Poller::new();
    let mut next_shard = 0usize;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    // An accept error armed `backoff`: until it passes, watch no
    // listener. Descriptor exhaustion is the process's, not one
    // listener's, so every listener waits.
    let mut backing_off = false;
    loop {
        if !backing_off {
            for (i, (listener, _)) in listeners.iter().enumerate() {
                poller.watch(listener.as_raw_fd(), sys::POLLIN, i as u64);
            }
        }
        if poller.turn(inbox) {
            backing_off = false;
            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // A token is an index into `listeners`, which only changes below,
        // after the readiness pass.
        while let Some((i, _)) = poller.ready() {
            let Some((listener, endpoint)) = listeners.get(i as usize) else {
                continue;
            };
            loop {
                match io::accept_pending(listener) {
                    Ok(Some(stream)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        if endpoint.metrics.live.get() >= shared.cfg.max_connections as i64 {
                            shed(&stream, endpoint, shared.cfg.max_connections);
                            continue;
                        }
                        endpoint.metrics.live.inc();
                        let shard = &shared.shards[next_shard % shared.shards.len()];
                        next_shard = next_shard.wrapping_add(1);
                        shard.post(ShardMsg::Adopt(stream, Arc::clone(endpoint)));
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // EMFILE, ENFILE, ECONNABORTED: transient. Count
                        // it and back off instead of spinning hot on the
                        // error.
                        endpoint.metrics.accept_errors.inc();
                        endpoint.metrics.log.record(
                            LogLevel::Warn,
                            "net.reactor",
                            "transient accept error, backing off",
                            &[("backoff_ms", &backoff.as_millis().to_string())],
                        );
                        poller.arm(poller.now() + backoff);
                        backing_off = true;
                        break;
                    }
                }
            }
        }
        // After the readiness pass, so every socket accepted for an
        // endpoint is with its shard before the retirement is receipted.
        for msg in inbox.take() {
            match msg {
                AcceptorMsg::Listen(listener, endpoint) => listeners.push((listener, endpoint)),
                AcceptorMsg::Retire(endpoint, _ack) => {
                    listeners.retain(|(_, e)| !Arc::ptr_eq(e, &endpoint));
                }
            }
        }
    }
}

/// Turn away a connection accepted above its endpoint's ceiling: count
/// it, answer `503` + `connection: close`, and let the caller drop it.
fn shed(stream: &TcpStream, endpoint: &Endpoint, max_connections: usize) {
    endpoint.metrics.shed.inc();
    endpoint.metrics.log.record(
        LogLevel::Warn,
        "net.reactor",
        "connection shed at ceiling",
        &[("max_connections", &max_connections.to_string())],
    );
    // Best-effort single write; the shed path must never block the
    // acceptor.
    let _ = stream.set_nonblocking(true);
    let _ = (&*stream).write(SHED_RESPONSE);
}

/// A running reactor transport: the fixed thread set — one acceptor and
/// [`SHARDS`] event loops that also run the handlers — under every
/// listener registered on it with
/// [`HttpServer::spawn_on`](crate::server::HttpServer::spawn_on).
/// Dropping the last reference stops it and joins its threads.
pub struct Transport {
    shared: Arc<Shared>,
    /// The running threads; emptied by [`stop`](Transport::stop), which
    /// holds the lock throughout, as do a listener's registration and
    /// retirement: neither can race the shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Transport {
    /// Spawn the acceptor and shard threads. Nothing is served
    /// until a listener registers.
    pub fn spawn(cfg: ReactorConfig) -> Result<Arc<Transport>, NetError> {
        let shards = (0..SHARDS)
            .map(|_| Inbox::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            acceptor: Inbox::new()?,
            shards,
        });
        // Built before the first thread starts: if a later spawn fails,
        // dropping it stops and joins the threads that did start.
        let transport = Arc::new(Transport {
            shared: Arc::clone(&shared),
            threads: Mutex::new(Vec::new()),
        });
        let acceptor = Arc::clone(&shared);
        transport.start("http-accept".into(), move || accept_loop(acceptor))?;
        for id in 0..SHARDS {
            let shard = Arc::clone(&shared);
            transport.start(format!("http-shard-{id}"), move || {
                ShardState {
                    id,
                    shared: shard,
                    conns: Slab::new(),
                    poller: Poller::new(),
                }
                .run()
            })?;
        }
        Ok(transport)
    }

    fn start(&self, name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let thread = std::thread::Builder::new().name(name).spawn(body)?;
        self.threads.lock().push(thread);
        Ok(())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReactorConfig {
        &self.shared.cfg
    }

    /// Start serving `endpoint` on `listener`.
    pub(crate) fn listen(
        &self,
        listener: TcpListener,
        endpoint: Arc<Endpoint>,
    ) -> std::io::Result<()> {
        let _running = self.threads.lock();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("transport already stopped"));
        }
        listener.set_nonblocking(true)?;
        self.shared
            .acceptor
            .post(AcceptorMsg::Listen(listener, endpoint));
        Ok(())
    }

    /// Stop serving `endpoint`, leaving every other listener as it is.
    /// On return its listener is closed, no request reaches its handler,
    /// its connections are dropped and its live gauge is back to zero.
    pub(crate) fn retire(&self, endpoint: &Arc<Endpoint>) {
        let _running = self.threads.lock();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            // A stopped transport has closed everything already.
            return;
        }
        // The acceptor first: once it has receipted, no socket of this
        // endpoint is posted to a shard any more, so each shard's sweep
        // catches them all. A shard's receipt also means no handler call
        // of the endpoint is in flight there, and none starts again.
        let (ack, receipts) = mpsc::channel();
        self.shared
            .acceptor
            .post(AcceptorMsg::Retire(Arc::clone(endpoint), ack));
        let _ = receipts.recv();
        let (ack, receipts) = mpsc::channel();
        for shard in &self.shared.shards {
            shard.post(ShardMsg::Retire(Arc::clone(endpoint), ack.clone()));
        }
        drop(ack);
        let _ = receipts.recv();
    }

    /// Stop every listener, then wake and join every thread. Open
    /// connections are dropped and each endpoint's live gauge returns to
    /// balance. Idempotent.
    pub fn stop(&self) {
        let mut threads = self.threads.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.acceptor.wake();
        for shard in &self.shared.shards {
            shard.wake();
        }
        for t in threads.drain(..) {
            let _ = t.join();
        }
        // Sockets the acceptor counted but no shard adopted before the
        // flag flipped: balance the gauge as they drop.
        for shard in &self.shared.shards {
            for msg in shard.take() {
                if let ShardMsg::Adopt(_, endpoint) = msg {
                    endpoint.metrics.live.dec();
                }
            }
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.stop();
    }
}
