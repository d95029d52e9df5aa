//! The multiplexed nonblocking client engine: one driver thread, one
//! `poll(2)` readiness loop, hundreds of outstanding requests.
//!
//! Callers enqueue requests ([`MuxClient::submit`]) and later block on
//! the outcome ([`MuxClient::wait`]), while a single driver thread owns
//! every connection as a nonblocking state machine (`Connecting →
//! Sending → Receiving`, keep-alive reuse through a per-host pool) and
//! multiplexes them over the `reactor::sys` poll
//! shim and the I/O primitives it shares with the server shards. A
//! caller blocked in `wait` costs a parked ticket, not a socket-bound
//! thread. Every [`HttpClient`](crate::client::HttpClient) call is a
//! submission here; there is no other request path.
//!
//! Two submission flavors exist:
//!
//! * **Raw** — one wire request, with transparent retries on transient
//!   connection-level failures only. `HttpClient::request`/`submit`
//!   (POST submission, the open-loop load generator) ride this.
//! * **Managed** — the full `HttpClient::get` policy executed inside
//!   the driver: circuit-breaker admission at (re)activation, the
//!   status/decode seam, retry backoff as *timed resubmission* (the
//!   submission parks on a timer instead of a thread sleeping), and
//!   terminal breaker accounting. `get`/`get_json`, the ticket-level
//!   `submit_get`/`submit_get_json`, the crawler's `fetch_many` and the
//!   loadgen `fanout` profile ride this.
//!
//! Ordering: a submission may carry a *lane* key. The driver runs at
//! most one submission per lane at a time, FIFO — so a per-market batch
//! reaches that market's server in exactly the order a sequential loop
//! would have produced, which keeps seeded fault windows (driven by
//! per-server request indices) bit-identical while concurrency comes
//! from *across* lanes.

use crate::client::{ClientConfig, ClientMetrics};
use crate::error::NetError;
use crate::http::{Request, Response, Status};
use crate::reactor::io::{read_available, write_pending, WakePipe};
use crate::reactor::sys;
use crate::resilience::{BreakerSet, ResilienceMetrics, RetryPolicy};
use marketscope_core::hash::fnv1a64;
use marketscope_core::json::Json;
use marketscope_telemetry::{trace, SpanContext, TraceSpan, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How a managed submission's 200 body is decoded before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Hand the response back as-is.
    Response,
    /// Parse the body as JSON (`HttpClient::get_json` semantics).
    Json,
}

/// A completed submission's payload, matching its [`DecodeMode`].
#[derive(Debug)]
pub enum Payload {
    /// An undecoded response.
    Resp(Response),
    /// A decoded JSON document.
    Doc(Json),
}

/// Decode a 200 response per `mode`.
fn decode_response(resp: Response, mode: DecodeMode) -> Result<Payload, NetError> {
    match mode {
        DecodeMode::Response => Ok(Payload::Resp(resp)),
        DecodeMode::Json => {
            let text = std::str::from_utf8(&resp.body)
                .map_err(|_| NetError::Protocol("response body not utf-8"))?;
            let doc = Json::parse(text)
                .map_err(|_| NetError::Protocol("response body not valid json"))?;
            Ok(Payload::Doc(doc))
        }
    }
}

/// One-shot completion cell shared between a [`Ticket`] and the driver.
struct TicketCell {
    slot: Mutex<Option<Result<Payload, NetError>>>,
    ready: Condvar,
}

impl TicketCell {
    fn new() -> Arc<TicketCell> {
        Arc::new(TicketCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<Payload, NetError>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(result);
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Payload, NetError> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.ready.wait(&mut slot);
        }
    }
}

/// Handle to one outstanding submission. Redeem it with
/// [`MuxClient::wait`] (or internally, `MuxClient::wait_payload`).
pub struct Ticket {
    cell: Arc<TicketCell>,
}

/// The policy a submission runs under inside the driver.
enum Policy {
    /// One wire request, transparent connect-level retries only.
    Raw,
    /// Full `get` semantics: breaker admission, status/decode seam,
    /// retry policy as timed resubmission, terminal breaker accounting.
    Managed {
        /// Deterministic backoff jitter key (`fnv1a64` of the path).
        key: u64,
        decode: DecodeMode,
    },
}

/// One queued unit of work.
struct Submission {
    addr: SocketAddr,
    req: Request,
    parent: Option<SpanContext>,
    lane: Option<u64>,
    policy: Policy,
    cell: Arc<TicketCell>,
}

/// A submission waiting for a driver slot, carrying its resilient-retry
/// progress (zero for fresh submissions, advanced for unparked ones).
struct PendingItem {
    sub: Submission,
    cycles: u32,
    slept: Duration,
    /// Whether this item already holds its lane (an unparked retry or a
    /// lane-queue promotion) and must not be re-gated on it.
    owns_lane: bool,
}

/// An idle pooled connection. `residue` holds bytes read past the last
/// response; a nonempty residue poisons the connection.
struct IdleConn {
    stream: TcpStream,
    residue: Vec<u8>,
}

/// Per-connection nonblocking state machine.
enum CState {
    /// `connect(2)` returned `EINPROGRESS`; waiting for `POLLOUT`.
    /// Carries the serialized request to send once established.
    Connecting { buf: Vec<u8> },
    /// Writing the serialized request.
    Sending { buf: Vec<u8>, off: usize },
    /// Accumulating response bytes until `Response::parse_partial`
    /// yields a full message.
    Receiving { buf: Vec<u8> },
}

struct Conn {
    stream: TcpStream,
    state: CState,
    deadline: Instant,
}

/// A submission actively on the wire.
struct Active {
    sub: Submission,
    /// Transparent connect-level attempt counter, bounded by
    /// `ClientConfig::retries`.
    attempt: u32,
    /// Managed resilient-retry cycle counter.
    cycles: u32,
    /// Managed cumulative backoff already paid.
    slept: Duration,
    /// Wire-cycle start, for the request-latency histogram.
    started: Instant,
    request_span: TraceSpan,
    attempt_span: TraceSpan,
    conn: Option<Conn>,
}

/// A managed submission waiting out a retry backoff on the driver's
/// timer instead of a sleeping thread.
struct Parked {
    sub: Submission,
    cycles: u32,
    slept: Duration,
    until: Instant,
}

struct Lane {
    queue: VecDeque<PendingItem>,
    busy: bool,
}

/// State shared between the caller-facing handle and the driver thread.
struct Shared {
    config: ClientConfig,
    tracer: Arc<Tracer>,
    metrics: ClientMetrics,
    retry: Option<RetryPolicy>,
    breakers: Option<Arc<BreakerSet>>,
    resilience: ResilienceMetrics,
    queue: Mutex<Vec<Submission>>,
    pool: Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
    shutdown: AtomicBool,
    /// The driver's wake pipe, set once the driver has been (lazily)
    /// spawned.
    wake: OnceLock<WakePipe>,
}

impl Shared {
    fn wake_driver(&self) {
        if let Some(pipe) = self.wake.get() {
            pipe.wake();
        }
    }
}

/// The multiplexed client: a submit/complete API over one driver thread.
///
/// Construction goes through [`MuxClient::new`] (or, for most users,
/// [`HttpClient::builder`](crate::client::HttpClient::builder), which
/// owns one of these internally). The driver thread is spawned lazily on
/// the first submission and joined on drop; outstanding tickets at
/// shutdown complete with an I/O error rather than hanging.
pub struct MuxClient {
    shared: Arc<Shared>,
    driver: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MuxClient {
    /// A mux engine with the given socket configuration, telemetry and
    /// (optional) resilience stack. The resilience pieces are only
    /// consulted by *managed* submissions; raw submissions get
    /// transparent connect retries only.
    pub fn new(
        config: ClientConfig,
        tracer: Arc<Tracer>,
        metrics: ClientMetrics,
        retry: Option<RetryPolicy>,
        breakers: Option<Arc<BreakerSet>>,
        resilience: ResilienceMetrics,
    ) -> MuxClient {
        MuxClient {
            shared: Arc::new(Shared {
                config,
                tracer,
                metrics,
                retry,
                breakers,
                resilience,
                queue: Mutex::new(Vec::new()),
                pool: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                wake: OnceLock::new(),
            }),
            driver: Mutex::new(None),
        }
    }

    /// Enqueue one raw request and return its ticket. The request is
    /// parented under whatever sampled span is active on *this* thread.
    pub fn submit(&self, addr: SocketAddr, req: Request) -> Ticket {
        self.submit_spec(Submission {
            addr,
            req,
            parent: trace::current(),
            lane: None,
            policy: Policy::Raw,
            cell: TicketCell::new(),
        })
    }

    /// Enqueue one managed GET: full retry/breaker/trace policy executed
    /// driver-side, body decoded per `mode`. `parent` is the span the
    /// request spans hang under (pass [`trace::current()`] for the
    /// calling thread's context); `lane` serializes submissions sharing
    /// a key so a batch reaches its host in submission order.
    pub(crate) fn submit_managed(
        &self,
        addr: SocketAddr,
        path_and_query: &str,
        mode: DecodeMode,
        parent: Option<SpanContext>,
        lane: Option<u64>,
    ) -> Ticket {
        self.submit_spec(Submission {
            addr,
            req: Request::get(path_and_query),
            parent,
            lane,
            policy: Policy::Managed {
                key: fnv1a64(path_and_query.as_bytes()),
                decode: mode,
            },
            cell: TicketCell::new(),
        })
    }

    /// Block until the submission completes and return its response.
    pub fn wait(&self, ticket: Ticket) -> Result<Response, NetError> {
        match ticket.cell.wait() {
            Ok(Payload::Resp(resp)) => Ok(resp),
            Ok(Payload::Doc(_)) => Err(NetError::Protocol("ticket decoded to json")),
            Err(e) => Err(e),
        }
    }

    /// Block until the submission completes and return its raw payload
    /// (managed tickets may carry decoded JSON).
    pub(crate) fn wait_payload(&self, ticket: Ticket) -> Result<Payload, NetError> {
        ticket.cell.wait()
    }

    /// Number of idle pooled connections (for tests/metrics).
    pub fn idle_connections(&self) -> usize {
        self.shared.pool.lock().values().map(Vec::len).sum()
    }

    fn submit_spec(&self, sub: Submission) -> Ticket {
        let ticket = Ticket {
            cell: Arc::clone(&sub.cell),
        };
        if let Err(e) = self.ensure_driver() {
            sub.cell.complete(Err(NetError::Io(e)));
            return ticket;
        }
        self.shared.queue.lock().push(sub);
        self.shared.wake_driver();
        ticket
    }

    /// Spawn the driver thread on first use. Lazy so that clients which
    /// never issue a request (and tests that meter process thread
    /// counts around other components) cost no thread.
    fn ensure_driver(&self) -> io::Result<()> {
        let mut driver = self.driver.lock();
        if driver.is_some() {
            return Ok(());
        }
        if self.shared.wake.get().is_none() {
            let _ = self.shared.wake.set(WakePipe::new()?);
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("mux-driver".to_owned())
            .spawn(move || Driver::new(shared).run())?;
        *driver = Some(handle);
        Ok(())
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_driver();
        if let Some(handle) = self.driver.lock().take() {
            let _ = handle.join();
        }
    }
}

/// The driver: owns every connection and runs the readiness loop.
struct Driver {
    shared: Arc<Shared>,
    pending: VecDeque<PendingItem>,
    lanes: HashMap<u64, Lane>,
    active: Vec<Active>,
    parked: Vec<Parked>,
}

impl Driver {
    fn new(shared: Arc<Shared>) -> Driver {
        Driver {
            shared,
            pending: VecDeque::new(),
            lanes: HashMap::new(),
            active: Vec::new(),
            parked: Vec::new(),
        }
    }

    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let Some(wake) = shared.wake.get() else {
            return; // unreachable: the pipe is set before the driver spawns
        };
        loop {
            self.drain_queue();
            self.unpark_expired();
            self.admit();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.abort_outstanding();
                return;
            }
            let timeout = self.poll_timeout();

            // Rebuild the poll set each round: entry 0 is the wake pipe,
            // the rest map 1:1 onto active connections.
            let mut fds = vec![wake.pollfd()];
            for act in &self.active {
                if let Some(conn) = &act.conn {
                    let events = match conn.state {
                        CState::Connecting { .. } | CState::Sending { .. } => sys::POLLOUT,
                        CState::Receiving { .. } => sys::POLLIN,
                    };
                    fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                }
            }
            if sys::poll_fds(&mut fds, timeout).is_err() {
                // EINTR is retried inside poll_fds; anything else here is
                // unrecoverable for the whole loop — fail everything out
                // rather than spin.
                self.shared.shutdown.store(true, Ordering::SeqCst);
                continue;
            }
            if fds[0].readable() {
                wake.drain();
            }

            let now = Instant::now();
            let ready: Vec<bool> = fds[1..].iter().map(|fd| fd.revents() != 0).collect();
            let actives = std::mem::take(&mut self.active);
            for (i, act) in actives.into_iter().enumerate() {
                if ready.get(i).copied().unwrap_or(false) {
                    self.drive(act);
                } else if act.conn.as_ref().is_some_and(|c| now >= c.deadline) {
                    self.expire(act);
                } else {
                    self.active.push(act);
                }
            }
        }
    }

    /// Move freshly submitted work into the lane/pending structure.
    fn drain_queue(&mut self) {
        let subs = std::mem::take(&mut *self.shared.queue.lock());
        for sub in subs {
            let item = PendingItem {
                sub,
                cycles: 0,
                slept: Duration::ZERO,
                owns_lane: false,
            };
            self.enqueue(item);
        }
    }

    fn enqueue(&mut self, mut item: PendingItem) {
        if let (Some(lane_key), false) = (item.sub.lane, item.owns_lane) {
            let lane = self.lanes.entry(lane_key).or_insert_with(|| Lane {
                queue: VecDeque::new(),
                busy: false,
            });
            if lane.busy {
                lane.queue.push_back(item);
                return;
            }
            lane.busy = true;
            item.owns_lane = true;
        }
        self.pending.push_back(item);
    }

    /// Release `lane_key` and promote the next queued submission, which
    /// inherits the lane without re-gating.
    fn release_lane(&mut self, lane_key: u64) {
        if let Some(lane) = self.lanes.get_mut(&lane_key) {
            if let Some(mut next) = lane.queue.pop_front() {
                next.owns_lane = true;
                self.pending.push_back(next);
            } else {
                lane.busy = false;
            }
        }
    }

    /// Expired backoffs re-enter admission (where the breaker gets its
    /// per-cycle say).
    fn unpark_expired(&mut self) {
        let now = Instant::now();
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            if p.until <= now {
                self.pending.push_back(PendingItem {
                    sub: p.sub,
                    cycles: p.cycles,
                    slept: p.slept,
                    owns_lane: true,
                });
            } else {
                self.parked.push(p);
            }
        }
    }

    /// Start pending submissions while the in-flight cap allows. The cap
    /// bounds *wire-active* submissions only — parked backoffs hold no
    /// slot.
    fn admit(&mut self) {
        let cap = self.shared.config.max_inflight.unwrap_or(usize::MAX).max(1);
        while self.active.len() < cap {
            let Some(item) = self.pending.pop_front() else {
                return;
            };
            self.admit_one(item);
        }
    }

    fn admit_one(&mut self, item: PendingItem) {
        if matches!(item.sub.policy, Policy::Managed { .. }) {
            let admitted = self
                .shared
                .breakers
                .as_ref()
                .map_or(true, |b| b.for_host(item.sub.addr).admit());
            if !admitted {
                let err = NetError::CircuitOpen;
                self.shared.metrics.note_error(&err);
                self.complete_sub(item.sub, Err(err));
                return;
            }
        }
        // Span text is built only under a sampled parent.
        let request_span = match item.sub.parent {
            Some(parent) => self.shared.tracer.child_of(
                Some(parent),
                "client",
                &format!("{} {}", item.sub.req.method.as_str(), item.sub.req.path),
            ),
            None => TraceSpan::noop(),
        };
        let mut act = Active {
            sub: item.sub,
            attempt: 0,
            cycles: item.cycles,
            slept: item.slept,
            started: Instant::now(),
            request_span,
            attempt_span: TraceSpan::noop(),
            conn: None,
        };
        match self.start_attempt(&mut act) {
            Ok(()) => self.active.push(act),
            Err(e) => self.fail_attempt(act, e, true),
        }
    }

    /// Open the attempt span, serialize the request with this attempt's
    /// trace context, and acquire a connection (pooled first, else a
    /// nonblocking connect). An `Err` is a connect-phase failure: the
    /// cycle is over (connect errors burn no transparent retries).
    fn start_attempt(&mut self, act: &mut Active) -> Result<(), NetError> {
        let attempt_span = match act.request_span.context() {
            Some(request) => self.shared.tracer.child_of(
                Some(request),
                "client",
                &format!("attempt#{}", act.attempt),
            ),
            None => TraceSpan::noop(),
        };
        if act.attempt > 0 {
            attempt_span.event("retry");
        }
        act.attempt_span = attempt_span;
        let wire_req = match act.attempt_span.context() {
            Some(ctx) => act.sub.req.with_trace_context(ctx),
            None => act.sub.req.clone(),
        };
        let mut buf = Vec::new();
        wire_req.write_to(&mut buf)?;
        let io_timeout = self.shared.config.io_timeout;
        if let Some(idle) = self.take_pooled(act.sub.addr) {
            act.conn = Some(Conn {
                stream: idle.stream,
                state: CState::Sending { buf, off: 0 },
                deadline: Instant::now() + io_timeout,
            });
            return Ok(());
        }
        let (stream, established) = sys::connect_nonblocking(&act.sub.addr)?;
        stream.set_nodelay(true)?;
        act.conn = Some(if established {
            Conn {
                stream,
                state: CState::Sending { buf, off: 0 },
                deadline: Instant::now() + io_timeout,
            }
        } else {
            Conn {
                stream,
                state: CState::Connecting { buf },
                deadline: Instant::now() + self.shared.config.connect_timeout,
            }
        });
        Ok(())
    }

    /// Take a live idle connection for `addr`, discarding stale ones:
    /// leftover unparsed bytes poison a connection, and an idle pooled
    /// socket must be silent (a zero-timeout readable poll means the
    /// server closed or corrupted it while pooled).
    fn take_pooled(&mut self, addr: SocketAddr) -> Option<IdleConn> {
        let mut pool = self.shared.pool.lock();
        let conns = pool.get_mut(&addr)?;
        while let Some(idle) = conns.pop() {
            if !idle.residue.is_empty() {
                continue;
            }
            let probe = sys::poll_one(idle.stream.as_raw_fd(), sys::POLLIN, Some(Duration::ZERO));
            if matches!(probe, Ok(0)) {
                return Some(idle);
            }
        }
        None
    }

    fn return_pooled(&mut self, addr: SocketAddr, idle: IdleConn) {
        let mut pool = self.shared.pool.lock();
        let conns = pool.entry(addr).or_default();
        if conns.len() < self.shared.config.pool_per_host {
            conns.push(idle);
        }
    }

    /// Advance one ready connection's state machine.
    fn drive(&mut self, mut act: Active) {
        let Some(conn) = act.conn.as_mut() else {
            return; // unreachable: active submissions always hold a conn
        };
        match &mut conn.state {
            CState::Connecting { buf } => match sys::take_socket_error(conn.stream.as_raw_fd()) {
                Ok(()) => {
                    conn.state = CState::Sending {
                        buf: std::mem::take(buf),
                        off: 0,
                    };
                    conn.deadline = Instant::now() + self.shared.config.io_timeout;
                    self.active.push(act);
                }
                Err(e) => self.fail_attempt(act, NetError::Io(e), true),
            },
            CState::Sending { buf, off } => {
                let before = *off;
                match write_pending(&conn.stream, buf, off) {
                    Ok(flushed) => {
                        if flushed || *off > before {
                            conn.deadline = Instant::now() + self.shared.config.io_timeout;
                        }
                        if flushed {
                            conn.state = CState::Receiving { buf: Vec::new() };
                        }
                        self.active.push(act);
                    }
                    Err(e) => self.fail_attempt(act, NetError::Io(e), false),
                }
            }
            CState::Receiving { buf } => {
                let eof = match read_available(&conn.stream, buf) {
                    Ok((n, eof)) => {
                        if n > 0 {
                            conn.deadline = Instant::now() + self.shared.config.io_timeout;
                        }
                        eof
                    }
                    Err(e) => {
                        self.fail_attempt(act, NetError::Io(e), false);
                        return;
                    }
                };
                match Response::parse_partial(buf) {
                    Ok(Some((resp, used))) => {
                        let residue = buf.split_off(used);
                        let Some(conn) = act.conn.take() else { return };
                        // Pool *before* completing the ticket so a caller
                        // observing `idle_connections` right after `wait`
                        // returns sees the connection back.
                        self.return_pooled(
                            act.sub.addr,
                            IdleConn {
                                stream: conn.stream,
                                residue,
                            },
                        );
                        self.finish_wire(act, Ok(resp));
                    }
                    Ok(None) if eof => self.fail_attempt(act, NetError::UnexpectedEof, false),
                    Ok(None) => self.active.push(act),
                    Err(e) => self.fail_attempt(act, e, false),
                }
            }
        }
    }

    /// A connection deadline passed: connect-phase timeouts are terminal
    /// for the cycle, I/O timeouts are transient.
    fn expire(&mut self, mut act: Active) {
        let connect_phase = matches!(
            act.conn.as_ref().map(|c| &c.state),
            Some(CState::Connecting { .. })
        );
        act.conn = None;
        let e = io::Error::new(io::ErrorKind::TimedOut, "mux i/o deadline elapsed");
        self.fail_attempt(act, NetError::Io(e), connect_phase);
    }

    /// One attempt failed. Transient wire failures burn a transparent
    /// retry on a fresh connection; connect-phase failures and terminal
    /// errors end the wire cycle.
    fn fail_attempt(&mut self, mut act: Active, err: NetError, connect_phase: bool) {
        if !connect_phase {
            act.attempt_span.event(&format!("failed:{}", err.kind()));
        }
        std::mem::replace(&mut act.attempt_span, TraceSpan::noop()).finish();
        act.conn = None;
        if !connect_phase && err.is_transient() && act.attempt < self.shared.config.retries {
            act.attempt += 1;
            self.shared.metrics.note_transparent_retry();
            match self.start_attempt(&mut act) {
                Ok(()) => self.active.push(act),
                Err(e) => self.fail_attempt(act, e, true),
            }
            return;
        }
        self.finish_wire(act, Err(err));
    }

    /// One wire cycle is over: close out spans and metrics, then either
    /// complete the ticket (raw) or run the managed resilience policy.
    fn finish_wire(&mut self, mut act: Active, wire: Result<Response, NetError>) {
        std::mem::replace(&mut act.attempt_span, TraceSpan::noop()).finish();
        if let Err(e) = &wire {
            act.request_span.event(&format!("error:{}", e.kind()));
        }
        self.shared.metrics.record_request(act.started.elapsed());
        let (key, decode) = match act.sub.policy {
            Policy::Raw => {
                if let Err(e) = &wire {
                    self.shared.metrics.note_error(e);
                }
                std::mem::replace(&mut act.request_span, TraceSpan::noop()).finish();
                self.complete_sub(act.sub, wire.map(Payload::Resp));
                return;
            }
            Policy::Managed { key, decode } => (key, decode),
        };
        // The status/decode seam.
        let result = wire
            .and_then(|resp| {
                if resp.status == Status::Ok {
                    Ok(resp)
                } else {
                    Err(NetError::Status {
                        code: resp.status.code(),
                        retry_after: resp.retry_after(),
                    })
                }
            })
            .and_then(|resp| decode_response(resp, decode));
        let breaker = self
            .shared
            .breakers
            .as_ref()
            .map(|b| b.for_host(act.sub.addr));
        let err = match result {
            Ok(payload) => {
                std::mem::replace(&mut act.request_span, TraceSpan::noop()).finish();
                if let Some(b) = &breaker {
                    b.on_success();
                }
                self.complete_sub(act.sub, Ok(payload));
                return;
            }
            Err(e) => e,
        };
        // Wire errors and the status/decode errors minted above all land
        // here exactly once.
        self.shared.metrics.note_error(&err);
        let delay = self
            .shared
            .retry
            .as_ref()
            .and_then(|p| p.delay_for(&err, act.cycles, key, act.slept));
        match delay {
            Some(wait) => {
                // Still trying: the breaker only hears about *terminal*
                // outcomes.
                act.request_span
                    .event(&format!("resilient-retry:{}", err.kind()));
                std::mem::replace(&mut act.request_span, TraceSpan::noop()).finish();
                self.shared.resilience.note_retry(wait);
                self.parked.push(Parked {
                    until: Instant::now() + wait,
                    cycles: act.cycles + 1,
                    slept: act.slept + wait,
                    sub: act.sub,
                });
            }
            None => {
                std::mem::replace(&mut act.request_span, TraceSpan::noop()).finish();
                if let Some(b) = &breaker {
                    // Only signs of host distress — dead connections and
                    // 5xx answers — push the circuit toward open. A 404 is
                    // a definitive answer and a 429 means the host is alive
                    // enough to throttle us; both leave it closed.
                    let host_fault = err.is_transient()
                        || matches!(
                            err,
                            NetError::Status {
                                code: 500..=599,
                                ..
                            }
                        );
                    if host_fault {
                        b.on_failure();
                    } else {
                        b.on_success();
                    }
                }
                self.complete_sub(act.sub, Err(err));
            }
        }
    }

    /// Fill the ticket and release the submission's lane.
    fn complete_sub(&mut self, sub: Submission, result: Result<Payload, NetError>) {
        if let Some(lane_key) = sub.lane {
            self.release_lane(lane_key);
        }
        sub.cell.complete(result);
    }

    /// The next instant the loop must act even without readiness: the
    /// earliest connection deadline or backoff expiry.
    fn poll_timeout(&self) -> Option<Duration> {
        let mut next: Option<Instant> = None;
        let mut fold = |at: Instant| {
            next = Some(match next {
                Some(cur) if cur <= at => cur,
                _ => at,
            });
        };
        for act in &self.active {
            if let Some(conn) = &act.conn {
                fold(conn.deadline);
            }
        }
        for p in &self.parked {
            fold(p.until);
        }
        next.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Shutdown: every outstanding ticket completes with an error so no
    /// waiter hangs on a joined driver.
    fn abort_outstanding(&mut self) {
        let gone = || {
            NetError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                "mux client shut down",
            ))
        };
        for act in std::mem::take(&mut self.active) {
            act.sub.cell.complete(Err(gone()));
        }
        for p in std::mem::take(&mut self.parked) {
            p.sub.cell.complete(Err(gone()));
        }
        for item in std::mem::take(&mut self.pending) {
            item.sub.cell.complete(Err(gone()));
        }
        for (_, lane) in std::mem::take(&mut self.lanes) {
            for item in lane.queue {
                item.sub.cell.complete(Err(gone()));
            }
        }
        for sub in std::mem::take(&mut *self.shared.queue.lock()) {
            sub.cell.complete(Err(gone()));
        }
    }
}
