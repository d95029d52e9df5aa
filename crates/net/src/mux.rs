//! The multiplexed nonblocking client engine behind
//! [`HttpClient`](crate::client::HttpClient): one driver thread, one
//! `poll(2)` readiness loop, hundreds of outstanding requests.
//!
//! Every client call is a submission here: callers enqueue a GET
//! ([`HttpClient::submit_get`](crate::client::HttpClient::submit_get))
//! and later block on its [`Ticket`], while a single driver thread owns
//! every connection as a nonblocking state machine (`Connecting →
//! Sending → Receiving`, keep-alive reuse through a per-host pool) in a
//! loop body over the loop core the server shards use (`reactor::io`).
//! A caller blocked in `wait` costs a parked ticket, not a socket-bound
//! thread.
//!
//! A caller with many tickets out registers each with a shared
//! [`CompletionQueue`] ([`Ticket::notify`]) and waits on the queue, which
//! hands back the caller's tag of whichever ticket completes next.
//!
//! Every submission runs one policy inside the driver: circuit-breaker
//! admission at (re)activation, transparent retries of transient
//! connection-level failures, the status/decode seam, retry backoff as
//! *timed resubmission* (the submission parks on a timer instead of a
//! thread sleeping), and terminal breaker accounting. `get`/`get_json`,
//! the ticket-level `submit_get`/`submit_get_json` and the crawler's
//! completion loop all ride it.
//!
//! Ordering: a submission may carry a *lane* key. The driver runs at
//! most one submission per lane at a time, FIFO — so a per-market batch
//! reaches that market's server in exactly the order a sequential loop
//! would have produced, which keeps seeded fault windows (driven by
//! per-server request indices) bit-identical while concurrency comes
//! from *across* lanes.

use crate::client::{ClientConfig, ClientMetrics, FetchSpec};
use crate::error::NetError;
use crate::http::{Request, Response, Status};
use crate::reactor::io::{read_available, write_pending, Inbox, Poller, Slab};
use crate::reactor::sys;
use crate::resilience::{BreakerSet, ResilienceMetrics, RetryPolicy};
use marketscope_core::hash::fnv1a64;
use marketscope_core::json::Json;
use marketscope_telemetry::{SpanContext, TraceSpan, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a submission's 200 body is decoded before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeMode {
    /// Hand the response back as-is.
    Response,
    /// Parse the body as JSON (`HttpClient::get_json` semantics).
    Json,
}

/// A completed submission's payload, matching its [`DecodeMode`].
#[derive(Debug)]
pub(crate) enum Payload {
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

/// A wait-any completion queue: every [`Ticket`] registered with
/// [`Ticket::notify`] posts its caller's tag here exactly once when it
/// completes — answered, failed, or aborted by its client shutting down —
/// so one thread can drive hundreds of submissions by waiting on the
/// queue instead of on any one ticket. Other producers may
/// [`post`](CompletionQueue::post) tags of their own.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    tags: std::sync::Mutex<VecDeque<u64>>,
    posted: std::sync::Condvar,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Append `tag` and wake a waiter.
    pub fn post(&self, tag: u64) {
        self.lock().push_back(tag);
        self.posted.notify_one();
    }

    /// Take the oldest posted tag, waiting for one as long as it takes.
    pub fn wait(&self) -> u64 {
        let mut tags = self.lock();
        loop {
            if let Some(tag) = tags.pop_front() {
                return tag;
            }
            tags = self
                .posted
                .wait(tags)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<u64>> {
        self.tags
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One-shot completion cell shared between a [`Ticket`] and the driver.
#[derive(Default)]
struct TicketCell {
    slot: Mutex<CellState>,
    ready: Condvar,
}

#[derive(Default)]
struct CellState {
    done: bool,
    /// The outcome until a waiter takes it.
    result: Option<Result<Payload, NetError>>,
    /// Where to post the caller's tag on completion.
    notify: Option<(Arc<CompletionQueue>, u64)>,
}

impl TicketCell {
    /// Fill the cell once (later completions are ignored), wake its
    /// waiter and post its tag.
    fn complete(&self, result: Result<Payload, NetError>) {
        let notify = {
            let mut slot = self.slot.lock();
            if slot.done {
                return;
            }
            slot.done = true;
            slot.result = Some(result);
            slot.notify.take()
        };
        self.ready.notify_all();
        if let Some((queue, tag)) = notify {
            queue.post(tag);
        }
    }

    fn wait(&self) -> Result<Payload, NetError> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            self.ready.wait(&mut slot);
        }
    }
}

/// Handle to one outstanding submission. Redeem it with
/// [`HttpClient::wait`](crate::client::HttpClient::wait) or
/// [`HttpClient::wait_json`](crate::client::HttpClient::wait_json).
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// Post `tag` to `queue` when this submission completes — at once if
    /// it already has. Register a ticket at most once; redeeming it
    /// after its tag arrives returns without blocking.
    pub fn notify(&self, queue: &Arc<CompletionQueue>, tag: u64) {
        let mut slot = self.cell.slot.lock();
        if slot.done {
            drop(slot);
            queue.post(tag);
        } else {
            slot.notify = Some((Arc::clone(queue), tag));
        }
    }

    /// Block until the submission completes and take its payload.
    pub(crate) fn redeem(self) -> Result<Payload, NetError> {
        self.cell.wait()
    }
}

/// One queued GET.
pub(crate) struct Submission {
    addr: SocketAddr,
    req: Request,
    parent: Option<SpanContext>,
    lane: Option<u64>,
    /// Deterministic backoff jitter key (`fnv1a64` of the path).
    key: u64,
    decode: DecodeMode,
    cell: Arc<TicketCell>,
}

impl Submission {
    /// The GET `spec` names, its 200 body decoded per `decode`, and the
    /// ticket that redeems it.
    pub(crate) fn get(spec: &FetchSpec, decode: DecodeMode) -> (Submission, Ticket) {
        let cell = Arc::new(TicketCell::default());
        let ticket = Ticket {
            cell: Arc::clone(&cell),
        };
        let sub = Submission {
            addr: spec.addr,
            req: Request::get(&spec.path),
            parent: spec.parent,
            lane: spec.lane,
            key: fnv1a64(spec.path.as_bytes()),
            decode,
            cell,
        };
        (sub, ticket)
    }

    /// Complete the ticket with `err`: no driver will run it.
    pub(crate) fn fail(&self, err: NetError) {
        self.cell.complete(Err(err));
    }
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
    /// Resilient-retry cycle counter.
    cycles: u32,
    /// Cumulative backoff already paid.
    slept: Duration,
    /// Wire-cycle start, for the request-latency histogram.
    started: Instant,
    request_span: TraceSpan,
    attempt_span: TraceSpan,
}

/// State shared between a client and its driver thread.
pub(crate) struct Shared {
    pub(crate) config: ClientConfig,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) metrics: ClientMetrics,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) breakers: Option<BreakerSet>,
    pub(crate) resilience: ResilienceMetrics,
    pub(crate) pool: Mutex<HashMap<SocketAddr, Vec<TcpStream>>>,
    /// Set when the client drops: the driver fails what is outstanding
    /// and exits.
    pub(crate) shutdown: AtomicBool,
}

/// The driver thread and the inbox it turns on.
pub(crate) type DriverHandle = (JoinHandle<()>, Arc<Inbox<Submission>>);

/// The driver: owns every connection and runs the readiness loop.
pub(crate) struct Driver {
    shared: Arc<Shared>,
    /// Armed with every connection deadline and backoff end as it starts.
    poller: Poller,
    pending: VecDeque<PendingItem>,
    /// The submissions queued behind each lane's holder; a lane's key is
    /// present while a submission holds it.
    lanes: HashMap<u64, VecDeque<PendingItem>>,
    /// Wire-active submissions, each with the connection it is on.
    active: Slab<(Active, Conn)>,
    /// Submissions waiting out a retry backoff until the instant beside
    /// them, on the poller instead of a sleeping thread.
    parked: Slab<(Instant, PendingItem)>,
}

impl Driver {
    /// Spawn the driver thread and hand back its inbox.
    pub(crate) fn spawn(shared: Arc<Shared>) -> io::Result<DriverHandle> {
        let inbox = Arc::new(Inbox::new()?);
        let theirs = Arc::clone(&inbox);
        let handle = std::thread::Builder::new()
            .name("mux-driver".to_owned())
            .spawn(move || {
                Driver {
                    shared,
                    poller: Poller::new(),
                    pending: VecDeque::new(),
                    lanes: HashMap::new(),
                    active: Slab::new(),
                    parked: Slab::new(),
                }
                .run(&theirs)
            })?;
        Ok((handle, inbox))
    }

    fn run(mut self, inbox: &Inbox<Submission>) {
        loop {
            for (tok, (_, conn)) in self.active.iter() {
                let events = match conn.state {
                    CState::Connecting { .. } | CState::Sending { .. } => sys::POLLOUT,
                    CState::Receiving { .. } => sys::POLLIN,
                };
                self.poller.watch(conn.stream.as_raw_fd(), events, tok);
            }
            let due = self.poller.turn(inbox);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.abort_outstanding(inbox);
                return;
            }
            while let Some((tok, _)) = self.poller.ready() {
                if let Some((act, conn)) = self.active.remove(tok) {
                    self.drive(act, conn);
                }
            }
            for sub in inbox.take() {
                self.enqueue(PendingItem {
                    sub,
                    cycles: 0,
                    slept: Duration::ZERO,
                    owns_lane: false,
                });
            }
            if due {
                self.sweep();
            }
            self.admit();
        }
    }

    /// Once the armed bound has passed: fail the attempts whose deadline
    /// has passed (connect-phase timeouts end the cycle, I/O timeouts are
    /// transient), and send ended backoffs back to admission (where the
    /// breaker gets its per-cycle say).
    fn sweep(&mut self) {
        for tok in self.poller.expired(&self.active, |(_, c)| Some(c.deadline)) {
            if let Some((act, conn)) = self.active.remove(tok) {
                let connect_phase = matches!(conn.state, CState::Connecting { .. });
                let e = io::Error::new(io::ErrorKind::TimedOut, "mux i/o deadline elapsed");
                self.fail_attempt(act, NetError::Io(e), connect_phase);
            }
        }
        for tok in self.poller.expired(&self.parked, |(until, _)| Some(*until)) {
            if let Some((_, item)) = self.parked.remove(tok) {
                self.pending.push_back(item);
            }
        }
    }

    fn enqueue(&mut self, mut item: PendingItem) {
        if let (Some(lane_key), false) = (item.sub.lane, item.owns_lane) {
            if let Some(queue) = self.lanes.get_mut(&lane_key) {
                queue.push_back(item);
                return;
            }
            self.lanes.insert(lane_key, VecDeque::new());
            item.owns_lane = true;
        }
        self.pending.push_back(item);
    }

    /// Release `lane_key` and promote the next queued submission, which
    /// inherits the lane without re-gating.
    fn release_lane(&mut self, lane_key: u64) {
        match self.lanes.get_mut(&lane_key).and_then(VecDeque::pop_front) {
            Some(mut next) => {
                next.owns_lane = true;
                self.pending.push_back(next);
            }
            None => {
                self.lanes.remove(&lane_key);
            }
        }
    }

    /// Start every pending submission. The driver holds no cap of its
    /// own: callers bound what they put in flight (the crawler's lanes
    /// and harvest window), and lanes already serialize what must not
    /// overlap.
    fn admit(&mut self) {
        while let Some(item) = self.pending.pop_front() {
            self.admit_one(item);
        }
    }

    fn admit_one(&mut self, item: PendingItem) {
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
        // Span text is built only under a sampled parent.
        let request_span = match item.sub.parent {
            Some(parent) => self.shared.tracer.child_of(
                Some(parent),
                "client",
                &format!("{} {}", item.sub.req.method.as_str(), item.sub.req.path),
            ),
            None => TraceSpan::noop(),
        };
        self.start_attempt(Active {
            sub: item.sub,
            attempt: 0,
            cycles: item.cycles,
            slept: item.slept,
            started: Instant::now(),
            request_span,
            attempt_span: TraceSpan::noop(),
        });
    }

    /// Put `act` on the wire under a fresh attempt; a connect-phase
    /// failure ends its cycle (connect errors burn no transparent
    /// retries).
    fn start_attempt(&mut self, mut act: Active) {
        match self.connect(&mut act) {
            Ok(conn) => {
                self.active.insert((act, conn));
            }
            Err(e) => self.fail_attempt(act, e, true),
        }
    }

    /// Open the attempt span, serialize the request with this attempt's
    /// trace context, and acquire a connection (pooled first, else a
    /// nonblocking connect).
    fn connect(&mut self, act: &mut Active) -> Result<Conn, NetError> {
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
        let (stream, connecting) = match self.take_pooled(act.sub.addr) {
            Some(stream) => (stream, false),
            None => {
                let (stream, established) = sys::connect_nonblocking(&act.sub.addr)?;
                stream.set_nodelay(true)?;
                (stream, !established)
            }
        };
        let (state, timeout) = if connecting {
            (
                CState::Connecting { buf },
                self.shared.config.connect_timeout,
            )
        } else {
            (
                CState::Sending { buf, off: 0 },
                self.shared.config.io_timeout,
            )
        };
        let deadline = self.poller.now() + timeout;
        self.poller.arm(deadline);
        Ok(Conn {
            stream,
            state,
            deadline,
        })
    }

    /// Take a live idle connection for `addr`, discarding stale ones: an
    /// idle pooled socket must be silent (a zero-timeout readable poll
    /// means the server closed or corrupted it while pooled).
    fn take_pooled(&mut self, addr: SocketAddr) -> Option<TcpStream> {
        let mut pool = self.shared.pool.lock();
        let conns = pool.get_mut(&addr)?;
        while let Some(stream) = conns.pop() {
            let probe = sys::poll_one(stream.as_raw_fd(), sys::POLLIN, Some(Duration::ZERO));
            if matches!(probe, Ok(0)) {
                return Some(stream);
            }
        }
        None
    }

    fn return_pooled(&mut self, addr: SocketAddr, stream: TcpStream) {
        let mut pool = self.shared.pool.lock();
        let conns = pool.entry(addr).or_default();
        if conns.len() < self.shared.config.pool_per_host {
            conns.push(stream);
        }
    }

    /// Advance one ready connection's state machine. Progress moves its
    /// I/O deadline later, past the armed bound: only the end of a
    /// connect, whose deadline may move earlier, arms again.
    fn drive(&mut self, act: Active, mut conn: Conn) {
        let io_deadline = self.poller.now() + self.shared.config.io_timeout;
        match &mut conn.state {
            CState::Connecting { buf } => match sys::take_socket_error(conn.stream.as_raw_fd()) {
                Ok(()) => {
                    conn.state = CState::Sending {
                        buf: std::mem::take(buf),
                        off: 0,
                    };
                    conn.deadline = io_deadline;
                    self.poller.arm(io_deadline);
                    self.active.insert((act, conn));
                }
                Err(e) => self.fail_attempt(act, NetError::Io(e), true),
            },
            CState::Sending { buf, off } => {
                let before = *off;
                match write_pending(&conn.stream, buf, off) {
                    Ok(flushed) => {
                        if flushed || *off > before {
                            conn.deadline = io_deadline;
                        }
                        if flushed {
                            conn.state = CState::Receiving { buf: Vec::new() };
                        }
                        self.active.insert((act, conn));
                    }
                    Err(e) => self.fail_attempt(act, NetError::Io(e), false),
                }
            }
            CState::Receiving { buf } => {
                let eof = match read_available(&conn.stream, buf) {
                    Ok((n, eof)) => {
                        if n > 0 {
                            conn.deadline = io_deadline;
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
                        // Pool *before* completing the ticket so a caller
                        // observing `idle_connections` right after `wait`
                        // returns sees the connection back. Bytes past the
                        // response poison it: it is closed instead.
                        if used == buf.len() {
                            self.return_pooled(act.sub.addr, conn.stream);
                        }
                        self.finish_wire(act, Ok(resp));
                    }
                    Ok(None) if eof => self.fail_attempt(act, NetError::UnexpectedEof, false),
                    Ok(None) => {
                        self.active.insert((act, conn));
                    }
                    Err(e) => self.fail_attempt(act, e, false),
                }
            }
        }
    }

    /// One attempt failed. Transient wire failures burn a transparent
    /// retry on a fresh connection; connect-phase failures and terminal
    /// errors end the wire cycle.
    fn fail_attempt(&mut self, mut act: Active, err: NetError, connect_phase: bool) {
        if !connect_phase {
            act.attempt_span.event(&format!("failed:{}", err.kind()));
        }
        std::mem::replace(&mut act.attempt_span, TraceSpan::noop()).finish();
        if !connect_phase && err.is_transient() && act.attempt < self.shared.config.retries {
            act.attempt += 1;
            self.shared.metrics.note_transparent_retry();
            self.start_attempt(act);
            return;
        }
        self.finish_wire(act, Err(err));
    }

    /// One wire cycle is over: close out spans and metrics, then run the
    /// resilience policy.
    fn finish_wire(&mut self, mut act: Active, wire: Result<Response, NetError>) {
        std::mem::replace(&mut act.attempt_span, TraceSpan::noop()).finish();
        if let Err(e) = &wire {
            act.request_span.event(&format!("error:{}", e.kind()));
        }
        self.shared.metrics.record_request(act.started.elapsed());
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
            .and_then(|resp| decode_response(resp, act.sub.decode));
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
            .and_then(|p| p.delay_for(&err, act.cycles, act.sub.key, act.slept));
        match delay {
            Some(wait) => {
                // Still trying: the breaker only hears about *terminal*
                // outcomes.
                act.request_span
                    .event(&format!("resilient-retry:{}", err.kind()));
                std::mem::replace(&mut act.request_span, TraceSpan::noop()).finish();
                self.shared.resilience.note_retry(wait);
                let until = self.poller.now() + wait;
                self.poller.arm(until);
                self.parked.insert((
                    until,
                    PendingItem {
                        sub: act.sub,
                        cycles: act.cycles + 1,
                        slept: act.slept + wait,
                        owns_lane: true,
                    },
                ));
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

    /// Shutdown: every outstanding ticket completes with an error so no
    /// waiter hangs on a joined driver.
    fn abort_outstanding(&self, inbox: &Inbox<Submission>) {
        let gone = || {
            NetError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                "mux client shut down",
            ))
        };
        let parked = self.parked.iter().map(|(_, (_, item))| item);
        let queued = self.lanes.values().flatten();
        for item in self.pending.iter().chain(parked).chain(queued) {
            item.sub.fail(gone());
        }
        for (_, (act, _)) in self.active.iter() {
            act.sub.fail(gone());
        }
        for sub in inbox.take() {
            sub.fail(gone());
        }
    }
}
