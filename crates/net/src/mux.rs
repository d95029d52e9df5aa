//! The multiplexed nonblocking client engine behind
//! [`HttpClient`](crate::client::HttpClient): one driver thread, one
//! `poll(2)` readiness loop, hundreds of outstanding requests.
//!
//! Every client call is a submission here: callers enqueue a GET with
//! the callback that receives its outcome
//! ([`HttpClient::submit`](crate::client::HttpClient::submit)), while a
//! single driver thread owns every connection in a loop body over the
//! loop core the server shards use (`reactor::io`), and runs each
//! callback once, on itself, when the submission completes: answered,
//! failed, or aborted by its client dropping. A caller blocked in `get`
//! costs a one-shot channel, not a socket-bound thread.
//!
//! Every submission runs one policy inside the driver: circuit-breaker
//! admission at each write, transparent retries of transient
//! connection-level failures, the status/decode seam, retry backoff as
//! *timed resubmission* (the submission parks on a timer instead of a
//! thread sleeping), and terminal breaker accounting. `get`/`get_json`,
//! `submit`/`submit_json` and the crawler's completion loop all ride it.
//!
//! Ordering: submissions to one server sharing a *lane* key form one
//! lane, and an unlaned submission is a lane of its own. A lane is one
//! keep-alive connection with up to [`LANE_DEPTH`] requests written
//! ahead in submission order, and its outcomes apply, and its callbacks
//! run, strictly in that order. A per-market batch reaches its server in
//! the order a sequential loop sends, so seeded faults replay, without a
//! round trip per request.

use crate::client::{ClientConfig, ClientMetrics, FetchSpec};
use crate::error::NetError;
use crate::http::{Request, Response, Status};
use crate::reactor::io::{read_available, write_pending, Inbox, Poller, Slab};
use crate::reactor::sys;
use crate::resilience::{BreakerSet, CircuitBreaker, ResilienceMetrics, RetryPolicy};
use marketscope_core::hash::fnv1a64;
use marketscope_core::json::Json;
use marketscope_telemetry::{SpanContext, TraceSpan, Tracer};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The code that receives one submission's outcome, by the form it
/// takes a 200 answer in.
pub(crate) enum Callback {
    /// The response as it came.
    Response(Box<dyn FnOnce(Result<Response, NetError>) + Send>),
    /// The body decoded as JSON.
    Json(Box<dyn FnOnce(Result<Json, NetError>) + Send>),
}

impl Callback {
    /// Run with `result`, a JSON callback's 200 body decoded first on the
    /// driver. A body that does not decode is counted by kind in
    /// `metrics`; like every protocol error it is terminal and no host
    /// fault, so the breaker has already settled it as the answer it is.
    fn run(self, result: Result<Response, NetError>, metrics: &ClientMetrics) {
        match self {
            Callback::Response(f) => f(result),
            Callback::Json(f) => f(result.and_then(|resp| {
                let doc = decode_json(&resp);
                if let Err(e) = &doc {
                    metrics.note_error(e);
                }
                doc
            })),
        }
    }
}

fn decode_json(resp: &Response) -> Result<Json, NetError> {
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| NetError::Protocol("response body not utf-8"))?;
    Json::parse(text).map_err(|_| NetError::Protocol("response body not valid json"))
}

/// The error a submission gets when its client drops before answering it.
pub(crate) fn shut_down() -> NetError {
    NetError::Io(io::Error::new(
        io::ErrorKind::Interrupted,
        "mux client shut down",
    ))
}

/// One queued GET.
pub(crate) struct Submission {
    addr: SocketAddr,
    req: Request,
    parent: Option<SpanContext>,
    lane: Option<u64>,
    /// Deterministic backoff jitter key (`fnv1a64` of the path).
    key: u64,
    callback: Callback,
}

impl Submission {
    /// The GET `spec` names, answered through `callback`.
    pub(crate) fn get(spec: &FetchSpec, callback: Callback) -> Submission {
        Submission {
            addr: spec.addr,
            req: Request::get(&spec.path),
            parent: spec.parent,
            lane: spec.lane,
            key: fnv1a64(spec.path.as_bytes()),
            callback,
        }
    }

    /// Run the callback with `err`: no driver will run the request.
    pub(crate) fn fail(self, err: NetError, metrics: &ClientMetrics) {
        self.callback.run(Err(err), metrics);
    }
}

/// How many requests one lane keeps written ahead on its keep-alive
/// connection: nearly all of pipelining's gain on loopback (EXPERIMENTS,
/// "Pipelined lanes"), and below the default breaker's
/// `failure_threshold` of 5. A lane writes a follower only while it has
/// fewer requests written and unsettled than its host's closed breaker
/// can fail before opening, and none while it is not closed; its front
/// it may always write, as at depth 1.
pub const LANE_DEPTH: usize = 4;

/// One submission from enqueue to completion.
struct Item {
    sub: Submission,
    /// Submission order within the lane.
    seq: u64,
    /// Transparent attempt counter, bounded by `ClientConfig::retries`.
    attempt: u32,
    /// Resilient-retry cycle counter, and the backoff already paid.
    cycles: u32,
    slept: Duration,
    /// Whether the breaker admitted the current write; a request put back
    /// behind a dead connection is admitted again.
    admitted: bool,
    /// Back from a retry backoff: whether the failure that parked it was
    /// a host fault. A refused re-admission reports it to the breaker,
    /// which then hears how every probe it admitted ended.
    retried_fault: Option<bool>,
    /// Wire-cycle start, for the request-latency histogram.
    started: Instant,
    request_span: TraceSpan,
    attempt_span: TraceSpan,
    /// The current attempt, serialized; empty until a cycle opens.
    bytes: Vec<u8>,
}

/// One ordering lane: the submissions to one server sharing a lane key,
/// or one unlaned submission. They share one connection and settle in
/// `seq` order.
#[derive(Default)]
struct Lane {
    /// Not yet written (or put back), in `seq` order.
    queue: VecDeque<Item>,
    conn: Option<Conn>,
    /// Written on `conn` and unanswered, oldest first.
    wire: VecDeque<Item>,
    /// Wire outcomes waiting on an earlier request's settlement.
    held: BTreeMap<u64, (Item, Result<Response, NetError>)>,
    /// `seq` of the oldest unsettled submission, and of the next one.
    front: u64,
    next_seq: u64,
    /// The front, waiting out a retry backoff until the instant beside it.
    parked: Option<(Instant, Item)>,
}

/// A lane's connection.
struct Conn {
    stream: TcpStream,
    addr: SocketAddr,
    /// `connect(2)` returned `EINPROGRESS`; waiting for `POLLOUT`.
    connecting: bool,
    /// Written requests not yet flushed, and unparsed answer bytes.
    out: Vec<u8>,
    inbuf: Vec<u8>,
    deadline: Instant,
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

impl Shared {
    /// How many requests a lane to `addr` may keep on the wire.
    fn depth(&self, addr: SocketAddr) -> usize {
        self.breakers.as_ref().map_or(LANE_DEPTH, |b| {
            let left = b.for_host(addr).failures_left();
            left.map_or(1, |left| (left as usize).clamp(1, LANE_DEPTH))
        })
    }

    /// Take a live idle connection for `addr`, discarding stale ones: an
    /// idle pooled socket must be silent (a zero-timeout readable poll
    /// means the server closed or corrupted it while pooled).
    fn take_pooled(&self, addr: SocketAddr) -> Option<TcpStream> {
        let mut pool = self.pool.lock();
        let conns = pool.get_mut(&addr)?;
        while let Some(stream) = conns.pop() {
            let probe = sys::poll_one(stream.as_raw_fd(), sys::POLLIN, Some(Duration::ZERO));
            if matches!(probe, Ok(0)) {
                return Some(stream);
            }
        }
        None
    }

    fn return_pooled(&self, conn: Conn) {
        let mut pool = self.pool.lock();
        let conns = pool.entry(conn.addr).or_default();
        if conns.len() < self.config.pool_per_host {
            conns.push(conn.stream);
        }
    }
}

/// Whether a terminal `err` is a sign of host distress: a dead
/// connection or a 5xx answer. A 404 is a definitive answer and a 429
/// means the host is alive enough to throttle us.
fn host_fault(err: &NetError) -> bool {
    err.is_transient()
        || matches!(
            err,
            NetError::Status {
                code: 500..=599,
                ..
            }
        )
}

/// Tell `breaker` how a wire cycle it admitted ended: only host faults
/// push the circuit toward open.
fn settle(breaker: &CircuitBreaker, host_fault: bool) {
    if host_fault {
        breaker.on_failure();
    } else {
        breaker.on_success();
    }
}

/// Put `item` back among its lane's unwritten requests, in `seq` order.
fn requeue(lane: &mut Lane, item: Item) {
    let at = lane.queue.partition_point(|queued| queued.seq < item.seq);
    lane.queue.insert(at, item);
}

/// The driver thread and the inbox it turns on.
pub(crate) type DriverHandle = (JoinHandle<()>, Arc<Inbox<Submission>>);

/// The driver: owns every lane and connection and runs the readiness
/// loop. A lane holds a connection only while it has requests on it.
pub(crate) struct Driver {
    shared: Arc<Shared>,
    /// Armed with every connection deadline and backoff end as it starts.
    poller: Poller,
    lanes: Slab<Lane>,
    /// The live lane of each lane key and server.
    keys: HashMap<(u64, SocketAddr), u64>,
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
                    lanes: Slab::new(),
                    keys: HashMap::new(),
                }
                .run(&theirs)
            })?;
        Ok((handle, inbox))
    }

    fn run(mut self, inbox: &Inbox<Submission>) {
        let mut touched = Vec::new();
        loop {
            for (tok, lane) in self.lanes.iter() {
                if let Some(conn) = &lane.conn {
                    // A connect in progress or unflushed requests: `POLLOUT`.
                    let writing = conn.connecting || !conn.out.is_empty();
                    let events = sys::POLLIN | if writing { sys::POLLOUT } else { 0 };
                    self.poller.watch(conn.stream.as_raw_fd(), events, tok);
                }
            }
            let due = self.poller.turn(inbox);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.abort_outstanding(inbox);
                return;
            }
            while let Some((tok, _)) = self.poller.ready() {
                self.drive(tok);
            }
            for sub in inbox.take() {
                touched.push(self.enqueue(sub));
            }
            if due {
                self.sweep();
            }
            touched.dedup();
            for tok in touched.drain(..) {
                self.pump(tok);
            }
        }
    }

    /// Once the armed bound has passed: kill the connections whose
    /// deadline has passed, and send ended backoffs back to their lane's
    /// queue (where the breaker gets its per-cycle say).
    fn sweep(&mut self) {
        let now = self.poller.now();
        let next = |lane: &Lane| {
            let conn = lane.conn.as_ref().map(|c| c.deadline);
            let parked = lane.parked.as_ref().map(|p| p.0);
            [conn, parked].into_iter().flatten().min()
        };
        for tok in self.poller.expired(&self.lanes, next) {
            let Some(lane) = self.lanes.get_mut(tok) else {
                continue;
            };
            if lane.parked.as_ref().is_some_and(|(until, _)| *until <= now) {
                if let Some((_, item)) = lane.parked.take() {
                    requeue(lane, item);
                }
            }
            if lane.conn.as_ref().is_some_and(|c| c.deadline <= now) {
                let e = io::Error::new(io::ErrorKind::TimedOut, "mux i/o deadline elapsed");
                self.kill(tok, NetError::Io(e));
            }
            self.pump(tok);
        }
    }

    /// Queue `sub` on its lane, opening one if needed; returns the lane.
    fn enqueue(&mut self, sub: Submission) -> u64 {
        let key = sub.lane.map(|lane| (lane, sub.addr));
        let tok = match key.and_then(|key| self.keys.get(&key)) {
            Some(&tok) => tok,
            None => self.lanes.insert(Lane::default()),
        };
        if let Some(key) = key {
            self.keys.insert(key, tok);
        }
        if let Some(lane) = self.lanes.get_mut(tok) {
            lane.queue.push_back(Item {
                sub,
                seq: lane.next_seq,
                attempt: 0,
                cycles: 0,
                slept: Duration::ZERO,
                admitted: false,
                retried_fault: None,
                started: self.poller.now(),
                request_span: TraceSpan::noop(),
                attempt_span: TraceSpan::noop(),
                bytes: Vec::new(),
            });
            lane.next_seq += 1;
        }
        tok
    }

    /// A lane's one step after anything happens to it: settle the held
    /// answers it may, write ahead what it may, flush, and pool or forget
    /// what it no longer needs. The driver holds no cap beyond the lane
    /// depth: callers bound what they put in flight (the crawler's BFS
    /// window and harvest).
    fn pump(&mut self, tok: u64) {
        // Pool an idle connection before held answers run their
        // callbacks, so a caller reading the pool right after `get`
        // returns sees it back.
        self.tidy(tok);
        self.apply_held(tok);
        loop {
            self.write_ahead(tok);
            if self.flush(tok) {
                break;
            }
        }
        self.tidy(tok);
    }

    /// Write queued requests onto the lane's connection while its front
    /// is not parked, each past breaker admission. The front itself may
    /// always go, as at depth 1; a follower only while the lane's written,
    /// unsettled requests (on the wire or held) stay under its depth.
    /// Only the front can be refused: a breaker that is not closed allows
    /// one such request.
    fn write_ahead(&mut self, tok: u64) {
        while let Some(lane) = self.lanes.get_mut(tok) {
            let Some(mut item) = lane.queue.pop_front() else {
                return;
            };
            let (addr, follower) = (item.sub.addr, item.seq != lane.front);
            let unsettled = lane.wire.len() + lane.held.len();
            if lane.parked.is_some() || (follower && unsettled >= self.shared.depth(addr)) {
                return lane.queue.push_front(item);
            }
            if !item.admitted {
                let breaker = self.shared.breakers.as_ref().map(|b| b.for_host(addr));
                if breaker.as_ref().is_some_and(|b| !b.admit()) {
                    // A request back from a backoff may be a half-open
                    // probe whose retries spent the probe slots: its last
                    // failure settles the circuit, which would otherwise
                    // wait on it for good.
                    if let (Some(b), Some(fault)) = (&breaker, item.retried_fault) {
                        settle(b, fault);
                    }
                    let err = NetError::CircuitOpen;
                    self.shared.metrics.note_error(&err);
                    self.complete(tok, item.sub, Err(err));
                    self.apply_held(tok);
                    continue;
                }
                item.admitted = true;
            }
            if item.bytes.is_empty() {
                self.open_cycle(&mut item);
            }
            if let Err(e) = self.attach(tok, addr) {
                self.fail_attempt(tok, item, e, true);
                continue;
            }
            if let Some(lane) = self.lanes.get_mut(tok) {
                if let Some(conn) = lane.conn.as_mut() {
                    conn.out.extend_from_slice(&item.bytes);
                }
                lane.wire.push_back(item);
            }
        }
    }

    /// A fresh wire cycle: its request span (text built only under a
    /// sampled parent), its clock, and its first attempt.
    fn open_cycle(&self, item: &mut Item) {
        item.request_span = match item.sub.parent {
            Some(parent) => self.shared.tracer.child_of(
                Some(parent),
                "client",
                &format!("{} {}", item.sub.req.method.as_str(), item.sub.req.path),
            ),
            None => TraceSpan::noop(),
        };
        item.started = Instant::now();
        self.open_attempt(item);
    }

    /// Open the attempt span and serialize the request with this
    /// attempt's trace context.
    fn open_attempt(&self, item: &mut Item) {
        let attempt_span = match item.request_span.context() {
            Some(request) => self.shared.tracer.child_of(
                Some(request),
                "client",
                &format!("attempt#{}", item.attempt),
            ),
            None => TraceSpan::noop(),
        };
        if item.attempt > 0 {
            attempt_span.event("retry");
        }
        item.attempt_span = attempt_span;
        let wire_req = match item.attempt_span.context() {
            Some(ctx) => item.sub.req.with_trace_context(ctx),
            None => item.sub.req.clone(),
        };
        item.bytes.clear();
        // Writing to a Vec cannot fail.
        let _ = wire_req.write_to(&mut item.bytes);
    }

    /// Give the lane a connection to `addr` if it has none: a pooled one
    /// first, else a nonblocking connect.
    fn attach(&mut self, tok: u64, addr: SocketAddr) -> Result<(), NetError> {
        let Some(lane) = self.lanes.get_mut(tok).filter(|lane| lane.conn.is_none()) else {
            return Ok(());
        };
        let (stream, connecting) = match self.shared.take_pooled(addr) {
            Some(stream) => (stream, false),
            None => {
                let (stream, established) = sys::connect_nonblocking(&addr)?;
                stream.set_nodelay(true)?;
                (stream, !established)
            }
        };
        let config = &self.shared.config;
        let timeout = if connecting {
            config.connect_timeout
        } else {
            config.io_timeout
        };
        let deadline = self.poller.now() + timeout;
        self.poller.arm(deadline);
        lane.conn = Some(Conn {
            stream,
            addr,
            connecting,
            out: Vec::new(),
            inbuf: Vec::new(),
            deadline,
        });
        Ok(())
    }

    /// Push the lane's unflushed requests; `false` when that killed its
    /// connection. Progress moves the deadline later, past the armed bound.
    fn flush(&mut self, tok: u64) -> bool {
        let io_deadline = self.poller.now() + self.shared.config.io_timeout;
        let Some(conn) = self.lanes.get_mut(tok).and_then(|lane| lane.conn.as_mut()) else {
            return true;
        };
        if conn.connecting || conn.out.is_empty() {
            return true;
        }
        let mut off = 0;
        match write_pending(&conn.stream, &conn.out, &mut off) {
            Ok(_) => {
                if off > 0 {
                    conn.deadline = io_deadline;
                }
                conn.out.drain(..off);
                true
            }
            Err(e) => {
                self.kill(tok, NetError::Io(e));
                false
            }
        }
    }

    /// Advance one ready lane connection: finish its connect (whose
    /// deadline may move earlier, so it arms again), or flush and read.
    fn drive(&mut self, tok: u64) {
        let io_deadline = self.poller.now() + self.shared.config.io_timeout;
        let Some(conn) = self.lanes.get_mut(tok).and_then(|lane| lane.conn.as_mut()) else {
            return;
        };
        if conn.connecting {
            match sys::take_socket_error(conn.stream.as_raw_fd()) {
                Ok(()) => {
                    conn.connecting = false;
                    conn.deadline = io_deadline;
                    self.poller.arm(io_deadline);
                }
                Err(e) => self.kill(tok, NetError::Io(e)),
            }
        } else if self.flush(tok) {
            self.read(tok, io_deadline);
        }
        self.pump(tok);
    }

    /// Read what arrived. Each complete response answers the oldest
    /// written request, and the bytes after it belong to the next one.
    fn read(&mut self, tok: u64, io_deadline: Instant) {
        let Some(lane) = self.lanes.get_mut(tok) else {
            return;
        };
        let Some(conn) = lane.conn.as_mut() else {
            return;
        };
        let eof = match read_available(&conn.stream, &mut conn.inbuf) {
            Ok((n, eof)) => {
                if n > 0 {
                    conn.deadline = io_deadline;
                }
                eof
            }
            Err(e) => return self.kill(tok, NetError::Io(e)),
        };
        while !lane.wire.is_empty() {
            match Response::parse_partial(&conn.inbuf) {
                Ok(Some((resp, used))) => {
                    conn.inbuf.drain(..used);
                    if let Some(item) = lane.wire.pop_front() {
                        lane.held.insert(item.seq, (item, Ok(resp)));
                    }
                }
                Ok(None) if eof => return self.kill(tok, NetError::UnexpectedEof),
                Ok(None) => return,
                Err(e) => return self.kill(tok, e),
            }
        }
        // A closed peer, or bytes no request waits for: it is done.
        if eof || !conn.inbuf.is_empty() {
            lane.conn = None;
        }
    }

    /// The lane's connection died under `err`. Only its oldest written
    /// request is charged; the server decided none behind it, so those
    /// go back to the queue as the same attempts.
    fn kill(&mut self, tok: u64, err: NetError) {
        let Some(lane) = self.lanes.get_mut(tok) else {
            return;
        };
        let connect_phase = lane.conn.take().is_some_and(|c| c.connecting);
        let mut wire = std::mem::take(&mut lane.wire).into_iter();
        let Some(front) = wire.next() else {
            return;
        };
        for mut item in wire {
            item.admitted = false;
            requeue(lane, item);
        }
        self.fail_attempt(tok, front, err, connect_phase);
    }

    /// One attempt failed. Transient wire failures burn a transparent
    /// retry on a fresh connection; connect-phase failures and terminal
    /// errors end the wire cycle.
    fn fail_attempt(&mut self, tok: u64, mut item: Item, err: NetError, connect_phase: bool) {
        if !connect_phase {
            item.attempt_span.event(&format!("failed:{}", err.kind()));
        }
        std::mem::replace(&mut item.attempt_span, TraceSpan::noop()).finish();
        let retry = !connect_phase && err.is_transient();
        if retry && item.attempt < self.shared.config.retries {
            item.attempt += 1;
            self.shared.metrics.note_transparent_retry();
            self.open_attempt(&mut item);
            if let Some(lane) = self.lanes.get_mut(tok) {
                requeue(lane, item);
            }
        } else if let Some(lane) = self.lanes.get_mut(tok) {
            lane.held.insert(item.seq, (item, Err(err)));
            self.apply_held(tok);
        }
    }

    /// Settle the lane's held wire outcomes in `seq` order, for as long
    /// as the front's is among them.
    fn apply_held(&mut self, tok: u64) {
        while let Some(lane) = self.lanes.get_mut(tok) {
            let Some((item, wire)) = lane.held.remove(&lane.front) else {
                return;
            };
            self.finish_wire(tok, item, wire);
        }
    }

    /// The front's wire cycle is over: close out spans and metrics, then
    /// run the resilience policy.
    fn finish_wire(&mut self, tok: u64, mut item: Item, wire: Result<Response, NetError>) {
        std::mem::replace(&mut item.attempt_span, TraceSpan::noop()).finish();
        if let Err(e) = &wire {
            item.request_span.event(&format!("error:{}", e.kind()));
        }
        self.shared.metrics.record_request(item.started.elapsed());
        // The status seam; a JSON callback's body decodes as it runs.
        let result = wire.and_then(|resp| {
            if resp.status == Status::Ok {
                Ok(resp)
            } else {
                Err(NetError::Status {
                    code: resp.status.code(),
                    retry_after: resp.retry_after(),
                })
            }
        });
        let breaker = self
            .shared
            .breakers
            .as_ref()
            .map(|b| b.for_host(item.sub.addr));
        let err = match result {
            Ok(resp) => {
                std::mem::replace(&mut item.request_span, TraceSpan::noop()).finish();
                if let Some(b) = &breaker {
                    b.on_success();
                }
                self.complete(tok, item.sub, Ok(resp));
                return;
            }
            Err(e) => e,
        };
        // Wire errors and the status errors minted above all land here
        // exactly once.
        self.shared.metrics.note_error(&err);
        let delay = self
            .shared
            .retry
            .as_ref()
            .and_then(|p| p.delay_for(&err, item.cycles, item.sub.key, item.slept));
        match delay {
            Some(wait) => {
                // Still trying: the breaker only hears about *terminal*
                // outcomes.
                item.request_span
                    .event(&format!("resilient-retry:{}", err.kind()));
                std::mem::replace(&mut item.request_span, TraceSpan::noop()).finish();
                self.shared.resilience.note_retry(wait);
                let until = self.poller.now() + wait;
                self.poller.arm(until);
                item.cycles += 1;
                item.slept += wait;
                item.attempt = 0;
                item.admitted = false;
                item.retried_fault = Some(host_fault(&err));
                item.bytes.clear();
                if let Some(lane) = self.lanes.get_mut(tok) {
                    lane.parked = Some((until, item));
                }
            }
            None => {
                std::mem::replace(&mut item.request_span, TraceSpan::noop()).finish();
                if let Some(b) = &breaker {
                    settle(b, host_fault(&err));
                }
                self.complete(tok, item.sub, Err(err));
            }
        }
    }

    /// Run the callback: the lane's next request becomes its front.
    fn complete(&mut self, tok: u64, sub: Submission, result: Result<Response, NetError>) {
        if let Some(lane) = self.lanes.get_mut(tok) {
            lane.front += 1;
        }
        sub.callback.run(result, &self.shared.metrics);
    }

    /// Pool the connection of a lane with nothing on the wire and nothing
    /// it may write; forget a lane with nothing left.
    fn tidy(&mut self, tok: u64) {
        let Some(lane) = self.lanes.get_mut(tok).filter(|lane| lane.wire.is_empty()) else {
            return;
        };
        if lane.queue.is_empty() || lane.parked.is_some() {
            if let Some(conn) = lane.conn.take() {
                self.shared.return_pooled(conn);
            }
        }
        if lane.queue.is_empty() && lane.held.is_empty() && lane.parked.is_none() {
            self.keys.retain(|_, lane| *lane != tok);
            self.lanes.remove(tok);
        }
    }

    /// Shutdown: every outstanding callback runs with an error, so no
    /// waiter hangs on a joined driver.
    fn abort_outstanding(&mut self, inbox: &Inbox<Submission>) {
        let metrics = &self.shared.metrics;
        let tokens: Vec<u64> = self.lanes.iter().map(|(tok, _)| tok).collect();
        for lane in tokens.into_iter().filter_map(|tok| self.lanes.remove(tok)) {
            let held = lane.held.into_values().map(|(item, _)| item);
            let parked = lane.parked.into_iter().map(|(_, item)| item);
            let unwritten = lane.queue.into_iter().chain(lane.wire);
            for item in unwritten.chain(held).chain(parked) {
                item.sub.fail(shut_down(), metrics);
            }
        }
        for sub in inbox.take() {
            sub.fail(shut_down(), metrics);
        }
    }
}
