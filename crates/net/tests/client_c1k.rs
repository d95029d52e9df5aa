//! The client-side C1k acceptance test for the multiplexed
//! submit/complete driver: one driver thread, hundreds of requests in
//! flight at once, a constant process thread count.
//!
//! The blocking client surface used to bound crawl fan-out by caller
//! threads — every outstanding request parked a thread. The mux driver
//! replaces that with per-connection state machines on one readiness
//! loop, so in-flight capacity is bounded by sockets. Proved end to end
//! here: submit 768 requests against a gated server (its handler
//! answers nothing until released), hold them all in flight until the
//! server reports >= 512 open connections, and read the process thread
//! count from `/proc/self/status` — it must not have grown by even one.
//! Then the gate opens and every ticket must still redeem cleanly.

use marketscope_net::{
    ClientConfig, HttpClient, HttpServer, ReactorConfig, Request, Response, ServerMetrics,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Requests submitted without waiting on any of them.
const SUBMITTED: usize = 768;

/// The acceptance bar: connections the server must see held open at
/// once (each in-flight request pins its own socket — nothing completes
/// while the gate is shut, so nothing is pooled or reused).
const BAR: u64 = 512;

/// A latch the server's handler blocks on: while shut, every dispatched
/// request parks in the handler (or queues behind it) and its
/// connection stays open.
struct Gate {
    open: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    fn shut(&self) {
        *self.open.lock().unwrap() = false;
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.released.notify_all();
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.released.wait(open).unwrap();
        }
    }
}

fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn hundreds_in_flight_on_one_driver_thread() {
    let gate = Arc::new(Gate {
        open: Mutex::new(true),
        released: Condvar::new(),
    });
    let handler = {
        let gate = Arc::clone(&gate);
        move |_req: &Request| {
            gate.pass();
            Response::ok("text/plain", b"ok".to_vec())
        }
    };
    let server = HttpServer::spawn_configured(
        "127.0.0.1:0",
        handler,
        ServerMetrics::standalone(),
        None,
        ReactorConfig {
            max_connections: 4096,
            ..ReactorConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.addr();

    let client = HttpClient::builder()
        .config(ClientConfig {
            retries: 0,
            connect_timeout: Duration::from_secs(20),
            io_timeout: Duration::from_secs(60),
            ..ClientConfig::default()
        })
        .build();

    // Warm up through the open gate: proves the plumbing works and
    // forces the lazily spawned driver thread into existence *before*
    // the thread-count snapshot.
    let resp = client.get(addr, "/warmup").expect("warmup");
    assert_eq!(resp.status.code(), 200);

    gate.shut();
    let threads_before =
        marketscope_telemetry::perf::thread_count().expect("read /proc/self/status");

    let tickets: Vec<_> = (0..SUBMITTED)
        .map(|i| client.submit(addr, &Request::get(&format!("/held/{i}"))))
        .collect();

    assert!(
        wait_until(|| server.live_connections() >= BAR),
        "held {} connections, wanted >= {BAR}",
        server.live_connections()
    );
    // The whole fan-out is airborne. Not one thread was added for it:
    // not by the client (one pre-existing driver), not by the server
    // (fixed reactor complement).
    let threads_during =
        marketscope_telemetry::perf::thread_count().expect("read /proc/self/status");
    assert_eq!(
        threads_before, threads_during,
        "thread count grew under {SUBMITTED} in-flight requests"
    );

    gate.release();
    for ticket in tickets {
        let resp = client.wait(ticket).expect("gated request");
        assert_eq!(resp.status.code(), 200);
    }
}
