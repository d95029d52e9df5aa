//! # marketscope-net
//!
//! The networking substrate: a deliberately small HTTP/1.1 subset over
//! nonblocking `std::net::TcpStream`s.
//!
//! The paper's crawl is loopback-scale for us (simulated market servers on
//! `127.0.0.1`), but fleet monitoring at market scale is bounded by how
//! many connections the infrastructure can hold open. The server side is
//! therefore an event loop ([`reactor`]): nonblocking sockets multiplexed
//! by `poll(2)` across a fixed set of shard threads, each of which runs
//! the [`Handler`](server::Handler) of every request it parses —
//! C10k-scale concurrency at a constant thread count, with no async
//! runtime. The client side mirrors it: a multiplexed submit/complete
//! engine ([`mux`]) where one driver thread owns every connection as a
//! nonblocking state machine and every [`HttpClient`] call is a
//! submission to it that carries the callback receiving its outcome (the
//! blocking forms just wait on a one-shot channel), so crawl fan-out is
//! bounded by sockets, not threads. A caller driving many submissions at
//! once has each callback send to one channel and waits on that for
//! whichever finishes first. The transport's loop (acceptor and shards)
//! and the driver are two loop bodies over one loop core: one `poll`
//! turn, one slot table, one deadline bound and one clock read.
//!
//! Protocol subset: `GET` (all the client sends; servers also answer
//! `POST`), `Content-Length` bodies (no chunked encoding),
//! `Connection: keep-alive`/`close`, status codes the market simulation
//! needs (200, 400, 404, 429, 500, 503). The parser is total
//! and size-capped so a misbehaving peer cannot wedge or balloon a
//! shard.
//!
//! Robustness is first-class: servers can wrap their connection handling
//! in a seeded [`FaultPlan`] (resets, stalls, truncated bodies, 5xx
//! bursts, downtime windows — see [`fault`]), and clients counter with a
//! [`RetryPolicy`] plus per-host circuit breaking (see [`resilience`]),
//! both deterministic so chaos campaigns replay exactly.
//!
//! Every component is instrumented with `marketscope-telemetry`: servers
//! count requests per status and time handlers ([`ServerMetrics`]),
//! and clients record request latency, retries and errors by kind
//! ([`ClientMetrics`]). Recording is lock-free; attaching
//! instruments to a shared [`Registry`](marketscope_telemetry::Registry)
//! makes them scrapeable.

// Unsafe is denied everywhere except the one scoped `poll(2)` syscall
// shim in `reactor::sys`, which opts back in explicitly.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod http;
pub mod mux;
pub mod reactor;
pub mod resilience;
pub mod server;

pub use client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient, HttpClientBuilder};
pub use error::NetError;
pub use fault::{FaultInjector, FaultPlan};
pub use http::{Method, Request, Response, Status};
pub use reactor::{ReactorConfig, Transport};
pub use resilience::{BreakerConfig, BreakerSet, ResilienceMetrics, RetryPolicy};
pub use server::{HttpServer, ServerHandle, ServerMetrics};
