//! # qca-serve — adaptation as a service
//!
//! A dependency-free HTTP/1.1 server (plain `std::net`) that fronts the
//! [`qca-engine`](qca_engine) worker pool, turning the batch-oriented
//! adaptation engine into a long-running service with:
//!
//! * **admission control** — a bounded submission queue; when it is full,
//!   requests are answered `429 Too Many Requests` with `Retry-After`
//!   *immediately* instead of queueing without bound or blocking the
//!   acceptor,
//! * **request deadlines** — `?deadline_ms=` maps onto a deterministic
//!   conflict budget plus a watchdog-armed cancellation flag, so an
//!   expired deadline degrades the answer (best incumbent or fallback,
//!   `optimal=false`) rather than erroring,
//! * **live drain** — on shutdown the server stops accepting, finishes
//!   every admitted job, then flushes metrics; nothing in flight is lost,
//! * **per-request tracing** — `?trace=1` records the request's full span
//!   forest (HTTP layer and engine alike), retrievable as JSONL from
//!   `GET /v1/trace/:id`.
//!
//! The crate ships two binaries: `qca-serve` (the server) and `qca-load`
//! (a keep-alive load generator with latency percentiles, also used by the
//! CI smoke gate). See the `README.md` "Serving" section for a quickstart
//! and `DESIGN.md` for the admission-control/drain state machine.
//!
//! | Module | Purpose |
//! |--------|---------|
//! | [`http`] | Incremental HTTP/1.1 request parser + response writer |
//! | [`poller`] | Readiness polling (epoll / `poll(2)`) + self-pipe waker |
//! | [`server`] | Event loop, routing, admission control, sharding, drain |
//! | [`json`] | Hand-rolled JSON rendering of reports and errors |
//! | [`client`] | Minimal blocking HTTP client (powers `qca-load`) |

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod poller;
pub mod server;

pub use client::{ClientError, Connection, HttpResponse};
pub use http::{ParseError, Request, RequestParser, Response};
pub use server::{ServeConfig, Server};
