//! # pkgrec-serve — the fault-tolerant resident recommendation service
//!
//! The paper's complexity results justify a *compile once, probe many,
//! solve many* architecture: query compilation and item-pool
//! materialization are the polynomial, cacheable part of every
//! recommendation problem, while the exponential part (the
//! package-space walk) is the thing budgets make interruptible. This
//! crate turns that split into a server:
//!
//! * databases are loaded once and stay resident ([`Service`]);
//! * prepared instances — compiled `Q`/`Qc` plans plus the
//!   materialized item pool — are cached per `(db, query, parameters)`
//!   key and shared across requests and worker threads;
//! * every request runs under its own [`Budget`](pkgrec_core::Budget):
//!   a deadline that trips mid-search degrades gracefully to the
//!   solver's best-so-far anytime outcome, reported as
//!   `"exact": false` with the interruption cause and the live
//!   progress estimate.
//!
//! The failure model is defense in depth (see DESIGN.md §12):
//! malformed input is rejected by total, typed parsers
//! ([`request`]); solver worker panics surface as typed
//! `WorkerPanic` errors from the engines themselves; anything that
//! still unwinds is contained per-request by the server's
//! `catch_unwind` fence ([`server`]); and overload is shed at
//! admission with a typed `overloaded` response rather than by
//! letting latency collapse. The deterministic chaos harness
//! ([`pkgrec_trace::chaos`]) injects panics, delays and connection
//! drops at probe sites to prove each fence holds.
//!
//! The wire protocol is deliberately small: HTTP/1.1 over
//! [`std::net`] with JSON bodies ([`http`]), hand-rolled like every
//! other layer of the stack — the crate adds zero dependencies.

pub mod access_log;
pub mod http;
pub mod request;
pub mod server;
pub mod service;

pub use access_log::AccessLog;
pub use http::{Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
pub use request::{parse_solve_request, Answer, ProblemKind, RequestError, SolveRequest};
pub use server::{start, ServerConfig, ServerHandle};
pub use service::{Metrics, RequestCtx, ServeError, Service, ServiceConfig};
