//! `blob-serve`: the long-running offload-advisor service.
//!
//! The CLI answers one question per process; this crate keeps the advisor
//! resident so a cluster scheduler (or a curious user with `curl`) can ask
//! "should this GEMM go to the GPU on this system?" at interactive
//! latency, with repeated threshold sweeps served from a cache.
//!
//! Like the rest of the workspace it has **zero dependencies**: the
//! HTTP/1.1 layer ([`http`]), the sharded LRU cache ([`cache`]), the
//! metrics registry ([`metrics`]) and the JSON wire format
//! ([`blob_core::wire`]) are all hand-rolled on `std`.
//!
//! Layering:
//!
//! - [`http`] — transport: byte streams in, [`http::Request`] out,
//!   [`http::Response`] back, with hard limits and timeouts
//! - [`api`] — the versioned (`/v1/`) endpoints, pure `Request →
//!   Response` (no sockets)
//! - [`envelope`] — the uniform JSON error envelope and its stable
//!   error-code vocabulary; every response carries an `X-Blob-Trace` id
//! - [`cache`] / [`metrics`] — shared state behind the API
//! - [`server`] — the TCP accept loop and worker pool tying it together
//! - [`fabric`] — the sharded serve fabric: a consistent-hash shard
//!   router with replica health, hedged requests, and zero-loss failover
//!   over N backend worker processes

pub mod api;
pub mod cache;
pub mod envelope;
pub mod fabric;
pub mod http;
pub mod metrics;
pub mod server;

pub use api::App;
pub use fabric::{Fabric, Router, RouterConfig};
pub use server::{Config, Handler, Server};
