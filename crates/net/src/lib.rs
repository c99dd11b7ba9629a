//! `tssa-net`: the network front-end for [`tssa_serve`].
//!
//! `tssa-serve` answers "many clients, many programs, one machine" for
//! in-process callers. This crate puts that service on a TCP port and
//! closes the remaining production loops, using nothing beyond `std::net`:
//!
//! 1. **HTTP edge** ([`http`], [`server`]) — a minimal HTTP/1.1
//!    implementation (request framing with hard size limits, keep-alive,
//!    chunked responses cut at line boundaries) under a thread-per-
//!    connection gateway with a bounded connection count. Backpressure
//!    composes: connection cap at the edge, bounded admission in the
//!    service, typed sheds all the way out (429/503/504 with JSON bodies).
//! 2. **Wire format** ([`wire`]) — JSON (or negotiated binary) requests and
//!    responses through a typed single-pass tensor codec, with a stable
//!    machine-readable error `kind` per [`tssa_serve::ServeError`] variant.
//! 3. **Autoscaling** ([`Autoscaler`]) — a controller that reads the live
//!    `tssa_queue_wait_us` histogram from the shared
//!    [`MetricsRegistry`](tssa_obs::MetricsRegistry), computes windowed
//!    p99 queue wait by diffing cumulative buckets tick over tick, and
//!    grows or shrinks the service's worker pool between configured
//!    bounds with hysteresis and cooldown.
//!
//! The `tssa-serve-bin` binary wires all three together behind SIGTERM-
//! driven graceful drain; `GET /metrics` exposes the whole stack —
//! service, gateway, autoscaler — as one Prometheus exposition.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod autoscale;
pub mod http;
mod server;
pub mod wire;

pub use autoscale::{AutoscaleConfig, Autoscaler};
pub use http::{HttpError, HttpRequest, HttpResponse, Limits};
pub use server::{roundtrip, Gateway, GatewayConfig};
pub use wire::{
    encode_error_binary, encode_infer_request, encode_infer_request_binary, encode_response,
    encode_response_binary, parse_infer, parse_infer_binary, parse_response_binary, BinaryReply,
    InferRequest, BINARY_CONTENT_TYPE,
};
