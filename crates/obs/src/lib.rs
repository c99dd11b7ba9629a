//! `tssa-obs`: end-to-end tracing and profiling for the TensorSSA stack.
//!
//! Every layer of the repository does timed work — the pipelines compile
//! (per-pass), the fusion passes rewrite, the backend executes (per-batch),
//! the serving layer queues and coalesces (per-request) — and this crate is
//! the one vocabulary they all speak:
//!
//! * [`Tracer`] / [`Span`] / [`TraceScope`] — hierarchical wall-clock spans
//!   with attached counters (graph deltas, fusion groups, kernel launches,
//!   batch occupancy). Spans are owned values, so a serve request span can
//!   be opened at admission on one thread and finished by the worker that
//!   completed it.
//! * [`TraceSink`] — where finished spans go. [`RingSink`] (bounded, most
//!   recent N) is the default for tests and ad-hoc profiling;
//!   [`StreamSink`] writes NDJSON spans to any `io::Write` for long chaos
//!   and load runs; [`Tracer::disabled`] records into nothing, so untraced
//!   paths cost one branch.
//! * [`Sampler`] / [`Tracer::sampled`] — always-on production tracing:
//!   seeded head-sampling by trace root plus tail-keep rules that always
//!   retain errored and fault-marked traces.
//! * [`MetricsRegistry`] — process-wide counters, gauges and labeled
//!   histograms that every layer (serve, plan cache, `PassManager`)
//!   registers into, rendered as one consolidated Prometheus exposition.
//! * [`chrome_trace_json`] — exports any span set as Chrome-trace JSON for
//!   `chrome://tracing` / Perfetto; [`text_tree`] renders the same tree for
//!   terminals and docs.
//! * [`json`] — the workspace's one JSON reader: a pull [`json::Cursor`]
//!   that the `/v1/infer` decoder walks, and [`json::parse`], the value
//!   tree built on it that the harness and the suites read results with.
//!
//! # Examples
//!
//! ```
//! use tssa_obs::{chrome_trace_json, Tracer};
//!
//! let (tracer, sink) = Tracer::ring(1024);
//! let mut compile = tracer.root("compile", "compile");
//! {
//!     let mut pass = compile.child("pass:dce", "pass");
//!     pass.counter("rewrites", 2);
//! } // recorded on drop
//! compile.counter("nodes_removed", 2);
//! compile.finish();
//!
//! let records = sink.snapshot();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[1].parent, Some(records[0].id));
//! let json = chrome_trace_json(&records);
//! assert!(tssa_obs::json::parse(&json).is_ok());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod chrome;
pub mod json;
mod profile;
mod prom;
mod registry;
mod rotate;
mod sample;
mod sink;
mod span;
mod stream;

pub use chrome::{chrome_trace_json, text_tree};
pub use profile::{
    group_frame, GroupHotness, OpKey, OpStat, ProfileSink, ProfileSnapshot, Profiler,
    TOP_LEVEL_GROUP,
};
pub use registry::{Counter, Gauge, HistogramMetric, MetricsRegistry};
pub use rotate::RotatingFile;
pub use sample::{Sampler, SamplerStats, DEFAULT_KEEP_MARKS};
pub use sink::{RingSink, TraceSink};
pub use span::{Span, SpanRecord, TraceScope, Tracer};
pub use stream::StreamSink;

/// Every lock in this crate is taken here and recovers from poison, so a
/// thread that panics holding one leaves it working for every later caller.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// Spans cross thread boundaries by design (serve opens them at admission
// and finishes them on workers); pin that contract at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Tracer>();
    assert_send_sync::<Span>();
    assert_send_sync::<TraceScope>();
    assert_send_sync::<RingSink>();
    assert_send_sync::<StreamSink<Vec<u8>>>();
    assert_send_sync::<SpanRecord>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<HistogramMetric>();
    assert_send_sync::<Profiler>();
    assert_send_sync::<ProfileSink>();
};
