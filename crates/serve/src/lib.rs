//! `tssa-serve`: a concurrent inference service over the TensorSSA
//! compilation pipelines.
//!
//! The compiler stack in this repository answers "how fast is one program,
//! compiled one way, run once?". This crate answers the production question
//! layered on top: many clients, many programs, one machine. It is built
//! from five cooperating parts:
//!
//! 1. **Plan cache** ([`PlanCache`]) — one table of shape classes
//!    ([`ClassEntry`]): every compiled plan serves each concrete signature
//!    its certified class admits, under one LRU bound and single-flight
//!    compilation so a thundering herd on a cold model compiles exactly
//!    once.
//! 2. **Dynamic batcher** (the request queue inside [`Service`]) — a free
//!    worker takes the oldest queued request together with every queued
//!    request for the same plan that can share its execution, up to
//!    `max_batch`. No request waits for company while a worker is idle;
//!    requests coalesce while every worker is busy. The [`BatchSpec`]
//!    contract ([`ArgRole::Stacked`] / [`ArgRole::Shared`]) makes
//!    coalescing sound, and bit-for-bit exact for models elementwise over
//!    the batch dimension.
//! 3. **Worker pool** — N executor threads take and run batches, each
//!    holding its own [`tssa_backend::ExecStats`] aggregate (reported by
//!    [`Service::shutdown`]); [`Service::grow`] and [`Service::shrink`]
//!    resize the pool.
//! 4. **Admission & metrics** — bounded-queue backpressure that sheds with
//!    typed [`ServeError`]s instead of blocking or dropping. Every series
//!    the service records — request and recovery counters, the latency,
//!    queue-wait and per-plan `tssa_batch_occupancy{plan=...}` histograms —
//!    lives in one [`MetricsRegistry`] ([`ServeConfig::with_registry`]);
//!    [`Service::metrics`] reads it back as a typed [`MetricsSnapshot`]
//!    (throughput, fixed-bucket latency quantiles, cache and
//!    batch-occupancy counters) and [`Service::prometheus`] renders it as
//!    one consolidated exposition.
//! 5. **Fault tolerance** ([`fault`], plus the recovery paths in
//!    [`pool`]) — a worker that panics mid-batch retries the batch it
//!    owns exactly once on its own thread, then fails it `Canceled`, and
//!    keeps serving; deadline-carrying waiters time out with
//!    [`ServeError::Timeout`] instead of hanging. Queue
//!    pressure is answered by adding workers ([`Service::grow`]), not by
//!    changing the plan a request runs. All of it is exercised
//!    deterministically by seeded [`FaultPlan`] schedules
//!    ([`ServeConfig::with_faults`]) — zero-cost when disabled.
//!
//! Install a [`Tracer`] with [`ServeConfig::with_tracer`] and every request
//! leaves a span tree — `request` → `queue`/`batch` → `exec` → `batch[i]`,
//! and `request:load` → `compile:<pipeline>` → `pass:*` on the load path —
//! exportable as Chrome-trace JSON ([`tssa_obs::chrome_trace_json`]).
//!
//! # Examples
//!
//! ```
//! use tssa_serve::{ArgRole, BatchSpec, PipelineKind, ServeConfig, Service};
//! use tssa_backend::RtValue;
//! use tssa_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Service::new(ServeConfig::default().with_workers(2));
//! let source = "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";
//! let example = [RtValue::Tensor(Tensor::ones(&[2, 4]))];
//! let model = service
//!     .loader(source)
//!     .pipeline(PipelineKind::TensorSsa)
//!     .example(&example)
//!     .batch(BatchSpec::stacked(1, 1))
//!     .load()?;
//! let ticket = service.submit(&model, example.to_vec())?;
//! let response = ticket.wait()?;
//! assert_eq!(response.outputs[0].as_tensor()?.shape(), &[2, 4]);
//! let report = service.shutdown();
//! assert_eq!(report.metrics.completed, 1);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod batch;
mod cache;
mod class;
mod config;
mod error;
mod fault;
mod loader;
mod metrics;
mod pool;
mod queue;
mod service;
mod ticket;

pub use batch::{ArgRole, BatchSpec};
pub use cache::{signature_of, ArgSig, CacheStats, PlanCache};
pub use class::{coarse_class_hash, ArgKey, ClassEntry, ClassSignature, PlanClassKey};
pub use config::ServeConfig;
pub use error::ServeError;
pub use fault::{silence_injected_panics_for_tests, FaultKind, FaultPlan, Faults, INJECTED_PANIC};
pub use loader::{ModelHandle, ModelLoader};
pub use metrics::MetricsSnapshot;
pub use service::{PoolReport, Service};
pub use ticket::{Response, Ticket};
// Re-exported so loaders can pick a pipeline without naming
// `tssa-pipelines`, which owns the one list of them.
pub use tssa_pipelines::PipelineKind;
// Re-exported so warm-restart callers can open a store and read its stats
// without naming `tssa-store`.
pub use tssa_store::{PlanStore, StoreStats};
// Re-exported so callers can configure tracing and metrics without naming
// `tssa-obs`.
pub use tssa_obs::{
    MetricsRegistry, ProfileSnapshot, Profiler, RingSink, Sampler, SamplerStats, StreamSink,
    TraceSink, Tracer,
};

// The service moves plans, tensors and tickets across threads; these
// assertions pin the Send + Sync guarantees at compile time so a future
// `Rc`/`RefCell` creeping into the graph or tensor stack fails loudly here
// rather than racing at runtime.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<tssa_pipelines::CompiledProgram>();
    assert_send_sync::<tssa_ir::Graph>();
    assert_send_sync::<tssa_tensor::Tensor>();
    assert_send_sync::<tssa_backend::RtValue>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<ClassEntry>();
    assert_send_sync::<Service>();
    assert_send_sync::<Ticket>();
    assert_send_sync::<ModelHandle>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<Faults>();
    assert_send_sync::<FaultPlan>();
};
