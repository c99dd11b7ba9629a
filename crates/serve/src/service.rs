//! The serving engine: bounded admission into one request queue, and a
//! pool of executor workers that each take their own batch from it and
//! recover from their own panics.
//!
//! ```text
//!  submit() ──push──▶ [request queue] ──take──▶ worker 0 ──▶ stack → run → split
//!     │                (bounded, FIFO)  ──take──▶ worker 1     (a panic retries the
//!     └─▶ ServeError::QueueFull on overflow          ...        batch once, on the
//!                                                                same thread)
//! ```
//!
//! A take is the oldest queued request plus every queued request that can
//! share its execution (same plan, same [`crate::BatchSpec`], compatible inputs),
//! up to `max_batch`. Batching is work-conserving: a free worker never
//! waits for company. Requests coalesce only while every worker is busy,
//! and the next worker to come free takes them together.
//!
//! Every accepted request terminates in exactly one of: a successful
//! [`crate::Response`], [`ServeError::DeadlineExceeded`],
//! [`ServeError::Timeout`], [`ServeError::Exec`], or
//! [`ServeError::Canceled`] — the completion guard on each ticket
//! makes silent drops impossible even if a worker panics, and a waiter
//! gives up at `deadline + timeout_grace` ([`crate::ticket`]). A worker
//! that panics mid-batch recovers in place ([`crate::pool`]).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tssa_backend::{ExecStats, RtValue};
use tssa_obs::{MetricsRegistry, Profiler, Tracer};
use tssa_store::PlanStore;

use crate::cache::PlanCache;
use crate::class::bucket_label;
use crate::config::ServeConfig;
use crate::fault::{FaultKind, Faults};
use crate::loader::ModelHandle;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool::Worker;
use crate::queue::{Queue, Request};
use crate::ticket::{Completer, Ticket};
use crate::ServeError;

/// Final accounting returned by [`Service::shutdown`].
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Execution statistics aggregated per worker slot, in slot order
    /// (a worker recovers from a panic on its own thread, so a slot's
    /// numbers cover every batch it ran).
    pub per_worker: Vec<ExecStats>,
    /// Sum over all workers.
    pub total: ExecStats,
    /// Metrics at shutdown.
    pub metrics: MetricsSnapshot,
}

/// The multi-threaded inference service. See the module docs for the
/// data path; construct with [`Service::new`], load models with
/// [`Service::loader`], submit with [`Service::submit`], and finish with
/// [`Service::shutdown`] (or just drop it — the pool joins either way).
pub struct Service {
    pub(crate) core: Arc<Core>,
    /// Every worker slot ever created, in slot order.
    pub(crate) pool: Mutex<Vec<Worker>>,
}

/// What the service and every worker share, built once from the config.
pub(crate) struct Core {
    pub(crate) cache: PlanCache,
    pub(crate) plan_store: Option<Arc<PlanStore>>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) tracer: Tracer,
    pub(crate) faults: Faults,
    pub(crate) queue_depth: usize,
    pub(crate) timeout_grace: Duration,
    /// Op-level execution profiler, when enabled.
    pub(crate) profiler: Option<Profiler>,
    pub(crate) queue: Queue,
    pub(crate) max_batch: usize,
}

impl Service {
    /// Start the worker threads.
    pub fn new(config: ServeConfig) -> Service {
        let core = Arc::new(Core {
            cache: PlanCache::with_faults(config.cache_capacity, config.faults.clone()),
            plan_store: config.plan_store,
            metrics: Arc::new(Metrics::new(&config.registry)),
            tracer: config.tracer,
            faults: config.faults,
            queue_depth: config.queue_depth.max(1),
            timeout_grace: config.timeout_grace,
            profiler: config.profiler,
            queue: Queue::default(),
            max_batch: config.max_batch.max(1),
        });
        let service = Service {
            core,
            pool: Mutex::default(),
        };
        service.grow(config.workers.max(1));
        service
    }

    /// Submit a request with no deadline.
    ///
    /// # Errors
    ///
    /// See [`Service::submit_with`].
    pub fn submit(&self, model: &ModelHandle, inputs: Vec<RtValue>) -> Result<Ticket, ServeError> {
        self.submit_with(model, inputs, None)
    }

    /// Submit a request that must start executing within `deadline`.
    ///
    /// Admission is non-blocking: when the queue is full the request is shed
    /// *now* with [`ServeError::QueueFull`] rather than waiting — the
    /// backpressure contract that keeps overload latency bounded.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for malformed inputs,
    /// [`ServeError::QueueFull`] under overload, [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit_with(
        &self,
        model: &ModelHandle,
        inputs: Vec<RtValue>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let core = &*self.core;
        let rows = model.spec.rows(&inputs)?;
        core.metrics.submitted.inc();
        // Injected admission pressure: shed as if the queue were full.
        if core.faults.fire(FaultKind::QueueFullBurst).is_some() {
            core.metrics.note_fault();
            core.metrics.shed_queue_full.inc();
            if core.tracer.enabled() {
                let mut span = core.tracer.root("request", "serve");
                span.mark("fault:queue_full_burst");
                span.mark("shed_queue_full");
            }
            return Err(ServeError::QueueFull {
                depth: core.queue_depth,
            });
        }
        let now = Instant::now();
        // Checked arithmetic: an absurdly large deadline degrades to an
        // unbounded wait instead of panicking at admission.
        let timeout_at = deadline.and_then(|d| {
            now.checked_add(d)
                .and_then(|at| at.checked_add(core.timeout_grace))
        });
        let bucket = bucket_label(&inputs);
        let (ticket, completer) = Completer::new(Arc::clone(&core.metrics), now, timeout_at);
        let (span, queue_span) = if core.tracer.enabled() {
            let mut span = core.tracer.root("request", "serve");
            span.counter("rows", rows as i64);
            let queue = span.child("queue", "serve");
            (Some(span), Some(queue))
        } else {
            (None, None)
        };
        let mut request = Request {
            model: model.clone(),
            inputs,
            rows,
            deadline: deadline.and_then(|d| now.checked_add(d)),
            completer,
            span,
            queue_span,
        };
        let mut queue = core.queue.lock();
        let refused = if queue.closed {
            ServeError::ShuttingDown
        } else if queue.requests.len() >= core.queue_depth {
            ServeError::QueueFull {
                depth: core.queue_depth,
            }
        } else {
            queue.requests.push_back(request);
            drop(queue);
            core.queue.ready.notify_one();
            // Counted only once the request is admitted: a shed request is
            // not served.
            core.metrics
                .registry
                .counter(
                    "tssa_plan_class_hits_total",
                    "Requests served by a shape-class plan, by concrete shape bucket",
                    &[("plan", &model.label), ("bucket", &bucket)],
                )
                .inc();
            return Ok(ticket);
        };
        drop(queue);
        if matches!(refused, ServeError::QueueFull { .. }) {
            core.metrics.shed_queue_full.inc();
            if let Some(s) = request.span.as_mut() {
                s.mark("shed_queue_full");
            }
        }
        request.completer.abandon();
        Err(refused)
    }

    /// The shared plan cache (exposed for cache-centric tests and tools).
    pub fn cache(&self) -> &PlanCache {
        &self.core.cache
    }

    /// Current metrics: a typed read of the registry's series plus the
    /// plan cache's and plan store's counters, which this read also writes
    /// through to the registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        let disk = self
            .core
            .plan_store
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or_default();
        self.core.metrics.snapshot(self.core.cache.stats(), disk)
    }

    /// The registry this service records its metrics into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.core.metrics.registry
    }

    /// One consolidated Prometheus exposition of the service's registry:
    /// request, recovery and cache counters, latency, queue-wait and
    /// per-plan occupancy histograms, and anything else sharing the registry
    /// (e.g. `PassManager` pass timings). Reads [`Service::metrics`] first so
    /// the values the registry does not own are current.
    pub fn prometheus(&self) -> String {
        // Read for its write-through, not its value.
        self.metrics();
        if let Some(profiler) = &self.core.profiler {
            profiler.snapshot().register_into(self.registry());
        }
        self.registry().prometheus_text()
    }

    /// The op-level execution profiler, when one was configured
    /// ([`ServeConfig::with_profiler`]). `GET /debug/profile` and the
    /// hotness tooling snapshot through this.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.core.profiler.as_ref()
    }

    /// Stop admitting, drain every queued request to a terminal state, join
    /// all threads, and report per-worker statistics.
    pub fn shutdown(self) -> PoolReport {
        let per_worker = self.join_pool();
        let mut total = ExecStats::default();
        for s in &per_worker {
            total.merge(s);
        }
        PoolReport {
            per_worker,
            total,
            metrics: self.metrics(),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.join_pool();
    }
}
