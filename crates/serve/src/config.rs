//! [`ServeConfig`]: the service's tuning knobs.

use std::sync::Arc;
use std::time::Duration;

use tssa_obs::{MetricsRegistry, Profiler, Tracer};
use tssa_store::PlanStore;

use crate::fault::Faults;
#[cfg(doc)]
use crate::{MetricsSnapshot, ServeError, Service};

/// Tuning knobs for [`Service::new`]. Start from `Default` and override
/// with the `with_*` builders.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads (≥ 1).
    pub workers: usize,
    /// Request-queue depth: the limit counts every admitted request no
    /// worker has taken yet (no second queue of formed batches sits behind
    /// it), and a submit beyond it is shed with [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum requests coalesced into one execution.
    pub max_batch: usize,
    /// Plan-cache capacity: compiled plans resident, every shape class
    /// counted once.
    pub cache_capacity: usize,
    /// Where request/compile/exec spans are recorded. Defaults to the
    /// disabled tracer (zero overhead); install one with
    /// [`ServeConfig::with_tracer`] to capture end-to-end traces.
    pub tracer: Tracer,
    /// Slack a deadline-carrying waiter grants past its deadline before
    /// giving up with [`ServeError::Timeout`]. The deadline itself governs
    /// *starting* execution (checked by the worker that takes the request,
    /// yielding `DeadlineExceeded`); the grace bounds how long the waiter
    /// tolerates an execution that started in time but never finishes.
    pub timeout_grace: Duration,
    /// Registry holding every metric the service records — request and
    /// recovery counters, latency, queue-wait and per-plan batch-occupancy
    /// histograms; [`MetricsSnapshot`] is a typed read of it. Defaults to a
    /// fresh registry per service (isolated tests); production binaries
    /// typically pass `MetricsRegistry::global().clone()` so one scrape
    /// covers the whole process. Services sharing a registry share its
    /// series.
    pub registry: MetricsRegistry,
    /// Deterministic fault-injection schedule. Disabled by default; every
    /// injection site is a cheap `None` check when off.
    pub faults: Faults,
    /// Persistent plan store backing warm restarts. When set, loads try the
    /// store before compiling (under the same single-flight), and freshly
    /// compiled plans are written back asynchronously. `None` (the default)
    /// keeps the service fully in-memory.
    pub plan_store: Option<Arc<PlanStore>>,
    /// Op-level execution profiler. When set, each worker records per-op
    /// self-time into its own [`tssa_obs::ProfileSink`] (subject to the
    /// profiler's sampling decision per batch) and
    /// [`Service::prometheus`] / [`Service::profiler`] expose the merged
    /// table. `None` (the default) keeps the hot path observer-free.
    pub profiler: Option<Profiler>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            cache_capacity: 32,
            tracer: Tracer::disabled(),
            timeout_grace: Duration::from_millis(250),
            registry: MetricsRegistry::new(),
            faults: Faults::disabled(),
            plan_store: None,
            profiler: None,
        }
    }
}

macro_rules! with_field {
    ($(#[$doc:meta] $fn_name:ident: $field:ident, $ty:ty;)+) => {
        impl ServeConfig {
            $(#[$doc]
            #[must_use]
            pub fn $fn_name(mut self, value: $ty) -> ServeConfig {
                self.$field = value;
                self
            })+
        }
    };
}

with_field! {
    /// Set the worker count.
    with_workers: workers, usize;
    /// Set the request-queue depth.
    with_queue_depth: queue_depth, usize;
    /// Set the maximum batch size.
    with_max_batch: max_batch, usize;
    /// Set the plan-cache capacity.
    with_cache_capacity: cache_capacity, usize;
    /// Record request/compile/exec spans into `tracer`.
    with_tracer: tracer, Tracer;
    /// Set the waiter's slack past the deadline before `Timeout`.
    with_timeout_grace: timeout_grace, Duration;
    /// Record the service's metrics into this registry.
    with_registry: registry, MetricsRegistry;
    /// Install a fault-injection schedule.
    with_faults: faults, Faults;
    /// Back model loads with a persistent plan store (warm restarts).
    with_plan_store: plan_store, Option<Arc<PlanStore>>;
    /// Record per-op execution self-time into this profiler.
    with_profiler: profiler, Option<Profiler>;
}
