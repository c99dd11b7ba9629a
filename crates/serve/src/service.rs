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
//! share its execution (same plan, same [`BatchSpec`], compatible inputs),
//! up to `max_batch`. Batching is work-conserving: a free worker never
//! waits for company. Requests coalesce only while every worker is busy,
//! and the next worker to come free takes them together.
//!
//! Every accepted request terminates in exactly one of: a successful
//! [`Response`], [`crate::ServeError::DeadlineExceeded`],
//! [`crate::ServeError::Timeout`], [`crate::ServeError::Exec`], or
//! [`crate::ServeError::Canceled`] — the completion guard on each ticket
//! makes silent drops impossible even if a worker panics.
//!
//! # Fault tolerance
//!
//! Two recovery mechanisms ride on the normal data path:
//!
//! - **Recovery in place.** A worker owns the batch it runs and runs it
//!   under `catch_unwind`. A panic mid-batch retries the batch once on the
//!   same thread; a second panic on the same batch fails its requests with
//!   `Canceled`. The worker then keeps serving.
//! - **Ticket timeouts.** When a request carries a deadline, its waiter
//!   enforces `deadline + timeout_grace` wall-clock: if no terminal result
//!   arrives by then, [`Ticket::wait`] returns [`crate::ServeError::Timeout`]
//!   and a late worker completion is discarded (its span is marked
//!   `timed_out`) instead of double-counting.
//!
//! Deterministic fault injection (see [`crate::fault`]) exercises both:
//! a [`crate::FaultPlan`] threaded through [`ServeConfig::with_faults`]
//! triggers worker panics, compile stalls, cache poisoning, admission
//! bursts, and slow executions on a seeded schedule. When disabled (the
//! default), every hook is a branch on a `None`.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tssa_backend::{ExecStats, RtValue};
use tssa_obs::{Gauge, HistogramMetric, MetricsRegistry, ProfileSink, Profiler, Span, Tracer};
use tssa_pipelines::{CompiledProgram, PipelineKind, ProfileRecorder};
use tssa_store::{fnv64, roster_fingerprint, PlanStore};

use crate::batch::BatchSpec;
use crate::cache::{signature_of, PlanCache};
use crate::class::{bucket_label, coarse_class_hash, ClassEntry, ClassSignature};
use crate::fault::{FaultAction, FaultKind, Faults, INJECTED_COMPILE_PANIC, INJECTED_PANIC};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ServeError;

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

/// A loaded model: a cached shape class plus its batching contract.
/// Cheap to clone; clones share the plan.
#[derive(Clone)]
pub struct ModelHandle {
    spec: Arc<BatchSpec>,
    /// Metric label identifying this model's plan (`plan="<label>"` on the
    /// per-plan batch-occupancy histogram). Defaults to
    /// `<pipeline>:<source-hash-prefix>`; name it with
    /// [`ModelLoader::named`].
    label: Arc<str>,
    /// Shape-class entry this handle is admitted under.
    class: Arc<ClassEntry>,
}

impl ModelHandle {
    /// The compiled plan backing this handle.
    pub fn plan(&self) -> &Arc<CompiledProgram> {
        self.class.plan()
    }

    /// The batching contract.
    pub fn spec(&self) -> &BatchSpec {
        &self.spec
    }

    /// The metric label this model's batches are reported under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The shape-class entry admitting this model.
    pub fn class(&self) -> &Arc<ClassEntry> {
        &self.class
    }
}

/// The metric label for a model: its explicit name, or
/// `<pipeline>:<low 32 bits of the FNV source hash>` — short, stable, and
/// enough to tell models apart on a dashboard.
fn model_label(name: Option<&str>, pipeline: PipelineKind, source: &str) -> Arc<str> {
    match name {
        Some(n) => Arc::from(n),
        None => Arc::from(
            format!(
                "{}:{:08x}",
                pipeline.name(),
                fnv64(source.as_bytes()) & 0xFFFF_FFFF
            )
            .as_str(),
        ),
    }
}

/// Builder for loading a model into a [`Service`].
///
/// Obtain one with [`Service::loader`], then chain:
///
/// - [`named`](ModelLoader::named) — explicit metric label (optional);
/// - [`pipeline`](ModelLoader::pipeline) — compilation pipeline
///   (default [`PipelineKind::TensorSsa`]);
/// - [`example`](ModelLoader::example) — example inputs the plan is
///   specialized to (**required**);
/// - [`batch`](ModelLoader::batch) — the batching contract (**required**);
/// - [`deadline`](ModelLoader::deadline) — compile budget (optional);
///
/// and finish with [`load`](ModelLoader::load).
#[must_use = "a ModelLoader does nothing until .load() is called"]
pub struct ModelLoader<'s> {
    service: &'s Service,
    source: String,
    name: Option<String>,
    pipeline: PipelineKind,
    example_inputs: Vec<RtValue>,
    spec: Option<BatchSpec>,
    deadline: Option<Duration>,
}

impl ModelLoader<'_> {
    /// Report this model's batches under `plan="<name>"` instead of the
    /// default `<pipeline>:<source-hash-prefix>` label.
    pub fn named(mut self, name: &str) -> Self {
        self.name = Some(name.to_owned());
        self
    }

    /// Compile through `pipeline` (default: [`PipelineKind::TensorSsa`]).
    pub fn pipeline(mut self, pipeline: PipelineKind) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Example inputs the compiled plan is specialized to. Required: the
    /// load is served by the shape class admitting the argument signature
    /// these induce.
    pub fn example(mut self, inputs: &[RtValue]) -> Self {
        self.example_inputs = inputs.to_vec();
        self
    }

    /// The batching contract requests against this model must satisfy.
    /// Required; its arity must match the example inputs.
    pub fn batch(mut self, spec: BatchSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Compile budget: loads running past `deadline` return
    /// [`ServeError::Timeout`] (the plan still lands in the cache, so a
    /// retry is a hit).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Execute the load.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when no batch spec was given or its
    /// arity disagrees with the example inputs; [`ServeError::Frontend`]
    /// when the source does not compile; [`ServeError::Timeout`] past a
    /// configured deadline.
    pub fn load(mut self) -> Result<ModelHandle, ServeError> {
        let Some(spec) = self.spec.take() else {
            return Err(ServeError::invalid(
                "ModelLoader needs a batching contract: call .batch(spec) before .load()",
            ));
        };
        self.service.load_inner(&self, spec)
    }
}

/// A successful execution result delivered through a [`Ticket`].
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's outputs (already split out of the batch).
    pub outputs: Vec<RtValue>,
    /// How many requests shared the execution (1 = ran alone).
    pub coalesced: usize,
    /// Execution statistics of the (shared) batch run.
    pub stats: ExecStats,
}

/// Terminal-state slot shared between a [`Ticket`] and its [`Completer`].
/// `TimedOut` is sticky: once the waiter gives up, a late completion is
/// discarded rather than delivered (and rather than double-counted).
enum Slot {
    Pending,
    Done(Result<Response, ServeError>),
    TimedOut,
}

struct TicketShared {
    slot: Mutex<Slot>,
    cv: Condvar,
    submitted: Instant,
    /// Wall-clock point past which the waiter stops waiting
    /// (`deadline + timeout_grace`), `None` for unbounded waits.
    timeout_at: Option<Instant>,
    metrics: Arc<Metrics>,
}

/// The caller's handle to an in-flight request.
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the request reaches a terminal state.
    ///
    /// When the request was submitted with a deadline, the wait itself is
    /// bounded: after `deadline + timeout_grace` this returns
    /// [`ServeError::Timeout`] even if a worker is still executing the
    /// request (its eventual result is discarded).
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut guard = self.shared.slot.lock();
        loop {
            match std::mem::replace(&mut *guard, Slot::Pending) {
                Slot::Done(result) => return result,
                Slot::TimedOut => {
                    *guard = Slot::TimedOut;
                    return Err(ServeError::Timeout {
                        waited: self.shared.submitted.elapsed(),
                    });
                }
                Slot::Pending => {}
            }
            match self.shared.timeout_at {
                None => self.shared.cv.wait(&mut guard),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        *guard = Slot::TimedOut;
                        drop(guard);
                        self.shared.metrics.timeouts.inc();
                        return Err(ServeError::Timeout {
                            waited: self.shared.submitted.elapsed(),
                        });
                    }
                    self.shared.cv.wait_for(&mut guard, at - now);
                }
            }
        }
    }
}

/// Whether a completion reached its waiter or was discarded because the
/// waiter had already timed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    Delivered,
    DiscardedTimedOut,
}

/// Completion side of a ticket. Completing consumes it; dropping it
/// un-completed (a panic while delivering, shutdown race) delivers
/// [`ServeError::Canceled`] so the waiter never hangs.
struct Completer {
    shared: Arc<TicketShared>,
    metrics: Arc<Metrics>,
    done: bool,
}

impl Completer {
    fn new(
        metrics: Arc<Metrics>,
        submitted: Instant,
        timeout_at: Option<Instant>,
    ) -> (Ticket, Completer) {
        let shared = Arc::new(TicketShared {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
            submitted,
            timeout_at,
            metrics: Arc::clone(&metrics),
        });
        let ticket = Ticket {
            shared: Arc::clone(&shared),
        };
        let completer = Completer {
            shared,
            metrics,
            done: false,
        };
        (ticket, completer)
    }

    /// Deliver a terminal result and record its outcome metric — but only
    /// when the waiter actually receives it; results discarded against a
    /// timed-out ticket leave the metrics to the timeout counter.
    fn complete(mut self, result: Result<Response, ServeError>) -> Delivery {
        let latency = self.shared.submitted.elapsed();
        let outcome = match &result {
            Ok(_) => 0u8,
            Err(ServeError::DeadlineExceeded { .. }) => 1,
            Err(ServeError::Exec(_)) | Err(ServeError::InvalidRequest(_)) => 2,
            Err(_) => 3,
        };
        let metrics = Arc::clone(&self.metrics);
        self.deliver(result, || match outcome {
            0 => {
                metrics.completed.inc();
                metrics.latency.observe_duration_us(latency);
            }
            1 => {
                metrics.shed_deadline.inc();
            }
            2 => {
                metrics.exec_failures.inc();
            }
            _ => {
                metrics.canceled.inc();
            }
        })
    }

    /// Deliver and mark done. Returns whether the waiter will see the
    /// result. `on_delivered` runs under the slot lock, before the waiter
    /// is woken — so a metrics snapshot taken the instant `wait` returns
    /// already reflects this request's outcome counter. A result that
    /// arrives past the waiter's bound is late however soon the waiter
    /// would have looked: it is discarded, and the timeout counted here.
    fn deliver(
        &mut self,
        result: Result<Response, ServeError>,
        on_delivered: impl FnOnce(),
    ) -> Delivery {
        self.done = true;
        let mut guard = self.shared.slot.lock();
        if matches!(*guard, Slot::TimedOut) {
            return Delivery::DiscardedTimedOut;
        }
        if self
            .shared
            .timeout_at
            .is_some_and(|at| Instant::now() >= at)
        {
            *guard = Slot::TimedOut;
            self.metrics.timeouts.inc();
            drop(guard);
            self.shared.cv.notify_all();
            return Delivery::DiscardedTimedOut;
        }
        *guard = Slot::Done(result);
        on_delivered();
        drop(guard);
        self.shared.cv.notify_all();
        Delivery::Delivered
    }

    /// Forget the ticket without delivering (used when admission fails and
    /// the caller gets the error synchronously instead).
    fn abandon(mut self) {
        self.done = true;
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.done {
            let metrics = Arc::clone(&self.metrics);
            self.deliver(Err(ServeError::Canceled), || {
                metrics.canceled.inc();
            });
        }
    }
}

struct Request {
    plan: Arc<CompiledProgram>,
    spec: Arc<BatchSpec>,
    /// Model label for per-plan metrics (shared with the [`ModelHandle`]).
    plan_label: Arc<str>,
    inputs: Vec<RtValue>,
    rows: usize,
    submitted: Instant,
    deadline: Option<Instant>,
    completer: Completer,
    /// Root `request` span, opened at admission, recorded when the request
    /// reaches a terminal state (the struct drop after completion).
    span: Option<Span>,
    /// `queue` child covering admission-to-execution wait; finished by the
    /// worker just before the batch runs (or dropped on expiry).
    queue_span: Option<Span>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    fn expire(mut self) {
        let waited = self.submitted.elapsed();
        if let Some(span) = self.span.as_mut() {
            span.counter("deadline_exceeded", 1);
        }
        self.finish_with(Err(ServeError::DeadlineExceeded { waited }));
    }

    /// Complete the request, marking its span `timed_out` when the waiter
    /// already gave up and the result is discarded.
    fn finish_with(mut self, result: Result<Response, ServeError>) {
        let mut span = self.span.take();
        let delivery = self.completer.complete(result);
        if let (Some(s), Delivery::DiscardedTimedOut) = (span.as_mut(), delivery) {
            s.mark("timed_out");
        }
    }
}

/// The one request queue. Admission ([`Service::submit_with`]) pushes at
/// the back; a free worker takes the oldest request together with the
/// queued requests that can share its execution.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Wakes an idle worker: one per push, every worker on shrink and at
    /// shutdown.
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    requests: VecDeque<Request>,
    /// Set at shutdown: admission refuses, and workers drain the queue and
    /// exit.
    closed: bool,
}

impl Queue {
    /// Block until there is work, then take the oldest request and, when
    /// its spec batches, up to `max_batch - 1` queued requests that can
    /// share its execution. `None` tells the worker to exit: it was retired,
    /// or the queue is closed and empty.
    fn take(&self, max_batch: usize, retire: &AtomicBool) -> Option<Vec<Request>> {
        let mut state = self.state.lock();
        let head = loop {
            if retire.load(Relaxed) {
                drop(state);
                // Belt and braces: `shrink` sets the flag under this lock
                // and then wakes every waiter, so no push's wake-up can end
                // here; passing one on costs nothing if that ever changes.
                self.ready.notify_one();
                return None;
            }
            if let Some(head) = state.requests.pop_front() {
                break head;
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        };
        let mut batch = vec![head];
        if max_batch == 1 || !batch[0].spec.batchable() {
            return Some(batch);
        }
        // Same plan and same contract are pointer checks; whether the
        // inputs fit may compare `Shared` tensors, a few KiB in the served
        // models, so the check runs under the lock.
        let mut at = 0;
        while batch.len() < max_batch && at < state.requests.len() {
            let (head, r) = (&batch[0], &state.requests[at]);
            if Arc::ptr_eq(&r.plan, &head.plan)
                && Arc::ptr_eq(&r.spec, &head.spec)
                && head.spec.compatible(&head.inputs, &r.inputs)
            {
                batch.extend(state.requests.remove(at));
            } else {
                at += 1;
            }
        }
        Some(batch)
    }
}

/// One worker slot in the pool. Retired slots stay: their statistics
/// belong in the final report, and their threads are joined at shutdown.
struct Worker {
    /// Retire flag set by shrink. The worker checks it only between
    /// batches, so shrinking never abandons accepted work.
    retire: Arc<AtomicBool>,
    /// Returns the slot's execution statistics when the thread exits.
    thread: JoinHandle<ExecStats>,
}

/// Workers whose retire flag is unset.
fn active_workers(pool: &[Worker]) -> usize {
    pool.iter().filter(|w| !w.retire.load(Relaxed)).count()
}

/// Everything a worker thread owns.
struct WorkerCtx {
    queue: Arc<Queue>,
    max_batch: usize,
    retire: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    /// Admission-to-execution wait of every request this worker runs.
    queue_wait: HistogramMetric,
    /// Registry the per-plan batch-occupancy histograms register into.
    registry: MetricsRegistry,
    faults: Faults,
    profile: Option<WorkerProfile>,
}

/// A worker's view of the execution profiler: the shared sampling decision
/// plus this worker's private lock-cheap sink. The profiler retains every
/// sink it ever minted, so undrained samples from retired workers still
/// reach the table.
struct WorkerProfile {
    profiler: Profiler,
    sink: Arc<ProfileSink>,
}

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
    cache: Arc<PlanCache>,
    plan_store: Option<Arc<PlanStore>>,
    metrics: Arc<Metrics>,
    registry: MetricsRegistry,
    tracer: Tracer,
    faults: Faults,
    queue_depth: usize,
    timeout_grace: Duration,
    /// Op-level execution profiler shared with every worker, when enabled.
    profiler: Option<Profiler>,
    queue: Arc<Queue>,
    max_batch: usize,
    /// `tssa_queue_wait_us`; the autoscaler reads the same series back from
    /// the registry.
    queue_wait: HistogramMetric,
    /// Every worker slot ever created, in slot order.
    pool: Mutex<Vec<Worker>>,
    pool_gauge: Gauge,
}

impl Service {
    /// Start the worker threads.
    pub fn new(config: ServeConfig) -> Service {
        let cache = Arc::new(PlanCache::with_faults(
            config.cache_capacity,
            config.faults.clone(),
        ));
        let metrics = Arc::new(Metrics::new(&config.registry));
        let queue_wait = config.registry.histogram(
            "tssa_queue_wait_us",
            "Admission-to-execution queue wait (power-of-two buckets, µs)",
            &[],
        );
        let pool_gauge = config.registry.gauge(
            "tssa_pool_workers",
            "Active executor workers (autoscaler grow/shrink adjusts this)",
            &[],
        );

        let service = Service {
            cache,
            plan_store: config.plan_store,
            metrics,
            registry: config.registry,
            tracer: config.tracer,
            faults: config.faults,
            queue_depth: config.queue_depth.max(1),
            timeout_grace: config.timeout_grace,
            profiler: config.profiler,
            queue: Arc::default(),
            max_batch: config.max_batch.max(1),
            queue_wait,
            pool: Mutex::new(Vec::new()),
            pool_gauge,
        };
        service.grow(config.workers.max(1));
        service
    }

    /// Start loading a model: a [`ModelLoader`] builder over `source` —
    /// *the* model-loading entry point.
    ///
    /// ```ignore
    /// let model = service
    ///     .loader(SOURCE)
    ///     .named("default")
    ///     .pipeline(PipelineKind::TensorSsa)
    ///     .example(&example_inputs)
    ///     .batch(BatchSpec::stacked(1, 1))
    ///     .deadline(Duration::from_secs(5))
    ///     .load()?;
    /// ```
    pub fn loader(&self, source: &str) -> ModelLoader<'_> {
        ModelLoader {
            service: self,
            source: source.to_owned(),
            name: None,
            pipeline: PipelineKind::TensorSsa,
            example_inputs: Vec::new(),
            spec: None,
            deadline: None,
        }
    }

    fn load_inner(
        &self,
        req: &ModelLoader<'_>,
        spec: BatchSpec,
    ) -> Result<ModelHandle, ServeError> {
        let (source, pipeline) = (req.source.as_str(), req.pipeline);
        let example_inputs = req.example_inputs.as_slice();
        if spec.args.len() != example_inputs.len() {
            return Err(ServeError::invalid(format!(
                "batch spec covers {} arguments, model takes {}",
                spec.args.len(),
                example_inputs.len()
            )));
        }
        let started = Instant::now();
        let args_sig = signature_of(example_inputs);
        let coarse = coarse_class_hash(source, pipeline, &args_sig);
        let mut span = self.tracer.root("request:load", "serve");
        let scope = span.scope();
        let stalled = std::cell::Cell::new(false);
        // Set by the thread that runs the closure: whether its plan came
        // from disk. Still `None` after the call means a resident class
        // served the load.
        let from_disk = std::cell::Cell::new(None::<bool>);
        // A resident class admitting this signature serves the load at any
        // admitted batch size — no compile, no disk. Disk interactions stay
        // inside the single-flight closure, so when M threads race on a
        // cold program, exactly one touches the store, and the exact key is
        // hashed on the miss path only.
        let class = self.cache.get_or_compile(coarse, &args_sig, || {
            // Injected compile panic: the cache's catch_unwind converts this
            // into the typed `ServeError::CompilePanic` and wakes any
            // single-flight followers to retry.
            if self.faults.fire(FaultKind::CompilePanic).is_some() {
                self.metrics.note_fault();
                std::panic::panic_any(INJECTED_COMPILE_PANIC);
            }
            if let Some(FaultAction::Stall(pause)) = self.faults.fire(FaultKind::CompileStall) {
                self.metrics.note_fault();
                stalled.set(true);
                std::thread::sleep(pause);
            }
            let exact = ClassSignature::exact(source, pipeline, &args_sig);
            let file_hash = exact.key.class_hash();
            let roster_fp = roster_fingerprint(pipeline.roster());
            // Warm start: an intact, roster-matched entry bypasses
            // compilation entirely — the exact file first, then any
            // same-coarse entry whose certified signature admits this
            // concrete signature, so a warm restart at a batch size the
            // previous process never saw still avoids the compile. Damaged
            // or stale entries count their typed counter inside the store
            // and fall through to compile.
            let admit = |decoded: &CompiledProgram| {
                decoded.signature.as_ref().is_some_and(|sig| {
                    ClassSignature::derive(source, pipeline, &args_sig, sig).is_some()
                })
            };
            let warm = self
                .plan_store
                .as_deref()
                .and_then(|store| store.load_class(file_hash, coarse, roster_fp, admit));
            from_disk.set(Some(warm.is_some()));
            let plan = match warm {
                Some(plan) => plan,
                None => {
                    let graph = tssa_frontend::compile(source)?;
                    let mut plan = pipeline.compile_traced(&graph, &scope);
                    // Certify shape polymorphism against the ranks this plan
                    // is specialized to; the signature travels with the plan
                    // into the cache and (via the wire format) the disk
                    // store, so warm loads get it back without re-running
                    // the analysis.
                    let ranks: Vec<Option<usize>> = example_inputs
                        .iter()
                        .map(|v| match v {
                            RtValue::Tensor(t) => Some(t.rank()),
                            _ => None,
                        })
                        .collect();
                    plan.signature = Some(tssa_lint::certify_shapes(&plan.graph, &ranks));
                    plan
                }
            };
            // The shape class this plan certifies, so later loads and
            // requests at any admitted shape reuse it; a plan with
            // data-dependent dims serves its exact signature only.
            let class = plan
                .signature
                .as_ref()
                .and_then(|sig| ClassSignature::derive(source, pipeline, &args_sig, sig))
                .unwrap_or(exact);
            Ok(ClassEntry::new(
                class,
                Arc::new(plan),
                Arc::new(spec.clone()),
                args_sig.clone(),
                file_hash,
                roster_fp,
            ))
        })?;
        if span.enabled() {
            span.counter("cache_hit", i64::from(from_disk.get().is_none()));
            if from_disk.get().is_none() && !class.is_example(&args_sig) {
                span.mark("class_hit");
            }
            if from_disk.get() == Some(true) {
                span.mark("warm_hit");
            }
            if stalled.get() {
                span.mark("fault:compile_stall");
            }
        }
        // Write-back is asynchronous (encode + write happen on the store's
        // writer thread): the load path never blocks on I/O. The header
        // carries the coarse class hash, so a restarted process can admit
        // *new* shapes from this entry.
        if let (Some(store), Some(false)) = (self.plan_store.as_deref(), from_disk.get()) {
            store.save_async_with(
                class.file_hash(),
                class.roster_fp(),
                Arc::clone(class.plan()),
                class.key().coarse_hash(),
            );
        }
        // Reuse the class's spec allocation when the caller's contract is
        // identical (the common case: every load of a model passes the same
        // spec).
        let spec = if **class.spec() == spec {
            Arc::clone(class.spec())
        } else {
            Arc::new(spec)
        };
        if let Some(limit) = req.deadline {
            let waited = started.elapsed();
            if waited > limit {
                // Reported synchronously to the caller, so not counted in
                // `metrics.timeouts` (that counter reconciles asynchronous
                // request outcomes).
                span.mark("timed_out");
                span.finish();
                return Err(ServeError::Timeout { waited });
            }
        }
        span.finish();
        let label = model_label(req.name.as_deref(), pipeline, source);
        if let Some(sig) = class.plan().signature.as_ref() {
            self.registry
                .gauge(
                    "tssa_plan_polymorphic_dims",
                    "Input dims the shape certifier proved batch-polymorphic, by plan",
                    &[("plan", &label)],
                )
                .set(sig.polymorphic_dims() as f64);
        }
        Ok(ModelHandle { spec, label, class })
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
        let rows = model.spec.rows(&inputs)?;
        self.metrics.submitted.inc();
        // Injected admission pressure: shed as if the queue were full.
        if self.faults.fire(FaultKind::QueueFullBurst).is_some() {
            self.metrics.note_fault();
            self.metrics.shed_queue_full.inc();
            if self.tracer.enabled() {
                let mut span = self.tracer.root("request", "serve");
                span.mark("fault:queue_full_burst");
                span.mark("shed_queue_full");
            }
            return Err(ServeError::QueueFull {
                depth: self.queue_depth,
            });
        }
        let now = Instant::now();
        // Checked arithmetic: an absurdly large deadline degrades to an
        // unbounded wait instead of panicking at admission.
        let timeout_at = deadline.and_then(|d| {
            now.checked_add(d)
                .and_then(|at| at.checked_add(self.timeout_grace))
        });
        let bucket = bucket_label(&inputs);
        let (ticket, completer) = Completer::new(Arc::clone(&self.metrics), now, timeout_at);
        let (span, queue_span) = if self.tracer.enabled() {
            let mut span = self.tracer.root("request", "serve");
            span.counter("rows", rows as i64);
            let queue = span.child("queue", "serve");
            (Some(span), Some(queue))
        } else {
            (None, None)
        };
        let mut request = Request {
            plan: Arc::clone(model.plan()),
            spec: Arc::clone(&model.spec),
            plan_label: Arc::clone(&model.label),
            inputs,
            rows,
            submitted: now,
            deadline: deadline.and_then(|d| now.checked_add(d)),
            completer,
            span,
            queue_span,
        };
        let mut queue = self.queue.state.lock();
        let refused = if queue.closed {
            ServeError::ShuttingDown
        } else if queue.requests.len() >= self.queue_depth {
            ServeError::QueueFull {
                depth: self.queue_depth,
            }
        } else {
            queue.requests.push_back(request);
            drop(queue);
            self.queue.ready.notify_one();
            // Counted only once the request is admitted: a shed request is
            // not served.
            self.registry
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
            self.metrics.shed_queue_full.inc();
            if let Some(s) = request.span.as_mut() {
                s.mark("shed_queue_full");
            }
        }
        request.completer.abandon();
        Err(refused)
    }

    /// Add `n` worker slots. Synchronous: [`Service::worker_count`] and the
    /// `tssa_pool_workers` gauge read the new size when this returns.
    pub fn grow(&self, n: usize) {
        let mut pool = self.pool.lock();
        for _ in 0..n {
            let retire = Arc::new(AtomicBool::new(false));
            let ctx = WorkerCtx {
                queue: Arc::clone(&self.queue),
                max_batch: self.max_batch,
                retire: Arc::clone(&retire),
                metrics: Arc::clone(&self.metrics),
                queue_wait: self.queue_wait.clone(),
                registry: self.registry.clone(),
                faults: self.faults.clone(),
                profile: self.profiler.as_ref().map(|p| WorkerProfile {
                    profiler: p.clone(),
                    sink: p.sink(),
                }),
            };
            let thread = std::thread::spawn(move || worker_loop(&ctx));
            pool.push(Worker { retire, thread });
        }
        self.pool_gauge.set(active_workers(&pool) as f64);
    }

    /// Retire `n` workers (highest slots first), never going below one
    /// active worker. Synchronous like [`Service::grow`]. Drain-on-shrink:
    /// a retiring worker finishes the batch it holds first, queued requests
    /// stay in the shared queue for the surviving workers, and the retired
    /// slot's statistics remain in the final [`PoolReport`].
    pub fn shrink(&self, n: usize) {
        let pool = self.pool.lock();
        let active = active_workers(&pool);
        let retiring = n.min(active.saturating_sub(1));
        // Under the queue lock, so no idle worker sits between its retire
        // check and its wait when the wake-up below goes out.
        let queue = self.queue.state.lock();
        for worker in pool
            .iter()
            .rev()
            .filter(|w| !w.retire.load(Relaxed))
            .take(retiring)
        {
            worker.retire.store(true, Relaxed);
        }
        drop(queue);
        self.queue.ready.notify_all();
        self.pool_gauge.set((active - retiring) as f64);
    }

    /// Active (non-retired) workers right now.
    pub fn worker_count(&self) -> usize {
        active_workers(&self.pool.lock())
    }

    /// The shared plan cache (exposed for cache-centric tests and tools).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Current metrics: a typed read of the registry's series plus the
    /// plan cache's and plan store's counters, which this read also writes
    /// through to the registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        let disk = self
            .plan_store
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or_default();
        self.metrics.snapshot(self.cache.stats(), disk)
    }

    /// The registry this service records its metrics into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// One consolidated Prometheus exposition of the service's registry:
    /// request, recovery and cache counters, latency, queue-wait and
    /// per-plan occupancy histograms, and anything else sharing the registry
    /// (e.g. `PassManager` pass timings). Reads [`Service::metrics`] first so
    /// the values the registry does not own are current.
    pub fn prometheus(&self) -> String {
        // Read for its write-through, not its value.
        self.metrics();
        if let Some(profiler) = &self.profiler {
            profiler.snapshot().register_into(&self.registry);
        }
        self.registry.prometheus_text()
    }

    /// The op-level execution profiler, when one was configured
    /// ([`ServeConfig::with_profiler`]). `GET /debug/profile` and the
    /// hotness tooling snapshot through this.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Stop admitting, drain every queued request to a terminal state, join
    /// all threads, and report per-worker statistics.
    pub fn shutdown(mut self) -> PoolReport {
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

    /// Lossless shutdown: closing the queue stops admission, and the
    /// workers drain what is queued before they exit. Returns each slot's
    /// statistics, in slot order.
    fn join_pool(&mut self) -> Vec<ExecStats> {
        self.queue.state.lock().closed = true;
        self.queue.ready.notify_all();
        let workers = std::mem::take(&mut *self.pool.lock());
        workers
            .into_iter()
            .map(|w| w.thread.join().unwrap_or_default())
            .collect()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.join_pool();
    }
}

/// A worker's `tssa_batch_occupancy` handles, by plan label.
type Occupancy = HashMap<Arc<str>, HistogramMetric>;

/// A worker thread: take batches until the queue is closed and drained or
/// the slot is retired, and return the slot's execution statistics.
fn worker_loop(ctx: &WorkerCtx) -> ExecStats {
    let mut stats = ExecStats::default();
    // Occupancy handle per plan label, cached so steady-state batches skip
    // the registry lock.
    let mut occupancy = Occupancy::new();
    // Retire check between batches only — never mid-batch, so a shrink
    // drains accepted work instead of dropping it.
    while let Some(batch) = ctx.queue.take(ctx.max_batch, &ctx.retire) {
        serve_batch(ctx, batch, &mut occupancy, &mut stats);
    }
    stats
}

/// Run one batch to completion on this thread. The worker owns the batch,
/// so a panic mid-run leaves it intact here: the first panic retries it
/// once (`requeued`), a second one fails its requests with `Canceled`.
fn serve_batch(
    ctx: &WorkerCtx,
    mut batch: Vec<Request>,
    occupancy: &mut Occupancy,
    stats: &mut ExecStats,
) {
    let mut retry = false;
    while std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_batch(ctx, &mut batch, retry, occupancy, stats);
    }))
    .is_err()
    {
        ctx.metrics.worker_respawns.inc();
        if batch.is_empty() {
            return;
        }
        if retry {
            for request in batch {
                request.finish_with(Err(ServeError::Canceled));
            }
            return;
        }
        retry = true;
        ctx.metrics.requeues.inc();
        for request in &mut batch {
            if let Some(s) = request.span.as_mut() {
                s.mark("requeued");
            }
        }
    }
}

/// One attempt at a batch: expire stale requests, stack, execute, split and
/// deliver. Requests stay in `batch` until execution is over, so a panic
/// before delivery leaves every live request for the retry.
fn run_batch(
    ctx: &WorkerCtx,
    batch: &mut Vec<Request>,
    retry: bool,
    occupancy: &mut Occupancy,
    stats: &mut ExecStats,
) {
    let now = Instant::now();
    let (expired, live): (Vec<Request>, Vec<Request>) = std::mem::take(batch)
        .into_iter()
        .partition(|r| r.expired(now));
    *batch = live;
    for request in expired {
        request.expire();
    }
    if batch.is_empty() {
        return;
    }
    let coalesced = batch.len();
    // The first attempt records the batch and each request's wait, so a
    // retried batch counts once.
    if !retry {
        ctx.metrics.record_batch(coalesced);
        occupancy
            .entry(Arc::clone(&batch[0].plan_label))
            .or_insert_with_key(|label| {
                ctx.registry.histogram(
                    "tssa_batch_occupancy",
                    "Requests coalesced per executed batch, by plan",
                    &[("plan", label)],
                )
            })
            .observe(coalesced as u64);
        for request in batch.iter() {
            let wait = now.saturating_duration_since(request.submitted);
            // Traced requests pin the observation as the histogram's
            // exemplar: the scrape links back to the request's trace.
            let trace_id = request.span.as_ref().map_or(0, Span::root_id);
            ctx.queue_wait
                .observe_with_exemplar(wait.as_micros().min(u128::from(u64::MAX)) as u64, trace_id);
        }
    }

    // The queueing phase ends here: close each request's `queue` span and
    // open its `batch` child covering the shared execution.
    let mut batch_spans: Vec<Option<Span>> = batch
        .iter_mut()
        .map(|request| {
            if let Some(queue) = request.queue_span.take() {
                queue.finish();
            }
            request.span.as_ref().map(|span| {
                let mut batch_span = span.child("batch", "serve");
                batch_span.counter("coalesced", coalesced as i64);
                if retry {
                    batch_span.mark("requeue_attempt");
                }
                batch_span
            })
        })
        .collect();
    let head = &batch[0];
    let plan = Arc::clone(&head.plan);
    let spec = Arc::clone(&head.spec);
    let plan_label = Arc::clone(&head.plan_label);
    let inputs = if coalesced == 1 {
        Ok(head.inputs.clone())
    } else {
        let arg_lists: Vec<&[RtValue]> = batch.iter().map(|r| r.inputs.as_slice()).collect();
        spec.stack(&arg_lists)
    };
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            for request in batch.drain(..) {
                request.finish_with(Err(e.clone()));
            }
            return;
        }
    };

    // Injected faults land here: a slow execution delays the batch; a
    // worker panic unwinds this frame (recording the batch spans) back to
    // `serve_batch`.
    if let Some(FaultAction::Stall(pause)) = ctx.faults.fire(FaultKind::SlowExec) {
        ctx.metrics.note_fault();
        for span in batch_spans.iter_mut().flatten() {
            span.mark("fault:slow_exec");
        }
        std::thread::sleep(pause);
    }
    if let Some(FaultAction::Panic) = ctx.faults.fire(FaultKind::WorkerPanic) {
        ctx.metrics.note_fault();
        for span in batch_spans.iter_mut().flatten() {
            span.mark("fault:worker_panic");
        }
        std::panic::panic_any(INJECTED_PANIC);
    }

    // The head request's batch span hosts the execution trace (`exec` with a
    // `batch[0]` child); followers' spans still delimit the shared run.
    let exec_scope = batch_spans
        .first()
        .and_then(Option::as_ref)
        .map_or_else(tssa_obs::TraceScope::disabled, Span::scope);
    let result = {
        let mut session = plan.session().traced(&exec_scope);
        // Per-op profiling, when this batch drew a keep from the sampler:
        // one sample per executed op into this worker's private sink.
        if let Some(profile) = ctx.profile.as_ref().filter(|p| p.profiler.should_profile()) {
            session = session.observed(Arc::new(ProfileRecorder::new(
                plan_label,
                Arc::clone(&profile.sink),
            )));
        }
        session.run(&inputs)
        // The session drops here, recording the `exec` span before the
        // batch spans below close over it.
    };
    for batch_span in batch_spans.drain(..).flatten() {
        batch_span.finish();
    }
    if let Ok((_, run)) = &result {
        stats.merge(run);
    }

    // Execution is over: deliver each terminal result.
    let mut live = std::mem::take(batch);
    match result {
        Ok((outputs, stats)) => {
            if coalesced == 1 {
                if let Some(request) = live.pop() {
                    request.finish_with(Ok(Response {
                        outputs,
                        coalesced: 1,
                        stats,
                    }));
                }
                return;
            }
            let rows: Vec<usize> = live.iter().map(|r| r.rows).collect();
            match spec.split(&outputs, &rows) {
                Ok(per_request) => {
                    for (request, outs) in live.into_iter().zip(per_request) {
                        request.finish_with(Ok(Response {
                            outputs: outs,
                            coalesced,
                            stats,
                        }));
                    }
                }
                Err(e) => {
                    for request in live {
                        request.finish_with(Err(e.clone()));
                    }
                }
            }
        }
        Err(e) => {
            for request in live {
                request.finish_with(Err(ServeError::Exec(e.clone())));
            }
        }
    }
}
