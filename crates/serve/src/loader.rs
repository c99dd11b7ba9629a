//! Model loading: the [`ModelLoader`] builder and the [`ModelHandle`] a
//! load returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tssa_backend::RtValue;
use tssa_obs::{HistogramMetric, ProfileSink};
use tssa_pipelines::{CompiledProgram, PipelineKind};
use tssa_store::{fnv64, roster_fingerprint};

use crate::batch::BatchSpec;
use crate::cache::signature_of;
use crate::class::{coarse_class_hash, ClassEntry, ClassSignature};
use crate::fault::{FaultAction, FaultKind, INJECTED_COMPILE_PANIC};
use crate::service::Core;
use crate::{ServeError, Service};

/// A loaded model: a cached shape class plus its batching contract and
/// its plan's per-plan state, bound at load. Cheap to clone; clones share
/// the plan.
#[derive(Clone)]
pub struct ModelHandle {
    pub(crate) spec: Arc<BatchSpec>,
    /// Metric label identifying this model's plan (`plan="<label>"` on the
    /// per-plan batch-occupancy histogram). Defaults to
    /// `<pipeline>:<source-hash-prefix>`; name it with
    /// [`ModelLoader::named`].
    pub(crate) label: Arc<str>,
    /// Shape-class entry this handle is admitted under.
    class: Arc<ClassEntry>,
    /// `tssa_batch_occupancy{plan="<label>"}`.
    pub(crate) occupancy: HistogramMetric,
    /// The plan's profile table, when the service profiles.
    pub(crate) profile: Option<Arc<ProfileSink>>,
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
    core: &'s Core,
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
        let (source, pipeline) = (self.source.as_str(), self.pipeline);
        let example_inputs = self.example_inputs.as_slice();
        if spec.args.len() != example_inputs.len() {
            return Err(ServeError::invalid(format!(
                "batch spec covers {} arguments, model takes {}",
                spec.args.len(),
                example_inputs.len()
            )));
        }
        let core = self.core;
        let started = Instant::now();
        let args_sig = signature_of(example_inputs);
        let coarse = coarse_class_hash(source, pipeline, &args_sig);
        let mut span = core.tracer.root("request:load", "serve");
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
        let class = core.cache.get_or_compile(coarse, &args_sig, || {
            // Injected compile panic: the cache's catch_unwind converts this
            // into the typed `ServeError::CompilePanic` and wakes any
            // single-flight followers to retry.
            if core.faults.fire(FaultKind::CompilePanic).is_some() {
                core.metrics.note_fault();
                std::panic::panic_any(INJECTED_COMPILE_PANIC);
            }
            if let Some(FaultAction::Stall(pause)) = core.faults.fire(FaultKind::CompileStall) {
                core.metrics.note_fault();
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
            let warm = core
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
        if let (Some(store), Some(false)) = (core.plan_store.as_deref(), from_disk.get()) {
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
        if let Some(limit) = self.deadline {
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
        let label = model_label(self.name.as_deref(), pipeline, source);
        if let Some(sig) = class.plan().signature.as_ref() {
            core.metrics
                .registry
                .gauge(
                    "tssa_plan_polymorphic_dims",
                    "Input dims the shape certifier proved batch-polymorphic, by plan",
                    &[("plan", &label)],
                )
                .set(sig.polymorphic_dims() as f64);
        }
        Ok(ModelHandle {
            occupancy: core.metrics.registry.histogram(
                "tssa_batch_occupancy",
                "Requests coalesced per executed batch, by plan",
                &[("plan", &label)],
            ),
            profile: core.profiler.as_ref().map(|p| p.sink(&label)),
            spec,
            label,
            class,
        })
    }
}

impl Service {
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
            core: &self.core,
            source: source.to_owned(),
            name: None,
            pipeline: PipelineKind::TensorSsa,
            example_inputs: Vec::new(),
            spec: None,
            deadline: None,
        }
    }
}
