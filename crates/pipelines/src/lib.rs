//! The five compilation pipelines compared in the paper's evaluation (§5.1).
//!
//! Each pipeline takes the imperative graph captured by the frontend and
//! produces a [`CompiledProgram`]: a transformed graph plus the framework
//! overhead profile the backend charges while executing it. That profile is
//! a constant of the pipeline ([`Pipeline::exec_config`]).
//!
//! [`PipelineKind`] is the one list of the five: a `Copy` name for each
//! that the serving layer keys plans by and the plan store writes to disk,
//! mapped to its pipeline by one `match`.
//!
//! | Pipeline | Model of | Behaviour |
//! |---|---|---|
//! | [`Eager`] | PyTorch eager | no transformation; Python dispatch per op |
//! | [`TorchScriptNnc`] | TorchScript + NNC | fuses pure elementwise regions; views and mutations act as fusion barriers; compiled control flow |
//! | [`TorchScriptNvfuser`] | TorchScript + nvFuser | as NNC with a more conservative fusion threshold |
//! | [`DynamoInductor`] | TorchDynamo + TorchInductor | functorch-style data-flow functionalization *within* blocks (no cross-control-flow versioning), fused codegen, but control flow stays in the Python interpreter (guard cost per entry) |
//! | [`TensorSsa`] | the paper's system | full Algorithm 1 conversion across control flow, access/assign fusion, horizontal loop parallelization, compiled control flow |
//!
//! Every pipeline schedules its transformations through a
//! [`PassManager`], so each compile reports (and, when given a
//! [`TraceScope`], emits spans for) per-pass wall time and graph deltas —
//! the attribution data behind the paper's stage-by-stage evaluation.
//! Execution goes through an [`ExecSession`], a builder owning the
//! [`ExecConfig`] and an optional trace scope, which emits an `exec` span
//! with one `batch[i]` child per run.
//!
//! # Examples
//!
//! ```
//! use tssa_pipelines::{Pipeline, TensorSsa, Eager};
//! use tssa_frontend::compile;
//! use tssa_backend::{DeviceProfile, RtValue};
//! use tssa_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = compile(
//!     "def f(b0: Tensor, n: int):
//!          b = b0.clone()
//!          for i in range(n):
//!              b[i] = sigmoid(b[i]) * 2.0
//!          return b
//! ")?;
//! let inputs = [RtValue::Tensor(Tensor::ones(&[8, 4])), RtValue::Int(8)];
//! let eager = Eager.compile(&g);
//! let ours = TensorSsa::default().compile(&g);
//! let (eo, es) = eager.run(DeviceProfile::consumer(), &inputs)?;
//! let (to, ts) = ours
//!     .session()
//!     .on_device(DeviceProfile::consumer())
//!     .run(&inputs)?;
//! assert!(eo[0].as_tensor()?.allclose(to[0].as_tensor()?, 1e-5));
//! assert!(ts.kernel_launches < es.kernel_launches);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use tssa_backend::{
    DeviceProfile, ExecConfig, ExecError, ExecPlan, ExecStats, Executor, OpObserver, RtValue,
};
use tssa_core::passes::{
    ConstantFold, Convert, Cse, Dce, Licm, PruneLoopCarries, PurifyViews, RevertUnfusedAccesses,
};
use tssa_core::{ConversionStats, PassManager, PassRun};
use tssa_fusion::{FusionConfig, ParallelizeLoops, VerticalFusion};
use tssa_ir::{Graph, ShapeSignature};
use tssa_obs::{Span, TraceScope};

/// A graph compiled by some pipeline, ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The (possibly transformed) graph.
    pub graph: Graph,
    /// Framework overheads charged during execution (device filled in at
    /// run time).
    pub exec_config: ExecConfig,
    /// Pipeline name for reports.
    pub pipeline: &'static str,
    /// What the compilation did (zeros for non-functionalizing pipelines).
    pub conversion: ConversionStats,
    /// Number of fusion groups created.
    pub fusion_groups: usize,
    /// Number of loops parallelized.
    pub parallel_loops: usize,
    /// Per-pass record of the compilation, in run order: timing, rewrite
    /// counts and node deltas for every pass the pipeline scheduled.
    pub passes: Vec<PassRun>,
    /// Shape-polymorphism certificate, when the shape certifier has run.
    /// Compilation itself leaves this `None` (the certifier needs input
    /// ranks, which pipelines do not see); hosts that know the example
    /// inputs — the serving layer — attach it post-compile via
    /// `tssa_lint::certify_shapes` and persist it in plan files.
    pub signature: Option<ShapeSignature>,
    /// The shape-independent half of executing `graph`, derived from it
    /// when the program is made — never serialised — and shared by every
    /// clone and every run.
    plan: Arc<ExecPlan>,
}

impl CompiledProgram {
    /// `graph` as `pipeline` left it, to be executed under `exec_config`:
    /// plans its execution. What the compilation did (`conversion`,
    /// `fusion_groups`, `parallel_loops`, `passes`, `signature`) starts
    /// empty for the maker to fill in.
    pub fn new(graph: Graph, exec_config: ExecConfig, pipeline: &'static str) -> CompiledProgram {
        CompiledProgram {
            plan: Arc::new(ExecPlan::new(&graph)),
            graph,
            exec_config,
            pipeline,
            conversion: ConversionStats::default(),
            fusion_groups: 0,
            parallel_loops: 0,
            passes: Vec::new(),
            signature: None,
        }
    }

    /// Start building an execution: an [`ExecSession`] seeded with the
    /// pipeline's compile-time [`ExecConfig`].
    pub fn session(&self) -> ExecSession<'_> {
        ExecSession {
            program: self,
            config: self.exec_config.clone(),
            scope: TraceScope::disabled(),
            exec_span: None,
            batches: 0,
            observer: None,
        }
    }

    /// Execute on the given device profile.
    ///
    /// Convenience for `self.session().on_device(device).run(inputs)`; use
    /// [`CompiledProgram::session`] directly to override more of the
    /// configuration or attach tracing.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the backend.
    pub fn run(
        &self,
        device: DeviceProfile,
        inputs: &[RtValue],
    ) -> Result<(Vec<RtValue>, ExecStats), ExecError> {
        self.session().on_device(device).run(inputs)
    }
}

/// A configured execution of one [`CompiledProgram`]: owns the
/// [`ExecConfig`] (seeded from compile time, overridable per knob) and an
/// optional [`TraceScope`]. Long-lived hosts use it to re-point the device
/// and to attach tracing and op observation per execution.
///
/// When traced, the session emits a single `exec` span (opened lazily at
/// the first run, closed when the session drops) with one `batch[i]` child
/// per [`ExecSession::run`], each carrying that run's [`ExecStats`]
/// counters.
pub struct ExecSession<'p> {
    program: &'p CompiledProgram,
    config: ExecConfig,
    scope: TraceScope,
    exec_span: Option<Span>,
    batches: usize,
    observer: Option<Arc<dyn OpObserver>>,
}

impl std::fmt::Debug for ExecSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecSession")
            .field("pipeline", &self.program.pipeline)
            .field("config", &self.config)
            .field("batches", &self.batches)
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> ExecSession<'p> {
    /// Re-point execution at `device`.
    #[must_use]
    pub fn on_device(mut self, device: DeviceProfile) -> Self {
        self.config = self.config.with_device(device);
        self
    }

    /// Record this session's execution under `scope`: an `exec` span with
    /// one `batch[i]` child per run.
    #[must_use]
    pub fn traced(mut self, scope: &TraceScope) -> Self {
        self.scope = scope.clone();
        self
    }

    /// Attach an [`OpObserver`] that receives one sample per executed op
    /// — the seam the serving layer's execution profiler plugs into (see
    /// [`ProfileRecorder`]).
    #[must_use]
    pub fn observed(mut self, observer: Arc<dyn OpObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Execute one batch of inputs, returning outputs and this run's
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the backend.
    pub fn run(&mut self, inputs: &[RtValue]) -> Result<(Vec<RtValue>, ExecStats), ExecError> {
        let batch = self.batches;
        self.batches += 1;
        let mut batch_span = if self.scope.enabled() {
            let exec = self
                .exec_span
                .get_or_insert_with(|| self.scope.span("exec", "exec"));
            Some(exec.child(format!("batch[{batch}]"), "batch"))
        } else {
            None
        };
        let mut exec = Executor::new(self.config.clone());
        if let Some(obs) = &self.observer {
            exec = exec.observed(Arc::clone(obs));
        }
        let program = self.program;
        let result = exec.run_plan(&program.graph, &program.plan, inputs);
        if let Some(span) = batch_span.as_mut() {
            match &result {
                Ok((_, stats)) => span.counters(stats.counters()),
                Err(_) => span.counter("failed", 1),
            }
        }
        result
    }
}

/// Adapter from the backend's [`OpObserver`] seam onto a `tssa-obs`
/// [`tssa_obs::ProfileSink`]: stamps every sample with the plan label the
/// backend does not know. One recorder per (plan, sink) pairing; attach it
/// with [`ExecSession::observed`].
pub struct ProfileRecorder {
    plan: Arc<str>,
    sink: Arc<tssa_obs::ProfileSink>,
}

impl ProfileRecorder {
    /// A recorder feeding `sink` under the plan label `plan`.
    pub fn new(plan: impl Into<Arc<str>>, sink: Arc<tssa_obs::ProfileSink>) -> ProfileRecorder {
        ProfileRecorder {
            plan: plan.into(),
            sink,
        }
    }
}

// Group ids pass from the backend to the profile table unchanged, so both
// crates must spell "outside any fusion group" the same way.
const _: () = assert!(tssa_backend::TOP_LEVEL_GROUP == tssa_obs::TOP_LEVEL_GROUP);

impl OpObserver for ProfileRecorder {
    fn record_op(
        &self,
        group: u32,
        node: u32,
        op: &tssa_ir::Op,
        wall_ns: u64,
        bytes: u64,
        flops: u64,
    ) {
        self.sink
            .record(&self.plan, group, node, wall_ns, bytes, flops, || op.name());
    }
}

/// A compilation pipeline.
///
/// A pipeline is fully described by its [`Pipeline::passes`], the
/// [`PassManager`] it schedules, and its [`Pipeline::exec_config`], the
/// execution profile it stamps on the result. Compilation is derived from
/// the two, which means callers (the plan store, the serving cache's key)
/// can inspect a pipeline's pass roster — [`Pipeline::roster`] — without
/// compiling anything.
pub trait Pipeline {
    /// Display name, e.g. `"TensorSSA"`.
    fn name(&self) -> &'static str;

    /// The transformation schedule this pipeline applies, built fresh (a
    /// [`PassManager`] is consumed by a compile).
    fn passes(&self) -> PassManager;

    /// The execution profile this pipeline stamps on every program it
    /// compiles: a constant of the pipeline.
    fn exec_config(&self) -> ExecConfig;

    /// The pass names this pipeline would run, in order — the identity the
    /// on-disk plan cache fingerprints for invalidation.
    fn roster(&self) -> Vec<&'static str> {
        self.passes().names()
    }

    /// Compile `graph` (the captured imperative program), emitting a
    /// `compile:<name>` span under `scope` with one child span per pass.
    fn compile_traced(&self, graph: &Graph, scope: &TraceScope) -> CompiledProgram {
        compile_with(self.name(), graph, scope, self.passes(), self.exec_config())
    }

    /// Compile `graph` without tracing.
    fn compile(&self, graph: &Graph) -> CompiledProgram {
        self.compile_traced(graph, &TraceScope::disabled())
    }
}

/// Shared compile skeleton: open the `compile:<name>` span, clone the
/// captured graph under a `capture` child, run `passes`, and assemble the
/// [`CompiledProgram`] (conversion stats, fusion-group and parallel-loop
/// counts are read back off the pass records).
fn compile_with(
    name: &'static str,
    graph: &Graph,
    scope: &TraceScope,
    mut passes: PassManager,
    exec_config: ExecConfig,
) -> CompiledProgram {
    // In debug builds (including every test run) the lint pass sanitizer
    // re-verifies the graph, re-runs the effect checker and re-checks the
    // statically known output dims after each pass, attributing the first
    // broken invariant to `pass:<name>`. It is compiled out of release
    // pipelines, where pass cost is benchmarked.
    #[cfg(debug_assertions)]
    passes.add_hook(tssa_lint::PassSanitizer::new());
    let mut span = scope.span(format!("compile:{name}"), "compile");
    let cscope = span.scope();
    let mut g = {
        let _capture = cscope.span("capture", "compile");
        graph.clone()
    };
    let runs = passes.run(&mut g, &cscope);
    span.counter("passes", runs.len() as i64);
    span.counter("nodes", g.live_node_count() as i64);
    let rewrites_of = |pass: &str| {
        runs.iter()
            .find(|r| r.name == pass)
            .map_or(0, |r| r.rewrites)
    };
    let fusion_groups = rewrites_of("fuse-vertical");
    let parallel_loops = rewrites_of("parallelize-loops");
    span.counter("fusion_groups", fusion_groups as i64);
    let mut program = {
        let _plan = cscope.span("plan", "compile");
        CompiledProgram::new(g, exec_config, name)
    };
    program.conversion = conversion_from(&runs);
    program.fusion_groups = fusion_groups;
    program.parallel_loops = parallel_loops;
    program.passes = runs;
    program
}

/// Reassemble the conversion pass's [`ConversionStats`] from the counters
/// it published on its [`PassRun`].
fn conversion_from(runs: &[PassRun]) -> ConversionStats {
    let Some(run) = runs.iter().find(|r| r.name == "tensorssa-convert") else {
        return ConversionStats::default();
    };
    let get = |key: &str| {
        run.counters
            .iter()
            .find(|(n, _)| *n == key)
            .map_or(0, |&(_, v)| v as usize)
    };
    ConversionStats {
        candidates: get("candidates"),
        mutations_removed: get("mutations_removed"),
        views_rewritten: get("views_rewritten"),
        updates_inserted: get("updates_inserted"),
        loop_carries_added: get("loop_carries_added"),
        branch_returns_added: get("branch_returns_added"),
    }
}

/// PyTorch eager mode: the baseline everything is normalized to (Figure 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct Eager;

impl Pipeline for Eager {
    fn name(&self) -> &'static str {
        "Eager"
    }

    fn passes(&self) -> PassManager {
        PassManager::new()
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig::eager()
    }
}

/// TorchScript's schedule: clean-ups, then vertical fusion under `cfg`.
fn torchscript_passes(cfg: FusionConfig) -> PassManager {
    PassManager::new()
        .with(ConstantFold)
        .with(Cse)
        .with(Licm)
        .with(Dce)
        .with(VerticalFusion::new(cfg))
}

/// TorchScript with the NNC fuser: mutation and views are fusion barriers;
/// no functionalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct TorchScriptNnc;

impl Pipeline for TorchScriptNnc {
    fn name(&self) -> &'static str {
        "TorchScript+NNC"
    }

    fn passes(&self) -> PassManager {
        torchscript_passes(FusionConfig {
            fuse_access_assign: false,
            ..FusionConfig::default()
        })
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig::compiled()
    }
}

/// TorchScript with nvFuser: modelled as NNC with a more conservative fusion
/// threshold (nvFuser declines small fusion groups).
#[derive(Debug, Clone, Copy, Default)]
pub struct TorchScriptNvfuser;

impl Pipeline for TorchScriptNvfuser {
    fn name(&self) -> &'static str {
        "TorchScript+nvFuser"
    }

    fn passes(&self) -> PassManager {
        torchscript_passes(FusionConfig {
            min_group_size: 3,
            fuse_access_assign: false,
        })
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig::compiled()
    }
}

/// TorchDynamo + TorchInductor: data-flow functionalization (functorch) that
/// stops at control-flow boundaries, strong codegen inside compiled regions,
/// Python-resident control flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamoInductor;

impl Pipeline for DynamoInductor {
    fn name(&self) -> &'static str {
        "Dynamo+Inductor"
    }

    fn passes(&self) -> PassManager {
        // Non-holistic functionalization: components whose mutations cross a
        // control-flow boundary are left imperative (graph breaks).
        PassManager::new()
            .with(Convert::new(false))
            .with(PurifyViews)
            .with(ConstantFold)
            .with(Cse)
            .with(Licm)
            .with(Dce)
            .with(VerticalFusion::new(FusionConfig::default()))
            .with(RevertUnfusedAccesses)
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig::traced_python_control()
    }
}

/// The paper's pipeline: holistic TensorSSA conversion, then vertical fusion
/// including access/assign, then horizontal loop parallelization.
#[derive(Debug, Clone, Copy)]
pub struct TensorSsa {
    /// Disable block propagation (ablation 1 in DESIGN.md).
    pub block_propagation: bool,
    /// Disable loop parallelization (ablation 2).
    pub horizontal: bool,
    /// Disable access/assign fusion (ablation 3).
    pub fuse_access_assign: bool,
}

/// The paper's configuration: every optimization on.
const PAPER: TensorSsa = TensorSsa {
    block_propagation: true,
    horizontal: true,
    fuse_access_assign: true,
};

impl Default for TensorSsa {
    fn default() -> Self {
        PAPER
    }
}

impl Pipeline for TensorSsa {
    fn name(&self) -> &'static str {
        "TensorSSA"
    }

    fn passes(&self) -> PassManager {
        let mut pm = PassManager::new();
        pm.add(Convert::new(self.block_propagation));
        pm.add(PurifyViews);
        pm.add(ConstantFold);
        pm.add(Cse);
        pm.add(Licm);
        pm.add(Dce);
        pm.add(PruneLoopCarries);
        pm.add(Dce);
        if self.horizontal {
            pm.add(ParallelizeLoops::default());
        }
        pm.add(VerticalFusion::new(FusionConfig {
            fuse_access_assign: self.fuse_access_assign,
            ..FusionConfig::default()
        }));
        pm.add(RevertUnfusedAccesses);
        pm.add(Dce);
        pm
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig::compiled()
    }
}

/// The five pipelines of the paper's figures as a `Copy + Eq + Hash`
/// value: the one list of them. It names a plan's compiler in the serving
/// layer's class keys and in plan files, and everything that follows from
/// the name (passes, roster, execution profile) is read off the pipeline
/// it maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// PyTorch eager baseline.
    Eager,
    /// TorchScript with the NNC fuser.
    TorchScriptNnc,
    /// TorchScript with nvFuser.
    TorchScriptNvfuser,
    /// TorchDynamo + TorchInductor.
    DynamoInductor,
    /// The paper's holistic TensorSSA pipeline.
    TensorSsa,
}

impl PipelineKind {
    /// The five pipelines, in the paper's (Figure 5) order.
    pub fn all() -> [PipelineKind; 5] {
        [
            PipelineKind::Eager,
            PipelineKind::TorchScriptNnc,
            PipelineKind::TorchScriptNvfuser,
            PipelineKind::DynamoInductor,
            PipelineKind::TensorSsa,
        ]
    }

    /// The pipeline this kind names.
    pub fn pipeline(self) -> &'static dyn Pipeline {
        match self {
            PipelineKind::Eager => &Eager,
            PipelineKind::TorchScriptNnc => &TorchScriptNnc,
            PipelineKind::TorchScriptNvfuser => &TorchScriptNvfuser,
            PipelineKind::DynamoInductor => &DynamoInductor,
            PipelineKind::TensorSsa => &PAPER,
        }
    }

    /// The kind whose [`Pipeline::name`] is `name`.
    pub fn from_name(name: &str) -> Option<PipelineKind> {
        PipelineKind::all().into_iter().find(|k| k.name() == name)
    }

    /// [`Pipeline::name`] of this kind's pipeline.
    pub fn name(self) -> &'static str {
        self.pipeline().name()
    }

    /// [`Pipeline::compile`] with this kind's pipeline.
    pub fn compile(self, graph: &Graph) -> CompiledProgram {
        self.pipeline().compile(graph)
    }

    /// [`Pipeline::compile_traced`] with this kind's pipeline.
    pub fn compile_traced(self, graph: &Graph, scope: &TraceScope) -> CompiledProgram {
        self.pipeline().compile_traced(graph, scope)
    }

    /// [`Pipeline::roster`] of this kind's pipeline.
    pub fn roster(self) -> Vec<&'static str> {
        self.pipeline().roster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_frontend::compile;
    use tssa_tensor::Tensor;

    fn figure4() -> Graph {
        compile(
            "def f(b0: Tensor, n: int):
                 b = b0.clone()
                 for i in range(n):
                     b[i] = sigmoid(b[i]) * 2.0
                 return b
        ",
        )
        .unwrap()
    }

    fn run_all(g: &Graph, inputs: &[RtValue]) -> Vec<(String, Vec<RtValue>, ExecStats)> {
        PipelineKind::all()
            .into_iter()
            .map(|p| {
                let cp = p.compile(g);
                assert!(
                    cp.graph.verify().is_ok(),
                    "{}: {:?}",
                    p.name(),
                    cp.graph.verify()
                );
                let (o, s) = cp.run(DeviceProfile::consumer(), inputs).unwrap();
                (p.name().to_string(), o, s)
            })
            .collect()
    }

    #[test]
    fn all_pipelines_agree_numerically() {
        let g = figure4();
        let b = Tensor::rand_uniform(&[8, 4], -1.0, 1.0, 42);
        let results = run_all(&g, &[RtValue::Tensor(b), RtValue::Int(8)]);
        let reference = results[0].1[0].as_tensor().unwrap().clone();
        for (name, outs, _) in &results {
            assert!(
                outs[0].as_tensor().unwrap().allclose(&reference, 1e-5),
                "{name} diverges from eager"
            );
        }
    }

    #[test]
    fn tensorssa_launches_fewest_kernels() {
        let g = figure4();
        let b = Tensor::rand_uniform(&[8, 4], -1.0, 1.0, 1);
        let results = run_all(&g, &[RtValue::Tensor(b), RtValue::Int(8)]);
        let by_name = |n: &str| {
            results
                .iter()
                .find(|(name, ..)| name == n)
                .map(|(_, _, s)| s.kernel_launches)
                .unwrap()
        };
        let ours = by_name("TensorSSA");
        assert!(ours <= by_name("Eager"));
        assert!(ours <= by_name("TorchScript+NNC"));
        assert!(ours <= by_name("Dynamo+Inductor"));
        // Horizontal parallelization collapses the loop: the clone plus one
        // batched launch.
        assert_eq!(ours, 2, "{results:#?}");
    }

    #[test]
    fn tensorssa_is_fastest_on_loop_workload() {
        let g = figure4();
        let b = Tensor::rand_uniform(&[16, 8], -1.0, 1.0, 2);
        let results = run_all(&g, &[RtValue::Tensor(b), RtValue::Int(16)]);
        let ours = results.iter().find(|(n, ..)| n == "TensorSSA").unwrap().2;
        for (name, _, stats) in &results {
            if name != "TensorSSA" {
                assert!(
                    ours.total_ns() < stats.total_ns(),
                    "TensorSSA ({:.1}us) should beat {name} ({:.1}us)",
                    ours.total_us(),
                    stats.total_us()
                );
            }
        }
    }

    #[test]
    fn ablation_flags_change_behavior() {
        let g = figure4();
        let full = TensorSsa::default().compile(&g);
        let no_prop = TensorSsa {
            block_propagation: false,
            ..TensorSsa::default()
        }
        .compile(&g);
        let no_horizontal = TensorSsa {
            horizontal: false,
            ..TensorSsa::default()
        }
        .compile(&g);
        assert!(full.conversion.mutations_removed > 0);
        assert_eq!(no_prop.conversion.mutations_removed, 0);
        assert_eq!(full.parallel_loops, 1);
        assert_eq!(no_horizontal.parallel_loops, 0);
    }

    #[test]
    fn branchy_program_supported_by_all() {
        let g = compile(
            "def f(x: Tensor, c: bool):
                 b = x.clone()
                 if c:
                     b[0] = relu(b[0])
                 else:
                     b[0] = sigmoid(b[0])
                 return b
        ",
        )
        .unwrap();
        let x = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, 3);
        for cond in [true, false] {
            let results = run_all(&g, &[RtValue::Tensor(x.clone()), RtValue::Bool(cond)]);
            let reference = results[0].1[0].as_tensor().unwrap().clone();
            for (name, outs, _) in &results {
                assert!(
                    outs[0].as_tensor().unwrap().allclose(&reference, 1e-5),
                    "{name} diverges (cond={cond})"
                );
            }
        }
    }

    #[test]
    fn compiled_program_records_pass_runs() {
        let g = figure4();
        let cp = TensorSsa::default().compile(&g);
        let names: Vec<&str> = cp.passes.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "tensorssa-convert",
                "purify-views",
                "constant-fold",
                "cse",
                "licm",
                "dce",
                "prune-loop-carries",
                "dce",
                "parallelize-loops",
                "fuse-vertical",
                "revert-unfused-accesses",
                "dce",
            ]
        );
        assert_eq!(
            cp.passes
                .iter()
                .find(|r| r.name == "fuse-vertical")
                .unwrap()
                .rewrites,
            cp.fusion_groups
        );
        assert!(cp
            .passes
            .iter()
            .any(|r| r.duration > std::time::Duration::ZERO));
        // Eager schedules nothing.
        assert!(Eager.compile(&g).passes.is_empty());
    }

    #[test]
    fn roster_matches_compiled_pass_record() {
        let g = figure4();
        for p in PipelineKind::all() {
            let roster = p.roster();
            let names: Vec<&str> = p.compile(&g).passes.iter().map(|r| r.name).collect();
            assert_eq!(roster, names, "{} roster drifted from compile", p.name());
        }
    }

    #[test]
    fn pipeline_kinds_resolve_by_name_to_what_their_compile_stamps() {
        let g = figure4();
        for kind in PipelineKind::all() {
            assert_eq!(PipelineKind::from_name(kind.name()), Some(kind));
            let cp = kind.compile(&g);
            assert_eq!(PipelineKind::from_name(cp.pipeline), Some(kind));
            assert_eq!(cp.exec_config, kind.pipeline().exec_config());
        }
        assert_eq!(PipelineKind::TensorSsa.name(), "TensorSSA");
        assert_eq!(PipelineKind::from_name("tensorssa"), None);
        assert_eq!(PipelineKind::from_name(""), None);
    }

    #[test]
    fn session_reuses_and_overrides_config() {
        let g = figure4();
        let cp = TensorSsa::default().compile(&g);
        let inputs = [
            RtValue::Tensor(Tensor::rand_uniform(&[8, 4], -1.0, 1.0, 7)),
            RtValue::Int(8),
        ];
        let moved = cp
            .exec_config
            .clone()
            .with_device(DeviceProfile::datacenter());
        let expected = Executor::new(moved).run(&cp.graph, &inputs).unwrap().1;
        let (_, unmoved) = cp.session().run(&inputs).unwrap();
        assert_ne!(expected.device_ns, unmoved.device_ns);

        let (tracer, spans) = tssa_obs::Tracer::ring(16);
        let mut session = (cp.session())
            .on_device(DeviceProfile::datacenter())
            .traced(&tracer.scope());
        let mut aggregate = ExecStats::default();
        let (_, s1) = session.run(&inputs).unwrap();
        aggregate.merge(&s1);
        let (_, s2) = session.run(&inputs).unwrap();
        aggregate.merge(&s2);
        drop(session);
        // Every run of the session uses the device it was re-pointed at,
        // and each run is one batch.
        assert_eq!(
            (s1.device_ns, s2.device_ns),
            (expected.device_ns, expected.device_ns)
        );
        let names: Vec<String> = spans.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["exec", "batch[0]", "batch[1]"]);
        assert_eq!(
            aggregate.kernel_launches,
            s1.kernel_launches + s2.kernel_launches
        );
    }

    #[test]
    fn observed_session_attributes_every_executed_op() {
        let g = figure4();
        let cp = TensorSsa::default().compile(&g);
        let profiler = tssa_obs::Profiler::new();
        let sink = profiler.sink();
        let mut session = cp
            .session()
            .on_device(DeviceProfile::consumer())
            .observed(Arc::new(ProfileRecorder::new("figure4", Arc::clone(&sink))));
        let inputs = [
            RtValue::Tensor(Tensor::rand_uniform(&[8, 4], -1.0, 1.0, 5)),
            RtValue::Int(8),
        ];
        let (_, stats) = session.run(&inputs).unwrap();
        let snap = profiler.snapshot();
        assert!(!snap.entries.is_empty(), "profiler saw no ops");
        let recorded: u64 = snap.entries.iter().map(|(_, s)| s.count).sum();
        // Every sample carries the session's plan label and a resolved name.
        for (key, stat) in &snap.entries {
            assert_eq!(&*key.plan, "figure4");
            assert!(!stat.op.is_empty(), "missing op name for node {}", key.node);
        }
        // At least one sample per op the cost model charged, plus control
        // and group-overhead frames.
        assert!(
            recorded >= stats.ops_executed,
            "recorded {recorded} < executed {}",
            stats.ops_executed
        );
    }
}
