//! Uniform pass infrastructure: the [`Pass`] trait and the [`PassManager`]
//! that runs sequences of passes with per-pass timing and graph-delta
//! accounting.
//!
//! The pipelines used to invoke optimization passes as loose free functions,
//! which left no seam for attribution: nobody could say how long DCE took or
//! how many nodes fusion removed on a given compile. Every transformation is
//! now a [`Pass`] — the TensorSSA conversion, the cleanup passes, vertical
//! fusion, loop parallelization — and a [`PassManager`] runs them in order,
//! producing one [`PassRun`] record (and, when a
//! [`tssa_obs::TraceScope`] is supplied, one child span) per pass.
//!
//! # Examples
//!
//! ```
//! use tssa_core::{PassManager, passes::{ConstantFold, Dce}};
//! use tssa_ir::parse_graph;
//! use tssa_obs::TraceScope;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = parse_graph(
//!     "graph():
//!        %a : int = prim::Constant[value=2]()
//!        %b : int = prim::Constant[value=3]()
//!        %c : int = aten::int_add(%a, %b)
//!        return (%c)",
//! )?;
//! let mut pm = PassManager::new().with(ConstantFold).with(Dce);
//! let runs = pm.run(&mut g, &TraceScope::disabled());
//! assert_eq!(runs[0].name, "constant-fold");
//! assert_eq!(runs[0].rewrites, 1);
//! assert!(runs[1].nodes_after < runs[1].nodes_before);
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use tssa_ir::Graph;
use tssa_obs::{MetricsRegistry, TraceScope};

/// One graph transformation with a stable name.
///
/// `run` takes `&mut self` so passes can retain per-run details beyond the
/// rewrite count (e.g. the conversion pass keeps its full
/// [`crate::ConversionStats`]); those extras surface through
/// [`Pass::counters`] and end up on the pass's span and [`PassRun`] record.
pub trait Pass {
    /// Stable display name, e.g. `"dce"` — used as the span name
    /// (`pass:<name>`) and in reports.
    fn name(&self) -> &'static str;

    /// Apply the pass to `g`, returning the number of rewrites performed
    /// (nodes removed, merged, hoisted, fused… — the pass's own unit).
    fn run(&mut self, g: &mut Graph) -> usize;

    /// Extra counters describing the most recent `run`, beyond the rewrite
    /// count and node delta the manager records for every pass.
    fn counters(&self) -> Vec<(&'static str, i64)> {
        Vec::new()
    }
}

/// An invariant checker the [`PassManager`] re-runs after **every** pass —
/// the seam the pass sanitizer in `tssa-lint` plugs into. Hooks observe the
/// graph between passes and report the first broken invariant, which the
/// manager attributes to the pass that just ran (`pass:<name>`).
///
/// `check` takes `&mut self` so hooks can carry state across passes (the
/// effect sanitizer ratchets a violation baseline downward: a pass may
/// remove mutations but never introduce new ones).
pub trait PassHook {
    /// Stable display name of the hook, e.g. `"lint-sanitizer"`.
    fn name(&self) -> &'static str;

    /// Observe the captured graph before the first pass runs (baseline).
    fn begin(&mut self, g: &Graph) {
        let _ = g;
    }

    /// Check invariants after `pass` ran.
    ///
    /// # Errors
    ///
    /// Describe the first violated invariant; the manager wraps it in a
    /// [`SanitizerViolation`] attributing it to `pass`.
    fn check(&mut self, pass: &'static str, g: &Graph) -> Result<(), String>;
}

/// A [`PassHook`] failure, attributed to the pass after which it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerViolation {
    /// [`Pass::name`] of the offending pass.
    pub pass: &'static str,
    /// [`PassHook::name`] of the hook that caught it.
    pub hook: &'static str,
    /// Description of the broken invariant.
    pub message: String,
}

impl std::fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass:{} broke an invariant ({}): {}",
            self.pass, self.hook, self.message
        )
    }
}

impl std::error::Error for SanitizerViolation {}

/// The record of one pass execution inside [`PassManager::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassRun {
    /// [`Pass::name`] of the pass that ran.
    pub name: &'static str,
    /// Rewrites the pass reported.
    pub rewrites: usize,
    /// Live nodes in the graph before the pass.
    pub nodes_before: usize,
    /// Live nodes after the pass.
    pub nodes_after: usize,
    /// Wall-clock duration of the pass (bookkeeping included).
    pub duration: Duration,
    /// [`Pass::counters`] of the run.
    pub counters: Vec<(&'static str, i64)>,
}

/// Runs an ordered sequence of passes over a graph, recording timing and
/// graph deltas per pass, and emitting one `pass:<name>` span per pass when
/// given an enabled [`TraceScope`]. Every run also feeds the per-pass
/// wall-time histogram `tssa_pass_wall_us{pass=...}` in the process-wide
/// [`MetricsRegistry::global`].
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    hooks: Vec<Box<dyn PassHook>>,
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new()
    }
}

impl PassManager {
    /// An empty manager, registering pass timings into
    /// [`MetricsRegistry::global`].
    pub fn new() -> PassManager {
        PassManager {
            passes: Vec::new(),
            hooks: Vec::new(),
        }
    }

    /// Append a pass (builder style).
    #[must_use]
    pub fn with(mut self, pass: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Register a sanitizer hook, re-checked after every pass (builder
    /// style).
    #[must_use]
    pub fn with_hook(mut self, hook: impl PassHook + 'static) -> PassManager {
        self.hooks.push(Box::new(hook));
        self
    }

    /// Register a sanitizer hook, re-checked after every pass.
    pub fn add_hook(&mut self, hook: impl PassHook + 'static) {
        self.hooks.push(Box::new(hook));
    }

    /// Names of the registered passes, in run order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run every pass in order over `g`. Each pass gets a `pass:<name>`
    /// child span under `scope` carrying its rewrite count, node delta and
    /// [`Pass::counters`]; the same data is returned as [`PassRun`]s for
    /// callers that want programmatic access (the pipelines store them on
    /// the compiled program).
    ///
    /// # Panics
    ///
    /// Panics if a registered [`PassHook`] reports a violation — a pass
    /// broke a graph invariant, which is a compiler bug, not a user error.
    /// Use [`PassManager::try_run`] to handle violations programmatically.
    pub fn run(&mut self, g: &mut Graph, scope: &TraceScope) -> Vec<PassRun> {
        match self.try_run(g, scope) {
            Ok(runs) => runs,
            Err(v) => panic!("pass sanitizer: {v}"),
        }
    }

    /// As [`PassManager::run`], but a [`PassHook`] violation stops the
    /// pipeline and is returned (attributed to the offending pass) instead
    /// of panicking. The violation is also recorded on the offending pass's
    /// `pass:<name>` span as a `sanitizer_violations` counter, so it shows
    /// up in the trace tree next to the pass timings.
    ///
    /// # Errors
    ///
    /// The first [`SanitizerViolation`] any hook reports.
    pub fn try_run(
        &mut self,
        g: &mut Graph,
        scope: &TraceScope,
    ) -> Result<Vec<PassRun>, SanitizerViolation> {
        for hook in &mut self.hooks {
            hook.begin(g);
        }
        let mut runs = Vec::with_capacity(self.passes.len());
        for pass in &mut self.passes {
            let mut span = scope.span(format!("pass:{}", pass.name()), "pass");
            let start = Instant::now();
            let nodes_before = g.live_node_count();
            let rewrites = pass.run(g);
            let nodes_after = g.live_node_count();
            let counters = pass.counters();
            let duration = start.elapsed();
            // When this compile is traced, the observation doubles as the
            // series' exemplar: the exposition line links back to the trace
            // (root span id) that produced it.
            MetricsRegistry::global()
                .histogram(
                    "tssa_pass_wall_us",
                    "Per-pass compile wall time (power-of-two buckets, µs)",
                    &[("pass", pass.name())],
                )
                .observe_with_exemplar(
                    duration.as_micros().min(u128::from(u64::MAX)) as u64,
                    span.root_id(),
                );
            span.counter("rewrites", rewrites as i64);
            span.counter("nodes_before", nodes_before as i64);
            span.counter("nodes_after", nodes_after as i64);
            span.counters(counters.iter().copied());
            let mut violation = None;
            for hook in &mut self.hooks {
                if let Err(message) = hook.check(pass.name(), g) {
                    violation = Some(SanitizerViolation {
                        pass: pass.name(),
                        hook: hook.name(),
                        message,
                    });
                    break;
                }
            }
            if violation.is_some() {
                span.counter("sanitizer_violations", 1);
            }
            span.finish();
            runs.push(PassRun {
                name: pass.name(),
                rewrites,
                nodes_before,
                nodes_after,
                duration,
                counters,
            });
            if let Some(v) = violation {
                return Err(v);
            }
        }
        Ok(runs)
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{ConstantFold, Cse, Dce};
    use tssa_ir::parse_graph;
    use tssa_obs::Tracer;

    fn sample() -> Graph {
        parse_graph(
            "graph(%x : Tensor):
               %a : Tensor = aten::relu(%x)
               %b : Tensor = aten::relu(%x)
               %c : Tensor = aten::add(%a, %b)
               %dead : Tensor = aten::tanh(%x)
               return (%c)",
        )
        .unwrap()
    }

    #[test]
    fn manager_runs_in_order_and_accounts_deltas() {
        let mut g = sample();
        let mut pm = PassManager::new().with(Cse).with(Dce);
        assert_eq!(pm.names(), vec!["cse", "dce"]);
        assert_eq!(pm.len(), 2);
        assert!(!pm.is_empty());
        let runs = pm.run(&mut g, &TraceScope::disabled());
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].name, "cse");
        assert_eq!(runs[0].rewrites, 1, "duplicate relu merged");
        assert_eq!(runs[0].nodes_after + 1, runs[0].nodes_before);
        // DCE sees the graph CSE left behind: the dead tanh dies.
        assert_eq!(runs[1].nodes_before, runs[0].nodes_after);
        assert!(runs[1].rewrites >= 1);
        assert!(g.verify().is_ok());
    }

    #[test]
    fn manager_emits_one_span_per_pass() {
        let (tracer, sink) = Tracer::ring(16);
        let root = tracer.root("compile", "compile");
        let mut g = sample();
        let mut pm = PassManager::new().with(ConstantFold).with(Cse).with(Dce);
        pm.run(&mut g, &root.scope());
        root.finish();
        let records = sink.snapshot();
        assert_eq!(records.len(), 4);
        let compile = &records[0];
        assert_eq!(compile.name, "compile");
        let names: Vec<&str> = records[1..].iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["pass:constant-fold", "pass:cse", "pass:dce"]);
        for r in &records[1..] {
            assert_eq!(r.parent, Some(compile.id));
            assert_eq!(r.category, "pass");
            assert!(r.counter("rewrites").is_some());
            assert!(r.counter("nodes_before").is_some());
        }
    }

    struct FailAfter {
        target: &'static str,
    }

    impl PassHook for FailAfter {
        fn name(&self) -> &'static str {
            "fail-after"
        }

        fn check(&mut self, pass: &'static str, _g: &Graph) -> Result<(), String> {
            if pass == self.target {
                Err("injected violation".to_string())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn hook_violation_is_attributed_to_offending_pass() {
        let (tracer, sink) = Tracer::ring(16);
        let root = tracer.root("compile", "compile");
        let mut g = sample();
        let mut pm = PassManager::new()
            .with(Cse)
            .with(Dce)
            .with_hook(FailAfter { target: "dce" });
        let err = pm.try_run(&mut g, &root.scope()).unwrap_err();
        root.finish();
        assert_eq!(err.pass, "dce");
        assert_eq!(err.hook, "fail-after");
        assert!(err.to_string().contains("pass:dce"), "{err}");
        // The violation surfaces in the span tree on the offending pass.
        let records = sink.snapshot();
        let dce = records.iter().find(|r| r.name == "pass:dce").unwrap();
        assert_eq!(dce.counter("sanitizer_violations"), Some(1));
        let cse = records.iter().find(|r| r.name == "pass:cse").unwrap();
        assert_eq!(cse.counter("sanitizer_violations"), None);
    }

    #[test]
    #[should_panic(expected = "pass sanitizer")]
    fn run_panics_on_hook_violation() {
        let mut g = sample();
        let mut pm = PassManager::new()
            .with(Dce)
            .with_hook(FailAfter { target: "dce" });
        pm.run(&mut g, &TraceScope::disabled());
    }

    #[test]
    fn pass_timings_land_in_the_metrics_registry() {
        // A pass name no other test runs, so the process-wide histogram's
        // count is this test's alone.
        struct TimingProbe;
        impl Pass for TimingProbe {
            fn name(&self) -> &'static str {
                "timing-probe"
            }
            fn run(&mut self, _g: &mut Graph) -> usize {
                0
            }
        }
        let mut g = sample();
        let mut pm = PassManager::new().with(TimingProbe).with(Dce);
        pm.run(&mut g, &TraceScope::disabled());
        pm.run(&mut g, &TraceScope::disabled());
        let registry = MetricsRegistry::global();
        let probe = registry.histogram("tssa_pass_wall_us", "", &[("pass", "timing-probe")]);
        assert_eq!(probe.count(), 2, "one sample per run");
        let text = registry.prometheus_text();
        assert!(
            text.contains("tssa_pass_wall_us_count{pass=\"timing-probe\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn pass_runs_report_counters() {
        let mut g = sample();
        let mut pm = PassManager::new().with(Dce);
        let runs = pm.run(&mut g, &TraceScope::disabled());
        assert_eq!(runs[0].counters, Vec::new());
        assert!(runs[0].duration >= Duration::ZERO);
    }
}
