//! End-to-end checks tying the analyses to the real compiler:
//!
//! 1. The TensorSSA pipeline's output is certified mutation-free for every
//!    paper workload (the claim the whole optimization rests on).
//! 2. The pass sanitizer pinpoints the offending pass when a bad rewrite is
//!    injected into a realistic pass schedule, and the violation surfaces
//!    in the `tssa-obs` span tree.
//! 3. Differential fuzzing of the full pipeline: random imperative programs
//!    agree between the reference interpreter and the compiled output.

use tssa_core::passes::{ConstantFold, Dce};
use tssa_core::{convert_to_tensorssa, Pass, PassManager};
use tssa_ir::{Graph, MutateKind, Op, Type};
use tssa_lint::{certify_pure, check_effects, fuzz, lint, PassSanitizer, Severity};
use tssa_obs::{TraceScope, Tracer};
use tssa_pipelines::{Pipeline, TensorSsa};
use tssa_workloads::all_workloads;

#[test]
fn tensorssa_output_is_pure_for_all_workloads() {
    for w in all_workloads() {
        let g = w.graph().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let imperative = check_effects(&g);
        let cp = TensorSsa::default().compile(&g);
        certify_pure(&cp.graph).unwrap_or_else(|diags| {
            panic!(
                "{}: compiled graph not pure ({} imperative effects before):\n{}",
                w.name,
                imperative.violations.len(),
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
    }
}

#[test]
fn workload_sources_lint_clean_at_deny_level() {
    // No workload should trip a Deny-level rule; warnings are allowed
    // (several workloads intentionally mutate caller tensors).
    for w in all_workloads() {
        let g = w.graph().unwrap();
        let denies: Vec<String> = lint(&g)
            .into_iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.to_string())
            .collect();
        assert!(denies.is_empty(), "{}: {denies:?}", w.name);
    }
}

/// A bad rewrite: turns the last `immut::access`-free graph impure by
/// appending an in-place mutation of the first graph input.
struct BadRewrite;

impl Pass for BadRewrite {
    fn name(&self) -> &'static str {
        "bad-rewrite"
    }
    fn run(&mut self, g: &mut Graph) -> usize {
        let v = g.block(g.top()).params[0];
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        1
    }
}

/// TensorSSA conversion as a pass, mirroring the pipeline's first stage.
struct Convert;

impl Pass for Convert {
    fn name(&self) -> &'static str {
        "tensorssa-convert"
    }
    fn run(&mut self, g: &mut Graph) -> usize {
        convert_to_tensorssa(g).mutations_removed
    }
}

#[test]
fn sanitizer_attributes_injected_bad_pass_in_schedule() {
    let g = tssa_frontend::compile(
        "def f(b0: Tensor, n: int):
             b = b0.clone()
             for i in range(n):
                 b[i] = b[i] + 1.0
             return b
    ",
    )
    .unwrap();
    let (tracer, sink) = Tracer::ring(64);
    let mut pm = PassManager::new()
        .with(Convert)
        .with(ConstantFold)
        .with(BadRewrite)
        .with(Dce)
        .with_hook(PassSanitizer::new());
    let mut work = g.clone();
    let err = pm
        .try_run(&mut work, &tracer.scope())
        .expect_err("bad rewrite must be caught");
    assert_eq!(err.pass, "bad-rewrite");
    assert_eq!(err.hook, "lint-sanitizer");
    assert!(err.message.contains("effect violations increased"), "{err}");

    // The violation is visible in the span tree, on the offending pass only.
    let spans = sink.snapshot();
    let violated: Vec<&str> = spans
        .iter()
        .filter(|s| s.counter("sanitizer_violations").unwrap_or(0) > 0)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(violated, ["pass:bad-rewrite"]);
}

#[test]
fn sanitizer_passes_clean_schedule_on_same_graph() {
    let g = tssa_frontend::compile(
        "def f(b0: Tensor, n: int):
             b = b0.clone()
             for i in range(n):
                 b[i] = b[i] + 1.0
             return b
    ",
    )
    .unwrap();
    let mut pm = PassManager::new()
        .with(Convert)
        .with(ConstantFold)
        .with(Dce)
        .with_hook(PassSanitizer::new());
    let mut work = g.clone();
    pm.try_run(&mut work, &TraceScope::disabled())
        .expect("clean schedule");
    certify_pure(&work).expect("converted graph is pure");
}

#[test]
fn differential_fuzz_full_pipeline() {
    // Smoke slice of the CI fuzz run (2,000 seeds in scripts/ci.sh): the
    // full TensorSSA pipeline, compiled ExecConfig included, bit for bit
    // against the reference interpreter — plus the three seeds of the first
    // 2,000 where CSE once merged a tensor with its later-mutated twin.
    let compile = |g: &Graph| {
        let cp = TensorSsa::default().compile(g);
        Ok((cp.graph, cp.exec_config))
    };
    for seed in (0..25).chain([351, 1028, 1790]) {
        fuzz::diff_case_compiled(seed, &compile).unwrap();
    }
}
