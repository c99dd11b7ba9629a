//! Pass sanitizer: a [`PassHook`] that re-verifies the graph and re-runs the
//! effect checker after every pass, attributing the first broken invariant
//! to the offending pass.
//!
//! Two invariants are enforced:
//!
//! 1. **Well-formedness** — `Graph::verify` must hold after every pass.
//! 2. **Effect ratchet** — the number of effect violations
//!    ([`crate::check_effects`]) must never *increase*. Imperative input
//!    graphs legally carry violations before TensorSSA conversion; the
//!    conversion pass lowers the count and later passes must not reintroduce
//!    mutation, leftover `tssa::update` markers, or view escapes.
//!
//! The hook is installed by `tssa-pipelines` under `debug_assertions` (on in
//! tests and debug builds, compiled out of release pipelines), so every
//! pipeline test in the workspace doubles as a sanitizer run.

use tssa_core::PassHook;
use tssa_ir::Graph;

use crate::effect::check_effects;

/// The lint pass sanitizer. See the module docs.
#[derive(Debug, Default)]
pub struct PassSanitizer {
    /// Effect-violation count of the graph before the first pass; updated
    /// downward as passes remove violations (ratchet).
    baseline: Option<usize>,
}

impl PassSanitizer {
    /// A sanitizer that takes its baseline from the first graph it sees.
    pub fn new() -> PassSanitizer {
        PassSanitizer::default()
    }
}

impl PassHook for PassSanitizer {
    fn name(&self) -> &'static str {
        "lint-sanitizer"
    }

    fn begin(&mut self, g: &Graph) {
        self.baseline = Some(check_effects(g).violations.len());
    }

    fn check(&mut self, pass: &'static str, g: &Graph) -> Result<(), String> {
        if let Err(e) = g.verify() {
            return Err(format!("graph verification failed after pass: {e}"));
        }
        let report = check_effects(g);
        let count = report.violations.len();
        let baseline = self.baseline.unwrap_or(count);
        if count > baseline {
            let first = report
                .violations
                .iter()
                .map(|d| d.to_string())
                .next()
                .unwrap_or_default();
            return Err(format!(
                "effect violations increased from {baseline} to {count} \
                 (pass {pass} reintroduced an effect); first: {first}"
            ));
        }
        self.baseline = Some(count);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_core::{Pass, PassManager};
    use tssa_ir::{MutateKind, Op, Type, UnaryKind};
    use tssa_obs::TraceScope;

    /// A pass that ignores its input and appends a fresh in-place mutation —
    /// the kind of bad rewrite the sanitizer exists to catch.
    struct InjectMutation;

    impl Pass for InjectMutation {
        fn name(&self) -> &'static str {
            "inject-mutation"
        }
        fn run(&mut self, g: &mut Graph) -> usize {
            let v = g.block(g.top()).params[0];
            g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
            1
        }
    }

    struct Noop;

    impl Pass for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn run(&mut self, _g: &mut Graph) -> usize {
            0
        }
    }

    fn input_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let r = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        g
    }

    #[test]
    fn clean_pipeline_passes() {
        let mut g = input_graph();
        let mut pm = PassManager::new()
            .with(Noop)
            .with_hook(PassSanitizer::new());
        assert!(pm.try_run(&mut g, &TraceScope::disabled()).is_ok());
    }

    #[test]
    fn injected_mutation_is_attributed() {
        let mut g = input_graph();
        let mut pm = PassManager::new()
            .with(Noop)
            .with(InjectMutation)
            .with_hook(PassSanitizer::new());
        let err = pm.try_run(&mut g, &TraceScope::disabled()).unwrap_err();
        assert_eq!(err.pass, "inject-mutation");
        assert_eq!(err.hook, "lint-sanitizer");
        assert!(err.message.contains("effect violations increased"), "{err}");
    }

    #[test]
    fn preexisting_violations_are_tolerated() {
        // An imperative graph with a mutation is fine as *input*; the
        // sanitizer only rejects increases.
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let cl = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
        let base = g.out(cl);
        g.append(
            g.top(),
            Op::Mutate(MutateKind::Relu),
            &[base],
            &[Type::Tensor],
        );
        g.set_returns(g.top(), &[base]);
        let mut pm = PassManager::new()
            .with(Noop)
            .with_hook(PassSanitizer::new());
        assert!(pm.try_run(&mut g, &TraceScope::disabled()).is_ok());
    }
}
