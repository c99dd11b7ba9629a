//! Pass sanitizer: the one [`PassHook`] the pipelines install in debug
//! builds. After every pass it checks, in order, that the graph is well
//! formed, that it carries no new effect, and that it lost no shape fact,
//! and attributes the first broken invariant to the offending pass.
//!
//! 1. **Well-formedness** — `Graph::verify` must hold after every pass.
//! 2. **Effect ratchet** — the number of effect violations
//!    ([`crate::check_effects`]) must never *increase*. Imperative input
//!    graphs legally carry violations before TensorSSA conversion; the
//!    conversion pass lowers the count and later passes must not reintroduce
//!    mutation, leftover `tssa::update` markers, or view escapes.
//! 3. **Shape ratchet** — a statically known output dim must never widen.
//!    The symbolic shape analysis in `tssa-ir` proves facts of the form
//!    "output dim `d` is the constant `n`". A pass may *refine* a dim
//!    (unknown → constant, e.g. by constant-folding a shape computation)
//!    but must never *widen* one (constant → unknown, or constant →
//!    different constant): a pass that does has changed program semantics
//!    or destroyed information later stages (fusion sizing, the shape
//!    certifier, plan bucketing) rely on. Inference runs rank-free (no input
//!    shapes), so only facts derivable from the program text are tracked;
//!    newly discovered constants are folded into the baseline so later
//!    passes are held to the higher bar.
//!
//! The hook is installed by `tssa-pipelines` under `debug_assertions` (on in
//! tests and debug builds, compiled out of release pipelines), so every
//! pipeline test in the workspace doubles as a sanitizer run.

use std::collections::HashMap;

use tssa_core::PassHook;
use tssa_ir::{infer_shapes, Graph};

use crate::effect::check_effects;

/// The pass sanitizer. See the module docs.
#[derive(Debug, Default)]
pub struct PassSanitizer {
    /// Effect-violation count of the graph before the first pass; updated
    /// downward as passes remove violations (ratchet).
    baseline: Option<usize>,
    /// `(return index, dim index)` → constant extent, highest water mark.
    known_dims: HashMap<(usize, usize), usize>,
    /// Return count at baseline; a pass that changes the graph interface
    /// resets the shape ratchet instead of mis-attributing dims
    /// positionally.
    returns: usize,
}

impl PassSanitizer {
    /// A sanitizer that takes its baselines from the first graph it sees.
    pub fn new() -> PassSanitizer {
        PassSanitizer::default()
    }

    /// Return count and statically known constant dims of `g`'s outputs.
    fn known_output_dims(g: &Graph) -> (usize, HashMap<(usize, usize), usize>) {
        let n_inputs = g.block(g.top()).params.len();
        let info = infer_shapes(g, &vec![None; n_inputs]);
        let returns = &g.block(g.top()).returns;
        let mut known = HashMap::new();
        for (i, &r) in returns.iter().enumerate() {
            if let Some(shape) = info.shape(r) {
                for (d, dim) in shape.iter().enumerate() {
                    if let Some(n) = dim.as_const() {
                        known.insert((i, d), n);
                    }
                }
            }
        }
        (returns.len(), known)
    }

    fn check_effect_ratchet(&mut self, pass: &'static str, g: &Graph) -> Result<(), String> {
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

    fn check_shape_ratchet(&mut self, g: &Graph) -> Result<(), String> {
        let (returns, now) = Self::known_output_dims(g);
        if returns == self.returns {
            for (&(i, d), &n) in &self.known_dims {
                match now.get(&(i, d)) {
                    Some(&m) if m == n => {}
                    Some(&m) => {
                        return Err(format!(
                            "output {i} dim {d} changed from statically known {n} to {m}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "output {i} dim {d} widened from statically known {n} to unknown"
                        ));
                    }
                }
            }
        }
        // Ratchet upward: constants a pass has just made derivable are held
        // for the rest of the pipeline. An interface change makes positional
        // dims incomparable, so it rebases instead.
        self.returns = returns;
        self.known_dims = now;
        Ok(())
    }
}

impl PassHook for PassSanitizer {
    fn name(&self) -> &'static str {
        "lint-sanitizer"
    }

    fn begin(&mut self, g: &Graph) {
        self.baseline = Some(check_effects(g).violations.len());
        (self.returns, self.known_dims) = Self::known_output_dims(g);
    }

    fn check(&mut self, pass: &'static str, g: &Graph) -> Result<(), String> {
        if let Err(e) = g.verify() {
            return Err(format!("graph verification failed after pass: {e}"));
        }
        self.check_effect_ratchet(pass, g)?;
        self.check_shape_ratchet(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_core::{Pass, PassManager};
    use tssa_ir::{parse_graph, MutateKind, Op, Type, UnaryKind};
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

    /// A pass that returns its first input in place of every output: the
    /// constant output dims of its input graph become unknown.
    struct ReturnInput;

    impl Pass for ReturnInput {
        fn name(&self) -> &'static str {
            "return-input"
        }
        fn run(&mut self, g: &mut Graph) -> usize {
            let x = g.block(g.top()).params[0];
            let n = g.block(g.top()).returns.len();
            g.set_returns(g.top(), &vec![x; n]);
            1
        }
    }

    #[test]
    fn widened_output_dim_is_attributed() {
        let mut g = const_graph();
        let mut pm = PassManager::new()
            .with(Noop)
            .with(ReturnInput)
            .with_hook(PassSanitizer::new());
        let err = pm.try_run(&mut g, &TraceScope::disabled()).unwrap_err();
        assert_eq!(err.pass, "return-input");
        assert_eq!(err.hook, "lint-sanitizer");
        assert!(err.message.contains("widened"), "{err}");
    }

    fn const_graph() -> Graph {
        parse_graph(
            "graph(%x : Tensor):
               %z : Tensor = aten::ones[shape=[2, 3]]()
               return (%z)",
        )
        .unwrap()
    }

    #[test]
    fn stable_shapes_pass() {
        let g = const_graph();
        let mut hook = PassSanitizer::new();
        hook.begin(&g);
        assert!(hook.check("noop", &g).is_ok());
    }

    #[test]
    fn widening_a_known_dim_is_a_violation() {
        let g = const_graph();
        let mut hook = PassSanitizer::new();
        hook.begin(&g);
        // A "pass" replaced the constant tensor with an input-derived one:
        // the output dims are no longer statically known.
        let widened = parse_graph(
            "graph(%x : Tensor):
               %z : Tensor = aten::relu(%x)
               return (%z)",
        )
        .unwrap();
        let err = hook.check("bad-pass", &widened).unwrap_err();
        assert!(err.contains("widened"), "{err}");
    }

    #[test]
    fn changing_a_known_dim_is_a_violation() {
        let g = const_graph();
        let mut hook = PassSanitizer::new();
        hook.begin(&g);
        let changed = parse_graph(
            "graph(%x : Tensor):
               %z : Tensor = aten::ones[shape=[2, 4]]()
               return (%z)",
        )
        .unwrap();
        let err = hook.check("bad-pass", &changed).unwrap_err();
        assert!(err.contains("changed"), "{err}");
    }

    #[test]
    fn refinement_ratchets_the_baseline_upward() {
        // Start with an input-derived output (nothing known)…
        let g0 = parse_graph(
            "graph(%x : Tensor):
               %z : Tensor = aten::relu(%x)
               return (%z)",
        )
        .unwrap();
        let mut hook = PassSanitizer::new();
        hook.begin(&g0);
        // …a pass constant-folds it: refinement is fine…
        let g1 = const_graph();
        assert!(hook.check("fold", &g1).is_ok());
        // …but the new constants are now locked in.
        assert!(hook.check("bad-pass", &g0).is_err());
    }

    #[test]
    fn interface_change_rebases_instead_of_failing() {
        let g = const_graph();
        let mut hook = PassSanitizer::new();
        hook.begin(&g);
        let two_outputs = parse_graph(
            "graph(%x : Tensor):
               %z : Tensor = aten::ones[shape=[5]]()
               return (%z, %x)",
        )
        .unwrap();
        assert!(hook.check("restructure", &two_outputs).is_ok());
    }
}
