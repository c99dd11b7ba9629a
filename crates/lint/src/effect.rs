//! Dataflow effect checker: proves a graph free of observable mutation.
//!
//! Built on the points-to graph of `tssa-alias`, the checker issues three
//! judgments over the whole block tree:
//!
//! - **E1 — mutation present**: any `aten::*_` ([`Op::Mutate`]) node is an
//!   effect. When the receiver's storage origin lives in an *ancestor* block
//!   of the mutation, the effect additionally crosses a control-flow
//!   boundary (the exact pattern TensorSSA block propagation, §4.1.2, must
//!   eliminate), and the message says so.
//! - **E2 — leftover update marker**: a `tssa::update` node surviving after
//!   functionalization means renaming never ran; the graph is in an
//!   intermediate, non-executable state.
//! - **E3 — view escape**: a control-flow block returning a value that
//!   aliases storage owned *outside* the block, where that alias component
//!   is also mutated. Executing such a graph leaks a mutable window across
//!   the block boundary.
//!
//! A graph with no violations is *pure* in the paper's sense: evaluating it
//! cannot observe or cause in-place updates, so every rewrite that treats
//! values as immutable data flow (fusion, CSE, LICM, parallelization) is
//! sound.

use tssa_alias::AliasAnalysis;
use tssa_ir::{Graph, Op, Type};

use crate::diag::{Diagnostic, Severity};

/// Outcome of [`check_effects`].
#[derive(Debug, Clone, Default)]
pub struct PurityReport {
    /// All effect violations found, in program order.
    pub violations: Vec<Diagnostic>,
    /// Number of E1 (mutation) violations.
    pub mutations: usize,
    /// Number of E2 (leftover update) violations.
    pub leftover_updates: usize,
    /// Number of E3 (view escape) violations.
    pub view_escapes: usize,
}

impl PurityReport {
    /// True when no judgment fired: the graph is certified pure.
    pub fn is_pure(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run all three effect judgments over `g`.
pub fn check_effects(g: &Graph) -> PurityReport {
    let alias = AliasAnalysis::build(g);
    let mut report = PurityReport::default();

    // Alias components containing at least one mutation (by representative).
    let mut mutated_components = std::collections::HashSet::new();
    for n in g.nodes_recursive(g.top()) {
        if let Op::Mutate(_) = g.node(n).op {
            mutated_components.insert(alias.component_of(g.node(n).inputs[0]));
        }
    }

    for n in g.nodes_recursive(g.top()) {
        let node = g.node(n);
        match &node.op {
            // E1: in-place mutation.
            Op::Mutate(k) => {
                let recv = node.inputs[0];
                let origin = alias.origin_of(recv);
                let origin_block = g.def_block(origin);
                let here = node.owner;
                let msg = if origin_block != here && g.block_is_ancestor(origin_block, here) {
                    format!(
                        "mutation through view across control-flow boundary \
                         (aten::{} writes storage of {} defined outside this block)",
                        k.name(),
                        g.value_name(origin)
                    )
                } else {
                    format!("in-place mutation present (aten::{})", k.name())
                };
                report.mutations += 1;
                report
                    .violations
                    .push(Diagnostic::at_node("effect", Severity::Deny, g, n, msg));
            }
            // E2: tssa::update marker survived functionalization.
            Op::Update => {
                report.leftover_updates += 1;
                report.violations.push(Diagnostic::at_node(
                    "effect",
                    Severity::Deny,
                    g,
                    n,
                    "leftover tssa::update marker (renaming never ran; \
                     graph is in an intermediate state)",
                ));
            }
            _ => {}
        }
    }

    // E3: control-flow block returns a mutable alias of outer storage.
    for b in g.block_ids() {
        let block = g.block(b);
        let owner = match block.owner {
            Some(n) => n,
            None => continue, // top block: returning views of inputs is the caller's business
        };
        if !matches!(g.node(owner).op, Op::If | Op::Loop) {
            continue;
        }
        for &r in &block.returns {
            if g.value(r).ty != Type::Tensor {
                continue;
            }
            let origin = alias.origin_of(r);
            if origin == r {
                continue; // returns its own storage
            }
            let origin_block = g.def_block(origin);
            if origin_block == b || !g.block_is_ancestor(origin_block, b) {
                continue; // origin lives inside the block (or elsewhere): no escape
            }
            if !mutated_components.contains(&alias.component_of(r)) {
                continue; // read-only alias: harmless
            }
            report.view_escapes += 1;
            report.violations.push(Diagnostic::at_value(
                "effect",
                Severity::Deny,
                g,
                r,
                format!(
                    "view of {} (defined outside the {} block) escapes through \
                     the block returns while its alias set is mutated",
                    g.value_name(origin),
                    g.node(owner).op.name()
                ),
            ));
        }
    }

    report
}

/// Certify `g` pure, returning all violations otherwise.
pub fn certify_pure(g: &Graph) -> Result<(), Vec<Diagnostic>> {
    let report = check_effects(g);
    if report.is_pure() {
        Ok(())
    } else {
        Err(report.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{ConstValue, MutateKind, UnaryKind, ViewKind};

    fn cloned_base(g: &mut Graph) -> tssa_ir::ValueId {
        let x = g.add_input("x", Type::Tensor);
        let cl = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
        g.out(cl)
    }

    #[test]
    fn pure_graph_certifies() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let r = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        assert!(certify_pure(&g).is_ok());
    }

    #[test]
    fn top_level_mutation_is_e1() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        g.append(
            g.top(),
            Op::Mutate(MutateKind::Relu),
            &[base],
            &[Type::Tensor],
        );
        let report = check_effects(&g);
        assert_eq!(report.mutations, 1);
        assert!(report.violations[0]
            .message
            .contains("in-place mutation present"));
    }

    #[test]
    fn cross_block_mutation_is_flagged_as_boundary_crossing() {
        // Figure 4: mutate a view of an outer tensor inside a loop body.
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let n = g.add_input("n", Type::Int);
        let t = g.constant_bool(true);
        let lp = g.append(g.top(), Op::Loop, &[n, t], &[]);
        let body = g.add_node_block(lp);
        let i = g.add_block_param(body, Type::Int);
        let sel = g.append(
            body,
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let v = g.out(sel);
        g.append(body, Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let cond = g.constant_in(body, ConstValue::Bool(true));
        g.set_returns(body, &[cond]);
        let report = check_effects(&g);
        assert_eq!(report.mutations, 1);
        assert!(
            report.violations[0]
                .message
                .contains("across control-flow boundary"),
            "{}",
            report.violations[0]
        );
    }

    #[test]
    fn leftover_update_is_e2() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let y = g.append(g.top(), UnaryKind::Relu, &[base], &[Type::Tensor]);
        let yv = g.out(y);
        g.append(g.top(), Op::Update, &[base, yv], &[Type::Tensor]);
        let report = check_effects(&g);
        assert_eq!(report.leftover_updates, 1);
    }

    #[test]
    fn mutated_view_escaping_if_is_e3() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let c = g.add_input("c", Type::Bool);
        let i = g.constant_int(0);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        let sel = g.append(
            tb,
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let sv = g.out(sel);
        g.append(tb, Op::Mutate(MutateKind::Relu), &[sv], &[Type::Tensor]);
        g.set_returns(tb, &[sv]);
        g.set_returns(eb, &[base]);
        let report = check_effects(&g);
        assert!(report.view_escapes >= 1, "{:?}", report);
    }

    #[test]
    fn unmutated_escaping_view_is_not_e3() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let c = g.add_input("c", Type::Bool);
        let i = g.constant_int(0);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        let sel = g.append(
            tb,
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let sv = g.out(sel);
        g.set_returns(tb, &[sv]);
        g.set_returns(eb, &[base]);
        let report = check_effects(&g);
        assert!(report.is_pure(), "{:?}", report.violations);
    }
}
