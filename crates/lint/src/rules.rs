//! Lint rules over pre-functionalization IR, and [`lint`], which runs them.
//!
//! Rules inspect the imperative graph *before* TensorSSA conversion — the
//! form the frontend lowers to — and flag what stops functionalization
//! (Eq. 1–2) or fails on every input (structurally invalid views,
//! impossible broadcasts), plus outputs whose extent no input dim explains.
//! [`RULES`] is the one table of them; each rule's severity is fixed there.
//! The two shape rules hold no shape logic of their own: they report the
//! failures `tssa_ir`'s shape analysis records as it applies its view and
//! broadcast rules.

use std::collections::HashSet;

use tssa_alias::{AliasAnalysis, DepKind};
use tssa_ir::{
    infer_shapes, Graph, NodeId, Op, ShapeInfo, SymDim, Type, ValueDef, ValueId, ViewKind,
};

use crate::diag::{Diagnostic, Severity};

/// Everything a rule may inspect.
struct LintContext<'a> {
    /// The graph under analysis.
    graph: &'a Graph,
    /// Points-to analysis of the graph.
    alias: &'a AliasAnalysis,
    /// Shape inference results (ranks may be unknown).
    shapes: &'a ShapeInfo,
}

/// One lint rule: its stable kebab-case name, the severity its diagnostics
/// carry, a one-line description for `tssa-lint rules`, and the check.
struct Rule {
    name: &'static str,
    severity: Severity,
    describe: &'static str,
    check: fn(&Rule, &LintContext<'_>) -> Vec<Diagnostic>,
}

/// Every rule, in reporting order.
const RULES: [Rule; 4] = [
    Rule {
        name: "shape-incompatible-view-chain",
        severity: Severity::Deny,
        describe: "view or cat whose attributes are structurally invalid for the operand shapes",
        check: shape_incompatible_view_chain,
    },
    Rule {
        name: "symbolic-broadcast-mismatch",
        severity: Severity::Deny,
        describe: "broadcast of two dims that can never be compatible for any input",
        check: symbolic_broadcast_mismatch,
    },
    Rule {
        name: "data-dependent-shape-escapes-output",
        severity: Severity::Warn,
        describe: "graph output has a data-dependent dimension (defeats shape-keyed caching)",
        check: data_dependent_shape_escapes_output,
    },
    Rule {
        name: "non-functionalizable",
        severity: Severity::Warn,
        describe: "mutation outside every functionalization candidate (Eq. 1-2)",
        check: non_functionalizable,
    },
];

/// `(name, severity, description)` of every rule, in reporting order.
pub fn rules() -> impl Iterator<Item = (&'static str, Severity, &'static str)> {
    RULES.iter().map(|r| (r.name, r.severity, r.describe))
}

/// Lint `g` with unknown input shapes.
pub fn lint(g: &Graph) -> Vec<Diagnostic> {
    let n_inputs = g.block(g.top()).params.len();
    run(g, &infer_shapes(g, &vec![None; n_inputs]))
}

fn run(g: &Graph, shapes: &ShapeInfo) -> Vec<Diagnostic> {
    let alias = AliasAnalysis::build(g);
    let cx = LintContext {
        graph: g,
        alias: &alias,
        shapes,
    };
    RULES.iter().flat_map(|r| (r.check)(r, &cx)).collect()
}

/// An in-place mutation that no TensorSSA candidate covers (Eq. 1–2): the
/// conversion pass will leave it imperative, so the fused/parallel pipeline
/// falls back to eager semantics around it. The message states why.
fn non_functionalizable(rule: &Rule, cx: &LintContext<'_>) -> Vec<Diagnostic> {
    let g = cx.graph;
    let covered: HashSet<NodeId> = cx
        .alias
        .candidates()
        .iter()
        .flat_map(|c| c.mutations.iter().copied())
        .collect();
    // Components touched by a non-memory points-to edge.
    let tainted: HashSet<ValueId> = cx
        .alias
        .edges()
        .iter()
        .filter(|e| e.kind != DepKind::Memory)
        .map(|e| cx.alias.component_of(e.from))
        .collect();
    let mut out = Vec::new();
    for m in g.nodes_recursive(g.top()) {
        let node = g.node(m);
        let k = match &node.op {
            Op::Mutate(k) => *k,
            _ => continue,
        };
        if covered.contains(&m) {
            continue;
        }
        let recv = node.inputs[0];
        let origin = cx.alias.origin_of(recv);
        let reason = if matches!(g.value(origin).def, ValueDef::BlockParam { .. }) {
            format!(
                "storage of {} is owned outside the graph (argument or loop-carried value); \
                 clone it first to functionalize",
                g.value_name(origin)
            )
        } else if tainted.contains(&cx.alias.component_of(recv)) {
            "its alias set crosses control flow or containers, \
             so the component is not memory-dependency-only"
                .to_string()
        } else if g
            .def_node(recv)
            .map(|d| matches!(&g.node(d).op, Op::View(ViewKind::Expand { .. })))
            .unwrap_or(false)
        {
            "the receiver is a broadcast (expand) view, whose stride-0 \
             storage cannot be written through"
                .to_string()
        } else {
            format!("origin {} does not own fresh storage", g.value_name(origin))
        };
        out.push(Diagnostic::at_node(
            rule.name,
            rule.severity,
            g,
            m,
            format!("aten::{} cannot be functionalized: {}", k.name(), reason),
        ));
    }
    out
}

/// Structural validity of view chains: dimension attributes must exist in
/// the operand's rank, permutations must be complete, squeezed and expanded
/// dims must be able to be 1, reshapes must preserve element count. A `cat`
/// is held to the same standard: its dim must exist, and its operands must
/// share one rank.
/// Violations crash or silently corrupt at run time, so the rule denies.
/// The shape analysis proves them; the rule reports its record.
fn shape_incompatible_view_chain(rule: &Rule, cx: &LintContext<'_>) -> Vec<Diagnostic> {
    violations(rule, cx, |op| matches!(op, Op::View(_) | Op::Concat { .. }))
}

/// Two dims feeding one broadcast can *provably never* be compatible: under
/// no assignment of non-negative extents to the input-dim variables are they
/// equal, nor is either 1. Every execution of the node fails, so the rule
/// denies. Only the symbolic domain can prove this for non-constant dims
/// (e.g. `2*in0.d0+4` against `2*in0.d0+2` after two different concats).
fn symbolic_broadcast_mismatch(rule: &Rule, cx: &LintContext<'_>) -> Vec<Diagnostic> {
    violations(rule, cx, |op| matches!(op, Op::Binary(_) | Op::WhereSelect))
}

/// One diagnostic per node of the kinds `at` selects that the shape analysis
/// proved to fail on every input, with the analysis's reason.
fn violations(rule: &Rule, cx: &LintContext<'_>, at: fn(&Op) -> bool) -> Vec<Diagnostic> {
    let g = cx.graph;
    g.nodes_recursive(g.top())
        .into_iter()
        .filter(|&n| at(&g.node(n).op))
        .filter_map(|n| {
            let why = cx.shapes.violation(n)?;
            Some(Diagnostic::at_node(
                rule.name,
                rule.severity,
                g,
                n,
                why.to_string(),
            ))
        })
        .collect()
}

/// A graph output has a data-dependent (⊥) dimension: its extent cannot be
/// expressed over the input dims, so no shape-keyed plan cache can bucket
/// the program and callers cannot preallocate. Warn-level — legitimate
/// programs (nonzero-style filters) do this on purpose.
fn data_dependent_shape_escapes_output(rule: &Rule, cx: &LintContext<'_>) -> Vec<Diagnostic> {
    let g = cx.graph;
    let mut out = Vec::new();
    for (i, &r) in g.block(g.top()).returns.iter().enumerate() {
        if g.value(r).ty != Type::Tensor {
            continue;
        }
        let Some(shape) = cx.shapes.shape(r) else {
            continue; // rank unknown (unseeded input), not data-dependent
        };
        for (d, dim) in shape.iter().enumerate() {
            if let SymDim::Unknown(taint) = dim {
                let blame = if taint.is_empty() {
                    String::from("no input dim can explain it")
                } else {
                    let vars: Vec<String> = taint.iter().map(|v| v.to_string()).collect();
                    format!("tainted by {}", vars.join(", "))
                };
                out.push(Diagnostic::at_value(
                    rule.name,
                    rule.severity,
                    g,
                    r,
                    format!("output {i} dim {d} is data-dependent ({blame})"),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{infer_shapes_symbolic, BinaryKind, MutateKind, UnaryKind};

    /// Lint `g` with concrete input shapes.
    fn lint_with_shapes(g: &Graph, input_shapes: &[Option<Vec<usize>>]) -> Vec<Diagnostic> {
        run(g, &infer_shapes(g, input_shapes))
    }

    /// Lint `g` with *symbolic* input shapes: tensor input `i` of rank `r`
    /// gets fresh dims `in{i}.d0…`, which lets the symbolic checks
    /// (provably-bad squeezes, unsatisfiable reshapes, impossible
    /// broadcasts) fire on programs whose concrete shapes are unknown.
    fn lint_symbolic(g: &Graph, input_ranks: &[Option<usize>]) -> Vec<Diagnostic> {
        run(g, &infer_shapes_symbolic(g, input_ranks))
    }

    fn cloned_base(g: &mut Graph) -> ValueId {
        let x = g.add_input("x", Type::Tensor);
        let cl = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
        g.out(cl)
    }

    fn names(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn rule_table_lists_four_rules() {
        let names: Vec<&str> = rules().map(|(name, _, _)| name).collect();
        assert_eq!(
            names,
            [
                "shape-incompatible-view-chain",
                "symbolic-broadcast-mismatch",
                "data-dependent-shape-escapes-output",
                "non-functionalizable",
            ]
        );
    }

    #[test]
    fn clean_graph_has_no_diagnostics() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let r = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn non_functionalizable_input_mutation() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[x], &[Type::Tensor]);
        g.set_returns(g.top(), &[x]);
        let diags = lint(&g);
        let d = diags
            .iter()
            .find(|d| d.rule == "non-functionalizable")
            .expect("rule fired");
        assert!(d.message.contains("owned outside the graph"), "{}", d);
    }

    #[test]
    fn functionalizable_mutation_is_quiet() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        g.append(
            g.top(),
            Op::Mutate(MutateKind::Relu),
            &[base],
            &[Type::Tensor],
        );
        g.set_returns(g.top(), &[base]);
        let diags = lint(&g);
        assert!(
            !names(&diags).contains(&"non-functionalizable"),
            "{diags:?}"
        );
    }

    #[test]
    fn shape_rule_catches_bad_select_dim() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let i = g.constant_int(0);
        let s = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 5 }),
            &[x, i],
            &[Type::Tensor],
        );
        let sv = g.out(s);
        g.set_returns(g.top(), &[sv]);
        let diags = lint_with_shapes(&g, &[Some(vec![4, 4])]);
        let d = diags
            .iter()
            .find(|d| d.rule == "shape-incompatible-view-chain")
            .expect("rule fired");
        assert_eq!(d.severity, Severity::Deny);
        assert!(d.message.contains("dim 5 out of range for rank 2"), "{}", d);
    }

    #[test]
    fn shape_rule_catches_bad_permutation() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let p = g.append(
            g.top(),
            Op::View(ViewKind::Permute { perm: vec![0, 0] }),
            &[x],
            &[Type::Tensor],
        );
        let pv = g.out(p);
        g.set_returns(g.top(), &[pv]);
        let diags = lint_with_shapes(&g, &[Some(vec![4, 4])]);
        assert!(names(&diags).contains(&"shape-incompatible-view-chain"));
    }

    #[test]
    fn symbolic_squeeze_of_provably_non_unit_dim_fires() {
        // cat(x, x) has dim 0 = 2*in0.d0, which can never be 1.
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let c = g.append(g.top(), Op::Concat { dim: 0 }, &[x, x], &[Type::Tensor]);
        let cv = g.out(c);
        let s = g.append(
            g.top(),
            Op::View(ViewKind::Squeeze { dim: 0 }),
            &[cv],
            &[Type::Tensor],
        );
        let sv = g.out(s);
        g.set_returns(g.top(), &[sv]);
        let diags = lint_symbolic(&g, &[Some(2)]);
        let d = diags
            .iter()
            .find(|d| d.rule == "shape-incompatible-view-chain")
            .expect("rule fired");
        assert!(d.message.contains("provably never 1"), "{}", d);
        // With concrete even shapes the same graph is still caught…
        let diags = lint_with_shapes(&g, &[Some(vec![3, 4])]);
        assert!(names(&diags).contains(&"shape-incompatible-view-chain"));
    }

    #[test]
    fn symbolic_unsatisfiable_reshape_fires() {
        // cat(x, x) over rank-1 x has 2*in0.d0 elements: never 5.
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let c = g.append(g.top(), Op::Concat { dim: 0 }, &[x, x], &[Type::Tensor]);
        let cv = g.out(c);
        let r = g.append(
            g.top(),
            Op::View(ViewKind::ViewShape { shape: vec![5] }),
            &[cv],
            &[Type::Tensor],
        );
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        let diags = lint_symbolic(&g, &[Some(1)]);
        let d = diags
            .iter()
            .find(|d| d.rule == "shape-incompatible-view-chain")
            .expect("rule fired");
        assert!(d.message.contains("unsatisfiable"), "{}", d);
    }

    #[test]
    fn symbolic_broadcast_mismatch_fires_when_provable() {
        // cat(cat(x,x), ones(4)) = 2v+4 against cat(cat(x,x), ones(2)) =
        // 2v+2: never equal, and neither can be 1 — impossible for every v.
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let c2 = g.append(g.top(), Op::Concat { dim: 0 }, &[x, x], &[Type::Tensor]);
        let c2v = g.out(c2);
        let pad2 = g.append(g.top(), Op::Ones { shape: vec![2] }, &[], &[Type::Tensor]);
        let pad2v = g.out(pad2);
        let pad4 = g.append(g.top(), Op::Ones { shape: vec![4] }, &[], &[Type::Tensor]);
        let pad4v = g.out(pad4);
        let a = g.append(
            g.top(),
            Op::Concat { dim: 0 },
            &[c2v, pad2v],
            &[Type::Tensor],
        );
        let av = g.out(a);
        let b = g.append(
            g.top(),
            Op::Concat { dim: 0 },
            &[c2v, pad4v],
            &[Type::Tensor],
        );
        let bv = g.out(b);
        let s = g.append(g.top(), BinaryKind::Add, &[av, bv], &[Type::Tensor]);
        let sv = g.out(s);
        g.set_returns(g.top(), &[sv]);
        let diags = lint_symbolic(&g, &[Some(1)]);
        let d = diags
            .iter()
            .find(|d| d.rule == "symbolic-broadcast-mismatch")
            .expect("rule fired");
        assert_eq!(d.severity, Severity::Deny);
        assert!(d.message.contains("can never broadcast"), "{}", d);
        // 2v against v is NOT provable (v = 0 works), so a plain
        // cat-vs-base add stays quiet.
        let mut g2 = Graph::new();
        let y = g2.add_input("x", Type::Tensor);
        let cc = g2.append(g2.top(), Op::Concat { dim: 0 }, &[y, y], &[Type::Tensor]);
        let ccv = g2.out(cc);
        let add = g2.append(g2.top(), BinaryKind::Add, &[ccv, y], &[Type::Tensor]);
        let addv = g2.out(add);
        g2.set_returns(g2.top(), &[addv]);
        let diags = lint_symbolic(&g2, &[Some(1)]);
        assert!(!names(&diags).contains(&"symbolic-broadcast-mismatch"));
    }

    #[test]
    fn data_dependent_output_dim_warns() {
        // arange over a runtime int: the output extent is data-dependent.
        let mut g = Graph::new();
        let n = g.add_input("n", Type::Int);
        let a = g.append(g.top(), Op::Arange, &[n], &[Type::Tensor]);
        let av = g.out(a);
        g.set_returns(g.top(), &[av]);
        let diags = lint_symbolic(&g, &[None]);
        let d = diags
            .iter()
            .find(|d| d.rule == "data-dependent-shape-escapes-output")
            .expect("rule fired");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("data-dependent"), "{}", d);
    }

    #[test]
    fn polymorphic_output_is_not_data_dependent() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let r = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        let diags = lint_symbolic(&g, &[Some(2)]);
        assert!(!names(&diags).contains(&"data-dependent-shape-escapes-output"));
    }

    #[test]
    fn views_of_a_rank_0_value_are_denied_not_a_panic() {
        let views = [
            ViewKind::Select { dim: 0 },
            ViewKind::SliceView { dim: 0 },
            ViewKind::Squeeze { dim: 0 },
            ViewKind::Transpose { dim0: 0, dim1: 0 },
        ];
        for kind in views {
            let mut g = Graph::new();
            let x = g.add_input("x", Type::Tensor);
            let i = g.constant_int(0);
            let extras = match kind {
                ViewKind::Select { .. } => vec![i],
                ViewKind::SliceView { .. } => vec![i, i, i],
                _ => vec![],
            };
            let inputs: Vec<ValueId> = std::iter::once(x).chain(extras).collect();
            let v = g.append(g.top(), Op::View(kind.clone()), &inputs, &[Type::Tensor]);
            let vv = g.out(v);
            g.set_returns(g.top(), &[vv]);
            let diags = lint_with_shapes(&g, &[Some(vec![])]);
            let denies: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.rule == "shape-incompatible-view-chain")
                .collect();
            assert_eq!(denies.len(), 1, "{kind:?}: {diags:?}");
            assert_eq!(denies[0].severity, Severity::Deny);
            assert!(
                denies[0].message.contains("out of range for rank 0"),
                "{kind:?}: {}",
                denies[0]
            );
        }
    }

    #[test]
    fn a_cat_of_operands_with_different_ranks_is_denied_not_a_panic() {
        for dim in [0, 1] {
            let mut g = Graph::new();
            let x = g.add_input("x", Type::Tensor);
            let w = g.add_input("w", Type::Tensor);
            let c = g.append(g.top(), Op::Concat { dim }, &[x, w], &[Type::Tensor]);
            let cv = g.out(c);
            g.set_returns(g.top(), &[cv]);
            let diags = lint_with_shapes(&g, &[Some(vec![4, 2]), Some(vec![3])]);
            let denies: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.rule == "shape-incompatible-view-chain")
                .collect();
            assert_eq!(denies.len(), 1, "dim {dim}: {diags:?}");
            assert_eq!(denies[0].severity, Severity::Deny);
            assert!(
                denies[0].message.contains("operand 1 has rank 1"),
                "dim {dim}: {}",
                denies[0]
            );
        }
    }

    #[test]
    fn a_view_in_a_loop_body_is_judged_once_on_its_last_visit() {
        // `cat(c, c)` changes the carried shape, so the fixed point visits
        // the body twice: once with dim 0 known, once with it widened.
        let body = |view: &str| {
            format!(
                "graph(%x : Tensor, %n : int):
                   %t : bool = prim::Constant[value=true]()
                   %i0 : int = prim::Constant[value=0]()
                   %o : Tensor = prim::Loop(%n, %t, %x)
                     block0(%i : int, %c : Tensor):
                       %u : Tensor = aten::cat[dim=0](%c, %c)
                       {view}
                       -> (%t, %u)
                   return (%o)"
            )
        };
        let rule_hits = |src: &str| {
            let g = tssa_ir::parse_graph(src).unwrap();
            let diags = lint_symbolic(&g, &[Some(2), None]);
            diags
                .iter()
                .filter(|d| d.rule == "shape-incompatible-view-chain")
                .count()
        };
        // Out of range on every visit: reported once.
        let select = body("%v : Tensor = aten::select[dim=5](%u, %i0)");
        assert_eq!(rule_hits(&select), 1);
        // `2*in0.d0` is never 1 on the first visit only; the widened dim
        // of the last visit may be 1, so nothing is reported.
        let squeeze = body("%v : Tensor = aten::squeeze[dim=0](%u)");
        assert_eq!(rule_hits(&squeeze), 0);
    }

    #[test]
    fn shape_rule_quiet_on_valid_views() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let t = g.append(
            g.top(),
            Op::View(ViewKind::Transpose { dim0: 0, dim1: 1 }),
            &[x],
            &[Type::Tensor],
        );
        let tv = g.out(t);
        g.set_returns(g.top(), &[tv]);
        let diags = lint_with_shapes(&g, &[Some(vec![4, 4])]);
        assert!(!names(&diags).contains(&"shape-incompatible-view-chain"));
    }
}
