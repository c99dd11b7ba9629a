//! Classic cleanup passes run around the TensorSSA conversion: dead code
//! elimination, common-subexpression elimination and scalar constant
//! folding.
//!
//! Each pass is a unit struct implementing [`Pass`](crate::Pass): compose
//! them through [`PassManager`](crate::PassManager) for per-pass timing and
//! span emission, or run one in isolation with `Dce.run(&mut g)`.

use std::collections::{HashMap, HashSet};

use crate::pass::Pass;
use crate::tensorssa::{
    convert_to_tensorssa, convert_with_options, substitute_operands, substitute_returns,
    ConversionStats,
};
use tssa_ir::{BlockId, ConstValue, Graph, NodeId, Op, ScalarKind, ValueId};

/// Whether removing `n` (given its outputs are unused) preserves semantics.
fn removable(g: &Graph, n: NodeId) -> bool {
    let node = g.node(n);
    match &node.op {
        // Updates are annotations consumed by the conversion's renaming; DCE
        // must never eat them.
        Op::Update => false,
        Op::Mutate(_) => false,
        Op::If | Op::Loop | Op::FusionGroup | Op::ParallelMap { .. } => {
            node.blocks.iter().all(|&b| subtree_side_effect_free(g, b))
        }
        op => op.is_pure(),
    }
}

fn subtree_side_effect_free(g: &Graph, block: BlockId) -> bool {
    g.block(block).nodes.iter().all(|&n| {
        let node = g.node(n);
        match &node.op {
            Op::Mutate(_) | Op::Update => false,
            _ => node.blocks.iter().all(|&b| subtree_side_effect_free(g, b)),
        }
    })
}

/// Remove a node together with everything nested inside it, clearing nested
/// block returns so orphaned blocks do not pin values, and releasing every
/// use the removed code held in `uses`.
fn remove_subtree(g: &mut Graph, n: NodeId, uses: &mut [u32]) {
    for &v in &g.node(n).inputs {
        uses[v.index()] -= 1;
    }
    for b in g.node(n).blocks.clone() {
        for &v in &g.block(b).returns {
            uses[v.index()] -= 1;
        }
        g.set_returns(b, &[]);
        for inner in g.block(b).nodes.clone() {
            remove_subtree(g, inner, uses);
        }
    }
    g.remove_node(n);
}

fn dce_impl(g: &mut Graph) -> usize {
    // Use counts as `Graph::uses` sees them: operands of live nodes plus the
    // returns of every block.
    let mut uses = vec![0u32; g.value_count()];
    let mut worklist = g.nodes_recursive(g.top());
    for &n in &worklist {
        for &v in &g.node(n).inputs {
            uses[v.index()] += 1;
        }
    }
    for b in g.block_ids() {
        for &v in &g.block(b).returns {
            uses[v.index()] += 1;
        }
    }
    // Popped in reverse program order, so consumers die before their
    // producers: a producer precedes every reader it has, and is still on
    // the worklist when its count drops to zero.
    let mut removed = 0;
    while let Some(n) = worklist.pop() {
        if g.is_removed(n) {
            continue;
        }
        if g.node(n).outputs.iter().all(|&o| uses[o.index()] == 0) && removable(g, n) {
            remove_subtree(g, n, &mut uses);
            removed += 1;
        }
    }
    removed
}

fn cse_impl(g: &mut Graph) -> usize {
    let unstable = unstable_values(g);
    let top = g.top();
    cse_block(g, top, &mut HashMap::new(), &mut HashMap::new(), &unstable)
}

/// Values whose storage may be written: every value that may alias some
/// mutation's receiver. What such a value reads differs between program
/// points; CSE, LICM, view purification and access reversion all ask this.
fn unstable_values(g: &Graph) -> HashSet<ValueId> {
    let receivers: Vec<ValueId> = g
        .nodes_recursive(g.top())
        .into_iter()
        .filter(|&n| g.node(n).op.is_mutation())
        .map(|n| g.node(n).inputs[0])
        .collect();
    if receivers.is_empty() {
        return HashSet::new();
    }
    let analysis = tssa_alias::AliasAnalysis::build(g);
    (0..g.value_count())
        .map(ValueId::from_index)
        .filter(|&v| receivers.iter().any(|&r| analysis.may_alias(v, r)))
        .collect()
}

/// CSE over `block` in program order. A merged node's outputs are recorded
/// in `merged_into`, and every later operand and return is read through it,
/// so no merge rewrites uses across the graph.
fn cse_block(
    g: &mut Graph,
    block: BlockId,
    seen: &mut HashMap<String, Vec<ValueId>>,
    merged_into: &mut HashMap<ValueId, ValueId>,
    unstable: &HashSet<ValueId>,
) -> usize {
    let mut merged = 0;
    let nodes = g.block(block).nodes.clone();
    for n in nodes {
        if g.is_removed(n) {
            continue;
        }
        substitute_operands(g, n, merged_into);
        let node = g.node(n).clone();
        if !node.blocks.is_empty() {
            for b in &node.blocks {
                let mut inner = seen.clone();
                merged += cse_block(g, *b, &mut inner, merged_into, unstable);
            }
            continue;
        }
        if !node.op.is_pure() || node.op == Op::Update || node.outputs.is_empty() {
            continue;
        }
        // Reading possibly-mutated storage is point-dependent, and two
        // results merged into one buffer would show each other's later
        // writes (views are aliases, not reads, and stay mergeable).
        let mut touched = node.inputs.iter().chain(&node.outputs);
        if !node.op.is_view() && touched.any(|v| unstable.contains(v)) {
            continue;
        }
        let key = format!("{:?}|{:?}", node.op, node.inputs);
        if let Some(prev) = seen.get(&key) {
            merged_into.extend(node.outputs.iter().copied().zip(prev.iter().copied()));
            g.remove_node(n);
            merged += 1;
        } else {
            seen.insert(key, node.outputs);
        }
    }
    substitute_returns(g, block, merged_into);
    merged
}

fn purify_views_impl(g: &mut Graph) -> usize {
    let unstable = unstable_values(g);
    let mut count = 0;
    for n in g.nodes_recursive(g.top()) {
        let node = g.node(n);
        if let Op::View(kind) = node.op.clone() {
            let out = node.outputs[0];
            if !unstable.contains(&out) {
                g.set_op(n, Op::Access(kind));
                count += 1;
            }
        }
    }
    count
}

fn revert_unfused_accesses_impl(g: &mut Graph) -> usize {
    let unstable = unstable_values(g);
    let mut count = 0;
    for n in g.nodes_recursive(g.top()) {
        let node = g.node(n);
        let Op::Access(kind) = node.op.clone() else {
            continue;
        };
        // Skip accesses compiled into fused kernels.
        if inside_fusion(g, node.owner) {
            continue;
        }
        let base = node.inputs[0];
        if !unstable.contains(&base) {
            g.set_op(n, Op::View(kind));
            count += 1;
        }
    }
    count
}

fn inside_fusion(g: &Graph, mut block: BlockId) -> bool {
    loop {
        match g.block(block).owner {
            Some(owner) => {
                if g.node(owner).op == Op::FusionGroup {
                    return true;
                }
                block = g.node(owner).owner;
            }
            None => return false,
        }
    }
}

/// Whether hoisting this operator out of a loop is safe: pure, block-less,
/// and unable to fail at runtime in a way the un-hoisted program would not
/// (division, indexing and host-sync operators stay put).
fn hoistable(op: &Op) -> bool {
    if !op.is_pure() || op.has_blocks() {
        return false;
    }
    !matches!(
        op,
        Op::Update
            | Op::Scalar(ScalarKind::IntDiv | ScalarKind::IntMod)
            | Op::ItemFloat
            | Op::ItemInt
            | Op::ItemBool
            | Op::Access(_)
            | Op::Assign(_)
            | Op::View(_)
    )
}

fn licm_impl(g: &mut Graph) -> usize {
    let unstable = unstable_values(g);
    let mut hoisted = 0;
    loop {
        let mut changed = false;
        for n in g.nodes_recursive(g.top()) {
            if g.is_removed(n) || g.node(n).op != Op::Loop {
                continue;
            }
            let body = g.node(n).blocks[0];
            for inner in g.block(body).nodes.clone() {
                if g.is_removed(inner) {
                    continue;
                }
                let node = g.node(inner);
                if !hoistable(&node.op) {
                    continue;
                }
                // Every operand must be in scope at the loop node itself and
                // must not read possibly-mutated storage (its value would
                // then differ per iteration even with invariant operands).
                // The result must not be mutated either: in the loop each
                // iteration mutates a fresh buffer, hoisted the mutations
                // would accumulate in one shared buffer.
                let invariant = node
                    .inputs
                    .iter()
                    .all(|&v| g.value_available_at(v, n) && !unstable.contains(&v))
                    && node.outputs.iter().all(|&o| !unstable.contains(&o));
                if invariant {
                    g.move_node_before(inner, n);
                    hoisted += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            return hoisted;
        }
    }
}

fn prune_loop_carries_impl(g: &mut Graph) -> usize {
    let mut pruned = 0;
    loop {
        let mut changed = false;
        for n in g.nodes_recursive(g.top()) {
            if g.is_removed(n) || g.node(n).op != Op::Loop {
                continue;
            }
            let body = g.node(n).blocks[0];
            // Carried index k: input 2+k, param 1+k, return 1+k, output k.
            let carried = g.node(n).outputs.len();
            let mut victim = None;
            for k in 0..carried {
                let out = g.node(n).outputs[k];
                if g.has_uses(out) {
                    continue;
                }
                let param = g.block(body).params[1 + k];
                // The param may appear only as its own return (a pure
                // pass-through) for the carry to be removable.
                let pass_through = g.uses(param).iter().all(|u| {
                    matches!(
                        u,
                        tssa_ir::Use::Return { block, index }
                            if *block == body && *index == 1 + k
                    )
                });
                if pass_through {
                    victim = Some(k);
                    break;
                }
            }
            if let Some(k) = victim {
                g.remove_return(body, 1 + k);
                g.remove_node_input(n, 2 + k);
                g.remove_block_param(body, 1 + k);
                g.remove_output(n, k);
                pruned += 1;
                changed = true;
            }
        }
        if !changed {
            return pruned;
        }
    }
}

fn const_of(g: &Graph, v: ValueId) -> Option<ConstValue> {
    let def = g.def_node(v)?;
    match &g.node(def).op {
        Op::Constant(c) => Some(c.clone()),
        _ => None,
    }
}

fn constant_fold_impl(g: &mut Graph) -> usize {
    let mut folded = 0;
    loop {
        let mut changed = false;
        for n in g.nodes_recursive(g.top()) {
            // A host-scalar operator on constants folds through
            // `ScalarKind::eval`, the interpreter's own definition; one that
            // would fail at run time stays unfolded.
            let Op::Scalar(kind) = g.node(n).op else {
                continue;
            };
            if g.is_removed(n) {
                continue;
            }
            let consts: Option<Vec<ConstValue>> =
                g.node(n).inputs.iter().map(|&v| const_of(g, v)).collect();
            let Some(consts) = consts else { continue };
            let Ok(result) = kind.eval(|i| consts.get(i).cloned()) else {
                continue;
            };
            g.set_op(n, Op::Constant(result));
            g.set_inputs(n, &[]);
            folded += 1;
            changed = true;
        }
        if !changed {
            return folded;
        }
    }
}

/// Declare a unit-struct [`Pass`] over an implementation function.
macro_rules! unit_pass {
    ($(#[$doc:meta])+ $pass:ident, $pass_name:literal, $impl_fn:ident;) => {
        $(#[$doc])+
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $pass;

        impl Pass for $pass {
            fn name(&self) -> &'static str {
                $pass_name
            }

            fn run(&mut self, g: &mut Graph) -> usize {
                $impl_fn(g)
            }
        }
    };
}

unit_pass! {
    /// Dead code elimination: iteratively remove side-effect-free nodes
    /// none of whose outputs are used. Returns the number of nodes removed.
    Dce, "dce", dce_impl;
}

unit_pass! {
    /// Common-subexpression elimination: within each block (values from
    /// enclosing blocks are inherited), merge pure block-less nodes with
    /// identical operator and operands. Returns the number of nodes merged.
    ///
    /// A pure operator whose tensor operand may alias a mutation receiver is
    /// **not** a common subexpression — its value depends on the program
    /// point (e.g. the recomputed condition of a `while` loop whose body
    /// mutates the inspected tensor). Such nodes are skipped, except for
    /// views: a view is a pure *alias*, identical wherever it is computed.
    Cse, "cse", cse_impl;
}

unit_pass! {
    /// Rewrite views of tensors that are never mutated into `immut::access`.
    ///
    /// When a view's alias component contains no mutation, the aliasing is
    /// unobservable and the view is semantically identical to its immutable
    /// access — which can join fusion groups. This is the data-flow
    /// functionalization functorch performs (and the TensorSSA pipeline also
    /// applies after Algorithm 1 has handled the mutated components).
    /// Returns the number of views rewritten.
    PurifyViews, "purify-views", purify_views_impl;
}

unit_pass! {
    /// Convert `immut::access` nodes that did **not** end up inside a fusion
    /// group back into zero-copy views (§3.2: unfused immutable operators
    /// "can be converted back to the original mutable operators").
    ///
    /// Reverting is safe exactly when the access's base cannot alias any
    /// remaining mutation's receiver — then the aliasing a view introduces
    /// is unobservable. Run after fusion. Returns the number of accesses
    /// reverted.
    RevertUnfusedAccesses, "revert-unfused-accesses", revert_unfused_accesses_impl;
}

unit_pass! {
    /// Loop-invariant code motion: move pure computations whose operands are
    /// defined outside the loop body to just before the loop. Returns the
    /// number of nodes hoisted (fixpoint over nested loops).
    Licm, "licm", licm_impl;
}

unit_pass! {
    /// Remove dead loop carries: a carried value whose loop output is unused
    /// and whose body parameter flows only into its own return slot
    /// contributes nothing — DCE cannot see this because the loop node
    /// itself stays live. Block propagation often introduces such carries
    /// for versions that later turn out to be unread. Returns the number of
    /// carries removed.
    PruneLoopCarries, "prune-loop-carries", prune_loop_carries_impl;
}

unit_pass! {
    /// Scalar constant folding over host int/float/bool arithmetic. Returns
    /// the number of nodes folded.
    ConstantFold, "constant-fold", constant_fold_impl;
}

/// The TensorSSA conversion (Algorithm 1) as a [`Pass`], so pipelines can
/// schedule it through a [`PassManager`](crate::PassManager) and attribute
/// its time alongside the cleanup passes. The rewrite count is the number
/// of mutations removed; the full [`ConversionStats`] of the last run are
/// kept on the pass and surfaced as span counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Convert {
    /// Run block propagation (§4.1.2); `false` models the non-holistic,
    /// graph-breaking functionalization of functorch/Dynamo.
    pub block_propagation: bool,
    /// [`ConversionStats`] of the most recent run.
    pub last: ConversionStats,
}

impl Convert {
    /// A conversion pass; `block_propagation` selects holistic (`true`)
    /// versus per-block (`false`) functionalization.
    pub fn new(block_propagation: bool) -> Convert {
        Convert {
            block_propagation,
            last: ConversionStats::default(),
        }
    }
}

impl Pass for Convert {
    fn name(&self) -> &'static str {
        "tensorssa-convert"
    }

    fn run(&mut self, g: &mut Graph) -> usize {
        self.last = if self.block_propagation {
            convert_to_tensorssa(g)
        } else {
            convert_with_options(g, false)
        };
        self.last.mutations_removed
    }

    fn counters(&self) -> Vec<(&'static str, i64)> {
        vec![
            ("candidates", self.last.candidates as i64),
            ("mutations_removed", self.last.mutations_removed as i64),
            ("views_rewritten", self.last.views_rewritten as i64),
            ("updates_inserted", self.last.updates_inserted as i64),
            ("loop_carries_added", self.last.loop_carries_added as i64),
            (
                "branch_returns_added",
                self.last.branch_returns_added as i64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{parse_graph, BinaryKind};

    #[test]
    fn dce_removes_unused_chain() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %a : Tensor = aten::relu(%x)
               %b : Tensor = aten::sigmoid(%a)
               %c : Tensor = aten::tanh(%x)
               return (%c)",
        )
        .unwrap();
        let removed = Dce.run(&mut g);
        assert_eq!(removed, 2);
        assert!(!g.to_string().contains("relu"));
        assert!(g.to_string().contains("tanh"));
    }

    #[test]
    fn dce_keeps_mutations_and_their_views() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %v : Tensor = aten::select[dim=0](%x, %i)
               %m : Tensor = aten::relu_(%v)
               return (%x)",
        )
        .unwrap();
        let removed = Dce.run(&mut g);
        assert_eq!(removed, 0);
    }

    #[test]
    fn dce_removes_side_effect_free_loop() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::relu(%c)
                   -> (%t, %u)
               return (%x)",
        )
        .unwrap();
        let removed = Dce.run(&mut g);
        assert!(removed >= 1, "{g}");
        assert!(!g.to_string().contains("prim::Loop"), "{g}");
    }

    #[test]
    fn cse_merges_duplicate_pure_nodes() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %a : Tensor = aten::relu(%x)
               %b : Tensor = aten::relu(%x)
               %c : Tensor = aten::add(%a, %b)
               return (%c)",
        )
        .unwrap();
        let merged = Cse.run(&mut g);
        assert_eq!(merged, 1);
        assert!(g.verify().is_ok());
        // add now uses the same value twice
        let add = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::Binary(BinaryKind::Add))
            .unwrap();
        assert_eq!(g.node(add).inputs[0], g.node(add).inputs[1]);
    }

    #[test]
    fn cse_does_not_merge_mutations() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %a : Tensor = aten::relu_(%x)
               %b : Tensor = aten::relu_(%x)
               return (%x)",
        )
        .unwrap();
        assert_eq!(Cse.run(&mut g), 0);
    }

    #[test]
    fn cse_keeps_identical_results_apart_when_one_is_mutated() {
        // Merged, `%a` and `%b` would be one buffer and the `neg_` of `%b`
        // would show through `%a`: (2.5, -2.5) would become (-2.5, -2.5).
        let mut g = parse_graph(
            "graph(%x : Tensor, %c : float):
               %a : Tensor = aten::add_scalar(%x, %c)
               %b : Tensor = aten::add_scalar(%x, %c)
               %m : Tensor = aten::neg_(%b)
               return (%a, %b)",
        )
        .unwrap();
        assert_eq!(Cse.run(&mut g), 0);
        let returns = &g.block(g.top()).returns;
        assert_ne!(returns[0], returns[1]);
    }

    #[test]
    fn constant_folding_scalar_arithmetic() {
        let mut g = parse_graph(
            "graph():
               %a : int = prim::Constant[value=2]()
               %b : int = prim::Constant[value=3]()
               %c : int = aten::int_add(%a, %b)
               %d : int = aten::int_mul(%c, %c)
               %e : bool = aten::int_lt(%c, %d)
               return (%e)",
        )
        .unwrap();
        let folded = ConstantFold.run(&mut g);
        assert_eq!(folded, 3);
        Dce.run(&mut g);
        let text = g.to_string();
        assert!(text.contains("value=true"), "{text}");
        assert!(!text.contains("int_add"), "{text}");
    }

    #[test]
    fn constant_folding_skips_division_by_zero() {
        let mut g = parse_graph(
            "graph():
               %a : int = prim::Constant[value=2]()
               %z : int = prim::Constant[value=0]()
               %c : int = aten::int_div(%a, %z)
               return (%c)",
        )
        .unwrap();
        assert_eq!(ConstantFold.run(&mut g), 0);
    }

    #[test]
    fn purify_views_only_touches_unmutated_components() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %y : Tensor):
               %i : int = prim::Constant[value=0]()
               %a : Tensor = aten::select[dim=0](%x, %i)
               %b : Tensor = aten::select[dim=0](%y, %i)
               %m : Tensor = aten::relu_(%b)
               %s : Tensor = aten::sigmoid(%a)
               return (%s)",
        )
        .unwrap();
        assert_eq!(PurifyViews.run(&mut g), 1);
        let text = g.to_string();
        // The view of the unmutated x becomes an access; y's view stays.
        assert!(text.contains("immut::select"), "{text}");
        assert!(text.contains("aten::select"), "{text}");
    }

    #[test]
    fn revert_unfused_accesses_restores_views() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %a : Tensor = immut::select[dim=0](%x, %i)
               %s : Tensor = aten::sigmoid(%a)
               return (%s)",
        )
        .unwrap();
        assert_eq!(RevertUnfusedAccesses.run(&mut g), 1);
        assert!(g.to_string().contains("aten::select"), "{g}");
        assert!(g.verify().is_ok());
    }

    #[test]
    fn revert_skips_accesses_aliasing_mutations() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %a : Tensor = immut::select[dim=0](%x, %i)
               %v : Tensor = aten::select[dim=0](%x, %i)
               %m : Tensor = aten::relu_(%v)
               %s : Tensor = aten::sigmoid(%a)
               return (%s)",
        )
        .unwrap();
        // %a's base is mutated through %v: reverting would change semantics.
        assert_eq!(RevertUnfusedAccesses.run(&mut g), 0);
    }

    #[test]
    fn licm_hoists_invariant_computation() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %w : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %inv : Tensor = aten::sigmoid(%w)
                   %u : Tensor = aten::add(%c, %inv)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        assert_eq!(Licm.run(&mut g), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        // sigmoid now precedes the loop.
        let text = g.to_string();
        let sig = text.find("aten::sigmoid").unwrap();
        let lp = text.find("prim::Loop").unwrap();
        assert!(sig < lp, "{text}");
        // The loop-dependent add stays inside.
        assert!(text.find("aten::add(").unwrap() > lp, "{text}");
    }

    #[test]
    fn licm_leaves_variant_and_effectful_nodes() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::relu(%c)
                   %m : Tensor = aten::relu_(%u)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        // relu depends on the carried value; relu_ is a mutation.
        assert_eq!(Licm.run(&mut g), 0);
    }

    #[test]
    fn licm_leaves_mutation_receivers_in_the_loop() {
        // Found by differential fuzzing: %u has invariant operands, but its
        // storage is negated in the loop. Each iteration must negate a fresh
        // relu(%x); hoisted, one buffer would accumulate n negations.
        let mut g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::relu(%x)
                   %m : Tensor = aten::neg_(%u)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        assert_eq!(Licm.run(&mut g), 0);
        let text = g.to_string();
        assert!(
            text.find("aten::relu").unwrap() > text.find("prim::Loop").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn constant_folding_mixed_int_float() {
        let mut g = parse_graph(
            "graph():
               %a : int = prim::Constant[value=2]()
               %f : float = aten::int_to_float(%a)
               %g0 : float = aten::float_mul(%f, %f)
               return (%g0)",
        )
        .unwrap();
        assert_eq!(ConstantFold.run(&mut g), 2);
        Dce.run(&mut g);
        assert!(g.to_string().contains("value=4.0"), "{g}");
    }
}
