//! The TensorSSA conversion — Algorithm 1 of the paper.
//!
//! Stages (see the crate docs for an overview):
//!
//! * `normalize_mutation_outputs` — a mutation's output is a must-alias of
//!   its receiver, so every use of it is replaced by the receiver first;
//! * `rewrite_mutation` — §4.1.1 pass-up/pass-down per `Mutate` node;
//! * `block_propagation` — §4.1.2, innermost-first;
//! * `rename_and_strip_updates` — the final renaming walk (`Replace all uses
//!   of v with v' after Update(v', v)`) followed by update removal.

use std::collections::{HashMap, HashSet};

use tssa_alias::{AliasAnalysis, Candidate};
use tssa_ir::{BlockId, Graph, NodeId, Op, Type, ValueId};

/// Counters describing what the conversion did (useful for tests, logging
/// and the ablation benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Alias components functionalized.
    pub candidates: usize,
    /// `Mutate` nodes eliminated.
    pub mutations_removed: usize,
    /// `View` nodes rewritten to `immut::access`.
    pub views_rewritten: usize,
    /// `tssa::update` annotations inserted.
    pub updates_inserted: usize,
    /// Loop carried values added by block propagation.
    pub loop_carries_added: usize,
    /// Branch returns added by block propagation.
    pub branch_returns_added: usize,
}

/// Functionalize every memory-dependency-only alias component of `g`.
///
/// Components whose origin is a graph input, that escape through containers
/// or control-flow aliasing, or that mutate through unsupported views are
/// left untouched (the conservative fallback also used by the paper's
/// implementation). Pair with [`crate::passes::dce`] to drop the dead
/// `immut::access` versions the conversion leaves behind.
pub fn convert_to_tensorssa(g: &mut Graph) -> ConversionStats {
    convert_with_options(g, true)
}

/// Like [`convert_to_tensorssa`] but with block propagation optionally
/// disabled — the "non-holistic" ablation: mutations whose versions would
/// need to cross control-flow boundaries are left imperative.
pub(crate) fn convert_with_options(g: &mut Graph, block_prop: bool) -> ConversionStats {
    let mut stats = ConversionStats::default();
    normalize_mutation_outputs(g);
    let analysis = AliasAnalysis::build(g);
    let candidates = analysis.candidates().to_vec();
    let order = ReadAfter::build(g, &candidates);
    for cand in &candidates {
        if !block_prop && component_crosses_blocks(g, cand.origin, &cand.mutations) {
            continue;
        }
        stats.candidates += 1;
        // Rewrite every view of the component to its immutable access
        // (Definition 3.3); identical operands, new pure semantics.
        let mut views_of: HashMap<ValueId, Vec<NodeId>> = HashMap::new();
        for &vn in &cand.views {
            if let Op::View(kind) = g.node(vn).op.clone() {
                g.set_op(vn, Op::Access(kind));
                stats.views_rewritten += 1;
            }
            views_of.entry(g.node(vn).inputs[0]).or_default().push(vn);
        }
        // Handle mutations in program order (§4.1.1).
        let mut muts = cand.mutations.clone();
        muts.sort_by_key(|&m| order.rank[m.index()]);
        for m in muts {
            rewrite_mutation(g, m, cand.origin, &views_of, &order, &mut stats);
            stats.mutations_removed += 1;
        }
    }
    if block_prop {
        block_propagation(g, &mut stats);
    }
    rename_and_strip_updates(g);
    stats
}

/// Whether any mutation of the component happens in a block other than the
/// origin's defining block (used by the no-block-propagation ablation).
fn component_crosses_blocks(g: &Graph, origin: ValueId, mutations: &[NodeId]) -> bool {
    let home = g.def_block(origin);
    mutations.iter().any(|&m| g.node(m).owner != home)
}

/// Replace uses of every mutation's output with its receiver: after the
/// mutation executes, the two are indistinguishable aliases. One walk in
/// program order: a use always follows its definition, so each operand is
/// rewritten through the receivers recorded so far, and returns last.
fn normalize_mutation_outputs(g: &mut Graph) {
    let mut receiver: HashMap<ValueId, ValueId> = HashMap::new();
    for n in g.nodes_recursive(g.top()) {
        substitute_operands(g, n, &receiver);
        let node = g.node(n);
        if node.op.is_mutation() {
            if let (Some(&out), Some(&recv)) = (node.outputs.first(), node.inputs.first()) {
                receiver.insert(out, recv);
            }
        }
    }
    for b in g.block_ids().collect::<Vec<_>>() {
        substitute_returns(g, b, &receiver);
    }
}

/// Which versions the pass-down must materialise, read off the graph as
/// [`normalize_mutation_outputs`] left it. Exact for the whole conversion:
/// every node the conversion inserts sits right before the mutation being
/// rewritten, so only original nodes lie after a mutation still to come.
struct ReadAfter {
    /// Pre-order rank of every original node.
    rank: Vec<u32>,
    /// Per value: one past the rank of its latest reader, or of the latest
    /// reader of any candidate view taken (transitively) from it; 0 when
    /// nothing reads it, `u32::MAX` when a block returns it.
    last_read: Vec<u32>,
    /// Per block and [`cse_shape`]: rank of the latest view of that shape
    /// taken in a block nested inside it.
    nested: HashMap<(BlockId, String), u32>,
}

impl ReadAfter {
    fn build(g: &Graph, candidates: &[Candidate]) -> ReadAfter {
        let order = g.nodes_recursive(g.top());
        let len = order.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut rank = vec![u32::MAX; len];
        let (mut last_read, mut nested) = (vec![0; g.value_count()], HashMap::new());
        for (r, &n) in order.iter().enumerate() {
            rank[n.index()] = r as u32;
            for &v in &g.node(n).inputs {
                last_read[v.index()] = r as u32 + 1;
            }
            let mut b = g.node(n).owner;
            if matches!(g.node(n).op, Op::View(_) | Op::Access(_)) && g.block(b).owner.is_some() {
                let shape = cse_shape(g, n);
                while let Some(owner) = g.block(b).owner {
                    b = g.node(owner).owner;
                    nested.insert((b, shape.clone()), r as u32);
                }
            }
        }
        for b in g.block_ids() {
            for &v in &g.block(b).returns {
                last_read[v.index()] = u32::MAX;
            }
        }
        // A sub-view follows its base in program order: walking the views
        // backwards folds every chain into its root.
        let mut views: Vec<NodeId> = candidates
            .iter()
            .flat_map(|c| c.views.iter().copied())
            .collect();
        views.sort_by_key(|&vn| std::cmp::Reverse(rank[vn.index()]));
        for vn in views {
            let node = g.node(vn);
            let (base, out) = (node.inputs[0].index(), node.outputs[0].index());
            last_read[base] = last_read[base].max(last_read[out]);
        }
        ReadAfter {
            rank,
            last_read,
            nested,
        }
    }

    /// Whether view node `vn`, which dominates `m`, needs a new version at
    /// `m`. It does when
    /// - a reader of it (or of a view of it) does not strictly precede `m`
    ///   (`m` reads its own receiver);
    /// - a loop between its block and `m` re-runs its earlier readers with
    ///   the carry block propagation will add;
    /// - a view of its shape is taken later inside a block nested in `m`'s:
    ///   CSE merges that view into the new version, hoisting it out.
    fn still_read(&self, g: &Graph, vn: NodeId, m: NodeId) -> bool {
        let out = g.node(vn).outputs[0];
        if self.last_read[out.index()] > self.rank[m.index()] {
            return true;
        }
        let mut b = g.node(m).owner;
        while b != g.node(vn).owner {
            let owner = g.block(b).owner.expect("a view's block encloses `m`");
            if g.node(owner).op != Op::If {
                return true;
            }
            b = g.node(owner).owner;
        }
        if self.nested.is_empty() {
            return false;
        }
        let later = self.nested.get(&(g.node(m).owner, cse_shape(g, vn)));
        later.is_some_and(|&r| r > self.rank[m.index()])
    }
}

/// What CSE compares of a view once bases are renamed to versions: its
/// operator and constant indices, any two other indices taken as equal.
/// Bases are left out: two different values can become one under CSE.
fn cse_shape(g: &Graph, vn: NodeId) -> String {
    let node = g.node(vn);
    let (Op::View(kind) | Op::Access(kind)) = &node.op else {
        unreachable!("a view")
    };
    let consts: Vec<_> = (node.inputs[1..].iter())
        .map(|&i| match g.def_node(i).map(|d| &g.node(d).op) {
            Some(Op::Constant(c)) => Some(c),
            _ => None,
        })
        .collect();
    format!("{kind:?}{consts:?}")
}

/// §4.1.1: decompose one `Mutate` into functional compute + assign chain
/// (pass-up) + re-accessed views with updates (pass-down), then remove it.
/// `views_of` holds the candidate's view nodes keyed by the value they view.
fn rewrite_mutation(
    g: &mut Graph,
    m: NodeId,
    origin: ValueId,
    views_of: &HashMap<ValueId, Vec<NodeId>>,
    order: &ReadAfter,
    stats: &mut ConversionStats,
) {
    let node = g.node(m).clone();
    let Op::Mutate(kind) = node.op else {
        return;
    };
    let recv = node.inputs[0];

    // The new value `w` of the mutated view: its functional counterpart
    // applied to the view's current value.
    let w = {
        let func = kind.functional_op();
        let inputs: Vec<ValueId> = match func {
            // copy_(v, src) → broadcast_like(src, v)
            Op::BroadcastLike => vec![node.inputs[1], recv],
            // everything else keeps (recv, extras…) order
            _ => node.inputs.clone(),
        };
        let n = g.insert_before(m, func, &inputs, &[Type::Tensor]);
        g.out(n)
    };

    // Pass-up: walk the view path from the receiver to the origin tensor,
    // materializing a new version of each base via immut::assign.
    let mut cur_val = recv;
    let mut cur_new = w;
    while cur_val != origin {
        let def = g
            .def_node(cur_val)
            .expect("view chain values are node-defined");
        let def_node = g.node(def).clone();
        let Op::Access(k) = def_node.op else {
            unreachable!("chain rewritten to access before mutation handling");
        };
        let base = def_node.inputs[0];
        let mut inputs = vec![base, cur_new];
        inputs.extend_from_slice(&def_node.inputs[1..]);
        let a = g.insert_before(m, Op::Assign(k), &inputs, &[Type::Tensor]);
        cur_new = g.out(a);
        cur_val = base;
    }

    // Pass-down from the fresh origin version.
    traversal(g, m, origin, cur_new, views_of, order, stats);
    g.remove_node(m);
}

/// Algorithm 1's `Traversal(x, x')`: annotate the new version and re-access
/// every dominated view of `x` that is still read, recursively. A version
/// nothing reads is dead weight: DCE removes it, or block propagation
/// exports it from a branch for nobody.
fn traversal(
    g: &mut Graph,
    m: NodeId,
    x: ValueId,
    x_new: ValueId,
    views_of: &HashMap<ValueId, Vec<NodeId>>,
    order: &ReadAfter,
    stats: &mut ConversionStats,
) {
    g.insert_before(m, Op::Update, &[x_new, x], &[]);
    stats.updates_inserted += 1;
    for &vn in views_of.get(&x).map_or(&[][..], Vec::as_slice) {
        // Dominance from ranks, both nodes being original and `vn` block-less.
        let dominates = order.rank[vn.index()] < order.rank[m.index()]
            && g.block_is_ancestor(g.node(vn).owner, g.node(m).owner);
        if !dominates || !order.still_read(g, vn, m) {
            continue;
        }
        let vnode = g.node(vn).clone();
        let Op::Access(kind) = vnode.op else {
            continue;
        };
        let mut inputs = vec![x_new];
        inputs.extend_from_slice(&vnode.inputs[1..]);
        let a = g.insert_before(m, Op::Access(kind), &inputs, &[Type::Tensor]);
        let v_new = g.out(a);
        traversal(g, m, vnode.outputs[0], v_new, views_of, order, stats);
    }
}

/// The target of the last `tssa::update(?, old)` directly in `block`, if any.
fn latest_version_in(g: &Graph, block: BlockId, old: ValueId) -> Option<ValueId> {
    let mut latest = None;
    for &n in &g.block(block).nodes {
        let node = g.node(n);
        if node.op == Op::Update && node.inputs[1] == old {
            latest = Some(node.inputs[0]);
        }
    }
    latest
}

/// §4.1.2: propagate versions out of control-flow blocks, innermost first.
fn block_propagation(g: &mut Graph, stats: &mut ConversionStats) {
    let mut done: HashSet<(NodeId, ValueId)> = HashSet::new();
    loop {
        // Find the deepest cross-block update not yet handled.
        let mut best: Option<(NodeId, ValueId, usize)> = None;
        for n in g.nodes_recursive(g.top()) {
            let node = g.node(n);
            if node.op != Op::Update {
                continue;
            }
            let (new, old) = (node.inputs[0], node.inputs[1]);
            let (b_new, b_old) = (g.def_block(new), g.def_block(old));
            if b_new == b_old {
                continue;
            }
            let Some(owner) = g.block(b_new).owner else {
                continue;
            };
            if done.contains(&(owner, old)) {
                continue;
            }
            let depth = g.block_ancestry(b_new).len();
            if best.map(|(_, _, d)| depth > d).unwrap_or(true) {
                best = Some((owner, old, depth));
            }
        }
        let Some((owner, old, _)) = best else {
            break;
        };
        let ty = g.value(old).ty.clone();
        match g.node(owner).op {
            Op::If => {
                let blocks: [BlockId; 2] = [g.node(owner).blocks[0], g.node(owner).blocks[1]];
                for b in blocks {
                    // "Add x to the sibling's returns if x is not mutated
                    // there": the unmutated side returns the old version.
                    let latest = latest_version_in(g, b, old).unwrap_or(old);
                    g.push_return(b, latest);
                    stats.branch_returns_added += 1;
                }
                let x_o = g.add_output(owner, ty);
                g.insert_after(owner, Op::Update, &[x_o, old], &[]);
                stats.updates_inserted += 1;
            }
            Op::Loop => {
                let body = g.node(owner).blocks[0];
                let latest = latest_version_in(g, body, old)
                    .expect("loop propagation triggered by an update in the body");
                g.add_node_input(owner, old);
                let x_p = g.add_block_param(body, ty.clone());
                g.prepend(body, Op::Update, &[x_p, old], &[]);
                stats.updates_inserted += 1;
                g.push_return(body, latest);
                let x_o = g.add_output(owner, ty);
                g.insert_after(owner, Op::Update, &[x_o, old], &[]);
                stats.updates_inserted += 1;
                stats.loop_carries_added += 1;
            }
            _ => {
                // Updates cannot appear inside fusion groups at this stage.
                unreachable!("update inside non-control-flow node");
            }
        }
        done.insert((owner, old));
    }
}

/// Final renaming: walk the program in order keeping, per original value,
/// the current version installed by the updates seen so far; rewrite every
/// later use. Versions are block-scoped (control flow exports them through
/// the outputs added by block propagation). Then remove all updates.
fn rename_and_strip_updates(g: &mut Graph) {
    let top = g.top();
    let mut map: HashMap<ValueId, ValueId> = HashMap::new();
    rename_block(g, top, &mut map);
    // Strip updates.
    for n in g.nodes_recursive(g.top()) {
        if g.node(n).op == Op::Update {
            g.remove_node(n);
        }
    }
}

fn rename_block(g: &mut Graph, block: BlockId, map: &mut HashMap<ValueId, ValueId>) {
    let nodes: Vec<NodeId> = g.block(block).nodes.clone();
    for n in nodes {
        if g.is_removed(n) {
            continue;
        }
        if g.node(n).op == Op::Update {
            let new = g.node(n).inputs[0];
            let old = g.node(n).inputs[1];
            map.insert(old, new);
            continue;
        }
        // Rewrite operands through the current version map.
        substitute_operands(g, n, map);
        // Recurse into nested blocks with a scoped copy of the map.
        let blocks = g.node(n).blocks.clone();
        for b in blocks {
            let mut inner = map.clone();
            rename_block(g, b, &mut inner);
        }
    }
    // Returns see the block-final versions.
    substitute_returns(g, block, map);
}

/// Rewrite every operand of `n` that `map` renames.
pub(crate) fn substitute_operands(g: &mut Graph, n: NodeId, map: &HashMap<ValueId, ValueId>) {
    for i in 0..g.node(n).inputs.len() {
        if let Some(&to) = map.get(&g.node(n).inputs[i]) {
            g.set_input(n, i, to);
        }
    }
}

/// Rewrite every return of `block` that `map` renames.
pub(crate) fn substitute_returns(g: &mut Graph, block: BlockId, map: &HashMap<ValueId, ValueId>) {
    let returns = &g.block(block).returns;
    let renamed: Vec<ValueId> = returns.iter().map(|r| *map.get(r).unwrap_or(r)).collect();
    g.set_returns(block, &renamed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{parse_graph, UnaryKind};

    fn has_op(g: &Graph, fragment: &str) -> bool {
        g.to_string().contains(fragment)
    }

    #[test]
    fn straight_line_mutation_is_functionalized() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=0]()
               %v : Tensor = aten::select[dim=0](%b, %i)
               %f : float = prim::Constant[value=5.0]()
               %m : Tensor = aten::fill_(%v, %f)
               return (%b)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.mutations_removed, 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        assert!(!has_op(&g, "aten::fill_"), "{g}");
        assert!(has_op(&g, "immut::assign_select"), "{g}");
        assert!(has_op(&g, "aten::full_like"), "{g}");
        // The graph now returns the new version, not the clone.
        let ret = g.block(g.top()).returns[0];
        let def = g.def_node(ret).unwrap();
        assert!(matches!(g.node(def).op, Op::Assign(_)), "{g}");
    }

    #[test]
    fn base_mutation_without_views() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %m : Tensor = aten::relu_(%b)
               return (%b)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        assert!(!has_op(&g, "aten::relu_"), "{g}");
        // relu_ decomposes to pure relu; the return is that value.
        let ret = g.block(g.top()).returns[0];
        let def = g.def_node(ret).unwrap();
        assert_eq!(g.node(def).op, Op::Unary(UnaryKind::Relu));
    }

    #[test]
    fn figure4_loop_mutation_adds_carried_value() {
        let mut g = parse_graph(
            "graph(%b0 : Tensor, %n : int):
               %b : Tensor = aten::clone(%b0)
               %t : bool = prim::Constant[value=true]()
               %one : float = prim::Constant[value=1.0]()
               prim::Loop(%n, %t)
                 block0(%i : int):
                   %bi : Tensor = aten::select[dim=0](%b, %i)
                   %m : Tensor = aten::add_scalar_(%bi, %one)
                   -> (%t)
               return (%b)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, 1);
        assert_eq!(stats.loop_carries_added, 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        assert!(!has_op(&g, "aten::add_scalar_("), "{g}");
        // The loop gained a carried tensor and the graph returns its output.
        let text = g.to_string();
        assert!(text.contains("prim::Loop"), "{text}");
        let ret = g.block(g.top()).returns[0];
        let def = g.def_node(ret).unwrap();
        assert_eq!(g.node(def).op, Op::Loop, "{g}");
    }

    #[test]
    fn branch_mutation_extends_if_outputs() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %c : bool):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=0]()
               %one : float = prim::Constant[value=1.0]()
               prim::If(%c)
                 block0():
                   %v : Tensor = aten::select[dim=0](%b, %i)
                   %m : Tensor = aten::add_scalar_(%v, %one)
                   -> ()
                 block1():
                   -> ()
               return (%b)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, 1);
        assert_eq!(stats.branch_returns_added, 2);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        // The If gained one output; its else-return is the old version.
        let ret = g.block(g.top()).returns[0];
        let def = g.def_node(ret).unwrap();
        assert_eq!(g.node(def).op, Op::If, "{g}");
        let else_b = g.node(def).blocks[1];
        assert_eq!(g.block(else_b).returns.len(), 1);
    }

    #[test]
    fn nested_view_chain_pass_up() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=1]()
               %j : int = prim::Constant[value=0]()
               %r : Tensor = aten::select[dim=0](%b, %i)
               %e : Tensor = aten::select[dim=0](%r, %j)
               %m : Tensor = aten::sigmoid_(%e)
               return (%b, %r)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        // Two assigns: one per chain hop.
        let assigns = g
            .nodes_recursive(g.top())
            .into_iter()
            .filter(|&n| matches!(g.node(n).op, Op::Assign(_)))
            .count();
        assert_eq!(assigns, 2, "{g}");
        // %r used after the mutation must be the re-accessed version.
        let r_ret = g.block(g.top()).returns[1];
        let def = g.def_node(r_ret).unwrap();
        assert!(matches!(g.node(def).op, Op::Access(_)), "{g}");
    }

    #[test]
    fn graph_input_mutation_left_imperative() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %v : Tensor = aten::select[dim=0](%x, %i)
               %m : Tensor = aten::relu_(%v)
               return (%x)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.candidates, 0);
        assert!(has_op(&g, "aten::relu_"), "{g}");
        assert!(g.verify().is_ok());
    }

    #[test]
    fn two_sequential_mutations_version_correctly() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=0]()
               %one : float = prim::Constant[value=1.0]()
               %v : Tensor = aten::select[dim=0](%b, %i)
               %m1 : Tensor = aten::add_scalar_(%v, %one)
               %m2 : Tensor = aten::mul_scalar_(%v, %one)
               return (%b)",
        )
        .unwrap();
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, 2);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        // The second mutation's functional mul reads the re-accessed view of
        // the first mutation's assign, not the original view.
        let text = g.to_string();
        let mul_pos = text.find("aten::mul_scalar(").expect("functional mul");
        let assign_pos = text.find("immut::assign_select").expect("assign");
        assert!(assign_pos < mul_pos, "{text}");
    }

    #[test]
    fn no_block_prop_option_skips_cross_block_components() {
        let mut g = parse_graph(
            "graph(%b0 : Tensor, %n : int):
               %b : Tensor = aten::clone(%b0)
               %t : bool = prim::Constant[value=true]()
               %one : float = prim::Constant[value=1.0]()
               prim::Loop(%n, %t)
                 block0(%i : int):
                   %bi : Tensor = aten::select[dim=0](%b, %i)
                   %m : Tensor = aten::add_scalar_(%bi, %one)
                   -> (%t)
               return (%b)",
        )
        .unwrap();
        let stats = convert_with_options(&mut g, false);
        assert_eq!(stats.candidates, 0);
        assert!(has_op(&g, "aten::add_scalar_("), "{g}");
        assert!(g.verify().is_ok());
    }
}
