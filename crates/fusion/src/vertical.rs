//! Vertical fusion (§4.2.1): collapse consecutive pure elementwise /
//! access / assign regions into `prim::FusionGroup` kernels.

use std::collections::{HashMap, HashSet};

use tssa_ir::{BlockId, Graph, NodeId, Op, Type, Use, ValueId};

use crate::transplant::transplant;

/// Controls which operators may enter a fusion group.
///
/// The TensorSSA pipeline fuses access/assign operators (its headline
/// ability); the NNC-like baseline pipeline models mainstream compilers by
/// treating them as fusion barriers.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Minimum number of fusable nodes to justify a group (default 2).
    pub min_group_size: usize,
    /// Whether `immut::access` / `immut::assign` may join groups.
    pub fuse_access_assign: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            min_group_size: 2,
            fuse_access_assign: true,
        }
    }
}

fn fusable(op: &Op, cfg: &FusionConfig) -> bool {
    if op.is_elementwise() {
        return true;
    }
    match op {
        Op::FullLike | Op::BroadcastLike | Op::ZerosLike | Op::OnesLike => true,
        Op::Access(_) | Op::Assign(_) => cfg.fuse_access_assign,
        _ => false,
    }
}

/// Pure host-scalar producers that can be hoisted out of a fusion region
/// when their operands are defined before it.
fn transparent(op: &Op) -> bool {
    matches!(op, Op::Constant(_) | Op::Scalar(_) | Op::Size { .. })
}

/// Fuse every block of the graph (recursively). Returns the number of
/// fusion groups created.
pub fn fuse_vertical(g: &mut Graph, cfg: &FusionConfig) -> usize {
    let top = g.top();
    let mut uses = use_table(g);
    fuse_block(g, top, cfg, &mut uses)
}

/// Every use site of every value, collected once. Fusion keeps it complete:
/// a group node's operands are added as the group is built, and a member's
/// uses stay behind but are skipped once the member is removed.
type UseTable = HashMap<ValueId, Vec<Use>>;

fn use_table(g: &Graph) -> UseTable {
    let mut uses = UseTable::new();
    for node in g.nodes_recursive(g.top()) {
        for (operand, &v) in g.node(node).inputs.iter().enumerate() {
            uses.entry(v)
                .or_default()
                .push(Use::Operand { node, operand });
        }
    }
    for block in g.block_ids() {
        for (index, &v) in g.block(block).returns.iter().enumerate() {
            uses.entry(v)
                .or_default()
                .push(Use::Return { block, index });
        }
    }
    uses
}

/// The uses of `v` in the graph as it stands — what `Graph::uses` returns.
fn live_uses<'a>(g: &'a Graph, uses: &'a UseTable, v: ValueId) -> impl Iterator<Item = Use> + 'a {
    uses.get(&v)
        .into_iter()
        .flatten()
        .copied()
        .filter(|u| match u {
            Use::Operand { node, .. } => !g.is_removed(*node),
            Use::Return { .. } => true,
        })
}

fn fuse_block(g: &mut Graph, block: BlockId, cfg: &FusionConfig, uses: &mut UseTable) -> usize {
    let mut created = 0;
    // Recurse into nested blocks first so inner loop/if bodies get their own
    // groups before the outer scan.
    for n in g.block(block).nodes.clone() {
        for b in g.node(n).blocks.clone() {
            created += fuse_block(g, b, cfg, uses);
        }
    }

    let mut run: Vec<NodeId> = Vec::new();
    let mut run_values: HashSet<ValueId> = HashSet::new();
    let mut hoists: Vec<NodeId> = Vec::new();
    let mut pending: Vec<(Vec<NodeId>, Vec<NodeId>)> = Vec::new();

    let flush = |run: &mut Vec<NodeId>,
                 run_values: &mut HashSet<ValueId>,
                 hoists: &mut Vec<NodeId>,
                 pending: &mut Vec<(Vec<NodeId>, Vec<NodeId>)>| {
        if run.len() >= cfg.min_group_size.max(1) && run.len() >= 2 {
            pending.push((std::mem::take(run), std::mem::take(hoists)));
        } else {
            run.clear();
            hoists.clear();
        }
        run_values.clear();
    };

    for n in g.block(block).nodes.clone() {
        if g.is_removed(n) {
            continue;
        }
        let node = g.node(n);
        if fusable(&node.op, cfg) {
            for &o in &node.outputs {
                run_values.insert(o);
            }
            run.push(n);
        } else if !run.is_empty()
            && transparent(&node.op)
            && node.inputs.iter().all(|v| !run_values.contains(v))
        {
            // Scalar helper independent of the run: hoist before the group.
            hoists.push(n);
        } else {
            flush(&mut run, &mut run_values, &mut hoists, &mut pending);
        }
    }
    flush(&mut run, &mut run_values, &mut hoists, &mut pending);

    for (members, hoists) in pending {
        build_group(g, &members, &hoists, uses);
        created += 1;
    }
    created
}

fn build_group(g: &mut Graph, members: &[NodeId], hoists: &[NodeId], uses: &mut UseTable) {
    let anchor = members[0];
    for &h in hoists {
        g.move_node_before(h, anchor);
    }
    let member_set: HashSet<NodeId> = members.iter().copied().collect();
    let defined: HashSet<ValueId> = members
        .iter()
        .flat_map(|&m| g.node(m).outputs.clone())
        .collect();

    // External inputs, deduplicated in first-use order.
    let mut inputs: Vec<ValueId> = Vec::new();
    for &m in members {
        for &v in &g.node(m).inputs {
            if !defined.contains(&v) && !inputs.contains(&v) {
                inputs.push(v);
            }
        }
    }
    // Escaped outputs: used by a non-member node or any block returns.
    let mut escaped: Vec<ValueId> = Vec::new();
    for &v in &defined {
        let used_outside = live_uses(g, uses, v).any(|u| match u {
            Use::Operand { node, .. } => !member_set.contains(&node),
            Use::Return { .. } => true,
        });
        if used_outside {
            escaped.push(v);
        }
    }
    escaped.sort();

    let out_types: Vec<Type> = escaped.iter().map(|&v| g.value(v).ty.clone()).collect();
    let group = g.insert_before(anchor, Op::FusionGroup, &inputs, &out_types);
    let body = g.add_node_block(group);
    let mut map: HashMap<ValueId, ValueId> = HashMap::new();
    for &inp in &inputs {
        let ty = g.value(inp).ty.clone();
        let p = g.add_block_param(body, ty);
        map.insert(inp, p);
    }
    transplant(g, members, body, &mut map);
    let rets: Vec<ValueId> = escaped.iter().map(|&v| map[&v]).collect();
    g.set_returns(body, &rets);

    for (operand, &v) in inputs.iter().enumerate() {
        uses.entry(v).or_default().push(Use::Operand {
            node: group,
            operand,
        });
    }
    for (i, &orig) in escaped.iter().enumerate() {
        let out = g.node(group).outputs[i];
        let sites: Vec<Use> = live_uses(g, uses, orig).collect();
        for site in sites {
            g.rewrite_use(site, out);
        }
    }
    for &m in members {
        g.remove_node(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::parse_graph;

    #[test]
    fn fuses_elementwise_chain() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %y : Tensor):
               %a : Tensor = aten::add(%x, %y)
               %b : Tensor = aten::sigmoid(%a)
               %c : Tensor = aten::mul(%b, %x)
               return (%c)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        let groups: Vec<NodeId> = g
            .nodes_recursive(g.top())
            .into_iter()
            .filter(|&n| g.node(n).op == Op::FusionGroup)
            .collect();
        assert_eq!(groups.len(), 1);
        let body = g.node(groups[0]).blocks[0];
        assert_eq!(g.block(body).nodes.len(), 3);
        // Only the final value escapes.
        assert_eq!(g.node(groups[0]).outputs.len(), 1);
    }

    #[test]
    fn matmul_breaks_the_run() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %y : Tensor):
               %a : Tensor = aten::relu(%x)
               %b : Tensor = aten::sigmoid(%a)
               %m : Tensor = aten::matmul(%b, %y)
               %c : Tensor = aten::tanh(%m)
               %d : Tensor = aten::neg(%c)
               return (%d)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 2);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        assert!(g.to_string().contains("aten::matmul"));
    }

    #[test]
    fn access_assign_fused_only_when_enabled() {
        let src = "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %v : Tensor = immut::select[dim=0](%x, %i)
               %w : Tensor = aten::add_scalar(%v, %f)
               %s : Tensor = immut::assign_select[dim=0](%x, %w, %i)
               return (%s)";
        let src = src.replace("%f", "%flt");
        let src = src.replace(
            "%i : int = prim::Constant[value=0]()",
            "%i : int = prim::Constant[value=0]()\n               %flt : float = prim::Constant[value=1.0]()",
        );
        let mut g = parse_graph(&src).unwrap();
        let mut g2 = g.clone();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        let nnc_like = FusionConfig {
            fuse_access_assign: false,
            ..FusionConfig::default()
        };
        assert_eq!(fuse_vertical(&mut g2, &nnc_like), 0);
    }

    #[test]
    fn scalar_constants_are_hoisted_through_runs() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %a : Tensor = aten::relu(%x)
               %f : float = prim::Constant[value=2.0]()
               %b : Tensor = aten::mul_scalar(%a, %f)
               return (%b)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        // The constant stays outside and feeds the group as an input.
        let group = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::FusionGroup)
            .unwrap();
        assert_eq!(g.node(group).inputs.len(), 2);
    }

    #[test]
    fn fuses_inside_loop_bodies() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %a : Tensor = aten::relu(%c)
                   %b : Tensor = aten::sigmoid(%a)
                   -> (%t, %b)
               return (%o)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        let text = g.to_string();
        let loop_pos = text.find("prim::Loop").unwrap();
        let group_pos = text.find("prim::FusionGroup").unwrap();
        assert!(
            group_pos > loop_pos,
            "group must be inside the loop: {text}"
        );
    }

    #[test]
    fn single_node_runs_are_not_grouped() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %y : Tensor):
               %a : Tensor = aten::relu(%x)
               %m : Tensor = aten::matmul(%a, %y)
               %b : Tensor = aten::relu(%m)
               return (%b)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 0);
    }

    #[test]
    fn multiple_escaping_outputs() {
        let mut g = parse_graph(
            "graph(%x : Tensor, %y : Tensor):
               %a : Tensor = aten::relu(%x)
               %b : Tensor = aten::sigmoid(%a)
               %m : Tensor = aten::matmul(%a, %b)
               return (%m)",
        )
        .unwrap();
        assert_eq!(fuse_vertical(&mut g, &FusionConfig::default()), 1);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        let group = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::FusionGroup)
            .unwrap();
        assert_eq!(g.node(group).outputs.len(), 2);
    }
}
