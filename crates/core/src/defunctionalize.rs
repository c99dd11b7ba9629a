//! Conversion back from TensorSSA form to mutable operators (§3.2: the
//! immutable operators "can either be fused and compiled or be converted
//! back to the original mutable operators").
//!
//! `immut::access` becomes a zero-copy `aten::` view — safe because a fully
//! functionalized region contains no mutation that could write through the
//! alias. `immut::assign` becomes `clone` + view + `copy_`, preserving value
//! semantics at the cost of one materialized copy.

use tssa_ir::{Graph, MutateKind, Op, Type};

/// Statistics from [`defunctionalize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefunctionalizeStats {
    /// `immut::access` nodes turned into views.
    pub accesses_to_views: usize,
    /// `immut::assign` nodes expanded into clone+view+copy_.
    pub assigns_to_mutations: usize,
}

/// Rewrite every `immut::access`/`immut::assign` back to view/mutation form.
pub fn defunctionalize(g: &mut Graph) -> DefunctionalizeStats {
    let mut stats = DefunctionalizeStats::default();
    for n in g.nodes_recursive(g.top()) {
        if g.is_removed(n) {
            continue;
        }
        let node = g.node(n).clone();
        match node.op {
            Op::Access(kind) => {
                g.set_op(n, Op::View(kind));
                stats.accesses_to_views += 1;
            }
            Op::Assign(kind) => {
                let base = node.inputs[0];
                let src = node.inputs[1];
                let extras = &node.inputs[2..];
                let cl = g.insert_before(n, Op::CloneOp, &[base], &[Type::Tensor]);
                let cl_v = g.out(cl);
                let mut view_inputs = vec![cl_v];
                view_inputs.extend_from_slice(extras);
                let vw = g.insert_before(n, Op::View(kind), &view_inputs, &[Type::Tensor]);
                let vw_v = g.out(vw);
                g.insert_before(
                    n,
                    Op::Mutate(MutateKind::Copy),
                    &[vw_v, src],
                    &[Type::Tensor],
                );
                g.replace_all_uses(node.outputs[0], cl_v);
                g.remove_node(n);
                stats.assigns_to_mutations += 1;
            }
            _ => {}
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert_to_tensorssa;
    use crate::passes::Dce;
    use crate::Pass;
    use tssa_ir::parse_graph;

    #[test]
    fn round_trip_through_tensorssa() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=0]()
               %f : float = prim::Constant[value=5.0]()
               %v : Tensor = aten::select[dim=0](%b, %i)
               %m : Tensor = aten::fill_(%v, %f)
               return (%b)",
        )
        .unwrap();
        convert_to_tensorssa(&mut g);
        Dce.run(&mut g);
        assert!(g.to_string().contains("immut::assign_select"));
        let stats = defunctionalize(&mut g);
        assert!(stats.assigns_to_mutations >= 1);
        let text = g.to_string();
        assert!(!text.contains("immut::"), "{text}");
        assert!(text.contains("aten::copy_"), "{text}");
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
    }

    #[test]
    fn pure_access_becomes_view() {
        let mut g = parse_graph(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %v : Tensor = immut::select[dim=0](%x, %i)
               return (%v)",
        )
        .unwrap();
        let stats = defunctionalize(&mut g);
        assert_eq!(stats.accesses_to_views, 1);
        assert!(g.to_string().contains("aten::select"), "{g}");
        assert!(g.verify().is_ok());
    }
}
