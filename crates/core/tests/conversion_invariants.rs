//! Invariants of the TensorSSA conversion checked in isolation (beyond the
//! cross-pipeline equivalence suite at the workspace root).

use tssa_core::{convert_to_tensorssa, passes, Pass};
use tssa_ir::{parse_graph, Graph, Op};

fn convert(src: &str) -> Graph {
    let mut g = parse_graph(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    convert_to_tensorssa(&mut g);
    passes::Dce.run(&mut g);
    g.verify().unwrap_or_else(|e| panic!("{e}\n{g}"));
    g
}

fn count(g: &Graph, pred: impl Fn(&Op) -> bool) -> usize {
    g.nodes_recursive(g.top())
        .into_iter()
        .filter(|&n| pred(&g.node(n).op))
        .count()
}

#[test]
fn no_updates_survive_conversion() {
    let g = convert(
        "graph(%x : Tensor, %n : int):
           %b : Tensor = aten::clone(%x)
           %t : bool = prim::Constant[value=true]()
           prim::Loop(%n, %t)
             block0(%i : int):
               %v : Tensor = aten::select[dim=0](%b, %i)
               %m : Tensor = aten::relu_(%v)
               -> (%t)
           return (%b)",
    );
    assert_eq!(count(&g, |op| *op == Op::Update), 0, "{g}");
}

#[test]
fn every_assign_has_an_origin_version_chain() {
    // Two mutations to different slices: each produces a distinct assign,
    // and the graph's return is the latest version (not the clone).
    let g = convert(
        "graph(%x : Tensor):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %j : int = prim::Constant[value=1]()
           %v0 : Tensor = aten::select[dim=0](%b, %i)
           %m0 : Tensor = aten::relu_(%v0)
           %v1 : Tensor = aten::select[dim=0](%b, %j)
           %m1 : Tensor = aten::sigmoid_(%v1)
           return (%b)",
    );
    assert_eq!(count(&g, |op| matches!(op, Op::Assign(_))), 2, "{g}");
    let ret = g.block(g.top()).returns[0];
    let def = g.def_node(ret).unwrap();
    assert!(matches!(g.node(def).op, Op::Assign(_)), "{g}");
    // The first assign feeds the second (version chain).
    let assigns: Vec<_> = g
        .nodes_recursive(g.top())
        .into_iter()
        .filter(|&n| matches!(g.node(n).op, Op::Assign(_)))
        .collect();
    let second_base = g.node(assigns[1]).inputs[0];
    assert_eq!(g.def_node(second_base), Some(assigns[0]), "{g}");
}

#[test]
fn reads_before_mutation_see_old_version() {
    // %before reads the view prior to the mutation and must keep reading the
    // pre-mutation value (its access is *not* re-pointed at the new
    // version).
    let g = convert(
        "graph(%x : Tensor):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %v : Tensor = aten::select[dim=0](%b, %i)
           %before : Tensor = aten::exp(%v)
           %m : Tensor = aten::relu_(%v)
           %after : Tensor = aten::exp(%v)
           return (%before, %after)",
    );
    let rets = g.block(g.top()).returns.clone();
    let before_src = g.node(g.def_node(rets[0]).unwrap()).inputs[0];
    let after_src = g.node(g.def_node(rets[1]).unwrap()).inputs[0];
    assert_ne!(
        before_src, after_src,
        "pre- and post-mutation reads must see different versions\n{g}"
    );
}

#[test]
fn conversion_is_idempotent() {
    let src = "graph(%x : Tensor):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %v : Tensor = aten::select[dim=0](%b, %i)
           %m : Tensor = aten::relu_(%v)
           return (%b)";
    let mut g = parse_graph(src).unwrap();
    let first = convert_to_tensorssa(&mut g);
    assert_eq!(first.mutations_removed, 1);
    let second = convert_to_tensorssa(&mut g);
    assert_eq!(second.mutations_removed, 0, "nothing left to convert");
    assert_eq!(second.candidates, 0);
    assert!(g.verify().is_ok());
}

#[test]
fn unrelated_pure_code_is_untouched() {
    let src = "graph(%x : Tensor, %w : Tensor):
           %m : Tensor = aten::matmul(%x, %w)
           %s : Tensor = aten::softmax[dim=1](%m)
           return (%s)";
    let mut g = parse_graph(src).unwrap();
    let before = g.to_string();
    let stats = convert_to_tensorssa(&mut g);
    assert_eq!(stats.candidates, 0);
    assert_eq!(g.to_string(), before, "pure graphs pass through unchanged");
}

#[test]
fn loop_signature_growth_is_exactly_one_carry_per_tensor() {
    let g = convert(
        "graph(%x : Tensor, %y : Tensor, %n : int):
           %a : Tensor = aten::clone(%x)
           %b : Tensor = aten::clone(%y)
           %t : bool = prim::Constant[value=true]()
           prim::Loop(%n, %t)
             block0(%i : int):
               %va : Tensor = aten::select[dim=0](%a, %i)
               %ma : Tensor = aten::relu_(%va)
               %vb : Tensor = aten::select[dim=0](%b, %i)
               %mb : Tensor = aten::tanh_(%vb)
               -> (%t)
           return (%a, %b)",
    );
    let lp = g
        .nodes_recursive(g.top())
        .into_iter()
        .find(|&n| g.node(n).op == Op::Loop)
        .unwrap();
    // Two mutated tensors → exactly two carried values.
    assert_eq!(g.node(lp).outputs.len(), 2, "{g}");
    assert_eq!(g.node(lp).inputs.len(), 4, "{g}"); // n, cond, a, b
}

#[test]
fn prune_loop_carries_removes_pass_through() {
    use tssa_ir::Type;
    let mut g = parse_graph(
        "graph(%x : Tensor, %y : Tensor, %n : int):
           %t : bool = prim::Constant[value=true]()
           %a : Tensor, %b : Tensor = prim::Loop(%n, %t, %x, %y)
             block0(%i : int, %ca : Tensor, %cb : Tensor):
               %u : Tensor = aten::relu(%ca)
               -> (%t, %u, %cb)
           return (%a)",
    )
    .unwrap();
    // %b is unused and %cb only passes through: one carry removable.
    assert_eq!(passes::PruneLoopCarries.run(&mut g), 1);
    assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
    let lp = g
        .nodes_recursive(g.top())
        .into_iter()
        .find(|&n| g.node(n).op == Op::Loop)
        .unwrap();
    assert_eq!(g.node(lp).outputs.len(), 1);
    assert_eq!(g.node(lp).inputs.len(), 3);
    assert_eq!(g.value(g.node(lp).outputs[0]).ty, Type::Tensor);
}

#[test]
fn prune_keeps_live_and_computing_carries() {
    let mut g = parse_graph(
        "graph(%x : Tensor, %n : int):
           %t : bool = prim::Constant[value=true]()
           %o : Tensor = prim::Loop(%n, %t, %x)
             block0(%i : int, %c : Tensor):
               %u : Tensor = aten::relu(%c)
               -> (%t, %u)
           return (%o)",
    )
    .unwrap();
    // Output used: nothing to prune.
    assert_eq!(passes::PruneLoopCarries.run(&mut g), 0);

    // Output unused but the param feeds real computation returned in the
    // same slot: the conservative pass leaves it alone.
    let mut g2 = parse_graph(
        "graph(%x : Tensor, %n : int):
           %t : bool = prim::Constant[value=true]()
           %o : Tensor = prim::Loop(%n, %t, %x)
             block0(%i : int, %c : Tensor):
               %u : Tensor = aten::relu(%c)
               -> (%t, %u)
           return (%x)",
    )
    .unwrap();
    assert_eq!(passes::PruneLoopCarries.run(&mut g2), 0);
}
