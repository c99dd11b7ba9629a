//! Invariants of the TensorSSA conversion checked in isolation (beyond the
//! cross-pipeline equivalence suite at the workspace root).

use tssa_core::{convert_to_tensorssa, passes, ConversionStats, Pass};
use tssa_ir::{parse_graph, BinaryKind, Graph, Op, ValueDef};

/// The conversion alone, before DCE removes what it left dead.
fn convert_only(src: &str) -> (Graph, ConversionStats) {
    let mut g = parse_graph(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let stats = convert_to_tensorssa(&mut g);
    g.verify().unwrap_or_else(|e| panic!("{e}\n{g}"));
    (g, stats)
}

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

/// The compile-scaling program `y[i % 8] = relu(y[(i + 1) % 8])` for
/// `i < n`, as the frontend lowers it: six nodes per statement.
fn partial_writes(n: usize) -> Graph {
    let mut src = String::from("graph(%x : Tensor):\n  %y : Tensor = aten::clone(%x)\n");
    for i in 0..n {
        let (dst, read) = (i % 8, (i + 1) % 8);
        src += &format!(
            "  %r{i} : int = prim::Constant[value={read}]()
  %s{i} : Tensor = aten::select[dim=0](%y, %r{i})
  %f{i} : Tensor = aten::relu(%s{i})
  %w{i} : int = prim::Constant[value={dst}]()
  %t{i} : Tensor = aten::select[dim=0](%y, %w{i})
  %m{i} : Tensor = aten::copy_(%t{i}, %f{i})\n"
        );
    }
    src += "  return (%y)";
    parse_graph(&src).unwrap()
}

#[test]
fn conversion_grows_the_graph_linearly() {
    // Each write leaves its functional compute, one assign and the two
    // original accesses. Re-taking every earlier view at every write — read
    // again or not — grew deep-16 to 385 nodes and deep-32 to 1,281.
    for n in [16, 32, 64] {
        let mut g = partial_writes(n);
        assert_eq!(g.live_node_count(), 6 * n + 1);
        let stats = convert_to_tensorssa(&mut g);
        assert_eq!(stats.mutations_removed, n);
        g.verify().unwrap_or_else(|e| panic!("{e}\n{g}"));
        let live = g.live_node_count();
        assert!(live <= 8 * n + 8, "n = {n}: {live} live nodes\n{g}");
    }
}

// The pass-down re-takes a view at a mutation only when something still
// reads that version: the cases of the read-after rule.

#[test]
fn a_view_not_read_after_the_mutation_gets_no_new_version() {
    // %v is read only before the relu_: the pass-down versions %b and the
    // receiver %u (the relu_ reads it), not %v.
    let (g, stats) = convert_only(
        "graph(%x : Tensor):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %j : int = prim::Constant[value=1]()
           %v : Tensor = aten::select[dim=0](%b, %i)
           %e : Tensor = aten::exp(%v)
           %u : Tensor = aten::select[dim=0](%b, %j)
           %m : Tensor = aten::relu_(%u)
           return (%b, %e)",
    );
    assert_eq!(stats.updates_inserted, 2, "{g}");
    assert_eq!(count(&g, |op| matches!(op, Op::Access(_))), 3, "{g}");
}

#[test]
fn a_view_whose_sub_view_is_read_later_is_still_re_accessed() {
    // %r itself is read only by %e, before the mutation, but %e is read after
    // it: %r needs a new version for %e's to be taken from.
    let (g, stats) = convert_only(
        "graph(%x : Tensor):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %j : int = prim::Constant[value=1]()
           %r : Tensor = aten::select[dim=0](%b, %i)
           %e : Tensor = aten::select[dim=0](%r, %j)
           %u : Tensor = aten::select[dim=0](%b, %j)
           %m : Tensor = aten::relu_(%u)
           %s : Tensor = aten::exp(%e)
           return (%s)",
    );
    // %b, %r, %e and the receiver %u.
    assert_eq!(stats.updates_inserted, 4, "{g}");
    // exp reads access(access(assign(…))): both hops re-taken from the new
    // version of %b.
    let exp = g.def_node(g.block(g.top()).returns[0]).unwrap();
    let mut v = g.node(exp).inputs[0];
    for expect in ["access", "access", "assign"] {
        let def = g.node(g.def_node(v).unwrap());
        let got = match def.op {
            Op::Access(_) => "access",
            Op::Assign(_) => "assign",
            _ => "other",
        };
        assert_eq!(got, expect, "{g}");
        v = def.inputs[0];
    }
}

#[test]
fn a_view_read_in_a_loop_before_the_mutation_stays_carried() {
    // %v is read in the body before the add_scalar_ on another view of %b:
    // the next iteration's read must see this iteration's write, so %v is
    // carried by the loop beside %b. (tests/deep_nesting.rs runs the DSL form
    // against the imperative program.)
    let (g, stats) = convert_only(
        "graph(%x : Tensor, %n : int):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %t : bool = prim::Constant[value=true]()
           %one : float = prim::Constant[value=1.0]()
           %v : Tensor = aten::select[dim=0](%b, %i)
           %acc : Tensor = prim::Loop(%n, %t, %x)
             block0(%k : int, %a : Tensor):
               %s : Tensor = aten::add(%a, %v)
               %u : Tensor = aten::select[dim=0](%b, %i)
               %m : Tensor = aten::add_scalar_(%u, %one)
               -> (%t, %s)
           return (%acc)",
    );
    assert_eq!(stats.loop_carries_added, 2, "{g}");
    let add = g
        .nodes_recursive(g.top())
        .into_iter()
        .find(|&n| g.node(n).op == Op::Binary(BinaryKind::Add))
        .unwrap();
    let read = g.node(add).inputs[1];
    assert!(
        matches!(g.value(read).def, ValueDef::BlockParam { .. }),
        "the body must read %v's carried version\n{g}"
    );
}

#[test]
fn a_view_taken_again_in_a_loop_is_re_taken_for_cse_to_hoist() {
    // Nothing reads %v after the write to row 1, but the body takes row 0
    // again: CSE merges that access into %v's new version, so the loop
    // stops indexing every iteration (LICM does not hoist accesses). CSE
    // runs before DCE in every pipeline.
    let (mut g, _) = convert_only(
        "graph(%x : Tensor, %n : int):
           %b : Tensor = aten::clone(%x)
           %i : int = prim::Constant[value=0]()
           %j : int = prim::Constant[value=1]()
           %t : bool = prim::Constant[value=true]()
           %v : Tensor = aten::select[dim=0](%b, %i)
           %m0 : Tensor = aten::relu_(%v)
           %u : Tensor = aten::select[dim=0](%b, %j)
           %m1 : Tensor = aten::relu_(%u)
           %acc : Tensor = prim::Loop(%n, %t, %x)
             block0(%k : int, %a : Tensor):
               %w : Tensor = aten::select[dim=0](%b, %i)
               %s : Tensor = aten::add(%a, %w)
               -> (%t, %s)
           return (%acc)",
    );
    passes::Cse.run(&mut g);
    passes::Dce.run(&mut g);
    let body = g
        .node(g.def_node(g.block(g.top()).returns[0]).unwrap())
        .blocks[0];
    assert!(
        g.block(body)
            .nodes
            .iter()
            .all(|&n| !matches!(g.node(n).op, Op::Access(_))),
        "the body must read row 0 from before the loop\n{g}"
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
