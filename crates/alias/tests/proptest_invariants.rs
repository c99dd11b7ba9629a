//! Property-based invariants of [`AliasAnalysis`] over random graphs.
//!
//! Each case builds a random imperative graph — clones, view chains,
//! mutations, the occasional list or loop to taint components — from a
//! seed, then checks structural facts that must hold for *any* graph:
//!
//! 1. `must_alias(a, b)` implies `may_alias(a, b)` (must is a refinement).
//! 2. Every candidate's component contains only `Memory` points-to edges
//!    (Equation (1): candidates are memory-dependency-only components).
//! 3. Candidates are pairwise disjoint: no value (origin, view output or
//!    mutation receiver) belongs to two candidates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tssa_alias::{AliasAnalysis, DepKind};
use tssa_ir::{ConstValue, Graph, MutateKind, Op, Type, UnaryKind, ValueId, ViewKind};

/// Build a random graph from `seed`: a few base tensors (inputs and
/// clones), random view chains off random tensors, random mutations, and
/// sometimes a list construction or a loop-carried tensor to introduce
/// non-memory edges.
fn random_alias_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let x = g.add_input("x", Type::Tensor);
    let y = g.add_input("y", Type::Tensor);
    let mut tensors: Vec<ValueId> = vec![x, y];

    let steps = rng.gen_range(2usize..12);
    for _ in 0..steps {
        let pick = tensors[rng.gen_range(0..tensors.len())];
        match rng.gen_range(0u32..10) {
            // Fresh storage: clone or a pure unary.
            0 | 1 => {
                let n = g.append(g.top(), Op::CloneOp, &[pick], &[Type::Tensor]);
                tensors.push(g.out(n));
            }
            2 => {
                let n = g.append(g.top(), UnaryKind::Relu, &[pick], &[Type::Tensor]);
                tensors.push(g.out(n));
            }
            // A view off an existing tensor.
            3..=5 => {
                let kind = match rng.gen_range(0u32..4) {
                    0 => ViewKind::Select { dim: 0 },
                    1 => ViewKind::Transpose { dim0: 0, dim1: 1 },
                    2 => ViewKind::Unsqueeze { dim: 0 },
                    _ => ViewKind::Expand { shape: vec![2, -1] },
                };
                let extra = matches!(kind, ViewKind::Select { .. });
                let mut inputs = vec![pick];
                if extra {
                    inputs.push(g.constant_int(rng.gen_range(0i64..3)));
                }
                let n = g.append(g.top(), Op::View(kind), &inputs, &[Type::Tensor]);
                tensors.push(g.out(n));
            }
            // A mutation of an existing tensor.
            6 | 7 => {
                let kind = match rng.gen_range(0u32..3) {
                    0 => MutateKind::Relu,
                    1 => MutateKind::Sigmoid,
                    _ => MutateKind::Neg,
                };
                g.append(g.top(), Op::Mutate(kind), &[pick], &[Type::Tensor]);
            }
            // Container taint.
            8 => {
                g.append(
                    g.top(),
                    Op::ListConstruct,
                    &[pick],
                    &[Type::List(Box::new(Type::Tensor))],
                );
            }
            // Control-flow taint: a loop carrying the tensor.
            _ => {
                let n = g.constant_int(2);
                let t = g.constant_bool(true);
                let lp = g.append(g.top(), Op::Loop, &[n, t, pick], &[Type::Tensor]);
                let body = g.add_node_block(lp);
                let _i = g.add_block_param(body, Type::Int);
                let c = g.add_block_param(body, Type::Tensor);
                let cond = g.constant_in(body, ConstValue::Bool(true));
                g.set_returns(body, &[cond, c]);
                tensors.push(g.out(lp));
            }
        }
    }
    g
}

/// Every value the analysis knows about (edge endpoints), deduplicated.
fn known_values(a: &AliasAnalysis) -> Vec<ValueId> {
    let mut vals: Vec<ValueId> = a.edges().iter().flat_map(|e| [e.from, e.to]).collect();
    vals.sort();
    vals.dedup();
    vals
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn must_alias_implies_may_alias(seed in 0u64..10_000) {
        let g = random_alias_graph(seed);
        let a = AliasAnalysis::build(&g);
        let vals = known_values(&a);
        for &p in &vals {
            for &q in &vals {
                if a.must_alias(p, q) {
                    prop_assert!(
                        a.may_alias(p, q),
                        "seed {seed}: must_alias({p:?}, {q:?}) but not may_alias"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_components_are_memory_only(seed in 0u64..10_000) {
        let g = random_alias_graph(seed);
        let a = AliasAnalysis::build(&g);
        for cand in a.candidates() {
            let rep = a.component_of(cand.origin);
            for e in a.edges() {
                if a.component_of(e.from) == rep || a.component_of(e.to) == rep {
                    prop_assert_eq!(
                        e.kind,
                        DepKind::Memory,
                        "seed {}: candidate component of {:?} has a {:?} edge {:?} -> {:?}",
                        seed, cand.origin, e.kind, e.from, e.to
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_are_disjoint(seed in 0u64..10_000) {
        let g = random_alias_graph(seed);
        let a = AliasAnalysis::build(&g);
        let mut seen_values = std::collections::HashSet::new();
        let mut seen_nodes = std::collections::HashSet::new();
        for cand in a.candidates() {
            prop_assert!(
                seen_values.insert(cand.origin),
                "seed {seed}: origin {:?} in two candidates", cand.origin
            );
            for &v in &cand.views {
                prop_assert!(
                    seen_nodes.insert(v),
                    "seed {seed}: view node {:?} in two candidates", v
                );
            }
            for &m in &cand.mutations {
                prop_assert!(
                    seen_nodes.insert(m),
                    "seed {seed}: mutation node {:?} in two candidates", m
                );
            }
            // Components themselves must differ too.
            for other in a.candidates() {
                if other.origin != cand.origin {
                    prop_assert!(
                        a.component_of(other.origin) != a.component_of(cand.origin),
                        "seed {seed}: two candidates share a component"
                    );
                }
            }
        }
    }
}
