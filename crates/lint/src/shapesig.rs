//! The shape-polymorphism certifier.
//!
//! The analogue of [`certify_pure`](crate::certify_pure) for shapes: after
//! the full pass pipeline has run, [`certify_shapes`] seeds the symbolic
//! shape analysis with fresh variables (`in0.d0`, …) for every tensor input
//! and classifies each input dimension by what the *output* shapes say
//! about it:
//!
//! * [`DimClass::Polymorphic`] — outputs are affine in the variable (or
//!   ignore it); the plan is valid for any extent, so a shape-keyed plan
//!   cache may bucket on "same rank" instead of "same shape".
//! * [`DimClass::Specialized`] — the analysis (or a pass that constant-
//!   folded a shape) pinned the variable to a constant via an equality
//!   constraint; the plan is valid only for that extent.
//! * [`DimClass::DataDependent`] — the variable taints a ⊥ output
//!   dimension; no static bucketing is possible.
//!
//! Equality constraints recorded by propagation (broadcast of two symbolic
//! dims, matmul contractions, concat off-dims) are solved by `tssa_ir`'s
//! [`DimUnionFind`]: variables unified with a constant become
//! `Specialized`, variables unified with each other stay polymorphic *as a
//! class* (the signature's constraints carry the coupling).

use tssa_ir::{
    infer_shapes_symbolic, DimClass, DimUnionFind, DimVar, Graph, ShapeSignature, SymDim, Type,
};

/// Certify the shape polymorphism of `g`: run the symbolic shape analysis
/// with fresh per-input-dim variables and classify every input dimension.
///
/// `input_ranks` supplies the rank of each graph input (`None` for
/// non-tensor inputs or inputs whose rank the caller does not know; those
/// get no classification).
pub fn certify_shapes(g: &Graph, input_ranks: &[Option<usize>]) -> ShapeSignature {
    let info = infer_shapes_symbolic(g, input_ranks);

    let mut classes = DimUnionFind::solve(info.constraints());

    // Symbolic output shapes, and the set of variables tainting a ⊥ output
    // dim (those inputs are data-dependent for caching purposes).
    let mut outputs = Vec::new();
    let mut tainted: Vec<DimVar> = Vec::new();
    for &r in &g.block(g.top()).returns {
        if g.value(r).ty != Type::Tensor {
            outputs.push(None);
            continue;
        }
        let shape = info.shape(r).cloned();
        if let Some(shape) = &shape {
            for d in shape {
                if let SymDim::Unknown(t) = d {
                    tainted.extend(t.iter().copied());
                }
            }
        }
        outputs.push(shape);
    }

    let inputs = input_ranks
        .iter()
        .enumerate()
        .map(|(i, rank)| {
            rank.map(|r| {
                (0..r)
                    .map(|d| {
                        let v = DimVar {
                            input: i as u32,
                            dim: d as u32,
                        };
                        if tainted.iter().any(|&t| classes.find(t) == classes.find(v)) {
                            DimClass::DataDependent
                        } else if let Some(k) = classes.constant_of(v) {
                            DimClass::Specialized(k.max(0) as usize)
                        } else {
                            DimClass::Polymorphic
                        }
                    })
                    .collect()
            })
        })
        .collect();

    ShapeSignature {
        inputs,
        outputs,
        constraints: info.constraints().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{parse_graph, Op};

    #[test]
    fn pure_elementwise_program_is_fully_polymorphic() {
        let g = parse_graph(
            "graph(%x : Tensor):
               %y : Tensor = aten::relu(%x)
               return (%y)",
        )
        .unwrap();
        let sig = certify_shapes(&g, &[Some(2)]);
        assert_eq!(sig.polymorphic_dims(), 2);
        assert_eq!(sig.data_dependent_output_dims(), 0);
        assert!(sig.is_polymorphic(0, 0) && sig.is_polymorphic(0, 1));
        assert_eq!(sig.outputs.len(), 1);
    }

    #[test]
    fn matmul_against_constant_weight_specializes_the_contraction() {
        // x @ w with w constant 16x4: x.d1 must equal 16 → Specialized(16).
        let g = parse_graph(
            "graph(%x : Tensor):
               %w : Tensor = aten::ones[shape=[16, 4]]()
               %y : Tensor = aten::matmul(%x, %w)
               return (%y)",
        )
        .unwrap();
        let sig = certify_shapes(&g, &[Some(2)]);
        assert!(sig.is_polymorphic(0, 0), "{}", sig.render());
        assert_eq!(
            sig.inputs[0].as_ref().unwrap()[1],
            DimClass::Specialized(16),
            "{}",
            sig.render()
        );
    }

    #[test]
    fn broadcast_couples_two_inputs_without_specializing() {
        let g = parse_graph(
            "graph(%a : Tensor, %b : Tensor):
               %c : Tensor = aten::add(%a, %b)
               return (%c)",
        )
        .unwrap();
        let sig = certify_shapes(&g, &[Some(2), Some(2)]);
        assert_eq!(sig.polymorphic_dims(), 4, "{}", sig.render());
        assert!(
            sig.constraints
                .iter()
                .any(|c| c.to_string() == "in0.d0 = in1.d0"),
            "{:?}",
            sig.constraints
        );
    }

    #[test]
    fn data_dependent_output_taints_the_source_dim() {
        // A loop that concats the carried tensor with itself each iteration:
        // the output extent depends on the trip count, tainting in0.d0.
        let g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::cat[dim=0](%c, %c)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        let sig = certify_shapes(&g, &[Some(2), None]);
        assert_eq!(
            sig.inputs[0].as_ref().unwrap()[0],
            DimClass::DataDependent,
            "{}",
            sig.render()
        );
        assert!(sig.data_dependent_output_dims() > 0);
        assert!(sig.inputs[1].is_none());
    }

    #[test]
    fn builder_graphs_certify_too() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let r = g.append(g.top(), Op::Softmax { dim: 1 }, &[x], &[Type::Tensor]);
        let rv = g.out(r);
        g.set_returns(g.top(), &[rv]);
        let sig = certify_shapes(&g, &[Some(3)]);
        assert_eq!(sig.polymorphic_dims(), 3);
        assert_eq!(sig.render().lines().count(), 2);
    }
}
