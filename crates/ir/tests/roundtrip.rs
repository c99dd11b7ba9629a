//! Printer/parser round-trip over (nearly) the whole operator surface. The
//! elementwise, host-scalar and mutation kinds are taken from their tables,
//! so a kind added without a parse path fails here.

use tssa_ir::{
    parse_graph, BinaryKind, ConstValue, Graph, MutateKind, Op, ScalarKind, ScalarType, Type,
    UnaryKind, ViewKind,
};

fn roundtrip(g: &Graph) {
    let printed = g.to_string();
    let reparsed = parse_graph(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
    assert_eq!(printed, reparsed.to_string(), "round-trip must be stable");
    assert!(reparsed.verify().is_ok(), "{printed}");
}

#[test]
fn kitchen_sink_ops_round_trip() {
    let mut g = Graph::new();
    let x = g.add_input("x", Type::Tensor);
    let y = g.add_input("y", Type::Tensor);
    let t = g.top();
    let mut last = x;
    let f = g.constant_float(0.5);
    // A tensor, then the kind's float operands.
    for &k in UnaryKind::ALL {
        g.append(t, k, &[x, f, f][..k.arity()], &[Type::Tensor]);
    }
    for &k in BinaryKind::ALL {
        g.append(t, k, &[x, y], &[Type::Tensor]);
    }
    let unary_ops = [
        Op::CloneOp,
        Op::Contiguous,
        Op::ZerosLike,
        Op::OnesLike,
        Op::Softmax { dim: 1 },
        Op::Cumsum { dim: 0 },
        Op::Reshape { shape: vec![-1] },
        Op::Cast {
            dtype: ScalarType::I64,
        },
        Op::Cast {
            dtype: ScalarType::Bool,
        },
        Op::Cast {
            dtype: ScalarType::F32,
        },
        Op::SumDim {
            dim: 0,
            keepdim: true,
        },
        Op::MeanDim {
            dim: 1,
            keepdim: false,
        },
        Op::MaxDim {
            dim: 0,
            keepdim: false,
        },
        Op::MinDim {
            dim: 0,
            keepdim: true,
        },
        Op::ArgmaxDim {
            dim: 0,
            keepdim: false,
        },
    ];
    for op in unary_ops {
        let n = g.append(t, op, &[x], &[Type::Tensor]);
        last = g.out(n);
    }
    let binary_ops = [
        Op::Matmul,
        Op::Bmm,
        Op::Concat { dim: 0 },
        Op::Stack { dim: 1 },
        Op::Gather { dim: 0 },
        Op::IndexSelect { dim: 1 },
        Op::BroadcastLike,
    ];
    for op in binary_ops {
        let n = g.append(t, op, &[x, y], &[Type::Tensor]);
        last = g.out(n);
    }
    // Views and their immutable twins.
    let i = g.constant_int(0);
    for kind in [
        ViewKind::Permute { perm: vec![1, 0] },
        ViewKind::Transpose { dim0: 0, dim1: 1 },
        ViewKind::Unsqueeze { dim: 0 },
        ViewKind::Squeeze { dim: 0 },
        ViewKind::Expand { shape: vec![2, -1] },
        ViewKind::ViewShape { shape: vec![-1] },
    ] {
        g.append(t, Op::View(kind.clone()), &[x], &[Type::Tensor]);
        g.append(t, Op::Access(kind.clone()), &[x], &[Type::Tensor]);
        g.append(t, Op::Assign(kind), &[x, y], &[Type::Tensor]);
    }
    g.append(
        t,
        Op::View(ViewKind::Select { dim: 0 }),
        &[x, i],
        &[Type::Tensor],
    );
    g.append(
        t,
        Op::Access(ViewKind::SliceView { dim: 1 }),
        &[x, i, i, i],
        &[Type::Tensor],
    );
    // Mutations (each returns its alias): a receiver, then tensor or float
    // operands as the functional counterpart reads them.
    for &k in MutateKind::ALL {
        let operands = match k.functional_op() {
            Op::Binary(_) | Op::BroadcastLike => [x, y, y],
            _ => [x, f, f],
        };
        g.append(t, k, &operands[..k.arity()], &[Type::Tensor]);
    }
    // Creation + scalar ops.
    g.append(t, Op::Zeros { shape: vec![2, 2] }, &[], &[Type::Tensor]);
    g.append(t, Op::Ones { shape: vec![3] }, &[], &[Type::Tensor]);
    g.append(t, Op::Full { shape: vec![4] }, &[f], &[Type::Tensor]);
    let n5 = g.constant_int(5);
    g.append(t, Op::Arange, &[n5], &[Type::Tensor]);
    g.append(t, Op::FullLike, &[x, f], &[Type::Tensor]);
    g.append(t, Op::Size { dim: 0 }, &[x], &[Type::Int]);
    g.append(t, Op::ItemFloat, &[x], &[Type::Float]);
    g.append(t, Op::ItemInt, &[x], &[Type::Int]);
    g.append(t, Op::ItemBool, &[x], &[Type::Bool]);
    let c = g.constant(ConstValue::IntList(vec![1, -2, 3]));
    let lst = g.append(
        t,
        Op::ListConstruct,
        &[x, y],
        &[Type::List(Box::new(Type::Tensor))],
    );
    let lv = g.out(lst);
    g.append(t, Op::ListUnpack, &[lv], &[Type::Tensor, Type::Tensor]);
    let _ = c;
    g.set_returns(t, &[last]);
    assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
    roundtrip(&g);
}

#[test]
fn scalar_ops_round_trip() {
    let mut g = Graph::new();
    let t = g.top();
    let samples = [
        (ConstValue::Bool(true), g.add_input("b", Type::Bool)),
        (ConstValue::Float(1.5), g.add_input("f", Type::Float)),
        (ConstValue::Int(3), g.add_input("i", Type::Int)),
    ];
    let mut last = None;
    for &k in ScalarKind::ALL {
        // Operands of the first type the kind evaluates on; the result's
        // type is the output's.
        let (ty, v) = (samples.iter())
            .find_map(|(c, v)| Some((k.eval(|_| Some(c.clone())).ok()?.ty(), *v)))
            .unwrap_or_else(|| panic!("{} evaluates on no sample", k.name()));
        let n = g.append(t, k, &[v, v][..k.arity()], &[ty]);
        last = Some(g.out(n));
    }
    g.set_returns(t, &[last.expect("a scalar kind")]);
    assert!(g.verify().is_ok());
    roundtrip(&g);
}

#[test]
fn fusion_and_parallel_map_round_trip() {
    let mut g = Graph::new();
    let x = g.add_input("x", Type::Tensor);
    let n = g.add_input("n", Type::Int);
    let t = g.top();
    let group = g.append(t, Op::FusionGroup, &[x], &[Type::Tensor]);
    let body = g.add_node_block(group);
    let p = g.add_block_param(body, Type::Tensor);
    let inner = g.append(body, UnaryKind::Relu, &[p], &[Type::Tensor]);
    let iv = g.out(inner);
    g.set_returns(body, &[iv]);
    let gv = g.out(group);

    let pm = g.append(t, Op::ParallelMap { dim: 0 }, &[n, gv], &[Type::Tensor]);
    let pb = g.add_node_block(pm);
    let i = g.add_block_param(pb, Type::Int);
    let sel = g.append(
        pb,
        Op::Access(ViewKind::Select { dim: 0 }),
        &[gv, i],
        &[Type::Tensor],
    );
    let sv = g.out(sel);
    g.set_returns(pb, &[sv]);
    let out = g.out(pm);
    g.set_returns(t, &[out]);
    assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
    roundtrip(&g);
}
