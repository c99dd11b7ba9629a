//! Property-based equivalence testing: random imperative tensor programs
//! (views, slice/row mutations, loops, branches) must produce identical
//! results under every compilation pipeline, and the TensorSSA conversion
//! must never *increase* the kernel-launch count.

use proptest::prelude::*;

use tensorssa::backend::{DeviceProfile, RtValue};
use tensorssa::frontend::compile;
use tensorssa::pipelines::PipelineKind;
use tensorssa::tensor::Tensor;

const ROWS: usize = 4;

/// Expression over the current row context (`b[i]`-style operands).
#[derive(Debug, Clone)]
enum PExpr {
    BRow,
    XRow,
    Sigmoid(Box<PExpr>),
    Tanh(Box<PExpr>),
    Relu(Box<PExpr>),
    AddS(Box<PExpr>, i8),
    MulS(Box<PExpr>, i8),
    Add(Box<PExpr>, Box<PExpr>),
    Mul(Box<PExpr>, Box<PExpr>),
}

impl PExpr {
    fn render(&self, row: &str) -> String {
        match self {
            PExpr::BRow => format!("b[{row}]"),
            PExpr::XRow => format!("x[{row}]"),
            PExpr::Sigmoid(e) => format!("sigmoid({})", e.render(row)),
            PExpr::Tanh(e) => format!("tanh({})", e.render(row)),
            PExpr::Relu(e) => format!("relu({})", e.render(row)),
            PExpr::AddS(e, v) => format!("({} + {}.5)", e.render(row), v),
            PExpr::MulS(e, v) => format!("({} * {}.25)", e.render(row), v),
            PExpr::Add(a, b) => format!("({} + {})", a.render(row), b.render(row)),
            PExpr::Mul(a, b) => format!("({} * {})", a.render(row), b.render(row)),
        }
    }
}

/// Statement forms; loops iterate the row dimension, branches test a bool
/// input.
#[derive(Debug, Clone)]
enum PStmt {
    AssignRow { dst: usize, expr: PExpr },
    AugRow { dst: usize, mul: bool, v: i8 },
    SliceFill { lo: usize, len: usize, v: i8 },
    WholeMut { op: &'static str },
    LoopRows { expr: PExpr },
    Branch { then: Vec<PStmt>, els: Vec<PStmt> },
}

fn render_block(stmts: &[PStmt], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            PStmt::AssignRow { dst, expr } => {
                out.push_str(&format!(
                    "{pad}b[{dst}] = {}\n",
                    expr.render(&dst.to_string())
                ));
            }
            PStmt::AugRow { dst, mul, v } => {
                let op = if *mul { "*=" } else { "+=" };
                out.push_str(&format!("{pad}b[{dst}] {op} {v}.5\n"));
            }
            PStmt::SliceFill { lo, len, v } => {
                out.push_str(&format!("{pad}b[{lo}:{}] = {v}.75\n", lo + len));
            }
            PStmt::WholeMut { op } => {
                out.push_str(&format!("{pad}b.{op}()\n"));
            }
            PStmt::LoopRows { expr } => {
                out.push_str(&format!("{pad}for i in range({ROWS}):\n"));
                out.push_str(&format!("{pad}    b[i] = {}\n", expr.render("i")));
            }
            PStmt::Branch { then, els } => {
                out.push_str(&format!("{pad}if c:\n"));
                render_block(then, indent + 1, out);
                if !els.is_empty() {
                    out.push_str(&format!("{pad}else:\n"));
                    render_block(els, indent + 1, out);
                }
            }
        }
    }
}

fn render_program(stmts: &[PStmt]) -> String {
    let mut src = String::from("def prog(x: Tensor, c: bool):\n    b = x.clone()\n");
    render_block(stmts, 1, &mut src);
    src.push_str("    return b\n");
    src
}

fn expr_strategy() -> impl Strategy<Value = PExpr> {
    let leaf = prop_oneof![Just(PExpr::BRow), Just(PExpr::XRow)];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| PExpr::Sigmoid(Box::new(e))),
            inner.clone().prop_map(|e| PExpr::Tanh(Box::new(e))),
            inner.clone().prop_map(|e| PExpr::Relu(Box::new(e))),
            (inner.clone(), -3i8..3).prop_map(|(e, v)| PExpr::AddS(Box::new(e), v)),
            (inner.clone(), -2i8..3).prop_map(|(e, v)| PExpr::MulS(Box::new(e), v)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| PExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| PExpr::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

fn simple_stmt_strategy() -> impl Strategy<Value = PStmt> {
    prop_oneof![
        (0..ROWS, expr_strategy()).prop_map(|(dst, expr)| PStmt::AssignRow { dst, expr }),
        (0..ROWS, any::<bool>(), -2i8..3).prop_map(|(dst, mul, v)| PStmt::AugRow { dst, mul, v }),
        (0..ROWS - 1, 1..2usize, -2i8..3).prop_map(|(lo, len, v)| PStmt::SliceFill { lo, len, v }),
        prop_oneof![Just("relu_"), Just("sigmoid_"), Just("tanh_"), Just("neg_")]
            .prop_map(|op| PStmt::WholeMut { op }),
        expr_strategy().prop_map(|expr| PStmt::LoopRows { expr }),
    ]
}

fn stmt_strategy() -> impl Strategy<Value = PStmt> {
    prop_oneof![
        4 => simple_stmt_strategy(),
        1 => (
            prop::collection::vec(simple_stmt_strategy(), 1..3),
            prop::collection::vec(simple_stmt_strategy(), 0..3),
        )
            .prop_map(|(then, els)| PStmt::Branch { then, els }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<PStmt>> {
    prop::collection::vec(stmt_strategy(), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    /// Every pipeline computes what eager computes, on every random program.
    #[test]
    fn pipelines_agree_on_random_programs(
        stmts in program_strategy(),
        cond in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let src = render_program(&stmts);
        let graph = compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let x = Tensor::rand_uniform(&[ROWS, 3], -1.0, 1.0, seed);
        let inputs = [RtValue::Tensor(x), RtValue::Bool(cond)];
        let mut reference: Option<Tensor> = None;
        let mut eager_launches = 0;
        for p in PipelineKind::all() {
            let cp = p.compile(&graph);
            prop_assert!(cp.graph.verify().is_ok(), "{}:\n{src}\n{:?}", p.name(), cp.graph.verify());
            let (outs, stats) = cp
                .run(DeviceProfile::consumer(), &inputs)
                .unwrap_or_else(|e| panic!("{}:\n{src}\n{e}", p.name()));
            let t = outs[0].as_tensor().unwrap().clone();
            match &reference {
                None => {
                    reference = Some(t);
                    eager_launches = stats.kernel_launches;
                }
                Some(r) => {
                    prop_assert!(
                        t.allclose(r, 1e-4),
                        "{} diverges on:\n{src}",
                        p.name()
                    );
                    if p.name() == "TensorSSA" {
                        prop_assert!(
                            stats.kernel_launches <= eager_launches,
                            "TensorSSA regressed launches on:\n{src}"
                        );
                    }
                }
            }
        }
    }

    /// The printed IR of any random program parses back to the same text.
    #[test]
    fn ir_text_round_trips(stmts in program_strategy()) {
        let src = render_program(&stmts);
        let graph = compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let printed = graph.to_string();
        let reparsed = tensorssa::ir::parse_graph(&printed)
            .unwrap_or_else(|e| panic!("{printed}\n{e}"));
        prop_assert_eq!(printed, reparsed.to_string());
    }
}
