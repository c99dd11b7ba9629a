//! Integration tests for control-flow-heavy programs: `while` loops, nested
//! loops, branch-in-loop mutation — the "beyond control flow boundaries"
//! capability that names the paper.

use tensorssa::backend::{DeviceProfile, RtValue};
use tensorssa::frontend::compile;
use tensorssa::pipelines::PipelineKind;
use tensorssa::tensor::Tensor;

fn agree(src: &str, inputs: &[RtValue]) {
    let g = compile(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let mut reference: Option<Tensor> = None;
    for p in PipelineKind::all() {
        let cp = p.compile(&g);
        assert!(
            cp.graph.verify().is_ok(),
            "{}: {:?}",
            p.name(),
            cp.graph.verify()
        );
        let (outs, _) = cp
            .run(DeviceProfile::consumer(), inputs)
            .unwrap_or_else(|e| panic!("{}: {e}\n{src}", p.name()));
        let t = outs[0].as_tensor().unwrap().clone();
        match &reference {
            None => reference = Some(t),
            Some(r) => assert!(t.allclose(r, 1e-5), "{} diverges on\n{src}", p.name()),
        }
    }
}

#[test]
fn while_loop_with_mutation_agrees() {
    agree(
        "def f(x: Tensor, n: int):
             b = x.clone()
             k = 0
             while k < n:
                 b[k] = sigmoid(b[k])
                 k += 1
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[6, 4], -1.0, 1.0, 5)),
            RtValue::Int(6),
        ],
    );
}

#[test]
fn while_loop_zero_iterations() {
    agree(
        "def f(x: Tensor, n: int):
             b = x.clone()
             k = 0
             while k < n:
                 b[0] = relu(b[0])
                 k += 1
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 3], -1.0, 1.0, 6)),
            RtValue::Int(0),
        ],
    );
}

#[test]
fn nested_loops_with_inner_mutation() {
    agree(
        "def f(x: Tensor, n: int, m: int):
             b = x.clone()
             for i in range(n):
                 for j in range(m):
                     b[i, j] = tanh(b[i, j]) + 0.25
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 7)),
            RtValue::Int(3),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn branch_inside_loop_mutation() {
    agree(
        "def f(x: Tensor, n: int):
             b = x.clone()
             for i in range(n):
                 if i % 2 == 0:
                     b[i] = relu(b[i])
                 else:
                     b[i] = sigmoid(b[i]) * 2.0
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[6, 3], -1.0, 1.0, 8)),
            RtValue::Int(6),
        ],
    );
}

#[test]
fn loop_then_branch_then_mutation_chain() {
    agree(
        "def f(x: Tensor, c: bool, n: int):
             b = x.clone()
             if c:
                 b *= 2.0
             for i in range(n):
                 b[i] += 1.0
             if not c:
                 b[0] = b[1] + b[2]
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[4, 2], -1.0, 1.0, 9)),
            RtValue::Bool(false),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn data_dependent_while_via_item() {
    // The loop count depends on tensor *data*, forcing a device sync each
    // iteration — all pipelines must still agree.
    agree(
        "def f(x: Tensor):
             b = x.clone()
             while b.sum(0).sum(0).item() < 20.0:
                 b += 1.0
             return b
        ",
        &[RtValue::Tensor(Tensor::zeros(&[2, 3]))],
    );
}

#[test]
fn sequential_dependency_is_preserved() {
    // b[i] reads b[i-1]: NOT parallelizable; the pattern guard must keep the
    // loop sequential and results identical.
    agree(
        "def f(x: Tensor, n: int):
             b = x.clone()
             for i in range(n):
                 b[i + 1] = b[i] + b[i + 1]
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[5, 3], -1.0, 1.0, 11)),
            RtValue::Int(4),
        ],
    );
}
