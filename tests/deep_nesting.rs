//! Stress tests for block propagation through multiple nesting levels:
//! mutations buried in loop-in-loop, branch-in-loop and loop-in-branch
//! structures must version correctly all the way to the top block.

use tensorssa::backend::{DeviceProfile, ExecConfig, Executor, RtValue};
use tensorssa::core::passes::Dce;
use tensorssa::core::{convert_to_tensorssa, Pass};
use tensorssa::frontend::compile;
use tensorssa::ir::Op;
use tensorssa::tensor::Tensor;

/// Run the imperative graph and its TensorSSA conversion; both must agree,
/// and the converted form must be mutation-free.
fn check(src: &str, inputs: &[RtValue]) {
    let original = compile(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let exec = Executor::new(ExecConfig::compiled().with_device(DeviceProfile::consumer()));
    let (reference, _) = exec.run(&original, inputs).expect("imperative runs");

    let mut converted = original.clone();
    let stats = convert_to_tensorssa(&mut converted);
    assert!(stats.mutations_removed > 0, "nothing converted for\n{src}");
    Dce.run(&mut converted);
    converted
        .verify()
        .unwrap_or_else(|e| panic!("{e}\n{converted}"));
    let mutations = converted
        .nodes_recursive(converted.top())
        .into_iter()
        .filter(|&n| matches!(converted.node(n).op, Op::Mutate(_)))
        .count();
    assert_eq!(mutations, 0, "leftover mutations in\n{converted}");

    let (result, _) = exec.run(&converted, inputs).expect("converted runs");
    for (i, (a, b)) in reference.iter().zip(&result).enumerate() {
        assert!(
            a.as_tensor()
                .unwrap()
                .allclose(b.as_tensor().unwrap(), 1e-5),
            "output {i} diverges for\n{src}\n{converted}"
        );
    }
}

#[test]
fn view_read_in_a_loop_before_its_mutation_sees_the_last_iteration() {
    // `v` is taken before the loop and read in the body ahead of the write
    // to the same row: iteration k must read the row as iteration k - 1
    // left it, so the conversion carries `v` through the loop even though
    // nothing reads it after the write in program order.
    check(
        "def f(x: Tensor, n: int):
             b = x.clone()
             v = b[0]
             acc = x[1].clone()
             for i in range(n):
                 acc = acc + v
                 b[0] += 1.0
             return acc, b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 5)),
            RtValue::Int(3),
        ],
    );
}

#[test]
fn sub_view_read_after_a_write_through_its_base_sees_it() {
    // `r` is read only by `e`, before the write, but `e` is read after it:
    // `r` needs its new version for `e`'s to be taken from.
    check(
        "def f(x: Tensor):
             b = x.clone()
             r = b[0]
             e = r[1]
             b[0, 1] += 1.0
             return e * 2.0, b
        ",
        &[RtValue::Tensor(Tensor::rand_uniform(
            &[3, 4, 2],
            -1.0,
            1.0,
            6,
        ))],
    );
}

#[test]
fn mutation_two_loops_deep() {
    check(
        "def f(x: Tensor, n: int, m: int):
             b = x.clone()
             for i in range(n):
                 for j in range(m):
                     b[i, j] = sigmoid(b[i, j])
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 1)),
            RtValue::Int(3),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn mutation_in_branch_in_loop() {
    check(
        "def f(x: Tensor, n: int):
             b = x.clone()
             for i in range(n):
                 if i % 2 == 0:
                     b[i] = relu(b[i])
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[4, 3], -1.0, 1.0, 2)),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn mutation_in_loop_in_branch() {
    check(
        "def f(x: Tensor, c: bool, n: int):
             b = x.clone()
             if c:
                 for i in range(n):
                     b[i] = tanh(b[i])
             else:
                 b[0] = relu(b[0])
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[4, 2], -1.0, 1.0, 3)),
            RtValue::Bool(true),
            RtValue::Int(4),
        ],
    );
    check(
        "def f(x: Tensor, c: bool, n: int):
             b = x.clone()
             if c:
                 for i in range(n):
                     b[i] = tanh(b[i])
             else:
                 b[0] = relu(b[0])
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[4, 2], -1.0, 1.0, 4)),
            RtValue::Bool(false),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn mutations_of_two_tensors_interleaved() {
    check(
        "def f(x: Tensor, y: Tensor, n: int):
             a = x.clone()
             b = y.clone()
             for i in range(n):
                 a[i] = sigmoid(a[i]) + b[i]
                 b[i] = tanh(b[i]) * 0.5
             return a, b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[4, 3], -1.0, 1.0, 5)),
            RtValue::Tensor(Tensor::rand_uniform(&[4, 3], -1.0, 1.0, 6)),
            RtValue::Int(4),
        ],
    );
}

#[test]
fn mutation_before_inside_and_after_loop() {
    check(
        "def f(x: Tensor, n: int):
             b = x.clone()
             b[0] = relu(b[0])
             for i in range(n):
                 b[i] += 1.0
             b[1] = b[0] * 2.0
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 2], -1.0, 1.0, 7)),
            RtValue::Int(3),
        ],
    );
}

#[test]
fn three_levels_of_nesting() {
    check(
        "def f(x: Tensor, n: int, c: bool):
             b = x.clone()
             for i in range(n):
                 if c:
                     for j in range(n):
                         b[i, j] = b[i, j] * 2.0 + 1.0
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 3], -1.0, 1.0, 8)),
            RtValue::Int(3),
            RtValue::Bool(true),
        ],
    );
}

#[test]
fn slice_mutations_at_depth() {
    check(
        "def f(x: Tensor, n: int):
             b = x.clone()
             for i in range(n):
                 b[i, 1:3] = sigmoid(b[i, 0:2])
             return b
        ",
        &[
            RtValue::Tensor(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 9)),
            RtValue::Int(3),
        ],
    );
}
