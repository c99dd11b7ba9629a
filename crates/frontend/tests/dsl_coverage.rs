//! DSL surface coverage: every built-in function and method compiles to the
//! expected operator, and representative error cases are rejected with line
//! information.

use tssa_frontend::{compile, FrontendError};

fn ops_of(src: &str) -> String {
    compile(src)
        .unwrap_or_else(|e| panic!("{src}\n{e}"))
        .to_string()
}

#[test]
fn free_functions_map_to_ops() {
    let text = ops_of(
        "def f(x: Tensor, y: Tensor):
             a = sigmoid(x) + exp(x) + relu(x) + tanh(x)
             b = log(relu(x) + 1.0) + sqrt(abs(x)) + neg(x)
             c = minimum(a, b) + maximum(a, b)
             d = pow(c, 2.0)
             e = matmul(x, y)
             return d, e
        ",
    );
    for op in [
        "aten::sigmoid",
        "aten::exp",
        "aten::relu",
        "aten::tanh",
        "aten::log",
        "aten::sqrt",
        "aten::abs",
        "aten::neg",
        "aten::minimum",
        "aten::maximum",
        "aten::pow_scalar",
        "aten::matmul",
    ] {
        assert!(text.contains(op), "missing {op} in\n{text}");
    }
}

#[test]
fn creation_functions() {
    let text = ops_of(
        "def f(x: Tensor, n: int):
             a = zeros([2, 3])
             b = ones([4])
             c = full([2], 5.0)
             d = arange(n)
             e = zeros_like(x)
             g = ones_like(x)
             h = full_like(x, 2.5)
             return a, b, c, d, e, g, h
        ",
    );
    for op in [
        "aten::zeros[shape=[2, 3]]",
        "aten::ones[shape=[4]]",
        "aten::full[shape=[2]]",
        "aten::arange",
        "aten::zeros_like",
        "aten::ones_like",
        "aten::full_like",
    ] {
        assert!(text.contains(op), "missing {op} in\n{text}");
    }
}

#[test]
fn cat_stack_gather_index_select() {
    let text = ops_of(
        "def f(x: Tensor, y: Tensor, idx: Tensor):
             a = cat([x, y], 0)
             b = stack([x, y], 1)
             c = gather(x, 1, idx)
             d = index_select(x, 0, idx)
             return a, b, c, d
        ",
    );
    assert!(text.contains("aten::cat[dim=0]"), "{text}");
    assert!(text.contains("aten::stack[dim=1]"), "{text}");
    assert!(text.contains("aten::gather[dim=1]"), "{text}");
    assert!(text.contains("aten::index_select[dim=0]"), "{text}");
}

#[test]
fn tensor_methods_map_to_ops() {
    let text = ops_of(
        "def f(x: Tensor):
             a = x.softmax(1) + x.cumsum(0)
             b = x.sum(0) + x.mean(1, True)
             c = x.max(0) + x.min(1)
             d = x.argmax(1)
             e = x.clamp(0.0, 1.0)
             g = x.transpose(0, 1).contiguous()
             h = x.permute([1, 0])
             i = x.reshape([-1])
             return a, b, c, d, e, g, h, i
        ",
    );
    for op in [
        "aten::softmax[dim=1]",
        "aten::cumsum[dim=0]",
        "aten::sum[dim=0, keepdim=false]",
        "aten::mean[dim=1, keepdim=true]",
        "aten::max[dim=0, keepdim=false]",
        "aten::min[dim=1, keepdim=false]",
        "aten::argmax[dim=1, keepdim=false]",
        "aten::clamp",
        "aten::transpose[dim0=0, dim1=1]",
        "aten::contiguous",
        "aten::permute[perm=[1, 0]]",
        "aten::reshape[shape=[-1]]",
    ] {
        assert!(text.contains(op), "missing {op} in\n{text}");
    }
}

#[test]
fn inplace_methods_become_mutations() {
    let text = ops_of(
        "def f(x: Tensor, y: Tensor):
             b = x.clone()
             b.copy_(y)
             b.fill_(0.0)
             b.add_(y)
             b.sub_(y)
             b.mul_(y)
             b.div_(y)
             b.add_(2.0)
             b.mul_(0.5)
             b.relu_()
             b.sigmoid_()
             b.tanh_()
             b.exp_()
             b.neg_()
             b.clamp_(-1.0, 1.0)
             return b
        ",
    );
    for op in [
        "aten::copy_",
        "aten::fill_",
        "aten::add_(",
        "aten::sub_(",
        "aten::mul_(",
        "aten::div_(",
        "aten::add_scalar_",
        "aten::mul_scalar_",
        "aten::relu_",
        "aten::sigmoid_",
        "aten::tanh_",
        "aten::exp_",
        "aten::neg_",
        "aten::clamp_",
    ] {
        assert!(text.contains(op), "missing {op} in\n{text}");
    }
}

#[test]
fn scalar_minus_and_division_by_tensor() {
    let text = ops_of(
        "def f(x: Tensor):
             a = 1.0 - x
             b = 2.0 / x
             c = 3.0 + x
             d = 4.0 * x
             return a, b, c, d
        ",
    );
    // 1 - x = neg(x) + 1; 2 / x = 2 * x^-1.
    assert!(text.contains("aten::neg"), "{text}");
    assert!(text.contains("aten::pow_scalar"), "{text}");
    assert!(text.contains("aten::add_scalar"), "{text}");
    assert!(text.contains("aten::mul_scalar"), "{text}");
}

#[test]
fn errors_carry_line_numbers() {
    let err: FrontendError = compile(
        "def f(x: Tensor):
             y = x.relu()
             z = frobnicate(y)
             return z
        ",
    )
    .unwrap_err();
    assert!(err.to_string().contains("frobnicate"), "{err}");
    assert_eq!(err.line, 3, "{err}");

    let err = compile("def f(x: Tensor):\n    y = x +\n    return y\n").unwrap_err();
    assert_eq!(err.line, 2, "{err}");
}

#[test]
fn type_errors_rejected() {
    // Tensor condition in `if`.
    assert!(compile(
        "def f(x: Tensor):
             if x:
                 y = x.relu()
             return x
        "
    )
    .is_err());
    // Arithmetic between bool and tensor.
    assert!(compile(
        "def f(x: Tensor, c: bool):
             y = x + c
             return y
        "
    )
    .is_err());
    // Subscripting an int.
    assert!(compile(
        "def f(n: int):
             y = n[0]
             return y
        "
    )
    .is_err());
}

#[test]
fn negative_slice_bounds_and_steps() {
    let text = ops_of(
        "def f(x: Tensor):
             h = x.size(0)
             a = x[h-2:]
             b = x[::2]
             c = x[1:-1]
             return a, b, c
        ",
    );
    assert!(text.contains("aten::slice"), "{text}");
    assert!(text.contains("aten::int_sub"), "{text}");
}

#[test]
fn chained_method_calls_nest_correctly() {
    let g = compile(
        "def f(x: Tensor):
             y = x.clone().relu().sigmoid().sum(0)
             return y
        ",
    )
    .unwrap();
    // clone -> relu -> sigmoid -> sum, each feeding the next.
    let text = g.to_string();
    let pos = |op: &str| text.find(op).unwrap_or_else(|| panic!("missing {op}"));
    assert!(pos("aten::clone") < pos("aten::relu"));
    assert!(pos("aten::relu") < pos("aten::sigmoid"));
    assert!(pos("aten::sigmoid") < pos("aten::sum"));
}

#[test]
fn boolean_logic_on_scalars_and_tensors() {
    let text = ops_of(
        "def f(x: Tensor, a: int, b: int):
             c = a < b and not (a == b) or a >= b
             m = (x > 0.0) and (x < 1.0)
             n = not m
             return m, n
        ",
    );
    assert!(text.contains("aten::bool_and"), "{text}");
    assert!(text.contains("aten::bool_or"), "{text}");
    assert!(text.contains("aten::bool_not"), "{text}");
    assert!(text.contains("aten::logical_and"), "{text}");
    assert!(text.contains("aten::logical_not"), "{text}");
}

/// Every builtin and method spelling with its arguments, and how many of
/// them are required (`keepdim` is the optional last one of a reduction).
const BUILTINS: &[(&str, &[&str], usize)] = &[
    ("relu", &["x"], 1),
    ("sigmoid", &["x"], 1),
    ("exp", &["x"], 1),
    ("tanh", &["x"], 1),
    ("log", &["x"], 1),
    ("sqrt", &["x"], 1),
    ("abs", &["x"], 1),
    ("neg", &["x"], 1),
    ("zeros", &["[2]"], 1),
    ("ones", &["[2]"], 1),
    ("full", &["[2]", "1.0"], 2),
    ("arange", &["n"], 1),
    ("zeros_like", &["x"], 1),
    ("ones_like", &["x"], 1),
    ("full_like", &["x", "1.0"], 2),
    ("cat", &["[x, x]", "0"], 2),
    ("stack", &["[x, x]", "0"], 2),
    ("where", &["x > 0.0", "x", "x"], 3),
    ("minimum", &["x", "x"], 2),
    ("maximum", &["x", "x"], 2),
    ("pow", &["x", "2.0"], 2),
    ("matmul", &["x", "x"], 2),
    ("bmm", &["x", "x"], 2),
    ("gather", &["x", "0", "i"], 3),
    ("index_select", &["x", "0", "i"], 3),
    ("float", &["n"], 1),
    ("x.relu", &[], 0),
    ("x.sigmoid", &[], 0),
    ("x.exp", &[], 0),
    ("x.tanh", &[], 0),
    ("x.log", &[], 0),
    ("x.sqrt", &[], 0),
    ("x.abs", &[], 0),
    ("x.neg", &[], 0),
    ("x.matmul", &["x"], 1),
    ("x.bmm", &["x"], 1),
    ("x.clone", &[], 0),
    ("x.contiguous", &[], 0),
    ("x.clamp", &["0.0", "1.0"], 2),
    ("x.softmax", &["0"], 1),
    ("x.cumsum", &["0"], 1),
    ("x.sum", &["0", "True"], 1),
    ("x.mean", &["0", "True"], 1),
    ("x.max", &["0", "True"], 1),
    ("x.min", &["0", "True"], 1),
    ("x.argmax", &["0", "True"], 1),
    ("x.size", &["0"], 1),
    ("x.item", &[], 0),
    ("x.item_int", &[], 0),
    ("x.item_bool", &[], 0),
    ("x.transpose", &["0", "1"], 2),
    ("x.permute", &["[1, 0]"], 1),
    ("x.unsqueeze", &["0"], 1),
    ("x.squeeze", &["0"], 1),
    ("x.view", &["[4]"], 1),
    ("x.expand", &["[2, 2]"], 1),
    ("x.reshape", &["[4]"], 1),
    ("x.copy_", &["x"], 1),
    ("x.fill_", &["1.0"], 1),
    ("x.add_", &["x"], 1),
    ("x.sub_", &["x"], 1),
    ("x.mul_", &["x"], 1),
    ("x.div_", &["x"], 1),
    ("x.relu_", &[], 0),
    ("x.sigmoid_", &[], 0),
    ("x.tanh_", &[], 0),
    ("x.exp_", &[], 0),
    ("x.neg_", &[], 0),
    ("x.clamp_", &["0.0", "1.0"], 2),
];

#[test]
fn wrong_argument_counts_are_errors_on_their_line() {
    let program = |head: &str, args: &[&str]| {
        format!(
            "def f(x: Tensor, i: Tensor, n: int):\n    y = x.relu()\n    z = {head}({})\n    return z\n",
            args.join(", ")
        )
    };
    for &(head, args, required) in BUILTINS {
        let ok = program(head, args);
        compile(&ok).unwrap_or_else(|e| panic!("{ok}\n{e}"));
        let mut too_many = args.to_vec();
        too_many.push("0");
        let mut wrong = vec![program(head, &too_many)];
        if required > 0 {
            wrong.push(program(head, &args[..required - 1]));
        }
        let name = head.trim_start_matches("x.");
        for src in wrong {
            match compile(&src) {
                Ok(_) => panic!("accepted:\n{src}"),
                Err(err) => {
                    assert_eq!(err.line, 3, "{src}\n{err}");
                    assert!(err.message.contains(&format!("`{name}`")), "{src}\n{err}");
                }
            }
        }
    }
}

/// Arguments that lower only as a literal or a tensor: a reduction's
/// `keepdim` is `True` or `False`, and `copy_` copies from a tensor (a
/// scalar store is `a[i] = s`, which lowers to `fill_`).
const TYPED_ARGUMENTS: &[(&str, &str)] = &[
    ("x.sum(0, 1)", "keepdim"),
    ("x.mean(1, n)", "keepdim"),
    ("x.max(0, c)", "keepdim"),
    ("x.argmax(0, 1.0)", "keepdim"),
    ("x.copy_(2.0)", "`copy_`"),
    ("x.copy_(n)", "`copy_`"),
    ("x.copy_(c)", "`copy_`"),
];

#[test]
fn keepdim_is_a_literal_and_copy_takes_a_tensor() {
    for &(call, needle) in TYPED_ARGUMENTS {
        let src = format!(
            "def f(x: Tensor, n: int, c: bool):\n    y = x.relu()\n    z = {call}\n    return z\n"
        );
        match compile(&src) {
            Ok(_) => panic!("accepted:\n{src}"),
            Err(err) => {
                assert_eq!(err.line, 3, "{src}\n{err}");
                assert!(err.message.contains(needle), "{src}\n{err}");
            }
        }
    }
    let text = ops_of(
        "def f(x: Tensor, s: float):
             a = x.sum(0, False)
             b = x.clone()
             b[0] = s
             return a, b
        ",
    );
    assert!(text.contains("aten::sum[dim=0, keepdim=false]"), "{text}");
    assert!(text.contains("aten::fill_"), "{text}");
}
