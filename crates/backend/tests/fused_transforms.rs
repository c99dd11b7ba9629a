//! Coverage of the fused per-element evaluator: every `ViewKind` must
//! behave identically inside a `prim::FusionGroup` (strided, zero-copy
//! evaluation) and outside it (materializing interpretation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tssa_backend::{ExecConfig, ExecError, ExecPlan, Executor, RtValue};
use tssa_ir::parse_graph;
use tssa_tensor::{DType, Tensor, TensorError};

/// The elements of `t` as raw bits, so that `-0.0`, `0.0` and every NaN
/// payload are told apart.
fn bits(t: &Tensor) -> Vec<u64> {
    match t.dtype() {
        DType::F32 => (t.to_vec_f32().unwrap().iter())
            .map(|x| u64::from(x.to_bits()))
            .collect(),
        DType::I64 => (t.to_vec_i64().unwrap().iter())
            .map(|&x| x as u64)
            .collect(),
        DType::Bool => (t.to_vec_bool().unwrap().iter())
            .map(|&x| u64::from(x))
            .collect(),
    }
}

/// Run `fused_src` (a single fusion group) and the equivalent unfused
/// program on `inputs`, comparing outputs bit for bit — or, when a program
/// fails, the two errors. Returns the agreed outcome.
fn check_outcome(
    fused_src: &str,
    unfused_src: &str,
    inputs: &[RtValue],
) -> Result<Vec<RtValue>, ExecError> {
    let fused = parse_graph(fused_src).unwrap_or_else(|e| panic!("{fused_src}\n{e}"));
    let unfused = parse_graph(unfused_src).unwrap_or_else(|e| panic!("{unfused_src}\n{e}"));
    fused.verify().unwrap();
    unfused.verify().unwrap();
    let exec = Executor::new(ExecConfig::compiled());
    let (fo, fs, uo) = match (exec.run(&fused, inputs), exec.run(&unfused, inputs)) {
        (Ok((fo, fs)), Ok((uo, _))) => (fo, fs, uo),
        (Err(f), Err(u)) => {
            assert_eq!(f, u, "fused and unfused fail differently\n{fused_src}");
            return Err(f);
        }
        (f, u) => panic!(
            "one spelling fails: fused {:?}, unfused {:?}\n{fused_src}",
            f.err(),
            u.err()
        ),
    };
    assert_eq!(fs.kernel_launches, 1, "one launch for the group");
    assert_eq!(fo.len(), uo.len());
    for (a, b) in fo.iter().zip(&uo) {
        let (a, b) = (a.as_tensor().unwrap(), b.as_tensor().unwrap());
        assert_eq!(a.shape(), b.shape(), "shapes disagree\n{fused_src}");
        assert_eq!(a.dtype(), b.dtype(), "dtypes disagree\n{fused_src}");
        assert_eq!(bits(a), bits(b), "fused and unfused disagree\n{fused_src}");
    }
    Ok(fo)
}

/// As [`check_outcome`], for programs that must run.
fn check_pair(fused_src: &str, unfused_src: &str, inputs: &[RtValue]) {
    if let Err(e) = check_outcome(fused_src, unfused_src, inputs) {
        panic!("both spellings fail: {e}\n{fused_src}");
    }
}

fn input(shape: &[usize], seed: u64) -> RtValue {
    RtValue::Tensor(Tensor::rand_uniform(shape, -2.0, 2.0, seed))
}

#[test]
fn fused_access_select() {
    check_pair(
        "graph(%x : Tensor, %i : int):
           %o : Tensor = prim::FusionGroup(%x, %i)
             block0(%p : Tensor, %q : int):
               %v : Tensor = immut::select[dim=0](%p, %q)
               %r : Tensor = aten::sigmoid(%v)
               -> (%r)
           return (%o)",
        "graph(%x : Tensor, %i : int):
           %v : Tensor = immut::select[dim=0](%x, %i)
           %r : Tensor = aten::sigmoid(%v)
           return (%r)",
        &[input(&[4, 5], 1), RtValue::Int(2)],
    );
}

#[test]
fn fused_access_slice_with_step() {
    check_pair(
        "graph(%x : Tensor, %a : int, %b : int, %s : int):
           %o : Tensor = prim::FusionGroup(%x, %a, %b, %s)
             block0(%p : Tensor, %qa : int, %qb : int, %qs : int):
               %v : Tensor = immut::slice[dim=1](%p, %qa, %qb, %qs)
               %r : Tensor = aten::neg(%v)
               -> (%r)
           return (%o)",
        "graph(%x : Tensor, %a : int, %b : int, %s : int):
           %v : Tensor = immut::slice[dim=1](%x, %a, %b, %s)
           %r : Tensor = aten::neg(%v)
           return (%r)",
        &[
            input(&[3, 8], 2),
            RtValue::Int(1),
            RtValue::Int(7),
            RtValue::Int(2),
        ],
    );
}

#[test]
fn fused_access_permute_and_transpose() {
    check_pair(
        "graph(%x : Tensor):
           %o : Tensor, %t : Tensor = prim::FusionGroup(%x)
             block0(%p : Tensor):
               %v : Tensor = immut::permute[perm=[2, 0, 1]](%p)
               %w : Tensor = immut::transpose[dim0=0, dim1=1](%p)
               %r : Tensor = aten::relu(%v)
               %u : Tensor = aten::relu(%w)
               -> (%r, %u)
           return (%o, %t)",
        "graph(%x : Tensor):
           %v : Tensor = immut::permute[perm=[2, 0, 1]](%x)
           %w : Tensor = immut::transpose[dim0=0, dim1=1](%x)
           %r : Tensor = aten::relu(%v)
           %u : Tensor = aten::relu(%w)
           return (%r, %u)",
        &[input(&[2, 3, 4], 3)],
    );
}

#[test]
fn fused_access_squeeze_unsqueeze_view() {
    check_pair(
        "graph(%x : Tensor):
           %o : Tensor = prim::FusionGroup(%x)
             block0(%p : Tensor):
               %u : Tensor = immut::unsqueeze[dim=1](%p)
               %s : Tensor = immut::squeeze[dim=1](%u)
               %v : Tensor = immut::view[shape=[6, -1]](%s)
               %r : Tensor = aten::tanh(%v)
               -> (%r)
           return (%o)",
        "graph(%x : Tensor):
           %u : Tensor = immut::unsqueeze[dim=1](%x)
           %s : Tensor = immut::squeeze[dim=1](%u)
           %v : Tensor = immut::view[shape=[6, -1]](%s)
           %r : Tensor = aten::tanh(%v)
           return (%r)",
        &[input(&[3, 8], 4)],
    );
}

#[test]
fn fused_access_expand_broadcasts() {
    check_pair(
        "graph(%x : Tensor):
           %o : Tensor = prim::FusionGroup(%x)
             block0(%p : Tensor):
               %e : Tensor = immut::expand[shape=[4, -1]](%p)
               %r : Tensor = aten::mul(%e, %e)
               -> (%r)
           return (%o)",
        "graph(%x : Tensor):
           %e : Tensor = immut::expand[shape=[4, -1]](%x)
           %r : Tensor = aten::mul(%e, %e)
           return (%r)",
        &[input(&[1, 5], 5)],
    );
}

#[test]
fn fused_assign_select_and_slice() {
    check_pair(
        "graph(%x : Tensor, %i : int, %a : int, %b : int, %s : int):
           %o : Tensor = prim::FusionGroup(%x, %i, %a, %b, %s)
             block0(%p : Tensor, %qi : int, %qa : int, %qb : int, %qs : int):
               %row : Tensor = immut::select[dim=0](%p, %qi)
               %w : Tensor = aten::sigmoid(%row)
               %v1 : Tensor = immut::assign_select[dim=0](%p, %w, %qi)
               %col : Tensor = immut::slice[dim=1](%v1, %qa, %qb, %qs)
               %w2 : Tensor = aten::neg(%col)
               %v2 : Tensor = immut::assign_slice[dim=1](%v1, %w2, %qa, %qb, %qs)
               -> (%v2)
           return (%o)",
        "graph(%x : Tensor, %i : int, %a : int, %b : int, %s : int):
           %row : Tensor = immut::select[dim=0](%x, %i)
           %w : Tensor = aten::sigmoid(%row)
           %v1 : Tensor = immut::assign_select[dim=0](%x, %w, %i)
           %col : Tensor = immut::slice[dim=1](%v1, %a, %b, %s)
           %w2 : Tensor = aten::neg(%col)
           %v2 : Tensor = immut::assign_slice[dim=1](%v1, %w2, %a, %b, %s)
           return (%v2)",
        &[
            input(&[4, 6], 6),
            RtValue::Int(1),
            RtValue::Int(0),
            RtValue::Int(5),
            RtValue::Int(2),
        ],
    );
}

#[test]
fn fused_assign_broadcasts_source() {
    // Assigning a [1]-shaped source into a [5]-wide row: copy_ semantics.
    check_pair(
        "graph(%x : Tensor, %y : Tensor, %i : int):
           %o : Tensor = prim::FusionGroup(%x, %y, %i)
             block0(%p : Tensor, %src : Tensor, %q : int):
               %v : Tensor = immut::assign_select[dim=0](%p, %src, %q)
               -> (%v)
           return (%o)",
        "graph(%x : Tensor, %y : Tensor, %i : int):
           %v : Tensor = immut::assign_select[dim=0](%x, %y, %i)
           return (%v)",
        &[input(&[3, 5], 7), input(&[1], 8), RtValue::Int(2)],
    );
}

#[test]
fn fused_where_comparison_and_cast() {
    check_pair(
        "graph(%x : Tensor, %y : Tensor):
           %o : Tensor = prim::FusionGroup(%x, %y)
             block0(%p : Tensor, %q : Tensor):
               %m : Tensor = aten::gt(%p, %q)
               %w : Tensor = aten::where(%m, %p, %q)
               %c : Tensor = aten::to[dtype=f32](%w)
               -> (%c)
           return (%o)",
        "graph(%x : Tensor, %y : Tensor):
           %m : Tensor = aten::gt(%x, %y)
           %w : Tensor = aten::where(%m, %x, %y)
           %c : Tensor = aten::to[dtype=f32](%w)
           return (%c)",
        &[input(&[4, 4], 9), input(&[4, 4], 10)],
    );
}

#[test]
fn fused_fill_and_broadcast_like() {
    check_pair(
        "graph(%x : Tensor, %f : float):
           %o : Tensor = prim::FusionGroup(%x, %f)
             block0(%p : Tensor, %v : float):
               %z : Tensor = aten::full_like(%p, %v)
               %b : Tensor = aten::broadcast_like(%z, %p)
               %r : Tensor = aten::add(%b, %p)
               -> (%r)
           return (%o)",
        "graph(%x : Tensor, %f : float):
           %z : Tensor = aten::full_like(%x, %f)
           %b : Tensor = aten::broadcast_like(%z, %x)
           %r : Tensor = aten::add(%b, %x)
           return (%r)",
        &[input(&[2, 7], 11), RtValue::Float(3.5)],
    );
}

#[test]
fn fused_scalar_op_chain() {
    check_pair(
        "graph(%x : Tensor, %f : float):
           %o : Tensor = prim::FusionGroup(%x, %f)
             block0(%p : Tensor, %v : float):
               %a : Tensor = aten::add_scalar(%p, %v)
               %b : Tensor = aten::mul_scalar(%a, %v)
               %c : Tensor = aten::sub_scalar(%b, %v)
               %d : Tensor = aten::div_scalar(%c, %v)
               %e : Tensor = aten::pow_scalar(%d, %v)
               %g0 : Tensor = aten::clamp(%e, %v, %v)
               -> (%g0)
           return (%o)",
        "graph(%x : Tensor, %f : float):
           %a : Tensor = aten::add_scalar(%x, %f)
           %b : Tensor = aten::mul_scalar(%a, %f)
           %c : Tensor = aten::sub_scalar(%b, %f)
           %d : Tensor = aten::div_scalar(%c, %f)
           %e : Tensor = aten::pow_scalar(%d, %f)
           %g0 : Tensor = aten::clamp(%e, %f, %f)
           return (%g0)",
        &[input(&[3, 3], 12), RtValue::Float(2.0)],
    );
}

#[test]
fn unsupported_op_in_group_reports_error() {
    let g = parse_graph(
        "graph(%x : Tensor, %y : Tensor):
           %o : Tensor = prim::FusionGroup(%x, %y)
             block0(%p : Tensor, %q : Tensor):
               %m : Tensor = aten::matmul(%p, %q)
               -> (%m)
           return (%o)",
    )
    .unwrap();
    let exec = Executor::new(ExecConfig::compiled());
    let r = exec.run(&g, &[input(&[2, 2], 13), input(&[2, 2], 14)]);
    assert!(r.is_err(), "matmul cannot be evaluated per-element");
}

/// Run a one-group program whose body is `body` over `%p : Tensor` and
/// `%q : int`, expecting the launch to fail.
fn group_error(body: &str, shape: &[usize], q: i64) -> ExecError {
    pair_error(body, &[input(shape, 20), RtValue::Int(q)]).0
}

/// `body` (which defines `%r`) over the inputs `%p`, `%q`, `%h`, inside a
/// group and unfused.
fn spellings(body: &str, inputs: &[RtValue]) -> (String, String) {
    let ty = |v: &RtValue| match v {
        RtValue::Tensor(_) => "Tensor",
        RtValue::Float(_) => "float",
        _ => "int",
    };
    let params = |prefix: &str| {
        let typed = |(v, n): (&RtValue, &str)| format!("%{prefix}{n} : {}", ty(v));
        let all: Vec<String> = inputs.iter().zip(["p", "q", "h"]).map(typed).collect();
        all.join(", ")
    };
    let args = ["%gp", "%gq", "%gh"][..inputs.len()].join(", ");
    let fused = format!(
        "graph({}):\n%o : Tensor = prim::FusionGroup({args})\nblock0({}):\n{body}\n-> (%r)\nreturn (%o)",
        params("g"),
        params("")
    );
    (
        fused,
        format!("graph({}):\n{body}\nreturn (%r)", params("")),
    )
}

/// Run `body` inside a group and unfused, expecting both to fail; returns
/// the two errors.
fn pair_error(body: &str, inputs: &[RtValue]) -> (ExecError, ExecError) {
    let run = |src: String| {
        let g = parse_graph(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        match Executor::new(ExecConfig::compiled()).run(&g, inputs) {
            Ok(_) => panic!("expected an error from\n{src}"),
            Err(e) => e,
        }
    };
    let (fused, unfused) = spellings(body, inputs);
    (run(fused), run(unfused))
}

#[test]
fn view_with_wrong_element_count_is_an_error() {
    let e = group_error("%r : Tensor = immut::view[shape=[4, 5]](%p)", &[3, 8], 0);
    let numel = TensorError::NumelMismatch { from: 24, to: 20 };
    assert_eq!(e, ExecError::Tensor(numel));
    // -1 cannot absorb a remainder either.
    let e = group_error("%r : Tensor = immut::view[shape=[5, -1]](%p)", &[3, 8], 0);
    assert!(matches!(
        e,
        ExecError::Tensor(TensorError::NumelMismatch { .. })
    ));
}

#[test]
fn view_with_two_inferred_or_a_negative_dim_is_an_error() {
    for shape in ["[-1, -1]", "[-3, 8]"] {
        let body = format!("%r : Tensor = immut::view[shape={shape}](%p)");
        let e = group_error(&body, &[3, 8], 0);
        assert!(
            matches!(e, ExecError::Tensor(TensorError::InvalidArgument { .. })),
            "{shape}: {e}"
        );
    }
}

#[test]
fn permute_that_is_not_a_permutation_is_an_error() {
    for perm in ["[0, 0]", "[0, 2]", "[0]", "[-1, 0]"] {
        let body = format!("%r : Tensor = immut::permute[perm={perm}](%p)");
        let e = group_error(&body, &[3, 8], 0);
        assert!(
            matches!(e, ExecError::Tensor(TensorError::InvalidArgument { .. })),
            "{perm}: {e}"
        );
    }
}

#[test]
fn expand_that_does_not_broadcast_is_an_error() {
    for shape in ["[3, 5]", "[8]"] {
        let body = format!("%r : Tensor = immut::expand[shape={shape}](%p)");
        let e = group_error(&body, &[3, 8], 0);
        assert!(
            matches!(e, ExecError::Tensor(TensorError::ShapeMismatch { .. })),
            "{shape}: {e}"
        );
    }
}

#[test]
fn expand_whose_element_count_overflows_is_an_error() {
    // 2^62 * 4 elements wrap a usize to 0.
    let body = "%r : Tensor = immut::expand[shape=[4611686018427387904, 4]](%p)";
    let (fused, unfused) = pair_error(body, &[input(&[1, 1], 20), RtValue::Int(0)]);
    for e in [fused, unfused] {
        assert!(
            matches!(e, ExecError::Tensor(TensorError::InvalidArgument { .. })),
            "{e}"
        );
    }
}

#[test]
fn missing_scalar_operand_is_an_error() {
    // A select without its index, a slice without its step, an assign
    // without its index and scalar operators without their scalars: none
    // may index past the operand list, fused or not.
    let inputs = [input(&[3, 8], 20), RtValue::Int(0)];
    for body in [
        "%r : Tensor = immut::select[dim=0](%p)",
        "%r : Tensor = immut::slice[dim=0](%p, %q, %q)",
        "%r : Tensor = immut::assign_select[dim=0](%p, %p)",
        "%r : Tensor = aten::add_scalar(%p)",
        "%r : Tensor = aten::clamp(%p, %q)",
        "%r : Tensor = aten::full_like(%p)",
    ] {
        let (fused, unfused) = pair_error(body, &inputs);
        for e in [fused, unfused] {
            assert!(matches!(e, ExecError::Unsupported { .. }), "{body}: {e}");
        }
    }
    // The aliasing spellings of the same operators.
    for body in [
        "%r : Tensor = aten::select[dim=0](%p)",
        "%r : Tensor = aten::add_scalar_(%p)",
        "%r : Tensor = aten::clamp_(%p, %q)",
    ] {
        let src = format!("graph(%p : Tensor, %q : int):\n{body}\nreturn (%r)");
        let g = parse_graph(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let e = Executor::new(ExecConfig::compiled()).run(&g, &inputs);
        assert!(matches!(e, Err(ExecError::Unsupported { .. })), "{body}");
    }
    // An int operand that is a tensor is the same type error on both paths.
    let (fused, unfused) = pair_error("%r : Tensor = immut::select[dim=0](%p, %p)", &inputs);
    assert!(matches!(fused, ExecError::TypeMismatch { .. }), "{fused}");
    assert_eq!(fused, unfused);
}

#[test]
fn clamp_bounds_that_are_unordered_or_nan_are_an_error() {
    // A NaN float reaches the executor from the wire (`{"float": null}`);
    // `f32::clamp` would panic on it.
    for (lo, hi) in [(1.0, 0.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
        let inputs = [input(&[2, 3], 21), RtValue::Float(lo), RtValue::Float(hi)];
        let (fused, unfused) = pair_error("%r : Tensor = aten::clamp(%p, %q, %h)", &inputs);
        let invalid =
            |e: &ExecError| matches!(e, ExecError::Tensor(TensorError::InvalidArgument { .. }));
        assert!(invalid(&fused), "[{lo}, {hi}]: {fused}");
        assert_eq!(fused, unfused);
        let g = parse_graph(
            "graph(%p : Tensor, %q : float, %h : float):
               %c : Tensor = aten::clone(%p)
               %r : Tensor = aten::clamp_(%c, %q, %h)
               return (%c)",
        )
        .unwrap();
        let e = Executor::new(ExecConfig::compiled()).run(&g, &inputs);
        assert_eq!(e.err(), Some(unfused), "clamp_ [{lo}, {hi}]");
    }
}

/// `body` over `%p` and `%q` (both tensors), fused and unfused.
fn tensor_pair(body: &str, p: Tensor, q: Tensor) -> Result<Vec<RtValue>, ExecError> {
    let inputs = [RtValue::Tensor(p), RtValue::Tensor(q)];
    let (fused, unfused) = spellings(body, &inputs);
    check_outcome(&fused, &unfused, &inputs)
}

#[test]
fn integer_arithmetic_is_exact_on_both_paths() {
    // None of these survives a trip through f32 (24 bits) or f64 (53 bits).
    let i64s = |v: &[i64]| Tensor::from_vec_i64(v.to_vec(), &[v.len()]).unwrap();
    let a = [16_777_217, 3_000_000_019, (1 << 53) + 1, i64::MAX];
    let run = |body: &str, b: &[i64]| {
        let out = tensor_pair(body, i64s(&a), i64s(b)).unwrap();
        out[0].as_tensor().unwrap().to_vec_i64().unwrap()
    };
    let zeros = [0; 4];
    assert_eq!(run("%r : Tensor = aten::add(%p, %q)", &zeros), a);
    assert_eq!(run("%r : Tensor = aten::sub(%p, %q)", &zeros), a);
    assert_eq!(run("%r : Tensor = aten::maximum(%p, %q)", &zeros), a);
    assert_eq!(
        run("%r : Tensor = aten::minimum(%q, %p)", &[i64::MAX; 4]),
        a
    );
    assert_eq!(
        run("%r : Tensor = aten::mul(%p, %q)", &[3; 4]),
        a.map(|v| v.wrapping_mul(3))
    );
    assert_eq!(a[1].wrapping_mul(3), 9_000_000_057);
    assert_eq!(
        run("%r : Tensor = aten::add(%p, %q)", &[1; 4]),
        [16_777_218, 3_000_000_020, (1 << 53) + 2, i64::MIN]
    );
    let neg = "%n : Tensor = aten::neg(%p)\n%r : Tensor = aten::abs(%n)";
    assert_eq!(run(neg, &zeros), a);
    // The in-place forms, unfused only (a group holds no mutation).
    let exec = Executor::new(ExecConfig::compiled());
    let g = parse_graph(
        "graph(%p : Tensor, %q : Tensor):
           %c : Tensor = aten::clone(%p)
           %m : Tensor = aten::mul_(%c, %q)
           %s : Tensor = aten::sub_(%c, %q)
           %a : Tensor = aten::add_(%c, %q)
           %n : Tensor = aten::neg_(%c)
           return (%c)",
    )
    .unwrap();
    let inputs = [a, [3; 4]].map(|v| RtValue::Tensor(i64s(&v)));
    let (out, _) = exec.run(&g, &inputs).unwrap();
    assert_eq!(
        out[0].as_tensor().unwrap().to_vec_i64().unwrap(),
        a.map(|v| v.wrapping_mul(3).wrapping_neg())
    );
}

fn f32s(v: &[f32]) -> Tensor {
    Tensor::from_vec_f32(v.to_vec(), &[v.len()]).unwrap()
}

#[test]
fn neg_refuses_bool_and_abs_keeps_it() {
    let bools = Tensor::from_vec_bool(vec![true, false, true], &[3]).unwrap();
    let x = f32s(&[1.5, -2.0, 0.3]);
    // neg refuses bool — fused, unfused and in place.
    let e = tensor_pair("%r : Tensor = aten::neg(%p)", bools.clone(), x.clone()).unwrap_err();
    assert!(
        matches!(e, ExecError::Tensor(TensorError::InvalidArgument { .. })),
        "{e}"
    );
    let g = parse_graph(
        "graph(%p : Tensor):
           %c : Tensor = aten::clone(%p)
           %r : Tensor = aten::neg_(%c)
           return (%c)",
    )
    .unwrap();
    let r = Executor::new(ExecConfig::compiled()).run(&g, &[RtValue::Tensor(bools.clone())]);
    assert_eq!(r.err(), Some(e));
    // abs is the identity on bool and keeps the dtype.
    let out = tensor_pair("%r : Tensor = aten::abs(%p)", bools.clone(), x).unwrap();
    assert_eq!(out[0].as_tensor().unwrap(), &bools);
}

#[test]
fn pow_on_f32_is_f32_powf() {
    // As `pow_scalar` is; on each of these an f64 evaluation rounds to the
    // neighbouring f32 (with this libm).
    let base = [4.877_845_3_f32, 1.461_049_6, 4.521_852, 3.641_666];
    let exp = [2.593_618_4_f32, -0.611_958, -1.975_607_5, 0.764_454_84];
    let out = tensor_pair("%r : Tensor = aten::pow(%p, %q)", f32s(&base), f32s(&exp)).unwrap();
    let powf: Vec<f32> = base.iter().zip(exp).map(|(b, e)| b.powf(e)).collect();
    assert_eq!(bits(out[0].as_tensor().unwrap()), bits(&f32s(&powf)));
}

#[test]
fn where_needs_a_bool_condition() {
    let x = f32s(&[1.5, -2.0, 0.0]);
    let body = "%r : Tensor = aten::where(%q, %p, %p)";
    let e = tensor_pair(body, x.clone(), x.clone()).unwrap_err();
    assert!(
        matches!(e, ExecError::Tensor(TensorError::DTypeMismatch { .. })),
        "{e}"
    );
    let bools = Tensor::from_vec_bool(vec![true, false, true], &[3]).unwrap();
    assert!(tensor_pair(body, x, bools).is_ok());
}

// ------------------------------------------------- seeded differential

/// One view operator of a generated body: the name its access and assign
/// forms share, its `[attrs]`, the int inputs it takes, and for a select
/// the size of the dim it indexes.
struct Step {
    kind: &'static str,
    attrs: String,
    ints: String,
    selects_from: Option<i64>,
}

/// What the generator has exercised, so that a silent narrowing of its
/// coverage fails the test.
#[derive(Default, Debug)]
struct Seen {
    access_of_access: usize,
    assign_through_view: usize,
    assign_from_alias: usize,
    reshape_after_slice: usize,
    expand_into_binary: usize,
    stepped_slice: usize,
    empty_slice: usize,
    negative_select: usize,
    i64_operand: usize,
    bool_operand: usize,
    scalar_input: usize,
    pow: usize,
    bool_unary: usize,
    replanned_shape: usize,
    aliased_inputs: usize,
    donated_assign: usize,
}

fn first_dtype(inputs: &[RtValue]) -> DType {
    inputs[0].as_tensor().unwrap().dtype()
}

fn random_tensor(rng: &mut StdRng, shape: &[usize], dtype: DType) -> Tensor {
    let n: usize = shape.iter().product();
    match dtype {
        DType::F32 => Tensor::rand_uniform(shape, -2.0, 2.0, rng.gen_range(0..1 << 30)),
        DType::I64 => {
            let data = (0..n).map(|_| rng.gen_range(-4i64..5)).collect();
            Tensor::from_vec_i64(data, shape).unwrap()
        }
        DType::Bool => {
            let data = (0..n).map(|_| rng.gen_range(0..2) == 1).collect();
            Tensor::from_vec_bool(data, shape).unwrap()
        }
    }
}

struct Gen<'a> {
    rng: StdRng,
    body: Vec<String>,
    ints: Vec<i64>,
    seen: &'a mut Seen,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n.max(1))
    }

    fn pick(&mut self, names: &[&'static str]) -> &'static str {
        names[self.below(names.len())]
    }

    /// A fresh int graph input holding `v`; returns `, %kN`.
    fn int(&mut self, v: i64) -> String {
        self.ints.push(v);
        format!(", %k{}", self.ints.len() - 1)
    }

    fn emit(&mut self, rhs: String) -> String {
        let name = format!("%v{}", self.body.len());
        self.body.push(format!("{name} : Tensor = {rhs}"));
        name
    }

    fn tensor(&mut self, shape: &[usize], dtype: DType) -> RtValue {
        self.seen.i64_operand += usize::from(dtype == DType::I64);
        self.seen.bool_operand += usize::from(dtype == DType::Bool);
        RtValue::Tensor(random_tensor(&mut self.rng, shape, dtype))
    }

    /// A random view operator applicable to `shape`, and the shape it
    /// yields. `writable` leaves out expand, which has no assign form.
    fn step(&mut self, shape: &[usize], writable: bool, after_slice: bool) -> (Step, Vec<usize>) {
        let rank = shape.len();
        let mut out = shape.to_vec();
        let mut selects_from = None;
        loop {
            let d = self.below(rank);
            // Spell the dim from the back half of the time.
            let dim = |g: &mut Gen, r: usize| d as i64 - if g.below(2) == 0 { r as i64 } else { 0 };
            let (kind, attrs, ints) = match self.below(8) {
                0 if rank > 0 && shape[d] > 0 => {
                    let size = shape[d] as i64;
                    let idx = self.rng.gen_range(-size..size);
                    self.seen.negative_select += usize::from(idx < 0);
                    selects_from = Some(size);
                    out.remove(d);
                    ("select", format!("dim={}", dim(self, rank)), self.int(idx))
                }
                1 if rank > 0 => {
                    let size = shape[d] as i64;
                    // Mostly a non-empty window, spelled from either end;
                    // one time in five any bounds at all.
                    let (mut a, mut b) = (
                        self.rng.gen_range(0..size / 2 + 1),
                        self.rng.gen_range((size + 1) / 2..size + 2),
                    );
                    if self.below(5) == 0 {
                        a = self.rng.gen_range(-size - 1..size + 2);
                        b = self.rng.gen_range(-size - 1..size + 2);
                    } else if a > 0 && self.below(2) == 0 {
                        a -= size;
                    }
                    let step = self.rng.gen_range(1i64..4);
                    let clamp = |v: i64| (if v < 0 { v + size } else { v }).clamp(0, size);
                    let (start, end) = (clamp(a), clamp(b).max(clamp(a)));
                    out[d] = ((end - start + step - 1) / step) as usize;
                    self.seen.stepped_slice += usize::from(step > 1 && out[d] > 1);
                    self.seen.empty_slice += usize::from(out[d] == 0);
                    let ints = [a, b, step].map(|v| self.int(v)).concat();
                    ("slice", format!("dim={}", dim(self, rank)), ints)
                }
                2 if rank > 1 => {
                    let mut perm: Vec<usize> = (0..rank).collect();
                    for i in (1..rank).rev() {
                        perm.swap(i, self.below(i + 1));
                    }
                    out = perm.iter().map(|&p| shape[p]).collect();
                    ("permute", format!("perm={perm:?}"), String::new())
                }
                3 if rank > 1 => {
                    let e = self.below(rank);
                    out.swap(d, e);
                    ("transpose", format!("dim0={d}, dim1={e}"), String::new())
                }
                4 if rank < 4 => {
                    let at = self.below(rank + 1);
                    out.insert(at, 1);
                    ("unsqueeze", format!("dim={at}"), String::new())
                }
                5 if rank > 0 && shape[d] == 1 => {
                    out.remove(d);
                    ("squeeze", format!("dim={}", dim(self, rank)), String::new())
                }
                6 if !writable && rank > 0 && shape[d] == 1 => {
                    // Grow a unit dim, keep the others by -1 or by size,
                    // and sometimes add a leading dim.
                    let mut target: Vec<i64> = (shape.iter())
                        .map(|&s| if self.below(2) == 0 { -1 } else { s as i64 })
                        .collect();
                    out[d] = 2 + self.below(3);
                    target[d] = out[d] as i64;
                    if rank < 4 && self.below(3) == 0 {
                        target.insert(0, 2);
                        out.insert(0, 2);
                    }
                    ("expand", format!("shape={target:?}"), String::new())
                }
                7 if out.iter().product::<usize>() > 0 => {
                    // Flatten, merge two neighbours, or split off the last
                    // dim, with one dim left to inference half of the time.
                    let n: usize = shape.iter().product();
                    out = match self.below(3) {
                        0 if rank > 1 => {
                            let m = self.below(rank - 1);
                            let mut merged = shape.to_vec();
                            merged[m] *= merged.remove(m + 1);
                            merged
                        }
                        1 if rank > 0 => vec![n / shape[rank - 1], shape[rank - 1]],
                        _ => vec![n],
                    };
                    let mut target: Vec<i64> = out.iter().map(|&s| s as i64).collect();
                    if self.below(2) == 0 {
                        let infer = self.below(target.len());
                        target[infer] = -1;
                    }
                    self.seen.reshape_after_slice += usize::from(after_slice);
                    ("view", format!("shape={target:?}"), String::new())
                }
                _ => continue,
            };
            let step = Step {
                kind,
                attrs,
                ints,
                selects_from,
            };
            return (step, out);
        }
    }

    /// `shape` with some dims dropped from the front or set to 1: a shape
    /// that broadcasts to it.
    fn broadcastable(&mut self, shape: &[usize]) -> Vec<usize> {
        let skip = self.below(shape.len() + 1);
        (shape[skip..].iter())
            .map(|&s| if self.below(3) == 0 { 1 } else { s })
            .collect()
    }
}

/// One generated pair: the body in both spellings and its inputs.
fn generate(seed: u64, seen: &mut Seen) -> (String, String, Vec<RtValue>) {
    let rng = StdRng::seed_from_u64(seed);
    let mut g = Gen {
        rng,
        body: Vec::new(),
        ints: Vec::new(),
        seen,
    };
    let rank = 2 + g.below(2);
    let shape: Vec<usize> = (0..rank).map(|_| 1 + g.below(6)).collect();
    let x_dtype = [DType::F32, DType::F32, DType::F32, DType::I64, DType::Bool][g.below(5)];
    let x = g.tensor(&shape, x_dtype);
    let y_dtype = [DType::F32, DType::F32, DType::I64, DType::Bool][g.below(4)];
    let mut y_shape = Vec::new();

    let assign = x_dtype == DType::F32 && g.below(3) == 0;
    let mut cur = ("%x".to_string(), shape.clone());
    let mut chain: Vec<(String, Step)> = Vec::new();
    let (mut sliced, mut expanded) = (false, false);
    for _ in 0..if assign {
        1 + g.below(2)
    } else {
        2 + g.below(3)
    } {
        let (step, next) = g.step(&cur.1, assign, sliced);
        sliced |= step.kind == "slice";
        expanded |= step.kind == "expand";
        let name = g.emit(format!(
            "immut::{}[{}]({}{})",
            step.kind, step.attrs, cur.0, step.ints
        ));
        chain.push((cur.0, step));
        cur = (name, next);
    }
    g.seen.access_of_access += usize::from(chain.len() > 1);

    let unary = [
        "neg",
        "relu",
        "sigmoid",
        "tanh",
        "exp",
        "abs",
        "logical_not",
    ];
    let scalar = ["add_scalar", "mul_scalar", "sub_scalar", "div_scalar"];
    let binary = [
        "add",
        "sub",
        "mul",
        "div",
        "maximum",
        "minimum",
        "pow",
        "gt",
        "lt",
        "ge",
        "le",
        "eq",
        "logical_and",
        "logical_or",
    ];
    let ret = if assign {
        // Compute on the innermost view (or take a broadcast source), then
        // write back through every level of the chain.
        g.seen.assign_through_view += 1;
        let mut src = match g.below(3) {
            0 => {
                let op = g.pick(&unary[..5]);
                g.emit(format!("aten::{op}({})", cur.0))
            }
            1 => {
                y_shape = g.broadcastable(&cur.1);
                "%y".to_string()
            }
            _ => {
                // A second view of the base's own buffer: the chain again,
                // every select index drawn afresh.
                g.seen.assign_from_alias += 1;
                let mut alias = "%x".to_string();
                for (_, step) in &chain {
                    let ints = match step.selects_from {
                        Some(size) => {
                            let idx = g.rng.gen_range(-size..size);
                            g.int(idx)
                        }
                        None => step.ints.clone(),
                    };
                    alias = g.emit(format!(
                        "immut::{}[{}]({alias}{ints})",
                        step.kind, step.attrs
                    ));
                }
                alias
            }
        };
        for (base, step) in chain.iter().rev() {
            src = g.emit(format!(
                "immut::assign_{}[{}]({base}, {src}{})",
                step.kind, step.attrs, step.ints
            ));
        }
        src
    } else {
        let family: &[&'static str] = match g.below(4) {
            0 => &unary,
            1 => &scalar,
            2 => &["where"],
            _ => &binary,
        };
        let op = g.pick(family);
        match op {
            op if unary.contains(&op) => {
                g.seen.bool_unary += usize::from(x_dtype == DType::Bool);
                g.emit(format!("aten::{op}({})", cur.0))
            }
            op if scalar.contains(&op) => {
                g.seen.scalar_input += 1;
                g.emit(format!("aten::{op}({}, %f)", cur.0))
            }
            "where" => {
                // where(mask, cur, fill) with a computed mask and a fill.
                y_shape = g.broadcastable(&cur.1);
                g.seen.scalar_input += 1;
                let mask = g.emit(format!("aten::gt({}, %y)", cur.0));
                let fill = g.emit(format!("aten::full_like({}, %f)", cur.0));
                let picked = g.emit(format!("aten::where({mask}, {}, {fill})", cur.0));
                g.emit(format!("aten::to[dtype=f32]({picked})"))
            }
            op => {
                y_shape = g.broadcastable(&cur.1);
                g.seen.expand_into_binary += usize::from(expanded);
                g.seen.pow += usize::from(op == "pow");
                let (a, b) = match g.below(2) {
                    0 => (cur.0.as_str(), "%y"),
                    _ => ("%y", cur.0.as_str()),
                };
                g.emit(format!("aten::{op}({a}, {b})"))
            }
        }
    };

    let y = g.tensor(&y_shape, y_dtype);
    let mut inputs = vec![
        x,
        y,
        RtValue::Float(f64::from(g.rng.gen_range(0.5f32..3.0))),
    ];
    inputs.extend(g.ints.iter().map(|&k| RtValue::Int(k)));
    let params = |prefix: &str| {
        let ints = (0..g.ints.len()).map(|k| format!(", %{prefix}k{k} : int"));
        format!(
            "%{prefix}x : Tensor, %{prefix}y : Tensor, %{prefix}f : float{}",
            ints.collect::<String>()
        )
    };
    let args: String = (0..g.ints.len()).map(|k| format!(", %gk{k}")).collect();
    let body = g.body.join("\n");
    let fused = format!(
        "graph({}):\n%o : Tensor = prim::FusionGroup(%gx, %gy, %gf{args})\nblock0({}):\n{body}\n-> ({ret})\nreturn (%o)",
        params("g"),
        params("")
    );
    let unfused = format!("graph({}):\n{body}\nreturn ({ret})", params(""));
    (fused, unfused, inputs)
}

/// What an [`ExecPlan`] adds to a launch is state that outlives it and
/// buffers that change hands. One plan of the generated group serves its
/// inputs, then `%x` one element longer along a dim with every scalar
/// operand redrawn, then one tensor as both `%x` and `%y` (one read lock
/// for the two) — and each time again with `%x` a copy nobody else holds,
/// which the launch is given to keep. Every run must agree with the unfused
/// program run afresh (the two may word a refusal differently), and none
/// may touch what the caller holds.
fn check_plan_reuse(seed: u64, fused: &str, unfused: &str, inputs: &[RtValue], seen: &mut Seen) {
    let group = "%o : Tensor = prim::FusionGroup(%gx,";
    let donating = fused.replace(
        group,
        "%cx : Tensor = aten::clone(%gx)\n%o : Tensor = prim::FusionGroup(%cx,",
    );
    assert_ne!(donating, fused, "the generator's group spelling changed");
    let [fused, unfused, donating] =
        [fused, unfused, &donating].map(|src| parse_graph(src).unwrap());
    let plans = [&fused, &donating].map(ExecPlan::new);
    let exec = Executor::new(ExecConfig::compiled());

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let x = inputs[0].as_tensor().unwrap();
    let mut longer = x.shape().to_vec();
    let d = rng.gen_range(0..longer.len());
    longer[d] += 1;
    let mut grown = inputs.to_vec();
    grown[0] = RtValue::Tensor(random_tensor(&mut rng, &longer, x.dtype()));
    grown[2] = RtValue::Float(f64::from(rng.gen_range(0.5f32..3.0)));
    for k in &mut grown[3..] {
        *k = RtValue::Int(rng.gen_range(-3i64..4));
    }
    let mut aliased = inputs.to_vec();
    aliased[1] = aliased[0].clone();

    let assigns = unfused.to_string().contains("immut::assign_");
    for (variant, args) in [inputs.to_vec(), grown, aliased].iter().enumerate() {
        let held = |v: &RtValue| v.as_tensor().ok().map(bits);
        let before: Vec<_> = args.iter().map(held).collect();
        let reference = exec.run(&unfused, args).map(|(outs, _)| outs);
        for (graph, plan) in [&fused, &donating].into_iter().zip(&plans) {
            let planned = exec.run_plan(graph, plan, args).map(|(outs, _)| outs);
            match (&planned, &reference) {
                (Ok(got), Ok(want)) => {
                    let pairs = got.iter().zip(want);
                    for (a, b) in
                        pairs.map(|(a, b)| (a.as_tensor().unwrap(), b.as_tensor().unwrap()))
                    {
                        assert_eq!(a.shape(), b.shape(), "seed {seed} variant {variant}");
                        assert_eq!(bits(a), bits(b), "seed {seed} variant {variant}");
                    }
                }
                (Err(_), Err(_)) => {}
                _ => panic!("seed {seed} variant {variant}: {planned:?} but {reference:?}"),
            }
            let after: Vec<_> = args.iter().map(held).collect();
            assert_eq!(
                before, after,
                "seed {seed} variant {variant}: inputs changed"
            );
        }
        if reference.is_ok() {
            seen.replanned_shape += usize::from(variant == 1);
            seen.aliased_inputs += usize::from(variant == 2);
            seen.donated_assign += usize::from(assigns);
        }
    }
}

#[test]
fn generated_view_chains_agree_bit_for_bit() {
    let mut seen = Seen::default();
    for seed in 0..240u64 {
        let (fused, unfused, inputs) = generate(seed, &mut seen);
        let outcome = std::panic::catch_unwind(|| check_outcome(&fused, &unfused, &inputs));
        let neg_on_bool = unfused.contains("aten::neg(") && first_dtype(&inputs) == DType::Bool;
        match outcome {
            Ok(agreed) => assert_eq!(agreed.is_err(), neg_on_bool, "seed {seed}: {agreed:?}"),
            Err(_) => panic!("seed {seed} diverges"),
        }
        check_plan_reuse(seed, &fused, &unfused, &inputs, &mut seen);
    }
    let counts = [
        seen.access_of_access,
        seen.assign_through_view,
        seen.assign_from_alias,
        seen.reshape_after_slice,
        seen.expand_into_binary,
        seen.stepped_slice,
        seen.empty_slice,
        seen.negative_select,
        seen.i64_operand,
        seen.bool_operand,
        seen.scalar_input,
        seen.pow,
        seen.bool_unary,
        seen.replanned_shape,
        seen.aliased_inputs,
        seen.donated_assign,
    ];
    assert!(
        counts.iter().all(|&c| c >= 3),
        "generator coverage: {seen:?}"
    );
}
