//! The JSON wire is bit-exact: whatever `encode_infer_request` or
//! `encode_response` writes, `parse_infer` reads back to the same bits —
//! compared with `to_bits`, never `allclose`. Seeds are fixed and named in
//! every assertion. The second half pins the input-handling bugs the typed
//! decoder fixed: nesting bombs, wrapped shape products, integers routed
//! through f64, and lists the encoder emitted but the decoder refused.

mod common;

use common::Rng;
use tssa_backend::RtValue;
use tssa_net::{encode_infer_request, encode_response, parse_infer, parse_infer_binary};
use tssa_serve::Response;
use tssa_store::bytes::ByteWriter;
use tssa_tensor::{DType, Tensor};

/// The wire's nesting cap for lists (`MAX_LIST_DEPTH` in `wire.rs`).
const MAX_DEPTH: u32 = 32;

/// Whether `got` is `want` bit for bit — except that a non-finite float,
/// which JSON can only carry as `null`, must come back as NaN.
fn same_bits(got: &RtValue, want: &RtValue) -> bool {
    let f32_eq = |x: &f32, y: &f32| x.to_bits() == y.to_bits() || (x.is_nan() && !y.is_finite());
    match (got, want) {
        (RtValue::Tensor(a), RtValue::Tensor(b)) => {
            a.shape() == b.shape()
                && a.dtype() == b.dtype()
                && match a.dtype() {
                    DType::F32 => {
                        let (a, b) = (a.to_vec_f32().unwrap(), b.to_vec_f32().unwrap());
                        a.iter().zip(&b).all(|(x, y)| f32_eq(x, y))
                    }
                    DType::I64 => a.to_vec_i64().unwrap() == b.to_vec_i64().unwrap(),
                    DType::Bool => a.to_vec_bool().unwrap() == b.to_vec_bool().unwrap(),
                }
        }
        (RtValue::Int(a), RtValue::Int(b)) => a == b,
        (RtValue::Float(a), RtValue::Float(b)) => {
            a.to_bits() == b.to_bits() || (a.is_nan() && !b.is_finite())
        }
        (RtValue::Bool(a), RtValue::Bool(b)) => a == b,
        (RtValue::List(a), RtValue::List(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_bits(a, b))
        }
        _ => false,
    }
}

/// Round-trip `values` as a request and as a response (its `outputs`
/// re-wrapped as a request's `inputs`, the way the benchmark harness
/// decodes replies) and require the same bits back both times.
fn assert_round_trips(values: &[RtValue], what: &str) {
    let request = encode_infer_request("m", values).expect("encodable");
    let response = encode_response(&Response {
        outputs: values.to_vec(),
        coalesced: 3,
        stats: Default::default(),
    })
    .expect("encodable");
    assert!(response.starts_with("{\"ok\":true,\"coalesced\":3,\"outputs\":["));
    let outputs = response.split_once("\"outputs\":").expect("envelope").1;
    let rewrapped = format!("{{\"model\":\"m\",\"inputs\":{outputs}");
    for body in [request, rewrapped] {
        let back = parse_infer(&body).unwrap_or_else(|e| panic!("{what}: {e}\n{body}"));
        assert_eq!(back.inputs.len(), values.len(), "{what}");
        for (i, (got, want)) in back.inputs.iter().zip(values).enumerate() {
            assert!(
                same_bits(got, want),
                "{what}: value {i} came back as {got:?}, sent {want:?}"
            );
        }
    }
}

fn f32_tensor(data: Vec<f32>) -> RtValue {
    let n = data.len();
    RtValue::Tensor(Tensor::from_vec_f32(data, &[n]).unwrap())
}

#[test]
fn f32_edge_values_and_random_bit_patterns_survive_bit_for_bit() {
    let edges = vec![
        0.0,
        -0.0,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        -f32::from_bits(0x0040_0000),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        1.0 / (1.0 + (-1.0f32).exp()),
        16_777_217.0,
    ];
    assert_round_trips(&[f32_tensor(edges)], "f32 edge values");
    assert_round_trips(
        &[f32_tensor(vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
        ])],
        "non-finite f32 (null <-> NaN)",
    );

    const SEED: u64 = 17;
    let mut rng = Rng(SEED);
    let random: Vec<f32> = std::iter::repeat_with(|| f32::from_bits(rng.next() as u32))
        .filter(|v| v.is_finite())
        .take(10_000)
        .collect();
    assert_round_trips(
        &[f32_tensor(random.clone())],
        &format!("random f32 bits, seed {SEED}"),
    );

    // Older clients spell an f32 as the f64 it widens to (17 digits); that
    // still decodes to the same bits.
    let widened: Vec<String> = random.iter().map(|v| f64::from(*v).to_string()).collect();
    let body = format!(
        r#"{{"model":"m","inputs":[{{"tensor":{{"dtype":"f32","shape":[{}],"data":[{}]}}}}]}}"#,
        random.len(),
        widened.join(",")
    );
    let back = parse_infer(&body).unwrap().inputs[0]
        .as_tensor()
        .unwrap()
        .to_vec_f32()
        .unwrap();
    for (i, (got, want)) in back.iter().zip(&random).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "seed {SEED}, element {i}: f64 spelling `{}` of {want:e}",
            widened[i]
        );
    }
}

#[test]
fn integers_bools_scalars_and_lists_survive_exactly() {
    const SEED: u64 = 23;
    let mut rng = Rng(SEED);
    let ints: Vec<i64> = [i64::MIN, i64::MAX, 0, -1, (1 << 53) + 1]
        .into_iter()
        .chain(std::iter::repeat_with(|| rng.next() as i64).take(1_000))
        .collect();
    let floats: Vec<RtValue> = [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 5e-324, f64::NAN]
        .into_iter()
        .chain(
            std::iter::repeat_with(|| f64::from_bits(rng.next()))
                .filter(|v| v.is_finite())
                .take(1_000),
        )
        .map(RtValue::Float)
        .collect();
    let bools: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    let values = vec![
        RtValue::Tensor(Tensor::from_vec_i64(ints.clone(), &[ints.len()]).unwrap()),
        RtValue::Tensor(Tensor::from_vec_bool(bools, &[4, 16]).unwrap()),
        RtValue::Tensor(Tensor::from_vec_f32(vec![], &[0, 3]).unwrap()),
        RtValue::Tensor(Tensor::from_vec_f32(vec![2.5], &[]).unwrap()),
        RtValue::Int(i64::MIN),
        RtValue::Int(i64::MAX),
        RtValue::Bool(true),
        RtValue::List(floats),
        RtValue::List(vec![
            RtValue::List(vec![]),
            RtValue::List(vec![f32_tensor(vec![1.0, -0.0]), RtValue::Int(-7)]),
        ]),
    ];
    assert_round_trips(&values, &format!("typed values, seed {SEED}"));
}

#[test]
fn any_whitespace_key_order_and_unknown_keys_decode_alike() {
    // The body `scripts/ci.sh` sends to the boot smoke.
    let ci = r#"{"model": "default", "inputs": [{"tensor": {"shape": [2, 4], "data": [1, 1, 1, 1, 1, 1, 1, 1]}}]}"#;
    let req = parse_infer(ci).unwrap();
    assert_eq!(req.model, "default");
    assert!(same_bits(
        &req.inputs[0],
        &RtValue::Tensor(Tensor::ones(&[2, 4]))
    ));

    let members = [
        ("dtype", r#""dtype":"i64""#),
        ("shape", r#""shape":[2,2]"#),
        ("data", r#""data":[1,-2,3,9007199254740993]"#),
    ];
    let want = RtValue::Tensor(
        Tensor::from_vec_i64(vec![1, -2, 3, 9_007_199_254_740_993], &[2, 2]).unwrap(),
    );
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let names: Vec<&str> = order.iter().map(|&i| members[i].0).collect();
        let tensor = order.map(|i| members[i].1).join(",");
        let compact = format!(r#"{{"inputs":[{{"tensor":{{{tensor}}}}}],"model":"m"}}"#);
        // The same document with whitespace between all tokens and unknown
        // keys (scalar, nested, string with brackets) at every level.
        let spaced = format!(
            "\r\n{{ \"trace\" : {{ \"id\" : [ 1 , {{ }} , \"]}}\" ] }} ,\t\"inputs\" : [ {{ \"note\" : null , \"tensor\" : {{ \"unit\" : \"px\" , {} }} }} ] ,\n \"model\" : \"m\" }} \n",
            tensor.replace(',', " ,\n ").replace(':', " : ").replace('[', "[ ").replace(']', " ]")
        );
        for body in [compact, spaced] {
            let req = parse_infer(&body).unwrap_or_else(|e| panic!("{names:?}: {e}\n{body}"));
            assert_eq!(req.model, "m");
            assert!(
                same_bits(&req.inputs[0], &want),
                "key order {names:?} decoded {:?}\n{body}",
                req.inputs[0]
            );
        }
    }
}

#[test]
fn f32_travels_as_its_shortest_round_trip_decimal() {
    let sigmoid_1 = 1.0f32 / (1.0 + (-1.0f32).exp());
    let t = Tensor::from_vec_f32(vec![sigmoid_1, -0.0, f32::INFINITY], &[3]).unwrap();
    let body = encode_infer_request("m", &[RtValue::Tensor(t)]).unwrap();
    assert!(body.contains("\"data\":[0.7310586,-0,null]"), "{body}");
    // The f64 spelling older clients send decodes to the same bits.
    let old = body.replace("0.7310586", "0.7310585975646973");
    let back = parse_infer(&old).unwrap().inputs[0]
        .as_tensor()
        .unwrap()
        .to_vec_f32()
        .unwrap();
    assert_eq!(back[0].to_bits(), sigmoid_1.to_bits());
    assert_eq!(back[1].to_bits(), (-0.0f32).to_bits());
    assert!(back[2].is_nan(), "null decodes as NaN");
}

#[test]
fn nesting_bombs_are_typed_errors_not_stack_overflows() {
    let err = parse_infer(&"[".repeat(1_000_000)).unwrap_err();
    assert!(err.contains("not JSON"), "{err}");
    let err = parse_infer(&"{\"a\":".repeat(1_000_000)).unwrap_err();
    assert!(err.contains("nesting exceeds"), "{err}");
    let err = parse_infer(&format!(
        "{{\"model\":\"m\",\"x\":{}",
        "[".repeat(1_000_000)
    ))
    .unwrap_err();
    assert!(err.contains("nesting exceeds"), "{err}");
    let deep = "{\"list\":[".repeat(1_000_000);
    let err = parse_infer(&format!("{{\"model\":\"m\",\"inputs\":[{deep}")).unwrap_err();
    assert!(err.contains("list nesting exceeds"), "{err}");
}

#[test]
fn shape_products_that_overflow_are_refused_in_both_encodings() {
    for shape in [
        "[4294967296,4294967296]",
        "[0,4294967296,4294967296]",
        "[9223372036854775808]",
    ] {
        let body =
            format!(r#"{{"model":"m","inputs":[{{"tensor":{{"shape":{shape},"data":[]}}}}]}}"#);
        let err = parse_infer(&body).unwrap_err();
        assert!(
            err.contains("inputs[0]") && err.contains("overflows"),
            "{shape}: {err}"
        );
    }
    // Binary: a wrapping element count, then a count that fits but whose
    // byte size (x4) does not.
    for dims in [&[1u64 << 32, 1 << 32][..], &[1 << 62]] {
        let mut w = ByteWriter::new();
        w.put_u8(1); // wire version
        w.put_str("m");
        w.put_u32(1); // one input
        w.put_u8(0); // tensor tag
        w.put_u8(0); // dtype f32
        w.put_u32(dims.len() as u32);
        for &d in dims {
            w.put_u64(d);
        }
        let err = parse_infer_binary(&w.into_bytes()).unwrap_err();
        assert!(err.contains("overflows"), "{dims:?}: {err}");
    }
}

#[test]
fn integers_are_exact_or_refused() {
    let int = |text: &str| {
        parse_infer(&format!(r#"{{"model":"m","inputs":[{{"int":{text}}}]}}"#))
            .map(|r| r.inputs[0].as_int().unwrap())
    };
    assert_eq!(
        int("9007199254740993"),
        Ok(9007199254740993),
        "past 2^53, exact"
    );
    assert_eq!(int("9223372036854775807"), Ok(i64::MAX));
    assert_eq!(int("-9223372036854775808"), Ok(i64::MIN));
    for bad in ["3.7", "3.0", "1e3", "9223372036854775808", "null", "\"3\""] {
        let err = int(bad).unwrap_err();
        assert!(err.contains("inputs[0]"), "{bad}: {err}");
    }
    let data = |text: &str| {
        parse_infer(&format!(
        r#"{{"model":"m","inputs":[{{"tensor":{{"dtype":"i64","shape":[2],"data":[{text}]}}}}]}}"#
    ))
    .map(|r| r.inputs[0].as_tensor().unwrap().to_vec_i64().unwrap())
    };
    assert_eq!(
        data("9007199254740993,-9223372036854775808"),
        Ok(vec![9007199254740993, i64::MIN])
    );
    for bad in [
        "1,2.5",
        "1,null",
        "1,1e2",
        "1,9223372036854775808",
        "1,true",
    ] {
        let err = data(bad).unwrap_err();
        assert!(
            err.contains("inputs[0]") && err.contains("data[1]"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn lists_round_trip_to_the_depth_cap_and_no_deeper() {
    let nested = |depth: u32| {
        (0..depth).fold(RtValue::Int(7), |v, _| {
            RtValue::List(vec![RtValue::Bool(true), v])
        })
    };
    let body = encode_infer_request("m", &[nested(MAX_DEPTH)]).unwrap();
    let mut value = &parse_infer(&body).unwrap().inputs[0];
    for _ in 0..MAX_DEPTH {
        match value {
            RtValue::List(items) => value = &items[1],
            other => panic!("expected a list, got {other:?}"),
        }
    }
    assert_eq!(value.as_int().unwrap(), 7);
    let body = encode_infer_request("m", &[nested(MAX_DEPTH + 1)]).unwrap();
    assert!(parse_infer(&body)
        .unwrap_err()
        .contains("list nesting exceeds"));
}
