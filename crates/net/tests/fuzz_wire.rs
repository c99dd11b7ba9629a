//! Byte-level mutational fuzzing of the parsers that face the socket: the
//! JSON and binary tensor codecs and the HTTP/1.1 request framing.
//!
//! From small valid corpora, seeded mutations (bit flips, truncation at
//! every prefix, byte insert/delete, splices of two entries, inflated
//! numeric fields, nesting bombs) are fed to each parser. The invariant is
//! the one the gateway relies on: every input yields `Ok` or a typed `Err`
//! — never a panic (this runs in debug, overflow checks on) — and an `Ok`
//! never owns more than a small constant times the bytes it was decoded
//! from. Seeds are fixed; a failure names its target, seed and mutation.

mod common;

use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

use common::Rng;
use tssa_backend::RtValue;
use tssa_net::http::{read_request, Limits};
use tssa_net::{
    encode_error_binary, encode_infer_request, encode_infer_request_binary, encode_response_binary,
    parse_infer, parse_infer_binary, parse_response_binary, BinaryReply,
};
use tssa_serve::Response;
use tssa_tensor::Tensor;

/// Seeded mutations per target, on top of the truncation sweep.
const SEEDS: u64 = 2_500;

/// An `Ok` may own at most this many bytes per input byte (an i64 element
/// is 8 bytes from as few as 2 of JSON, `0,`), plus a small constant.
const MAX_AMPLIFICATION: usize = 8;

fn values() -> Vec<Vec<RtValue>> {
    let f32s = Tensor::from_vec_f32(vec![1.0, -2.5, 0.125, f32::NAN, 3e-9, 7.0], &[2, 3]).unwrap();
    let i64s = Tensor::from_vec_i64(vec![i64::MIN, -1, i64::MAX], &[3]).unwrap();
    let bools = Tensor::from_vec_bool(vec![true, false], &[2, 1]).unwrap();
    vec![
        vec![RtValue::Tensor(f32s.clone())],
        vec![RtValue::Tensor(i64s.clone()), RtValue::Int(-42)],
        vec![
            RtValue::Tensor(bools),
            RtValue::Float(0.5),
            RtValue::Bool(true),
        ],
        vec![RtValue::List(vec![
            RtValue::Int(1),
            RtValue::List(vec![RtValue::Tensor(f32s), RtValue::Bool(false)]),
            RtValue::Tensor(i64s),
        ])],
        vec![],
    ]
}

fn json_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = values()
        .iter()
        .map(|v| encode_infer_request("m", v).unwrap().into_bytes())
        .collect();
    corpus.push(
        br#"{ "trace": {"id": [1, {}, "]}"]}, "model": "yolo\"v3",
  "inputs": [ {"tensor": {"data": [1, 2e0, null, -0.5], "shape": [2, 2], "unit": "px"}},
              {"note": null, "float": 1.5e-3} ] }"#
            .to_vec(),
    );
    corpus
}

fn binary_request_corpus() -> Vec<Vec<u8>> {
    values()
        .iter()
        .map(|v| encode_infer_request_binary("model", v).unwrap())
        .collect()
}

fn binary_response_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = values()
        .into_iter()
        .map(|outputs| {
            encode_response_binary(&Response {
                outputs,
                coalesced: 2,
                stats: Default::default(),
            })
            .unwrap()
        })
        .collect();
    corpus.push(encode_error_binary("queue_full", "admission queue full"));
    corpus
}

fn http_corpus() -> Vec<Vec<u8>> {
    let body = &json_corpus()[0];
    let mut post = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\nTimeout-Ms: 250\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    post.extend_from_slice(body);
    vec![
        post,
        b"GET /metrics HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\r\n".to_vec(),
        b"GET /debug/profile?format=collapsed HTTP/1.0\nConnection: keep-alive\n\n".to_vec(),
        b"POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\nContent-Type: application/x-tssa-tensor\r\n\r\n\x01\x00\x00\x00".to_vec(),
    ]
}

/// One seeded mutation of a corpus entry, and its description.
fn mutate(rng: &mut Rng, corpus: &[Vec<u8>]) -> (Vec<u8>, String) {
    const INTERESTING: &[u8] = b"[]{}\",:\\-+.eE0919 \n\r\x00\x7f\x80\xff";
    let pick = rng.below(corpus.len());
    let mut bytes = corpus[pick].clone();
    let at = rng.below(bytes.len());
    let what = match rng.below(7) {
        0 => {
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            format!("{flips} bit flips")
        }
        1 => {
            let n = 1 + rng.below(4);
            for _ in 0..n {
                bytes.insert(at, INTERESTING[rng.below(INTERESTING.len())]);
            }
            format!("insert {n} bytes at {at}")
        }
        2 => {
            let n = (1 + rng.below(8)).min(bytes.len() - at);
            bytes.drain(at..at + n);
            format!("delete {n} bytes at {at}")
        }
        3 => {
            let other = &corpus[rng.below(corpus.len())];
            let from = rng.below(other.len());
            bytes.truncate(at);
            bytes.extend_from_slice(&other[from..]);
            format!("splice at {at} with the tail of another entry from {from}")
        }
        4 => {
            // Inflate a decimal field (`Content-Length`, a `shape` entry,
            // a data token): replace a digit run with a huge one.
            const HUGE: [&str; 6] = [
                "4294967296",
                "18446744073709551616",
                "9223372036854775808",
                "99999999999999999999999999999999999999999",
                "1e999",
                "00000000000000000001",
            ];
            let start = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit());
            match start {
                Some(start) => {
                    let end = (start..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    let huge = HUGE[rng.below(HUGE.len())];
                    bytes.splice(start..end, huge.bytes());
                    format!("digit run at {start} becomes {huge}")
                }
                None => {
                    bytes.truncate(at);
                    format!("truncate at {at}")
                }
            }
        }
        5 => {
            // Inflate a binary field (rank, list length, dim, string
            // length): overwrite 4 or 8 bytes with a huge little-endian
            // value.
            const FIELDS: [&[u8]; 5] = [
                &[0xff; 4],
                &[0xff; 8],
                &[0, 0, 0, 0, 1, 0, 0, 0],
                &[0, 0, 0, 0, 0, 0, 0, 0x40],
                &[0xff, 0xff, 0xff, 0x7f],
            ];
            let field = FIELDS[rng.below(FIELDS.len())];
            for (i, &b) in field.iter().enumerate() {
                if let Some(slot) = bytes.get_mut(at + i) {
                    *slot = b;
                }
            }
            format!("field {field:02x?} written at {at}")
        }
        _ => {
            const UNITS: [&str; 5] = ["[", "{", "{\"a\":", "{\"list\":[", "[{\"tensor\":"];
            let unit = UNITS[rng.below(UNITS.len())];
            let depth = [31, 33, 129, 100_000][rng.below(4)];
            bytes.splice(at..at, unit.repeat(depth).bytes());
            format!("nesting bomb: {depth} x {unit:?} at {at}")
        }
    };
    (bytes, format!("corpus[{pick}]: {what}"))
}

fn owned_bytes(values: &[RtValue]) -> usize {
    values
        .iter()
        .map(|v| match v {
            RtValue::Tensor(t) => 8 * t.rank() + t.dtype().size_bytes() * t.numel(),
            RtValue::List(items) => 16 + owned_bytes(items),
            _ => 16,
        })
        .sum()
}

/// Drive `target` (which returns the bytes an `Ok` owns, `None` for an
/// `Err`) over every prefix of every corpus entry and over [`SEEDS`] seeded
/// mutations.
fn fuzz(name: &str, corpus: &[Vec<u8>], target: impl Fn(&[u8]) -> Option<usize>) {
    let check = |input: &[u8], what: &str| {
        let outcome = catch_unwind(AssertUnwindSafe(|| target(input)));
        let Ok(outcome) = outcome else {
            panic!(
                "{name} panicked on {what}\ninput ({} bytes): {:?}",
                input.len(),
                String::from_utf8_lossy(&input[..input.len().min(400)])
            );
        };
        if let Some(owned) = outcome {
            assert!(
                owned <= MAX_AMPLIFICATION * input.len() + 64,
                "{name} on {what}: Ok owns {owned} bytes from {} bytes of input",
                input.len()
            );
        }
    };
    let mut accepted = 0;
    for (i, entry) in corpus.iter().enumerate() {
        accepted += usize::from(target(entry).is_some());
        for cut in 0..entry.len() {
            check(&entry[..cut], &format!("corpus[{i}] truncated at {cut}"));
        }
    }
    assert_eq!(accepted, corpus.len(), "{name}: the corpus itself is valid");
    for seed in 0..SEEDS {
        let (input, what) = mutate(&mut Rng(seed), corpus);
        check(&input, &format!("seed {seed}, {what}"));
    }
}

#[test]
fn parse_infer_never_panics_or_over_allocates() {
    fuzz("parse_infer", &json_corpus(), |bytes| {
        // Lossy decoding keeps invalid sequences in play as multi-byte
        // replacement characters, which is what stresses slicing.
        let text = String::from_utf8_lossy(bytes);
        let request = parse_infer(&text).ok()?;
        // Whatever the typed decoder accepts is a JSON document.
        assert!(
            tssa_obs::json::parse(&text).is_ok(),
            "accepted a body that is not JSON"
        );
        Some(request.model.len() + owned_bytes(&request.inputs))
    });
}

#[test]
fn parse_infer_binary_never_panics_or_over_allocates() {
    fuzz("parse_infer_binary", &binary_request_corpus(), |bytes| {
        let request = parse_infer_binary(bytes).ok()?;
        Some(request.model.len() + owned_bytes(&request.inputs))
    });
}

#[test]
fn parse_response_binary_never_panics_or_over_allocates() {
    fuzz(
        "parse_response_binary",
        &binary_response_corpus(),
        |bytes| match parse_response_binary(bytes).ok()? {
            BinaryReply::Ok { outputs, .. } => Some(owned_bytes(&outputs)),
            BinaryReply::Err { kind, message } => Some(kind.len() + message.len()),
        },
    );
}

#[test]
fn read_request_never_panics_or_over_allocates() {
    let limits = Limits::default();
    fuzz("http::read_request", &http_corpus(), |bytes| {
        let request = read_request(&mut BufReader::new(bytes), &limits).ok()?;
        let headers: usize = request.headers.iter().map(|(k, v)| k.len() + v.len()).sum();
        Some(request.method.len() + request.path.len() + headers + request.body.len())
    });
}
