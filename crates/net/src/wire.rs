//! The JSON wire format for `/v1/infer`.
//!
//! Requests name a registered model and carry its positional inputs:
//!
//! ```json
//! {"model": "default",
//!  "inputs": [{"tensor": {"dtype": "f32", "shape": [2, 4],
//!              "data": [1, 1, 1, 1, 1, 1, 1, 1]}},
//!             {"int": 3}]}
//! ```
//!
//! Responses mirror [`tssa_serve::Response`] — outputs in the same tagged
//! encoding plus the batch-coalescing count — and every error is a JSON
//! object with a stable machine-readable `kind` alongside the human
//! message, so clients can branch on overload vs. deadline vs. caller bug
//! without parsing prose:
//!
//! ```json
//! {"ok": true, "coalesced": 4, "outputs": [{"tensor": {...}}]}
//! {"ok": false, "kind": "queue_full", "error": "admission queue full (depth 64)"}
//! ```
//!
//! Both directions are single-pass and typed: the decoder walks this
//! grammar (any whitespace and key order, unknown keys skipped) over the
//! workspace's one JSON lexer, [`tssa_obs::json::Cursor`], and pushes each
//! `data` token straight into the buffer its [`Tensor`] will own; the
//! encoder writes into one pre-sized `String`. Values cross exactly: an
//! f32 as the shortest decimal that parses back to the same bits
//! (`0.7310586`; the 17-digit f64 spelling older clients send decodes to
//! the same bits), an i64 never through f64, `null` only for a non-finite
//! float (decoded as NaN). Nesting is capped at `MAX_LIST_DEPTH`, and an
//! element count must fit `isize` before anything is allocated for it.
//!
//! # Binary negotiation
//!
//! Clients that prefer to skip number formatting can send the same request
//! with `Content-Type: application/x-tssa-tensor` ([`BINARY_CONTENT_TYPE`]).
//! The body is then the little-endian tagged encoding implemented by
//! [`parse_infer_binary`] / [`encode_infer_request_binary`], built on the
//! same [`tssa_store::bytes`] primitives as the persistent plan format, and
//! the response (success or error) comes back in the same encoding. JSON
//! remains the default for any other (or absent) content type.

use std::fmt::{Display, Write as _};

use tssa_backend::RtValue;
use tssa_obs::json::{escape, Cursor};
use tssa_serve::ServeError;
use tssa_store::bytes::{ByteReader, ByteWriter};
use tssa_tensor::{DType, Tensor};

/// A decoded `/v1/infer` request body.
#[derive(Debug)]
pub struct InferRequest {
    /// The registered model name to run.
    pub model: String,
    /// Positional inputs in the model's argument order.
    pub inputs: Vec<RtValue>,
}

/// Decode a request body.
///
/// # Errors
///
/// A human-readable description of the first violation (surfaced to the
/// client as a 400).
pub fn parse_infer(body: &str) -> Result<InferRequest, String> {
    let mut c = Cursor::new(body);
    let opened = c.open(b'{', b'}');
    let mut more = opened.map_err(|e| format!("body is not JSON: {e}"))?;
    let (mut model, mut inputs) = (None, None);
    while more {
        match &*c.key()? {
            "model" => model = Some(c.string()?.into_owned()),
            "inputs" => inputs = Some(elements(&mut c, "inputs", 0, |c| value(c, 0))?),
            _ => c.skip(MAX_LIST_DEPTH)?,
        }
        more = c.more(b'}')?;
    }
    c.end()?;
    Ok(InferRequest {
        model: model.ok_or("missing string field `model`")?,
        inputs: inputs.ok_or("missing array field `inputs`")?,
    })
}

/// Element count of `shape`, refused when it would overflow. Zero extents
/// count as one, so an empty tensor's row-major strides are known to fit too.
fn checked_numel(shape: &[usize]) -> Result<usize, String> {
    let span = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.max(1)))
        .filter(|&n| isize::try_from(n).is_ok())
        .ok_or("element count overflows")?;
    Ok(if shape.contains(&0) { 0 } else { span })
}

/// The array `what`, decoded by `one` into a flat buffer sized by `hint`:
/// an element takes at least two bytes (`0,`), so the reservation never
/// exceeds what the body itself could hold.
fn elements<'a, T, E: Display>(
    c: &mut Cursor<'a>,
    what: &str,
    hint: usize,
    one: impl Fn(&mut Cursor<'a>) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(hint.min(c.remaining() / 2));
    let mut more = c.open(b'[', b']')?;
    while more {
        out.push(one(c).map_err(|e| format!("{what}[{}]: {e}", out.len()))?);
        more = c.more(b']')?;
    }
    Ok(out)
}

/// A tensor's `data`, decoded straight into the buffers of a tensor of
/// `shape`, whose element count is checked before anything is reserved.
fn data(c: &mut Cursor<'_>, dtype: DType, shape: &[usize]) -> Result<Tensor, String> {
    let numel = checked_numel(shape)?;
    let tensor = match dtype {
        DType::F32 => {
            let data = elements(c, "data", numel, |c| c.float(f32::NAN))?;
            Tensor::from_vec_f32(data, shape)
        }
        DType::I64 => {
            let data = elements(c, "data", numel, |c| c.parsed("a 64-bit integer"))?;
            Tensor::from_vec_i64(data, shape)
        }
        DType::Bool => Tensor::from_vec_bool(elements(c, "data", numel, Cursor::bool)?, shape),
    };
    tensor.map_err(|e| e.to_string())
}

fn tensor(c: &mut Cursor<'_>) -> Result<Tensor, String> {
    let (mut dtype, mut shape, mut tensor, mut deferred) = (None, None::<Vec<usize>>, None, None);
    let mut more = c.open(b'{', b'}')?;
    while more {
        match &*c.key()? {
            "dtype" => {
                dtype = Some(match &*c.string()? {
                    "f32" => DType::F32,
                    "i64" => DType::I64,
                    "bool" => DType::Bool,
                    other => return Err(format!("unknown dtype `{other}`")),
                });
            }
            "shape" => {
                let dim = |c: &mut Cursor<'_>| c.parsed("a non-negative integer");
                shape = Some(elements(c, "shape", 8, dim)?);
            }
            "data" => match (dtype, &shape) {
                // The encoder's key order: type and shape are known,
                // decode in place.
                (Some(dtype), Some(shape)) => tensor = Some(data(c, dtype, shape)?),
                // `data` ahead of either: validate it now, decode it
                // once the object has ended and both are settled.
                _ => {
                    deferred = Some(*c);
                    c.skip(MAX_LIST_DEPTH)?;
                }
            },
            _ => c.skip(MAX_LIST_DEPTH)?,
        }
        more = c.more(b'}')?;
    }
    let shape = shape.ok_or("missing array field `shape`")?;
    let dtype = dtype.unwrap_or(DType::F32);
    match (tensor, deferred) {
        (Some(tensor), _) => Ok(tensor),
        (None, Some(mut at)) => data(&mut at, dtype, &shape),
        (None, None) => Err("missing array field `data`".into()),
    }
}

/// One tagged value: `{"tensor": …}`, `{"int": …}`, `{"float": …}`,
/// `{"bool": …}` or `{"list": [value, …]}`.
fn value(c: &mut Cursor<'_>, depth: u32) -> Result<RtValue, String> {
    let mut tagged = None;
    let mut more = c.open(b'{', b'}')?;
    while more {
        tagged = match &*c.key()? {
            "tensor" => Some(RtValue::Tensor(
                tensor(c).map_err(|e| format!("tensor: {e}"))?,
            )),
            "int" => Some(RtValue::Int(c.parsed("a 64-bit integer")?)),
            "float" => Some(RtValue::Float(c.float(f64::NAN)?)),
            "bool" => Some(RtValue::Bool(c.bool()?)),
            "list" if depth >= MAX_LIST_DEPTH => {
                return Err(format!("list nesting exceeds {MAX_LIST_DEPTH}"))
            }
            "list" => Some(RtValue::List(elements(c, "list", 0, |c| {
                value(c, depth + 1)
            })?)),
            _ => c.skip(MAX_LIST_DEPTH).map(|()| tagged)?,
        };
        more = c.more(b'}')?;
    }
    tagged.ok_or_else(|| "expected one of `tensor`, `int`, `float`, `bool`, `list`".into())
}

fn push(out: &mut String, v: impl Display) -> Result<(), String> {
    write!(out, "{v}").map_err(|e| e.to_string())
}

fn push_separated<T>(
    out: &mut String,
    items: &[T],
    mut one: impl FnMut(&mut String, &T) -> Result<(), String>,
) -> Result<(), String> {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        one(out, item)?;
    }
    Ok(())
}

fn encode_tensor(out: &mut String, t: &Tensor) -> Result<(), String> {
    push(
        out,
        format_args!("{{\"tensor\":{{\"dtype\":\"{}\",\"shape\":[", t.dtype()),
    )?;
    push_separated(out, t.shape(), |out, d| push(out, d))?;
    out.push_str("],\"data\":[");
    match t.dtype() {
        // `Display` is the shortest decimal that parses back to the same
        // bits, never with an exponent; JSON cannot spell a non-finite.
        DType::F32 => {
            let data = t.to_vec_f32().map_err(|e| e.to_string())?;
            push_separated(out, &data, |out, v| match v.is_finite() {
                true => push(out, v),
                false => push(out, "null"),
            })?;
        }
        DType::I64 => {
            let data = t.to_vec_i64().map_err(|e| e.to_string())?;
            push_separated(out, &data, |out, v| push(out, v))?;
        }
        DType::Bool => {
            let data = t.to_vec_bool().map_err(|e| e.to_string())?;
            push_separated(out, &data, |out, v| push(out, v))?;
        }
    }
    out.push_str("]}}");
    Ok(())
}

fn encode_value(out: &mut String, value: &RtValue) -> Result<(), String> {
    match value {
        RtValue::Tensor(t) => encode_tensor(out, t),
        RtValue::Int(v) => push(out, format_args!("{{\"int\":{v}}}")),
        RtValue::Float(v) if v.is_finite() => push(out, format_args!("{{\"float\":{v}}}")),
        RtValue::Float(_) => push(out, "{\"float\":null}"),
        RtValue::Bool(v) => push(out, format_args!("{{\"bool\":{v}}}")),
        RtValue::List(items) => {
            out.push_str("{\"list\":[");
            push_separated(out, items, encode_value)?;
            push(out, "]}")
        }
    }
}

/// Bytes to reserve so the output is sized once: the element width in the
/// binary framing, twelve in JSON (a shortest-form f32 averages eleven).
fn size_hint(values: &[RtValue], binary: bool) -> usize {
    values
        .iter()
        .map(|v| match v {
            RtValue::Tensor(t) if binary => 64 + t.dtype().size_bytes() * t.numel(),
            RtValue::Tensor(t) => 64 + 12 * t.numel(),
            RtValue::List(items) => 16 + size_hint(items, binary),
            _ => 16,
        })
        .sum()
}

/// Encode an infer request body — the client-side inverse of
/// [`parse_infer`], used by load generators and tests.
///
/// # Errors
///
/// When an input tensor cannot be materialized.
pub fn encode_infer_request(model: &str, inputs: &[RtValue]) -> Result<String, String> {
    let mut out = format!("{{\"model\":\"{}\",\"inputs\":[", escape(model));
    out.reserve(size_hint(inputs, false));
    push_separated(&mut out, inputs, encode_value)?;
    out.push_str("]}");
    Ok(out)
}

/// Encode a successful response body.
///
/// # Errors
///
/// When an output tensor cannot be materialized (surfaced as a 500).
pub fn encode_response(response: &tssa_serve::Response) -> Result<String, String> {
    let mut out = format!(
        "{{\"ok\":true,\"coalesced\":{},\"outputs\":[",
        response.coalesced
    );
    out.reserve(size_hint(&response.outputs, false));
    push_separated(&mut out, &response.outputs, encode_value)?;
    out.push_str("]}");
    Ok(out)
}

/// Encode an error body with a stable `kind` discriminator.
pub(crate) fn encode_error(kind: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"kind\":\"{}\",\"error\":\"{}\"}}",
        escape(kind),
        escape(message)
    )
}

/// Content type that selects the binary tensor encoding on `/v1/infer`.
pub const BINARY_CONTENT_TYPE: &str = "application/x-tssa-tensor";

/// Version byte leading every binary body; bumped on incompatible change.
pub(crate) const BINARY_WIRE_VERSION: u8 = 1;

/// Nested lists, and skipped values, deeper than this are rejected rather
/// than recursed into, so adversarial bodies cannot exhaust the decoder's
/// stack.
const MAX_LIST_DEPTH: u32 = 32;

const TAG_TENSOR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_LIST: u8 = 4;

const DTYPE_F32: u8 = 0;
const DTYPE_I64: u8 = 1;
const DTYPE_BOOL: u8 = 2;

/// True when a `Content-Type` header value selects the binary encoding.
/// Parameters after `;` (charset etc.) are ignored.
pub(crate) fn is_binary_content_type(header: Option<&str>) -> bool {
    header.is_some_and(|v| {
        v.split(';')
            .next()
            .unwrap_or("")
            .trim()
            .eq_ignore_ascii_case(BINARY_CONTENT_TYPE)
    })
}

fn put_value(w: &mut ByteWriter, value: &RtValue) -> Result<(), String> {
    match value {
        RtValue::Tensor(t) => {
            w.put_u8(TAG_TENSOR);
            put_tensor(w, t)?;
        }
        RtValue::Int(v) => {
            w.put_u8(TAG_INT);
            w.put_i64(*v);
        }
        RtValue::Float(v) => {
            w.put_u8(TAG_FLOAT);
            w.put_f64(*v);
        }
        RtValue::Bool(v) => {
            w.put_u8(TAG_BOOL);
            w.put_u8(u8::from(*v));
        }
        RtValue::List(items) => {
            w.put_u8(TAG_LIST);
            w.put_u32(items.len() as u32);
            for item in items {
                put_value(w, item)?;
            }
        }
    }
    Ok(())
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) -> Result<(), String> {
    let dtype = match t.dtype() {
        DType::F32 => DTYPE_F32,
        DType::I64 => DTYPE_I64,
        DType::Bool => DTYPE_BOOL,
    };
    w.put_u8(dtype);
    w.put_u32(t.rank() as u32);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    match t.dtype() {
        DType::F32 => {
            for v in t.to_vec_f32().map_err(|e| e.to_string())? {
                w.put_raw(&v.to_le_bytes());
            }
        }
        DType::I64 => {
            for v in t.to_vec_i64().map_err(|e| e.to_string())? {
                w.put_i64(v);
            }
        }
        DType::Bool => {
            for v in t.to_vec_bool().map_err(|e| e.to_string())? {
                w.put_u8(u8::from(v));
            }
        }
    }
    Ok(())
}

fn get_value(r: &mut ByteReader<'_>, depth: u32) -> Result<RtValue, String> {
    match r.get_u8("value tag").map_err(|e| e.to_string())? {
        TAG_TENSOR => get_tensor(r).map(RtValue::Tensor),
        TAG_INT => r
            .get_i64("int value")
            .map(RtValue::Int)
            .map_err(|e| e.to_string()),
        TAG_FLOAT => r
            .get_f64("float value")
            .map(RtValue::Float)
            .map_err(|e| e.to_string()),
        TAG_BOOL => r
            .get_u8("bool value")
            .map(|b| RtValue::Bool(b != 0))
            .map_err(|e| e.to_string()),
        TAG_LIST => {
            if depth >= MAX_LIST_DEPTH {
                return Err(format!("list nesting exceeds {MAX_LIST_DEPTH}"));
            }
            let n = r.get_u32("list length").map_err(|e| e.to_string())?;
            let mut items = Vec::new();
            for i in 0..n {
                items.push(get_value(r, depth + 1).map_err(|e| format!("list[{i}]: {e}"))?);
            }
            Ok(RtValue::List(items))
        }
        other => Err(format!("unknown value tag {other}")),
    }
}

fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor, String> {
    let dtype = r.get_u8("tensor dtype").map_err(|e| e.to_string())?;
    let rank = r.get_u32("tensor rank").map_err(|e| e.to_string())? as usize;
    // A rank larger than the remaining bytes could even encode is a
    // malformed header, not a shape; reject before allocating.
    if rank > r.remaining() / 8 {
        return Err(format!("tensor rank {rank} exceeds remaining payload"));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = r.get_u64("tensor dim").map_err(|e| e.to_string())?;
        shape.push(usize::try_from(d).map_err(|_| "tensor dim overflows usize".to_string())?);
    }
    let numel = checked_numel(&shape).map_err(|e| format!("tensor {e}"))?;
    let bytes = |width: usize| numel.checked_mul(width).ok_or("tensor byte size overflows");
    let tensor = match dtype {
        DTYPE_F32 => {
            let raw = r
                .get_raw(bytes(4)?, "f32 tensor data")
                .map_err(|e| e.to_string())?;
            let data = raw.as_chunks().0.iter().map(|&c| f32::from_le_bytes(c));
            Tensor::from_vec_f32(data.collect(), &shape)
        }
        DTYPE_I64 => {
            let raw = r
                .get_raw(bytes(8)?, "i64 tensor data")
                .map_err(|e| e.to_string())?;
            let data = raw.as_chunks().0.iter().map(|&c| i64::from_le_bytes(c));
            Tensor::from_vec_i64(data.collect(), &shape)
        }
        DTYPE_BOOL => {
            let raw = r
                .get_raw(numel, "bool tensor data")
                .map_err(|e| e.to_string())?;
            Tensor::from_vec_bool(raw.iter().map(|&b| b != 0).collect(), &shape)
        }
        other => return Err(format!("unknown tensor dtype code {other}")),
    };
    tensor.map_err(|e| format!("tensor: {e}"))
}

fn check_version(r: &mut ByteReader<'_>) -> Result<(), String> {
    let v = r.get_u8("wire version").map_err(|e| e.to_string())?;
    if v != BINARY_WIRE_VERSION {
        return Err(format!(
            "unsupported binary wire version {v} (this server speaks {BINARY_WIRE_VERSION})"
        ));
    }
    Ok(())
}

/// Decode a binary request body — the counterpart of [`parse_infer`] for
/// `Content-Type: application/x-tssa-tensor`.
///
/// # Errors
///
/// A human-readable description of the first violation (surfaced to the
/// client as a 400, encoded back in the binary error framing).
pub fn parse_infer_binary(body: &[u8]) -> Result<InferRequest, String> {
    let mut r = ByteReader::new(body);
    check_version(&mut r)?;
    let model = r
        .get_str("model name")
        .map_err(|e| e.to_string())?
        .to_string();
    let n = r.get_u32("input count").map_err(|e| e.to_string())?;
    let mut inputs = Vec::new();
    for i in 0..n {
        inputs.push(get_value(&mut r, 0).map_err(|e| format!("inputs[{i}]: {e}"))?);
    }
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes after inputs", r.remaining()));
    }
    Ok(InferRequest { model, inputs })
}

/// Encode a binary infer request — the client-side inverse of
/// [`parse_infer_binary`].
///
/// # Errors
///
/// When an input tensor cannot be materialized.
pub fn encode_infer_request_binary(model: &str, inputs: &[RtValue]) -> Result<Vec<u8>, String> {
    let mut w = ByteWriter::with_capacity(16 + model.len() + size_hint(inputs, true));
    w.put_u8(BINARY_WIRE_VERSION);
    w.put_str(model);
    w.put_u32(inputs.len() as u32);
    for v in inputs {
        put_value(&mut w, v)?;
    }
    Ok(w.into_bytes())
}

/// Encode a successful response in the binary framing.
///
/// # Errors
///
/// When an output tensor cannot be materialized (surfaced as a 500).
pub fn encode_response_binary(response: &tssa_serve::Response) -> Result<Vec<u8>, String> {
    let mut w = ByteWriter::with_capacity(16 + size_hint(&response.outputs, true));
    w.put_u8(BINARY_WIRE_VERSION);
    w.put_u8(1); // ok
    w.put_u64(response.coalesced as u64);
    w.put_u32(response.outputs.len() as u32);
    for v in &response.outputs {
        put_value(&mut w, v)?;
    }
    Ok(w.into_bytes())
}

/// Encode an error in the binary framing, mirroring [`encode_error`].
pub fn encode_error_binary(kind: &str, message: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(BINARY_WIRE_VERSION);
    w.put_u8(0); // not ok
    w.put_str(kind);
    w.put_str(message);
    w.into_bytes()
}

/// A decoded binary response body: success with outputs, or a typed error.
#[derive(Debug)]
pub enum BinaryReply {
    /// The request ran; outputs in model order plus the coalescing count.
    Ok {
        /// How many requests shared the batch.
        coalesced: u64,
        /// Model outputs.
        outputs: Vec<RtValue>,
    },
    /// The server refused or failed the request.
    Err {
        /// Stable machine-readable discriminator (same set as JSON `kind`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

/// Decode a binary response body (client side).
///
/// # Errors
///
/// When the body is truncated, version-mismatched, or malformed.
pub fn parse_response_binary(body: &[u8]) -> Result<BinaryReply, String> {
    let mut r = ByteReader::new(body);
    check_version(&mut r)?;
    let ok = r.get_u8("ok flag").map_err(|e| e.to_string())?;
    if ok == 0 {
        let kind = r.get_str("error kind").map_err(|e| e.to_string())?.into();
        let message = r
            .get_str("error message")
            .map_err(|e| e.to_string())?
            .into();
        return Ok(BinaryReply::Err { kind, message });
    }
    let coalesced = r.get_u64("coalesced").map_err(|e| e.to_string())?;
    let n = r.get_u32("output count").map_err(|e| e.to_string())?;
    let mut outputs = Vec::new();
    for i in 0..n {
        outputs.push(get_value(&mut r, 0).map_err(|e| format!("outputs[{i}]: {e}"))?);
    }
    Ok(BinaryReply::Ok { coalesced, outputs })
}

/// Map a service error to its HTTP status and wire `kind`.
///
/// Backpressure and deadline outcomes get distinct retryable statuses
/// (429/504); caller bugs are 4xx; everything else is a 5xx.
pub(crate) fn error_parts(e: &ServeError) -> (u16, &'static str) {
    match e {
        ServeError::QueueFull { .. } => (429, "queue_full"),
        ServeError::DeadlineExceeded { .. } => (504, "deadline_exceeded"),
        ServeError::Timeout { .. } => (504, "timeout"),
        ServeError::ShuttingDown => (503, "shutting_down"),
        ServeError::Canceled => (503, "canceled"),
        ServeError::InvalidRequest(_) => (400, "invalid_request"),
        ServeError::Frontend(_) => (400, "frontend"),
        ServeError::CompilePanic => (500, "compile_panic"),
        ServeError::Exec(_) => (500, "exec"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_obs::json::{self, JsonValue};

    #[test]
    fn infer_request_round_trips_every_value_kind() {
        let body = r#"{"model": "m", "inputs": [
            {"tensor": {"shape": [2, 2], "data": [1, 2.5, -3, 0.125]}},
            {"tensor": {"dtype": "i64", "shape": [3], "data": [1, -2, 3]}},
            {"tensor": {"dtype": "bool", "shape": [2], "data": [true, false]}},
            {"int": 7}, {"float": -0.5}, {"bool": true}]}"#;
        let req = parse_infer(body).unwrap();
        assert_eq!(req.model, "m");
        assert_eq!(req.inputs.len(), 6);
        let t = req.inputs[0].as_tensor().unwrap();
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.to_vec_f32().unwrap(), vec![1.0, 2.5, -3.0, 0.125]);
        assert_eq!(
            req.inputs[1].as_tensor().unwrap().to_vec_i64().unwrap(),
            vec![1, -2, 3]
        );
        assert_eq!(
            req.inputs[2].as_tensor().unwrap().to_vec_bool().unwrap(),
            vec![true, false]
        );
        assert_eq!(req.inputs[3].as_int().unwrap(), 7);
        assert_eq!(req.inputs[4].as_float().unwrap(), -0.5);
        assert!(req.inputs[5].as_bool().unwrap());

        // Encode the same values back out and re-parse: a full round trip.
        let response = tssa_serve::Response {
            outputs: req.inputs.clone(),
            coalesced: 4,
            stats: Default::default(),
        };
        let encoded = encode_response(&response).unwrap();
        json::parse(&encoded).expect("valid JSON");
        // A response's `outputs` re-parse as a request's `inputs`.
        let outputs = encoded
            .strip_prefix("{\"ok\":true,\"coalesced\":4,\"outputs\":")
            .expect("envelope");
        let back = parse_infer(&format!("{{\"model\":\"m\",\"inputs\":{outputs}"))
            .unwrap()
            .inputs;
        assert_eq!(back.len(), 6);
        assert!(back[0]
            .as_tensor()
            .unwrap()
            .allclose(req.inputs[0].as_tensor().unwrap(), 0.0));
    }

    #[test]
    fn encode_infer_request_round_trips_through_parse() {
        use tssa_tensor::Tensor;
        let inputs = vec![
            RtValue::Tensor(Tensor::ones(&[2, 3])),
            RtValue::Int(-4),
            RtValue::Float(0.25),
            RtValue::Bool(false),
        ];
        let body = encode_infer_request("yolo\"v3", &inputs).unwrap();
        let req = parse_infer(&body).unwrap();
        assert_eq!(req.model, "yolo\"v3", "model names are escaped");
        assert_eq!(req.inputs.len(), 4);
        assert!(req.inputs[0]
            .as_tensor()
            .unwrap()
            .allclose(inputs[0].as_tensor().unwrap(), 0.0));
        assert_eq!(req.inputs[1].as_int().unwrap(), -4);
        assert_eq!(req.inputs[2].as_float().unwrap(), 0.25);
        assert!(!req.inputs[3].as_bool().unwrap());
    }

    #[test]
    fn malformed_bodies_name_the_violation() {
        for (body, needle) in [
            ("not json", "not JSON"),
            ("{}", "`model`"),
            (r#"{"model": "m"}"#, "`inputs`"),
            (r#"{"model": "m", "inputs": [{}]}"#, "inputs[0]"),
            (
                r#"{"model": "m", "inputs": [{"tensor": {"shape": [1]}}]}"#,
                "`data`",
            ),
            (
                r#"{"model": "m", "inputs": [{"tensor": {"shape": [-1], "data": []}}]}"#,
                "non-negative",
            ),
            (
                r#"{"model": "m", "inputs": [{"tensor": {"dtype": "f16", "shape": [1], "data": [0]}}]}"#,
                "dtype",
            ),
            (
                r#"{"model": "m", "inputs": [{"tensor": {"shape": [2], "data": [1]}}]}"#,
                "tensor",
            ),
        ] {
            let err = parse_infer(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let response = tssa_serve::Response {
            outputs: vec![RtValue::Float(f64::NAN)],
            coalesced: 1,
            stats: Default::default(),
        };
        let encoded = encode_response(&response).unwrap();
        assert!(encoded.contains("{\"float\":null}"), "{encoded}");
        json::parse(&encoded).expect("still valid JSON");
    }

    #[test]
    fn error_bodies_are_json_with_stable_kinds() {
        let body = encode_error("queue_full", "queue is \"full\"\n");
        let value = json::parse(&body).unwrap();
        assert_eq!(
            value.get("kind").and_then(JsonValue::as_str),
            Some("queue_full")
        );
        assert_eq!(
            value.get("ok"),
            Some(&JsonValue::Bool(false)),
            "errors are marked not-ok"
        );
    }

    #[test]
    fn binary_request_round_trips_every_value_kind() {
        let inputs = vec![
            RtValue::Tensor(Tensor::from_vec_f32(vec![1.0, 2.5, -3.0, 0.125], &[2, 2]).unwrap()),
            RtValue::Tensor(Tensor::from_vec_i64(vec![1, -2, 3], &[3]).unwrap()),
            RtValue::Tensor(Tensor::from_vec_bool(vec![true, false], &[2]).unwrap()),
            RtValue::Int(-7),
            RtValue::Float(f64::NAN),
            RtValue::Bool(true),
            RtValue::List(vec![
                RtValue::Int(1),
                RtValue::List(vec![RtValue::Bool(false)]),
            ]),
        ];
        let body = encode_infer_request_binary("yolo v3", &inputs).unwrap();
        let req = parse_infer_binary(&body).unwrap();
        assert_eq!(req.model, "yolo v3");
        assert_eq!(req.inputs.len(), 7);
        assert!(req.inputs[0]
            .as_tensor()
            .unwrap()
            .allclose(inputs[0].as_tensor().unwrap(), 0.0));
        assert_eq!(
            req.inputs[1].as_tensor().unwrap().to_vec_i64().unwrap(),
            vec![1, -2, 3]
        );
        assert_eq!(
            req.inputs[2].as_tensor().unwrap().to_vec_bool().unwrap(),
            vec![true, false]
        );
        assert_eq!(req.inputs[3].as_int().unwrap(), -7);
        // Binary carries the full f64 bit pattern — NaN survives, unlike JSON.
        assert!(req.inputs[4].as_float().unwrap().is_nan());
        assert!(req.inputs[5].as_bool().unwrap());
        match &req.inputs[6] {
            RtValue::List(items) => assert_eq!(items.len(), 2),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn binary_response_round_trips_and_errors_decode() {
        let response = tssa_serve::Response {
            outputs: vec![
                RtValue::Tensor(Tensor::arange_f32(6).reshape(&[2, 3]).unwrap()),
                RtValue::Float(0.5),
            ],
            coalesced: 4,
            stats: Default::default(),
        };
        let body = encode_response_binary(&response).unwrap();
        match parse_response_binary(&body).unwrap() {
            BinaryReply::Ok { coalesced, outputs } => {
                assert_eq!(coalesced, 4);
                assert_eq!(outputs.len(), 2);
                assert!(outputs[0]
                    .as_tensor()
                    .unwrap()
                    .allclose(response.outputs[0].as_tensor().unwrap(), 0.0));
            }
            BinaryReply::Err { kind, .. } => panic!("unexpected error {kind}"),
        }

        let err = encode_error_binary("queue_full", "admission queue full");
        match parse_response_binary(&err).unwrap() {
            BinaryReply::Err { kind, message } => {
                assert_eq!(kind, "queue_full");
                assert_eq!(message, "admission queue full");
            }
            BinaryReply::Ok { .. } => panic!("error body decoded as ok"),
        }
    }

    #[test]
    fn malformed_binary_bodies_name_the_violation() {
        let good = encode_infer_request_binary(
            "m",
            &[RtValue::Tensor(Tensor::ones(&[2, 2])), RtValue::Int(3)],
        )
        .unwrap();

        // Truncation at every prefix length either errors or (never) panics.
        for cut in 0..good.len() {
            assert!(
                parse_infer_binary(&good[..cut]).is_err(),
                "prefix of {cut} bytes should not parse"
            );
        }

        // Version bump.
        let mut bumped = good.clone();
        bumped[0] = BINARY_WIRE_VERSION + 1;
        assert!(parse_infer_binary(&bumped).unwrap_err().contains("version"));

        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(parse_infer_binary(&padded)
            .unwrap_err()
            .contains("trailing"));

        // Unknown tag / dtype.
        let mut w = ByteWriter::new();
        w.put_u8(BINARY_WIRE_VERSION);
        w.put_str("m");
        w.put_u32(1);
        w.put_u8(9);
        assert!(parse_infer_binary(&w.into_bytes())
            .unwrap_err()
            .contains("unknown value tag"));

        // A rank field pointing past the end of the body must not allocate.
        let mut w = ByteWriter::new();
        w.put_u8(BINARY_WIRE_VERSION);
        w.put_str("m");
        w.put_u32(1);
        w.put_u8(TAG_TENSOR);
        w.put_u8(DTYPE_F32);
        w.put_u32(u32::MAX);
        assert!(parse_infer_binary(&w.into_bytes())
            .unwrap_err()
            .contains("rank"));
    }

    #[test]
    fn content_type_negotiation_matches_loosely() {
        assert!(is_binary_content_type(Some("application/x-tssa-tensor")));
        assert!(is_binary_content_type(Some(
            "Application/X-TSSA-Tensor; charset=binary"
        )));
        assert!(!is_binary_content_type(Some("application/json")));
        assert!(!is_binary_content_type(None));
    }

    #[test]
    fn every_serve_error_maps_to_a_status_and_kind() {
        use std::time::Duration;
        let cases = [
            (ServeError::QueueFull { depth: 8 }, 429),
            (
                ServeError::DeadlineExceeded {
                    waited: Duration::from_millis(1),
                },
                504,
            ),
            (
                ServeError::Timeout {
                    waited: Duration::from_millis(1),
                },
                504,
            ),
            (ServeError::ShuttingDown, 503),
            (ServeError::Canceled, 503),
            (ServeError::InvalidRequest("x".into()), 400),
            (ServeError::CompilePanic, 500),
        ];
        for (err, status) in cases {
            let (s, kind) = error_parts(&err);
            assert_eq!(s, status, "{err}");
            assert!(!kind.is_empty());
        }
    }
}
