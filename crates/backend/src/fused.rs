//! Evaluation of `prim::FusionGroup` bodies.
//!
//! The group is lowered at launch time — when input shapes and scalar
//! operands (slice bounds, select indices, fill values) are known, the same
//! shape-specialization strategy as PyTorch NNC — into a flat plan over
//! dense slots. Every view transform (select, slice, permute, transpose,
//! squeeze, unsqueeze, expand) and every broadcast is an affine map of
//! coordinates, so such a node runs nothing: its slot is a [`View`]
//! `(buffer, offset, strides)` onto an earlier buffer, with stride 0 on
//! broadcast dims. A reshape re-strides a dense view and copies a strided
//! one dense first. Compute nodes run one odometer over their output shape
//! ([`for_each_row`]) with a typed loop over the innermost row; an assign
//! copies — or, when nothing reads the base afterwards, steals — the base
//! buffer and writes the region through its strides. Allocation is
//! O(plan nodes) per launch; no per-element work allocates or dispatches.
//!
//! The *cost model* charges the whole group as a single kernel whose memory
//! traffic covers only the group's inputs and outputs: on the modeled GPU
//! the fused kernel keeps intermediates in registers. The host-side flat
//! buffers here are an interpreter implementation detail.

use std::collections::HashMap;
use std::time::Instant;

use tssa_ir::{Graph, NodeId, Op, ScalarType, ValueId, ViewKind};
use tssa_tensor::{DType, Scalar, Tensor, TensorError};

use crate::observe::OpObserver;
use crate::{ExecError, RtValue};

/// Result of executing a fusion group.
pub(crate) struct GroupResult {
    /// One runtime value per node output.
    pub outputs: Vec<RtValue>,
    /// Device-memory traffic of the fused kernel (inputs + outputs).
    pub bytes: u64,
    /// Arithmetic work of the fused kernel.
    pub flops: u64,
    /// Wall time the observer was told the body nodes took, summed.
    pub node_ns: u64,
}

/// One-operand element functions; scalar operands are folded in at lowering.
#[derive(Debug, Clone, Copy)]
enum UnKind {
    Neg,
    Relu,
    Sigmoid,
    Tanh,
    Exp,
    Log,
    Sqrt,
    Abs,
    Not,
    AddC(f32),
    MulC(f32),
    SubC(f32),
    DivC(f32),
    PowC(f32),
    Clamp(f32, f32),
}

#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Pow,
    Gt,
    Lt,
    Ge,
    Le,
    Eq,
    And,
    Or,
}

/// A typed element buffer.
enum Data {
    F32(Vec<f32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl Default for Data {
    fn default() -> Data {
        Data::F32(Vec::new())
    }
}

impl Data {
    fn filled(dtype: DType, n: usize, value: Scalar) -> Data {
        match dtype {
            DType::F32 => Data::F32(vec![value.as_f32(); n]),
            DType::I64 => Data::I64(vec![value.as_i64(); n]),
            DType::Bool => Data::Bool(vec![value.as_bool(); n]),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Data::F32(_) => DType::F32,
            Data::I64(_) => DType::I64,
            Data::Bool(_) => DType::Bool,
        }
    }

    fn len(&self) -> usize {
        match self {
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> Scalar {
        match self {
            Data::F32(v) => Scalar::F32(v[i]),
            Data::I64(v) => Scalar::I64(v[i]),
            Data::Bool(v) => Scalar::Bool(v[i]),
        }
    }

    /// Store `value`, cast to this buffer's element type.
    fn set(&mut self, i: usize, value: Scalar) {
        match self {
            Data::F32(v) => v[i] = value.as_f32(),
            Data::I64(v) => v[i] = value.as_i64(),
            Data::Bool(v) => v[i] = value.as_bool(),
        }
    }
}

/// A zero-copy window onto buffer `buf`: element `(c0, c1, …)` lives at
/// `offset + Σ ci · strides[i]`; broadcast dims have stride 0.
#[derive(Debug, Clone)]
struct View {
    buf: usize,
    offset: usize,
    shape: Vec<usize>,
    strides: Vec<usize>,
    dtype: DType,
}

impl View {
    /// All of a freshly allocated row-major buffer.
    fn dense(buf: usize, shape: Vec<usize>, dtype: DType) -> View {
        let mut strides = vec![1; shape.len()];
        for i in (1..shape.len()).rev() {
            strides[i - 1] = strides[i] * shape[i];
        }
        View {
            buf,
            offset: 0,
            shape,
            strides,
            dtype,
        }
    }

    fn numel(&self) -> usize {
        numel(&self.shape)
    }

    fn bytes(&self) -> u64 {
        (self.numel() * self.dtype.size_bytes()) as u64
    }

    /// Whether the elements are laid out row-major without gaps.
    fn is_dense(&self) -> bool {
        let mut expect = 1;
        for (&d, &s) in self.shape.iter().zip(&self.strides).rev() {
            if d != 1 && s != expect {
                return false;
            }
            expect *= d;
        }
        true
    }

    /// Whether this view is exactly `data`, so the buffer can be moved out.
    fn covers(&self, data: &Data) -> bool {
        self.offset == 0 && self.is_dense() && self.numel() == data.len()
    }

    /// This view as an operand of an iteration over `shape`: right-aligned,
    /// stride 0 along every dim it is broadcast over.
    fn broadcast_to(&self, shape: &[usize]) -> Result<View, ExecError> {
        let mismatch = || TensorError::ShapeMismatch {
            lhs: self.shape.clone(),
            rhs: shape.to_vec(),
            op: "broadcast",
        };
        let pad = shape
            .len()
            .checked_sub(self.shape.len())
            .ok_or_else(mismatch)?;
        let mut strides = vec![0; shape.len()];
        for (i, (&d, &s)) in self.shape.iter().zip(&self.strides).enumerate() {
            if d == shape[pad + i] {
                strides[pad + i] = s;
            } else if d != 1 {
                return Err(mismatch().into());
            }
        }
        Ok(View {
            buf: self.buf,
            offset: self.offset,
            shape: shape.to_vec(),
            strides,
            dtype: self.dtype,
        })
    }
}

/// What a plan node runs. Operand views are already broadcast to the shape
/// the kernel iterates over.
enum Kernel {
    /// Nothing: the node's slot is a view onto an earlier buffer.
    Alias,
    Un {
        f: UnKind,
        a: View,
    },
    Bin {
        f: BinKind,
        a: View,
        b: View,
    },
    Where {
        c: View,
        a: View,
        b: View,
    },
    Fill(Scalar),
    /// Element-wise copy into a fresh dense buffer of the node's dtype: a
    /// cast, or a strided view made dense ahead of a reshape.
    Copy(View),
    /// Copy or steal slot `base`, then write `src` over `region` of it.
    Assign {
        base: usize,
        src: View,
        region: View,
    },
}

struct PlanNode {
    kernel: Kernel,
    /// Whether the cost model counts one flop per output element.
    compute: bool,
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

fn broadcast_shapes(a: &[usize], b: &[usize]) -> Result<Vec<usize>, ExecError> {
    let rank = a.len().max(b.len());
    let dim = |s: &[usize], i: usize| (i + s.len()).checked_sub(rank).map_or(1, |j| s[j]);
    (0..rank)
        .map(|i| match (dim(a, i), dim(b, i)) {
            (x, y) if x == y || y == 1 => Ok(x),
            (1, y) => Ok(y),
            _ => Err(ExecError::unsupported(format!(
                "fused broadcast of {a:?} and {b:?}"
            ))),
        })
        .collect()
}

fn promote(a: DType, b: DType) -> DType {
    match (a, b) {
        (DType::F32, _) | (_, DType::F32) => DType::F32,
        (DType::I64, _) | (_, DType::I64) => DType::I64,
        _ => DType::Bool,
    }
}

/// Walk `shape` in row-major order one innermost row at a time, calling
/// `row(out_start, len, starts, steps)`: the row's first index in a dense
/// output, its length, and per operand the index of its first element and
/// the distance between neighbours. Unit dims are dropped and dims that
/// every operand walks without a gap are merged first, so rows are as long
/// as the layouts allow (a dense elementwise op is one row).
fn for_each_row<const N: usize>(
    shape: &[usize],
    ops: [&View; N],
    mut row: impl FnMut(usize, usize, [usize; N], [usize; N]),
) {
    if shape.contains(&0) {
        return;
    }
    let mut dims: Vec<usize> = Vec::with_capacity(shape.len());
    let mut strides: Vec<[usize; N]> = Vec::with_capacity(shape.len());
    for (d, &size) in shape.iter().enumerate() {
        if size == 1 {
            continue;
        }
        let s: [usize; N] = std::array::from_fn(|k| ops[k].strides[d]);
        if let (Some(outer), Some(os)) = (dims.last_mut(), strides.last_mut()) {
            if (0..N).all(|k| os[k] == s[k] * size) {
                *outer *= size;
                *os = s;
                continue;
            }
        }
        dims.push(size);
        strides.push(s);
    }
    let len = dims.pop().unwrap_or(1);
    let steps = strides.pop().unwrap_or([0; N]);
    let mut at: [usize; N] = std::array::from_fn(|k| ops[k].offset);
    let mut coord = vec![0usize; dims.len()];
    let mut out = 0;
    loop {
        row(out, len, at, steps);
        out += len;
        let mut d = dims.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coord[d] += 1;
            for k in 0..N {
                at[k] += strides[d][k];
            }
            if coord[d] < dims[d] {
                break;
            }
            for k in 0..N {
                at[k] -= strides[d][k] * dims[d];
            }
            coord[d] = 0;
        }
    }
}

fn map1<A: Copy, O: Copy + Default>(
    shape: &[usize],
    a: (&[A], &View),
    f: impl Fn(A) -> O,
) -> Vec<O> {
    let mut out = vec![O::default(); numel(shape)];
    for_each_row(shape, [a.1], |start, len, [at], [step]| {
        let row = &mut out[start..start + len];
        if step == 1 {
            for (o, &x) in row.iter_mut().zip(&a.0[at..at + len]) {
                *o = f(x);
            }
        } else {
            for (i, o) in row.iter_mut().enumerate() {
                *o = f(a.0[at + i * step]);
            }
        }
    });
    out
}

fn map2<A: Copy, B: Copy, O: Copy + Default>(
    shape: &[usize],
    a: (&[A], &View),
    b: (&[B], &View),
    f: impl Fn(A, B) -> O,
) -> Vec<O> {
    let mut out = vec![O::default(); numel(shape)];
    for_each_row(shape, [a.1, b.1], |start, len, [ia, ib], steps| {
        let row = &mut out[start..start + len];
        match steps {
            [1, 1] => {
                let (xs, ys) = (&a.0[ia..ia + len], &b.0[ib..ib + len]);
                for ((o, &x), &y) in row.iter_mut().zip(xs).zip(ys) {
                    *o = f(x, y);
                }
            }
            [1, 0] => {
                let y = b.0[ib];
                for (o, &x) in row.iter_mut().zip(&a.0[ia..ia + len]) {
                    *o = f(x, y);
                }
            }
            [0, 1] => {
                let x = a.0[ia];
                for (o, &y) in row.iter_mut().zip(&b.0[ib..ib + len]) {
                    *o = f(x, y);
                }
            }
            [sa, sb] => {
                for (i, o) in row.iter_mut().enumerate() {
                    *o = f(a.0[ia + i * sa], b.0[ib + i * sb]);
                }
            }
        }
    });
    out
}

/// Element function over [`Scalar`]s for the dtype combinations without a
/// typed loop (i64, bool, mixed); same strided iteration, results cast to
/// `dtype` on store.
fn map_scalar<const N: usize>(
    bufs: &[Data],
    dtype: DType,
    shape: &[usize],
    ops: [&View; N],
    f: impl Fn([Scalar; N]) -> Scalar,
) -> Data {
    let mut out = Data::filled(dtype, numel(shape), Scalar::Bool(false));
    let src: [&Data; N] = std::array::from_fn(|k| &bufs[ops[k].buf]);
    for_each_row(shape, ops, |start, len, at, steps| {
        for i in 0..len {
            let args = std::array::from_fn(|k| src[k].get(at[k] + i * steps[k]));
            out.set(start + i, f(args));
        }
    });
    out
}

fn un_f32(f: UnKind, shape: &[usize], x: &[f32], a: &View) -> Data {
    macro_rules! go {
        ($f:expr) => {
            Data::F32(map1(shape, (x, a), $f))
        };
    }
    match f {
        UnKind::Neg => go!(|v: f32| -v),
        UnKind::Relu => go!(|v: f32| v.max(0.0)),
        UnKind::Sigmoid => go!(|v: f32| 1.0 / (1.0 + (-v).exp())),
        UnKind::Tanh => go!(f32::tanh),
        UnKind::Exp => go!(f32::exp),
        UnKind::Log => go!(f32::ln),
        UnKind::Sqrt => go!(f32::sqrt),
        UnKind::Abs => go!(f32::abs),
        UnKind::Not => Data::Bool(map1(shape, (x, a), |v: f32| v == 0.0)),
        UnKind::AddC(c) => go!(|v: f32| v + c),
        UnKind::MulC(c) => go!(|v: f32| v * c),
        UnKind::SubC(c) => go!(|v: f32| v - c),
        UnKind::DivC(c) => go!(|v: f32| v / c),
        UnKind::PowC(c) => go!(|v: f32| v.powf(c)),
        UnKind::Clamp(lo, hi) => go!(|v: f32| v.clamp(lo, hi)),
    }
}

fn un_apply(f: UnKind, v: Scalar) -> Scalar {
    match f {
        UnKind::Neg => match v {
            Scalar::I64(x) => Scalar::I64(-x),
            _ => Scalar::F32(-v.as_f32()),
        },
        UnKind::Relu => Scalar::F32(v.as_f32().max(0.0)),
        UnKind::Sigmoid => Scalar::F32(1.0 / (1.0 + (-v.as_f32()).exp())),
        UnKind::Tanh => Scalar::F32(v.as_f32().tanh()),
        UnKind::Exp => Scalar::F32(v.as_f32().exp()),
        UnKind::Log => Scalar::F32(v.as_f32().ln()),
        UnKind::Sqrt => Scalar::F32(v.as_f32().sqrt()),
        UnKind::Abs => match v {
            Scalar::I64(x) => Scalar::I64(x.abs()),
            _ => Scalar::F32(v.as_f32().abs()),
        },
        UnKind::Not => Scalar::Bool(!v.as_bool()),
        UnKind::AddC(c) => Scalar::F32(v.as_f32() + c),
        UnKind::MulC(c) => Scalar::F32(v.as_f32() * c),
        UnKind::SubC(c) => Scalar::F32(v.as_f32() - c),
        UnKind::DivC(c) => Scalar::F32(v.as_f32() / c),
        UnKind::PowC(c) => Scalar::F32(v.as_f32().powf(c)),
        UnKind::Clamp(lo, hi) => Scalar::F32(v.as_f32().clamp(lo, hi)),
    }
}

/// f32 × f32: the f32 operators give exactly what [`bin_apply`]'s
/// f64-then-round does (f64 holds every f32 sum, difference, product and
/// correctly rounds every quotient); `pow` keeps the f64 evaluation.
fn bin_f32(f: BinKind, shape: &[usize], a: (&[f32], &View), b: (&[f32], &View)) -> Data {
    macro_rules! num {
        ($f:expr) => {
            Data::F32(map2(shape, a, b, $f))
        };
    }
    macro_rules! test {
        ($f:expr) => {
            Data::Bool(map2(shape, a, b, $f))
        };
    }
    match f {
        BinKind::Add => num!(|x: f32, y: f32| x + y),
        BinKind::Sub => num!(|x: f32, y: f32| x - y),
        BinKind::Mul => num!(|x: f32, y: f32| x * y),
        BinKind::Div => num!(|x: f32, y: f32| x / y),
        BinKind::Max => num!(f32::max),
        BinKind::Min => num!(f32::min),
        BinKind::Pow => num!(|x: f32, y: f32| (x as f64).powf(y as f64) as f32),
        BinKind::Gt => test!(|x: f32, y: f32| x > y),
        BinKind::Lt => test!(|x: f32, y: f32| x < y),
        BinKind::Ge => test!(|x: f32, y: f32| x >= y),
        BinKind::Le => test!(|x: f32, y: f32| x <= y),
        BinKind::Eq => test!(|x: f32, y: f32| x == y),
        BinKind::And => test!(|x: f32, y: f32| x != 0.0 && y != 0.0),
        BinKind::Or => test!(|x: f32, y: f32| x != 0.0 || y != 0.0),
    }
}

fn bin_apply(f: BinKind, a: Scalar, b: Scalar) -> Scalar {
    let (x, y) = (a.as_f64(), b.as_f64());
    match f {
        BinKind::Add => Scalar::F32((x + y) as f32),
        BinKind::Sub => Scalar::F32((x - y) as f32),
        BinKind::Mul => Scalar::F32((x * y) as f32),
        BinKind::Div => Scalar::F32((x / y) as f32),
        BinKind::Max => Scalar::F32(x.max(y) as f32),
        BinKind::Min => Scalar::F32(x.min(y) as f32),
        BinKind::Pow => Scalar::F32(x.powf(y) as f32),
        BinKind::Gt => Scalar::Bool(x > y),
        BinKind::Lt => Scalar::Bool(x < y),
        BinKind::Ge => Scalar::Bool(x >= y),
        BinKind::Le => Scalar::Bool(x <= y),
        BinKind::Eq => Scalar::Bool(x == y),
        BinKind::And => Scalar::Bool(a.as_bool() && b.as_bool()),
        BinKind::Or => Scalar::Bool(a.as_bool() || b.as_bool()),
    }
}

/// `where` over a bool mask and f32 branches.
fn select_f32(
    shape: &[usize],
    m: (&[bool], &View),
    x: (&[f32], &View),
    y: (&[f32], &View),
) -> Data {
    let mut out = vec![0.0; numel(shape)];
    for_each_row(
        shape,
        [m.1, x.1, y.1],
        |start, len, [im, ix, iy], [sm, sx, sy]| {
            for (i, o) in out[start..start + len].iter_mut().enumerate() {
                *o = if m.0[im + i * sm] {
                    x.0[ix + i * sx]
                } else {
                    y.0[iy + i * sy]
                };
            }
        },
    );
    Data::F32(out)
}

/// The elements of `v` as a fresh dense buffer of `dtype`.
fn copy(bufs: &[Data], v: &View, dtype: DType) -> Data {
    match &bufs[v.buf] {
        src if src.dtype() != dtype => map_scalar(bufs, dtype, &v.shape, [v], |[e]| e),
        Data::F32(x) => Data::F32(map1(&v.shape, (x, v), |e| e)),
        Data::I64(x) => Data::I64(map1(&v.shape, (x, v), |e| e)),
        Data::Bool(x) => Data::Bool(map1(&v.shape, (x, v), |e| e)),
    }
}

/// Write `src` (broadcast to `region`'s shape) over `region` of `dst`, in
/// row-major order, cast to `dst`'s element type.
fn scatter(dst: &mut Data, region: &View, src: (&Data, &View)) {
    fn typed<T: Copy>(dst: &mut [T], region: &View, src: (&[T], &View)) {
        for_each_row(&region.shape, [region, src.1], |_, len, [id, is], steps| {
            if steps == [1, 1] {
                dst[id..id + len].copy_from_slice(&src.0[is..is + len]);
            } else {
                for i in 0..len {
                    dst[id + i * steps[0]] = src.0[is + i * steps[1]];
                }
            }
        });
    }
    match (dst, src.0) {
        (Data::F32(d), Data::F32(s)) => typed(d, region, (s, src.1)),
        (Data::I64(d), Data::I64(s)) => typed(d, region, (s, src.1)),
        (Data::Bool(d), Data::Bool(s)) => typed(d, region, (s, src.1)),
        (d, s) => for_each_row(&region.shape, [region, src.1], |_, len, at, steps| {
            for i in 0..len {
                d.set(at[0] + i * steps[0], s.get(at[1] + i * steps[1]));
            }
        }),
    }
}

/// Execute `group` (a `prim::FusionGroup` node) on `inputs`.
///
/// When an [`OpObserver`] is supplied, each body node's share of the fused
/// launch is timed during evaluation and attributed to its graph node id
/// under the group (view nodes run nothing and report 0); the caller
/// charges the rest of the launch to the group node itself.
pub(crate) fn run_group(
    g: &Graph,
    group: NodeId,
    inputs: &[RtValue],
    observer: Option<&dyn OpObserver>,
) -> Result<GroupResult, ExecError> {
    let body = g.block(g.node(group).blocks[0]);
    let n_in = inputs.len();
    if n_in != body.params.len() {
        return Err(ExecError::ArityMismatch {
            expected: body.params.len(),
            found: n_in,
        });
    }

    // Slot k < n_in is input k, slot n_in + i the i-th body node; a slot
    // that owns a buffer owns `bufs[slot]`. Tensors are imported with one
    // copy; host scalars become rank-0 buffers and are also kept by value
    // for the operators that take them as attributes.
    let n_slots = n_in + body.nodes.len();
    let mut bufs: Vec<Data> = Vec::with_capacity(n_slots);
    let mut slots: Vec<View> = Vec::with_capacity(n_slots);
    let mut scalars: Vec<Option<Scalar>> = Vec::with_capacity(n_in);
    let mut slot_of: HashMap<ValueId, usize> = HashMap::with_capacity(n_slots);
    let host = |s: Scalar| (Data::filled(s.dtype(), 1, s), Vec::new(), Some(s));
    for (k, (v, &param)) in inputs.iter().zip(&body.params).enumerate() {
        let (data, shape, scalar) = match v {
            RtValue::Tensor(t) => {
                let data = match t.dtype() {
                    DType::F32 => Data::F32(t.to_vec_f32()?),
                    DType::I64 => Data::I64(t.to_vec_i64()?),
                    DType::Bool => Data::Bool(t.to_vec_bool()?),
                };
                (data, t.shape().to_vec(), None)
            }
            RtValue::Float(f) => host(Scalar::F32(*f as f32)),
            RtValue::Int(i) => host(Scalar::I64(*i)),
            RtValue::Bool(b) => host(Scalar::Bool(*b)),
            RtValue::List(_) => return Err(ExecError::unsupported("list input to fusion group")),
        };
        slots.push(View::dense(k, shape, data.dtype()));
        bufs.push(data);
        scalars.push(scalar);
        slot_of.insert(param, k);
    }
    bufs.resize_with(n_slots, Data::default);

    // Lowering. `last_use[b]` is the last node reading buffer `b` through
    // any view (`usize::MAX` once returned); an input read only through
    // accesses is charged the accessed elements rather than its full size
    // (this matters for parallel-map bodies that read one slice per
    // iteration), so accesses and other reads are told apart per input.
    let mut nodes: Vec<PlanNode> = Vec::with_capacity(body.nodes.len());
    let mut last_use = vec![0usize; n_slots];
    let mut accessed = vec![0u64; n_in];
    let mut other_use = vec![false; n_in];
    let mut reads: Vec<usize> = Vec::with_capacity(3);
    for (idx, &n) in body.nodes.iter().enumerate() {
        let node = g.node(n);
        reads.clear();
        let slot = |i: usize| -> Result<usize, ExecError> {
            let found = node.inputs.get(i).and_then(|v| slot_of.get(v));
            found.copied().ok_or_else(|| {
                ExecError::unsupported("group operand missing or out of compilation scope")
            })
        };
        let mut read = |i: usize| -> Result<usize, ExecError> {
            let s = slot(i)?;
            reads.push(s);
            Ok(s)
        };
        let scalar = |i: usize| -> Result<Scalar, ExecError> {
            let host = scalars.get(slot(i)?).copied().flatten();
            host.ok_or_else(|| ExecError::unsupported("expected scalar operand in group"))
        };
        let int_at = |i: usize| scalar(i).map(Scalar::as_i64);
        let fresh = |shape: Vec<usize>, dtype: DType| View::dense(n_in + idx, shape, dtype);
        let (kernel, out, compute) = match &node.op {
            Op::Neg
            | Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Exp
            | Op::Log
            | Op::Sqrt
            | Op::Abs
            | Op::LogicalNot
            | Op::AddScalar
            | Op::MulScalar
            | Op::SubScalar
            | Op::DivScalar
            | Op::PowScalar
            | Op::Clamp => {
                let a = slots[read(0)?].clone();
                let c = |i: usize| scalar(i).map(Scalar::as_f32);
                let f = match node.op {
                    Op::Neg => UnKind::Neg,
                    Op::Relu => UnKind::Relu,
                    Op::Sigmoid => UnKind::Sigmoid,
                    Op::Tanh => UnKind::Tanh,
                    Op::Exp => UnKind::Exp,
                    Op::Log => UnKind::Log,
                    Op::Sqrt => UnKind::Sqrt,
                    Op::Abs => UnKind::Abs,
                    Op::LogicalNot => UnKind::Not,
                    Op::AddScalar => UnKind::AddC(c(1)?),
                    Op::MulScalar => UnKind::MulC(c(1)?),
                    Op::SubScalar => UnKind::SubC(c(1)?),
                    Op::DivScalar => UnKind::DivC(c(1)?),
                    Op::PowScalar => UnKind::PowC(c(1)?),
                    _ => UnKind::Clamp(c(1)?, c(2)?),
                };
                let dtype = match f {
                    UnKind::Neg | UnKind::Abs => a.dtype,
                    UnKind::Not => DType::Bool,
                    // `f32::clamp` panics on an empty or NaN range.
                    UnKind::Clamp(lo, hi) if lo > hi || lo.is_nan() || hi.is_nan() => {
                        return Err(TensorError::invalid("clamp bounds are not ordered").into())
                    }
                    _ => DType::F32,
                };
                let out = fresh(a.shape.clone(), dtype);
                (Kernel::Un { f, a }, out, true)
            }
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Maximum
            | Op::Minimum
            | Op::Pow
            | Op::Gt
            | Op::Lt
            | Op::Ge
            | Op::Le
            | Op::EqElem
            | Op::LogicalAnd
            | Op::LogicalOr => {
                let (a, b) = (&slots[read(0)?], &slots[read(1)?]);
                let f = match node.op {
                    Op::Add => BinKind::Add,
                    Op::Sub => BinKind::Sub,
                    Op::Mul => BinKind::Mul,
                    Op::Div => BinKind::Div,
                    Op::Maximum => BinKind::Max,
                    Op::Minimum => BinKind::Min,
                    Op::Pow => BinKind::Pow,
                    Op::Gt => BinKind::Gt,
                    Op::Lt => BinKind::Lt,
                    Op::Ge => BinKind::Ge,
                    Op::Le => BinKind::Le,
                    Op::EqElem => BinKind::Eq,
                    Op::LogicalAnd => BinKind::And,
                    _ => BinKind::Or,
                };
                let dtype = match f {
                    BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Max | BinKind::Min => {
                        promote(a.dtype, b.dtype)
                    }
                    BinKind::Div | BinKind::Pow => DType::F32,
                    _ => DType::Bool,
                };
                let shape = broadcast_shapes(&a.shape, &b.shape)?;
                let (a, b) = (a.broadcast_to(&shape)?, b.broadcast_to(&shape)?);
                (Kernel::Bin { f, a, b }, fresh(shape, dtype), true)
            }
            Op::WhereSelect => {
                let (c, a, b) = (&slots[read(0)?], &slots[read(1)?], &slots[read(2)?]);
                let shape = broadcast_shapes(&c.shape, &broadcast_shapes(&a.shape, &b.shape)?)?;
                let dtype = promote(a.dtype, b.dtype);
                let kernel = Kernel::Where {
                    c: c.broadcast_to(&shape)?,
                    a: a.broadcast_to(&shape)?,
                    b: b.broadcast_to(&shape)?,
                };
                (kernel, fresh(shape, dtype), true)
            }
            Op::FullLike | Op::ZerosLike | Op::OnesLike => {
                let like = &slots[slot(0)?];
                let value = match node.op {
                    Op::FullLike => scalar(1)?.as_f32(),
                    Op::OnesLike => 1.0,
                    _ => 0.0,
                };
                let out = fresh(like.shape.clone(), like.dtype);
                (Kernel::Fill(Scalar::F32(value)), out, false)
            }
            Op::BroadcastLike => {
                let like = &slots[slot(1)?];
                let src = slots[read(0)?].broadcast_to(&like.shape)?;
                if src.dtype == like.dtype {
                    (Kernel::Alias, src, false)
                } else {
                    let out = fresh(like.shape.clone(), like.dtype);
                    (Kernel::Copy(src), out, false)
                }
            }
            Op::Cast { dtype } => {
                let a = slots[read(0)?].clone();
                let dtype = match dtype {
                    ScalarType::F32 => DType::F32,
                    ScalarType::I64 => DType::I64,
                    ScalarType::Bool => DType::Bool,
                };
                if a.dtype == dtype {
                    (Kernel::Alias, a, true)
                } else {
                    let out = fresh(a.shape.clone(), dtype);
                    (Kernel::Copy(a), out, true)
                }
            }
            Op::Access(kind) => {
                let b = slot(0)?;
                let base = &slots[b];
                // A strided layout has no affine reshape: copy it dense.
                let dense;
                let reshape = matches!(kind, ViewKind::ViewShape { .. });
                let (kernel, from) = if reshape && !base.is_dense() {
                    dense = fresh(base.shape.clone(), base.dtype);
                    (Kernel::Copy(base.clone()), &dense)
                } else {
                    (Kernel::Alias, base)
                };
                let out = apply_view(kind, from, &int_at)?;
                last_use[base.buf] = idx;
                if b < n_in {
                    accessed[b] += out.bytes();
                }
                (kernel, out, false)
            }
            Op::Assign(kind) => {
                let (base, src) = (read(0)?, &slots[read(1)?]);
                let out = fresh(slots[base].shape.clone(), slots[base].dtype);
                let region = apply_view(kind, &out, &|i| int_at(i + 1))?;
                let src = src.broadcast_to(&region.shape)?;
                (Kernel::Assign { base, src, region }, out, false)
            }
            other => {
                return Err(ExecError::unsupported(format!(
                    "operator {} inside fusion group",
                    other.name()
                )))
            }
        };
        for &s in &reads {
            last_use[slots[s].buf] = idx;
            if s < n_in {
                other_use[s] = true;
            }
        }
        if let Some(&o) = node.outputs.first() {
            slot_of.insert(o, slots.len());
        }
        slots.push(out);
        nodes.push(PlanNode { kernel, compute });
    }

    let in_bytes: u64 = (0..n_in)
        .map(|k| match slots[k].bytes() {
            full if !other_use[k] && accessed[k] > 0 => accessed[k].min(full),
            full => full,
        })
        .sum();
    let rets: Vec<usize> = body
        .returns
        .iter()
        .map(|r| slot_of.get(r).copied())
        .collect::<Option<_>>()
        .ok_or_else(|| ExecError::unsupported("group return not computed"))?;
    for &r in &rets {
        last_use[slots[r].buf] = usize::MAX;
    }

    // Evaluation, in plan order; each element is computed exactly once.
    let mut node_ns = vec![0u64; nodes.len()];
    for (idx, node) in nodes.iter().enumerate() {
        let started = observer.map(|_| Instant::now());
        let out = &slots[n_in + idx];
        let (shape, dtype) = (&out.shape[..], out.dtype);
        let data = match &node.kernel {
            Kernel::Alias => continue,
            Kernel::Un { f, a } => match &bufs[a.buf] {
                Data::F32(x) => un_f32(*f, shape, x, a),
                _ => map_scalar(&bufs, dtype, shape, [a], |[v]| un_apply(*f, v)),
            },
            Kernel::Bin { f, a, b } => match (&bufs[a.buf], &bufs[b.buf]) {
                (Data::F32(x), Data::F32(y)) => bin_f32(*f, shape, (x, a), (y, b)),
                _ => map_scalar(&bufs, dtype, shape, [a, b], |[x, y]| bin_apply(*f, x, y)),
            },
            Kernel::Where { c, a, b } => match (&bufs[c.buf], &bufs[a.buf], &bufs[b.buf]) {
                (Data::Bool(m), Data::F32(x), Data::F32(y)) => {
                    select_f32(shape, (m, c), (x, a), (y, b))
                }
                _ => map_scalar(&bufs, dtype, shape, [c, a, b], |[c, x, y]| {
                    if c.as_bool() {
                        x
                    } else {
                        y
                    }
                }),
            },
            Kernel::Fill(value) => Data::filled(dtype, numel(shape), *value),
            Kernel::Copy(v) => copy(&bufs, v, dtype),
            Kernel::Assign { base, src, region } => {
                let base = &slots[*base];
                let dead = last_use[base.buf] <= idx && src.buf != base.buf;
                let mut dst = if dead && base.covers(&bufs[base.buf]) {
                    std::mem::take(&mut bufs[base.buf])
                } else {
                    copy(&bufs, base, dtype)
                };
                scatter(&mut dst, region, (&bufs[src.buf], src));
                dst
            }
        };
        bufs[out.buf] = data;
        if let Some(at) = started {
            node_ns[idx] = at.elapsed().as_nanos() as u64;
        }
    }

    // Read back: a returned slot that is all of its buffer gives it up.
    let mut outputs = Vec::with_capacity(rets.len());
    let mut out_bytes = 0u64;
    for (i, &r) in rets.iter().enumerate() {
        if scalars.get(r).is_some_and(Option::is_some) {
            return Err(ExecError::unsupported("scalar group return"));
        }
        let v = &slots[r];
        out_bytes += v.bytes();
        let last = !rets[i + 1..].iter().any(|&l| slots[l].buf == v.buf);
        let data = if last && v.covers(&bufs[v.buf]) {
            std::mem::take(&mut bufs[v.buf])
        } else {
            copy(&bufs, v, v.dtype)
        };
        outputs.push(RtValue::Tensor(match data {
            Data::F32(d) => Tensor::from_vec_f32(d, &v.shape)?,
            Data::I64(d) => Tensor::from_vec_i64(d, &v.shape)?,
            Data::Bool(d) => Tensor::from_vec_bool(d, &v.shape)?,
        }));
    }
    let node_flops = |i: usize| {
        if nodes[i].compute {
            slots[n_in + i].numel() as u64
        } else {
            0
        }
    };
    let flops = (0..nodes.len()).map(node_flops).sum();

    if let Some(obs) = observer {
        // Plan node i was built from the i-th body node, in order.
        for (i, &bn) in body.nodes.iter().enumerate() {
            obs.record_op(
                group.index() as u32,
                bn.index() as u32,
                &g.node(bn).op,
                node_ns[i],
                slots[n_in + i].bytes(),
                node_flops(i),
            );
        }
    }
    Ok(GroupResult {
        outputs,
        bytes: in_bytes + out_bytes,
        flops,
        node_ns: node_ns.iter().sum(),
    })
}

/// `base` seen through the view operator `kind`: every transform is an
/// affine map of coordinates, i.e. a new offset and strides over the same
/// buffer. `int_at(i)` reads the operator's i-th operand (0 is the base)
/// as a host integer. A `ViewShape` base must be dense.
fn apply_view(
    kind: &ViewKind,
    base: &View,
    int_at: &dyn Fn(usize) -> Result<i64, ExecError>,
) -> Result<View, ExecError> {
    let mut v = base.clone();
    match kind {
        ViewKind::Select { dim } => {
            let d = norm_dim(*dim, v.shape.len())?;
            let raw = int_at(1)?;
            let size = v.shape[d] as i64;
            let idx = if raw < 0 { raw + size } else { raw };
            if idx < 0 || idx >= size {
                return Err(ExecError::unsupported("select index out of range in group"));
            }
            v.offset += idx as usize * v.strides[d];
            v.shape.remove(d);
            v.strides.remove(d);
        }
        ViewKind::SliceView { dim } => {
            let d = norm_dim(*dim, v.shape.len())?;
            let size = v.shape[d] as i64;
            let clamp = |x: i64| -> i64 {
                let x = if x < 0 { x + size } else { x };
                x.clamp(0, size)
            };
            let start = clamp(int_at(1)?);
            let end = clamp(int_at(2)?).max(start);
            let step = int_at(3)?;
            if step <= 0 {
                return Err(ExecError::unsupported("non-positive slice step in group"));
            }
            v.offset += start as usize * v.strides[d];
            v.shape[d] = ((end - start) as u64).div_ceil(step as u64) as usize;
            // With at most one element along `d` the stride is never used.
            v.strides[d] = v.strides[d].saturating_mul(step as usize);
        }
        ViewKind::Permute { perm } => {
            let mut seen = vec![false; v.shape.len()];
            for &p in perm {
                match seen.get_mut(usize::try_from(p).unwrap_or(usize::MAX)) {
                    Some(s) if !*s => *s = true,
                    _ => return Err(TensorError::invalid("invalid permutation").into()),
                }
            }
            if perm.len() != seen.len() {
                return Err(TensorError::invalid("invalid permutation").into());
            }
            v.shape = perm.iter().map(|&p| base.shape[p as usize]).collect();
            v.strides = perm.iter().map(|&p| base.strides[p as usize]).collect();
        }
        ViewKind::Transpose { dim0, dim1 } => {
            let d0 = norm_dim(*dim0, v.shape.len())?;
            let d1 = norm_dim(*dim1, v.shape.len())?;
            v.shape.swap(d0, d1);
            v.strides.swap(d0, d1);
        }
        ViewKind::Unsqueeze { dim } => {
            let d = norm_dim(*dim, v.shape.len() + 1)?;
            v.shape.insert(d, 1);
            v.strides.insert(d, 0);
        }
        ViewKind::Squeeze { dim } => {
            let d = norm_dim(*dim, v.shape.len())?;
            if v.shape[d] != 1 {
                return Err(TensorError::invalid("squeeze of a dimension of size != 1").into());
            }
            v.shape.remove(d);
            v.strides.remove(d);
        }
        ViewKind::Expand { shape } => {
            // A -1 keeps the (right-aligned) base dimension.
            let pad = shape.len().saturating_sub(v.shape.len());
            let target: Vec<usize> = shape
                .iter()
                .enumerate()
                .map(|(i, &d)| match d {
                    -1 if i >= pad => v.shape[i - pad],
                    _ => d.max(0) as usize,
                })
                .collect();
            return base.broadcast_to(&target);
        }
        ViewKind::ViewShape { shape } => {
            let total = v.numel();
            let mut known = 1usize;
            for &d in shape.iter().filter(|&&d| d != -1) {
                let d = usize::try_from(d)
                    .map_err(|_| TensorError::invalid("negative dimension in shape"))?;
                known = known.saturating_mul(d);
            }
            let inferred = match shape.iter().filter(|&&d| d == -1).count() {
                0 => 1,
                1 if known != 0 && total.is_multiple_of(known) => total / known,
                1 => {
                    return Err(TensorError::NumelMismatch {
                        from: total,
                        to: known,
                    }
                    .into())
                }
                _ => return Err(TensorError::invalid("at most one -1 dimension").into()),
            };
            if known.saturating_mul(inferred) != total {
                return Err(TensorError::NumelMismatch {
                    from: total,
                    to: known,
                }
                .into());
            }
            let dims = shape
                .iter()
                .map(|&d| if d == -1 { inferred } else { d as usize });
            let offset = v.offset;
            v = View::dense(v.buf, dims.collect(), v.dtype);
            v.offset = offset;
        }
    }
    Ok(v)
}

fn norm_dim(dim: i64, rank: usize) -> Result<usize, ExecError> {
    let r = rank as i64;
    let d = if dim < 0 { dim + r } else { dim };
    if d < 0 || d >= r {
        return Err(ExecError::unsupported("dimension out of range in group"));
    }
    Ok(d as usize)
}
