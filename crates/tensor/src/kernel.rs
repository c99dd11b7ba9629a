//! The strided kernel core: one odometer, one op table, and the kernels
//! over `(&Buffer, &Layout)` that every executor runs.
//!
//! Eager [`crate::Tensor`] operators lock their storages and call in here;
//! the fused evaluator in `tssa-backend` calls the same functions on plain
//! owned buffers. Operand layouts are already broadcast to the shape the
//! kernel iterates over. Out-of-place kernels return a dense row-major
//! buffer of that shape; in-place kernels write through a layout.

use crate::dtype::promote;
use crate::layout::INLINE;
use crate::math;
use crate::storage::Buffer;
use crate::{DType, Layout, Result, Scalar, TensorError};

/// One-operand element functions; scalar operands are part of the op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `-x`; refused for bool.
    Neg,
    /// `max(x, 0)`.
    Relu,
    /// `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `e^x`.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// `|x|`; the identity on bool.
    Abs,
    /// Logical not of `x != 0`.
    Not,
    /// `x + c`.
    AddC(f32),
    /// `x * c`.
    MulC(f32),
    /// `x - c`.
    SubC(f32),
    /// `x / c`.
    DivC(f32),
    /// `x ^ c`.
    PowC(f32),
    /// `x` clamped to `[lo, hi]`.
    Clamp(f32, f32),
}

/// Two-operand element functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `x + y`.
    Add,
    /// `x - y`.
    Sub,
    /// `x * y`.
    Mul,
    /// `x / y`, always f32.
    Div,
    /// The larger operand.
    Max,
    /// The smaller operand.
    Min,
    /// `x ^ y`, always f32.
    Pow,
    /// `x > y`.
    Gt,
    /// `x < y`.
    Lt,
    /// `x >= y`.
    Ge,
    /// `x <= y`.
    Le,
    /// `x == y`.
    Eq,
    /// `x != 0 && y != 0`.
    And,
    /// `x != 0 || y != 0`.
    Or,
}

impl UnaryOp {
    /// Element type of the result on an operand of `dtype`: `Neg`/`Abs`
    /// keep it, `Not` tests, everything else computes in f32.
    ///
    /// # Errors
    ///
    /// Returns an error for `Neg` on bool (as PyTorch does) and for `Clamp`
    /// bounds that are unordered or NaN.
    pub fn result_dtype(self, dtype: DType) -> Result<DType> {
        match self {
            UnaryOp::Neg if dtype == DType::Bool => {
                Err(TensorError::invalid("neg is not defined on bool tensors"))
            }
            UnaryOp::Neg | UnaryOp::Abs => Ok(dtype),
            UnaryOp::Not => Ok(DType::Bool),
            // `f32::clamp` panics on an empty or NaN range.
            UnaryOp::Clamp(lo, hi) if lo > hi || lo.is_nan() || hi.is_nan() => {
                Err(TensorError::invalid("clamp bounds are not ordered"))
            }
            _ => Ok(DType::F32),
        }
    }
}

impl BinaryOp {
    /// Element type of the result: arithmetic promotes (`bool < i64 < f32`),
    /// `Div`/`Pow` are f32, comparisons and logic are bool.
    pub fn result_dtype(self, a: DType, b: DType) -> DType {
        match self {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Max | BinaryOp::Min => {
                promote(a, b)
            }
            BinaryOp::Div | BinaryOp::Pow => DType::F32,
            _ => DType::Bool,
        }
    }
}

/// An element type: its conversions (through [`Scalar`], resolved at
/// compile time) and its arithmetic. i64 wraps; bool arithmetic is what
/// computing on 0/1 and testing non-zero gives.
pub(crate) trait Elem: Copy + Default + PartialOrd + Into<Scalar> {
    fn of(s: Scalar) -> Self;
    fn wrap(v: Vec<Self>) -> Buffer;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    fn neg(self) -> Self;
    fn abs(self) -> Self;
    fn f32(self) -> f32 {
        Into::<Scalar>::into(self).as_f32()
    }
    fn f64(self) -> f64 {
        Into::<Scalar>::into(self).as_f64()
    }
    fn truthy(self) -> bool {
        Into::<Scalar>::into(self).as_bool()
    }
}

macro_rules! elem {
    ($T:ty, $V:ident, $of:ident, $add:expr, $sub:expr, $mul:expr, $max:expr, $min:expr, $neg:expr, $abs:expr) => {
        impl Elem for $T {
            fn of(s: Scalar) -> $T {
                s.$of()
            }
            fn wrap(v: Vec<$T>) -> Buffer {
                Buffer::$V(v)
            }
            fn add(self, o: $T) -> $T {
                $add(self, o)
            }
            fn sub(self, o: $T) -> $T {
                $sub(self, o)
            }
            fn mul(self, o: $T) -> $T {
                $mul(self, o)
            }
            fn max(self, o: $T) -> $T {
                $max(self, o)
            }
            fn min(self, o: $T) -> $T {
                $min(self, o)
            }
            fn neg(self) -> $T {
                $neg(self)
            }
            fn abs(self) -> $T {
                $abs(self)
            }
        }
    };
}

elem!(
    f32,
    F32,
    as_f32,
    |a, b| a + b,
    |a, b| a - b,
    |a, b| a * b,
    f32::max,
    f32::min,
    |a: f32| -a,
    f32::abs
);
elem!(
    i64,
    I64,
    as_i64,
    i64::wrapping_add,
    i64::wrapping_sub,
    i64::wrapping_mul,
    Ord::max,
    Ord::min,
    i64::wrapping_neg,
    i64::wrapping_abs
);
elem!(
    bool,
    Bool,
    as_bool,
    |a, b| a | b,
    |a, b| a ^ b,
    |a, b| a & b,
    |a, b| a | b,
    |a, b| a & b,
    |_| unreachable!("UnaryOp::result_dtype refuses neg on bool"),
    |a| a
);

/// The unary op table: `$go!` receives the element function of `$op` on
/// operands of type `$A`, returning the op's result type.
macro_rules! unary_fn {
    ($op:expr, $A:ident, $go:ident) => {
        match $op {
            UnaryOp::Neg => $go!(|v: $A| v.neg()),
            UnaryOp::Abs => $go!(|v: $A| v.abs()),
            UnaryOp::Not => $go!(|v: $A| !v.truthy()),
            UnaryOp::Relu => $go!(|v: $A| v.f32().max(0.0)),
            UnaryOp::Sigmoid => $go!(|v: $A| math::sigmoid(v.f32())),
            UnaryOp::Tanh => $go!(|v: $A| math::tanh(v.f32())),
            UnaryOp::Exp => $go!(|v: $A| math::exp(v.f32())),
            UnaryOp::Log => $go!(|v: $A| v.f32().ln()),
            UnaryOp::Sqrt => $go!(|v: $A| v.f32().sqrt()),
            // Constants are moved in: the vectoriser cannot tell that the
            // output does not alias a captured reference.
            UnaryOp::AddC(c) => $go!(move |v: $A| v.f32() + c),
            UnaryOp::MulC(c) => $go!(move |v: $A| v.f32() * c),
            UnaryOp::SubC(c) => $go!(move |v: $A| v.f32() - c),
            UnaryOp::DivC(c) => $go!(move |v: $A| v.f32() / c),
            UnaryOp::PowC(c) => $go!(move |v: $A| v.f32().powf(c)),
            // `f32::clamp` without its bounds check, which `result_dtype`
            // makes once and which would keep the loop from vectorising.
            UnaryOp::Clamp(lo, hi) => $go!(move |v: $A| {
                let v = v.f32();
                let v = if v < lo { lo } else { v };
                if v > hi {
                    hi
                } else {
                    v
                }
            }),
        }
    };
}

/// The binary op table, over two operands of one type `$A` (mixed operands
/// are cast to their promoted type first).
macro_rules! binary_fn {
    ($op:expr, $A:ident, $go:ident) => {
        match $op {
            BinaryOp::Add => $go!(|x: $A, y: $A| x.add(y)),
            BinaryOp::Sub => $go!(|x: $A, y: $A| x.sub(y)),
            BinaryOp::Mul => $go!(|x: $A, y: $A| x.mul(y)),
            BinaryOp::Max => $go!(|x: $A, y: $A| Elem::max(x, y)),
            BinaryOp::Min => $go!(|x: $A, y: $A| Elem::min(x, y)),
            BinaryOp::Div => $go!(|x: $A, y: $A| x.f32() / y.f32()),
            BinaryOp::Pow => $go!(|x: $A, y: $A| x.f32().powf(y.f32())),
            BinaryOp::Gt => $go!(|x: $A, y: $A| x > y),
            BinaryOp::Lt => $go!(|x: $A, y: $A| x < y),
            BinaryOp::Ge => $go!(|x: $A, y: $A| x >= y),
            BinaryOp::Le => $go!(|x: $A, y: $A| x <= y),
            BinaryOp::Eq => $go!(|x: $A, y: $A| x == y),
            BinaryOp::And => $go!(|x: $A, y: $A| x.truthy() && y.truthy()),
            BinaryOp::Or => $go!(|x: $A, y: $A| x.truthy() || y.truthy()),
        }
    };
}

/// Run `$body` with `$v` bound to the typed vector inside `$buf`.
macro_rules! typed {
    ($buf:expr, |$v:ident| $body:expr) => {
        match $buf {
            $crate::Buffer::F32($v) => $body,
            $crate::Buffer::I64($v) => $body,
            $crate::Buffer::Bool($v) => $body,
        }
    };
}
pub(crate) use typed;

/// As [`typed!`], for two buffers of one element type.
macro_rules! typed_pair {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $body:expr) => {
        match ($a, $b) {
            (Buffer::F32($x), Buffer::F32($y)) => $body,
            (Buffer::I64($x), Buffer::I64($y)) => $body,
            (Buffer::Bool($x), Buffer::Bool($y)) => $body,
            _ => unreachable!("operands were cast to one element type"),
        }
    };
}

/// One dimension of a walk after merging: its size, each operand's stride
/// along it, and the odometer's position in it.
type Dim<const N: usize> = (usize, [usize; N], usize);

/// Walk `shape` in row-major order one innermost row at a time, calling
/// `row(len, starts, steps)`: the row's length, and per operand the index of
/// its first element and the distance between neighbours. Unit dims are
/// dropped and dims that every operand walks without a gap are merged
/// first, so rows are as long as the layouts allow (a dense elementwise op
/// is one row). The odometer lives on the stack up to rank [`INLINE`].
pub(crate) fn for_each_row<const N: usize>(
    shape: &[usize],
    ops: [&Layout; N],
    mut row: impl FnMut(usize, [usize; N], [usize; N]),
) {
    let (mut stack, mut heap): ([Dim<N>; INLINE], _) = ([(0, [0; N], 0); INLINE], Vec::new());
    let dims = if shape.len() <= INLINE {
        &mut stack[..]
    } else {
        heap.resize(shape.len(), (0, [0; N], 0));
        &mut heap[..]
    };
    let Some((outer, len, steps)) = merge(shape, ops, dims) else {
        return;
    };
    let dims = &mut dims[..outer];
    let mut at: [usize; N] = std::array::from_fn(|k| ops[k].offset);
    loop {
        row(len, at, steps);
        let mut d = dims.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (size, strides, pos) = &mut dims[d];
            *pos += 1;
            for (a, s) in at.iter_mut().zip(*strides) {
                *a += s;
            }
            if *pos < *size {
                break;
            }
            for (a, s) in at.iter_mut().zip(*strides) {
                *a -= s * *size;
            }
            *pos = 0;
        }
    }
}

/// [`for_each_row`]'s prologue: merge `shape`, walked by `ops`, into
/// `dims` and split off the innermost dim. Returns the number of outer dims
/// and the row's length and steps, or `None` if there is no element.
///
/// Out of line, it is compiled once per operand count rather than once per
/// row closure: forced into every kernel it adds 218 KB of text to the
/// benchmark binary (x86-64), which the resident set pays for.
#[inline(never)]
fn merge<const N: usize>(
    shape: &[usize],
    ops: [&Layout; N],
    dims: &mut [Dim<N>],
) -> Option<(usize, usize, [usize; N])> {
    if shape.contains(&0) {
        return None;
    }
    let mut n = 0usize;
    for (d, &size) in shape.iter().enumerate() {
        if size == 1 {
            continue;
        }
        let s: [usize; N] = std::array::from_fn(|k| ops[k].strides[d]);
        if let Some((outer, os, _)) = n.checked_sub(1).map(|o| &mut dims[o]) {
            if (0..N).all(|k| os[k] == s[k] * size) {
                *outer *= size;
                *os = s;
                continue;
            }
        }
        dims[n] = (size, s, 0);
        n += 1;
    }
    Some(match n.checked_sub(1) {
        Some(inner) => (inner, dims[inner].0, dims[inner].1),
        None => (0, 1, [0; N]),
    })
}

fn map1<A: Copy, O>(a: (&[A], &Layout), f: impl Fn(A) -> O) -> Vec<O> {
    let mut out = Vec::with_capacity(a.1.numel());
    for_each_row(&a.1.shape, [a.1], |len, [at], [step]| {
        if step == 1 {
            out.extend(a.0[at..at + len].iter().map(|&x| f(x)));
        } else {
            out.extend((0..len).map(|i| f(a.0[at + i * step])));
        }
    });
    out
}

fn map2<A: Copy, B: Copy, O>(
    a: (&[A], &Layout),
    b: (&[B], &Layout),
    f: impl Fn(A, B) -> O,
) -> Vec<O> {
    let mut out = Vec::with_capacity(a.1.numel());
    for_each_row(&a.1.shape, [a.1, b.1], |len, [ia, ib], steps| match steps {
        [1, 1] => {
            let (xs, ys) = (&a.0[ia..ia + len], &b.0[ib..ib + len]);
            out.extend(xs.iter().zip(ys).map(|(&x, &y)| f(x, y)));
        }
        [1, 0] => {
            let y = b.0[ib];
            out.extend(a.0[ia..ia + len].iter().map(|&x| f(x, y)));
        }
        [0, 1] => {
            let x = a.0[ia];
            out.extend(b.0[ib..ib + len].iter().map(|&y| f(x, y)));
        }
        [sa, sb] => out.extend((0..len).map(|i| f(a.0[ia + i * sa], b.0[ib + i * sb]))),
    });
    out
}

/// `d ← f(d)` over every element of `l`, in row-major order: a dimension of
/// stride 0 is read and written once per logical element.
fn update1<D: Copy>(d: &mut [D], l: &Layout, f: impl Fn(D) -> D) {
    for_each_row(&l.shape, [l], |len, [at], [step]| {
        if step == 1 {
            for o in &mut d[at..at + len] {
                *o = f(*o);
            }
        } else {
            for i in 0..len {
                d[at + i * step] = f(d[at + i * step]);
            }
        }
    });
}

/// `d ← f(d, s)` over every element of `l`, in row-major order.
fn update2<D: Copy, S: Copy>(d: &mut [D], l: &Layout, s: (&[S], &Layout), f: impl Fn(D, S) -> D) {
    for_each_row(&l.shape, [l, s.1], |len, [id, is], steps| {
        if steps == [1, 1] {
            for (o, &x) in d[id..id + len].iter_mut().zip(&s.0[is..is + len]) {
                *o = f(*o, x);
            }
        } else {
            for i in 0..len {
                let o = id + i * steps[0];
                d[o] = f(d[o], s.0[is + i * steps[1]]);
            }
        }
    });
}

/// A kernel operand: a buffer and where in it the operand's elements live.
pub type Operand<'a> = (&'a Buffer, &'a Layout);

/// `v` as an operand of `dtype`: itself, or a dense cast kept in `tmp`.
fn as_dtype<'a>(
    v: Operand<'a>,
    dtype: DType,
    tmp: &'a mut Option<(Buffer, Layout)>,
) -> Operand<'a> {
    if v.0.dtype() == dtype {
        return v;
    }
    let dense = Layout::contiguous(&v.1.shape).expect("a layout's shape fits");
    let (buf, layout) = tmp.insert((cast(v, dtype), dense));
    (buf, layout)
}

/// `op` applied to every element of `a`.
///
/// # Errors
///
/// As [`UnaryOp::result_dtype`].
pub fn unary(op: UnaryOp, a: Operand) -> Result<Buffer> {
    op.result_dtype(a.0.dtype())?;
    fn go<A: Elem>(op: UnaryOp, x: &[A], l: &Layout) -> Buffer {
        macro_rules! out {
            ($f:expr) => {
                Elem::wrap(map1((x, l), $f))
            };
        }
        unary_fn!(op, A, out)
    }
    Ok(typed!(a.0, |x| go(op, x, a.1)))
}

/// `d ← op(d)` through `l`, the result cast to `dst`'s element type.
///
/// # Errors
///
/// As [`UnaryOp::result_dtype`].
pub(crate) fn unary_(dst: &mut Buffer, l: &Layout, op: UnaryOp) -> Result<()> {
    op.result_dtype(dst.dtype())?;
    fn go<D: Elem>(op: UnaryOp, d: &mut [D], l: &Layout) {
        macro_rules! rmw {
            ($f:expr) => {{
                let f = $f;
                update1(d, l, |v| D::of(f(v).into()))
            }};
        }
        unary_fn!(op, D, rmw)
    }
    typed!(dst, |d| go(op, d, l));
    Ok(())
}

/// `op` applied to the elements of `a` and `b` pairwise, in their promoted
/// element type.
pub fn binary(op: BinaryOp, a: Operand, b: Operand) -> Buffer {
    fn go<A: Elem>(op: BinaryOp, a: (&[A], &Layout), b: (&[A], &Layout)) -> Buffer {
        macro_rules! out {
            ($f:expr) => {
                Elem::wrap(map2(a, b, $f))
            };
        }
        binary_fn!(op, A, out)
    }
    let dtype = promote(a.0.dtype(), b.0.dtype());
    let (mut ta, mut tb) = (None, None);
    let (a, b) = (as_dtype(a, dtype, &mut ta), as_dtype(b, dtype, &mut tb));
    typed_pair!(a.0, b.0, |x, y| go(op, (x, a.1), (y, b.1)))
}

/// `d ← op(d, s)` through `l`, computed in the promoted element type and
/// cast to `dst`'s.
pub(crate) fn binary_(dst: &mut Buffer, l: &Layout, op: BinaryOp, src: Operand) {
    fn go<D: Elem, P: Elem>(op: BinaryOp, d: &mut [D], l: &Layout, s: (&[P], &Layout)) {
        macro_rules! rmw {
            ($f:expr) => {{
                let f = $f;
                update2(d, l, s, |x: D, y: P| D::of(f(P::of(x.into()), y).into()))
            }};
        }
        binary_fn!(op, P, rmw)
    }
    let mut tmp = None;
    let src = as_dtype(src, promote(dst.dtype(), src.0.dtype()), &mut tmp);
    typed!(dst, |d| typed!(src.0, |s| go(op, d, l, (s, src.1))));
}

/// `cond ? a : b` elementwise (`aten::where`), in the promoted element type
/// of the branches.
///
/// # Errors
///
/// Returns [`TensorError::DTypeMismatch`] if `cond` is not bool.
pub fn select(cond: Operand, a: Operand, b: Operand) -> Result<Buffer> {
    let Buffer::Bool(m) = cond.0 else {
        return Err(TensorError::DTypeMismatch {
            expected: DType::Bool,
            found: cond.0.dtype(),
            op: "where",
        });
    };
    fn go<A: Elem>(m: (&[bool], &Layout), x: (&[A], &Layout), y: (&[A], &Layout)) -> Buffer {
        let mut out = Vec::with_capacity(m.1.numel());
        // An index rather than a branch: a mask that is not all one way
        // would mispredict it, and the vectoriser leaves an `if` scalar.
        let pick = |c: bool, a, b| [b, a][usize::from(c)];
        for_each_row(&m.1.shape, [m.1, x.1, y.1], |len, [im, ix, iy], steps| {
            let cs = &m.0[im..];
            match steps {
                [1, 1, 1] => {
                    let xy = x.0[ix..ix + len].iter().zip(&y.0[iy..iy + len]);
                    out.extend(cs[..len].iter().zip(xy).map(|(&c, (&a, &b))| pick(c, a, b)));
                }
                [1, 1, 0] => {
                    let b = y.0[iy];
                    let xs = &x.0[ix..ix + len];
                    out.extend(cs[..len].iter().zip(xs).map(|(&c, &a)| pick(c, a, b)));
                }
                [1, 0, 1] => {
                    let a = x.0[ix];
                    let ys = &y.0[iy..iy + len];
                    out.extend(cs[..len].iter().zip(ys).map(|(&c, &b)| pick(c, a, b)));
                }
                [sm, sx, sy] => out
                    .extend((0..len).map(|i| pick(cs[i * sm], x.0[ix + i * sx], y.0[iy + i * sy]))),
            }
        });
        A::wrap(out)
    }
    let dtype = promote(a.0.dtype(), b.0.dtype());
    let (mut ta, mut tb) = (None, None);
    let (a, b) = (as_dtype(a, dtype, &mut ta), as_dtype(b, dtype, &mut tb));
    Ok(typed_pair!(a.0, b.0, |x, y| go(
        (m, cond.1),
        (x, a.1),
        (y, b.1)
    )))
}

/// The elements of `a` as a fresh dense buffer of `dtype`.
pub fn cast(a: Operand, dtype: DType) -> Buffer {
    fn go<A: Elem>(x: &[A], l: &Layout, dtype: DType) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(map1((x, l), |v| f32::of(v.into()))),
            DType::I64 => Buffer::I64(map1((x, l), |v| i64::of(v.into()))),
            DType::Bool => Buffer::Bool(map1((x, l), |v| bool::of(v.into()))),
        }
    }
    if a.0.dtype() == dtype && a.1.is_dense() {
        // A dense view of the same type is one slice copy.
        let (at, n) = (a.1.offset, a.1.numel());
        return typed!(a.0, |x| Elem::wrap(x[at..at + n].to_vec()));
    }
    typed!(a.0, |x| go(x, a.1, dtype))
}

/// Write `src` over `region` of `dst` in row-major order, cast to `dst`'s
/// element type.
pub fn write(dst: &mut Buffer, region: &Layout, src: Operand) {
    fn go<D: Elem, S: Elem>(d: &mut [D], l: &Layout, s: (&[S], &Layout)) {
        update2(d, l, s, |_, v| D::of(v.into()));
    }
    typed!(dst, |d| typed!(src.0, |s| go(d, region, (s, src.1))));
}

/// Set every element of `l` to `value`, cast to `dst`'s element type.
pub(crate) fn fill(dst: &mut Buffer, l: &Layout, value: Scalar) {
    fn go<D: Elem>(d: &mut [D], l: &Layout, value: Scalar) {
        let v = D::of(value);
        update1(d, l, |_| v);
    }
    typed!(dst, |d| go(d, l, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_merge_dense_dims_and_follow_strides() {
        let rows = |shape: &[usize], l: &Layout| {
            let mut seen = Vec::new();
            for_each_row(shape, [l], |len, [at], [step]| {
                seen.push((len, at, step));
            });
            seen
        };
        let l = Layout::contiguous(&[2, 3, 4]).unwrap();
        assert_eq!(rows(&l.shape, &l), vec![(24, 0, 1)]);
        let t = l.transpose(0, 2).unwrap();
        assert_eq!(rows(&t.shape, &t).len(), 12);
        assert_eq!(rows(&t.shape, &t)[1], (2, 4, 12));
        // Every other element from 1 on is one uniformly strided row.
        let s = l.slice(2, 1, 4, 2).unwrap();
        assert_eq!(rows(&s.shape, &s), vec![(12, 1, 2)]);
        let s = l.slice(2, 1, 4, 1).unwrap();
        assert_eq!(rows(&s.shape, &s)[..2], [(3, 1, 1), (3, 5, 1)]);
        assert_eq!(
            rows(&[], &Layout::contiguous(&[]).unwrap()),
            vec![(1, 0, 0)]
        );
        assert!(rows(&[2, 0], &Layout::contiguous(&[2, 0]).unwrap()).is_empty());
    }

    #[test]
    fn integer_arithmetic_is_exact_and_wraps() {
        let l = Layout::contiguous(&[3]).unwrap();
        let a = Buffer::I64(vec![16_777_217, 3_000_000_019, i64::MAX]);
        let b = Buffer::I64(vec![0, 3, 1]);
        let Buffer::I64(sum) = binary(BinaryOp::Add, (&a, &l), (&b, &l)) else {
            panic!("i64 + i64 is i64");
        };
        assert_eq!(sum, vec![16_777_217, 3_000_000_022, i64::MIN]);
        let Buffer::I64(prod) = binary(BinaryOp::Mul, (&a, &l), (&b, &l)) else {
            panic!("i64 * i64 is i64");
        };
        assert_eq!(prod[1], 9_000_000_057);
        let m = Buffer::I64(vec![i64::MIN, -3, 4]);
        let Buffer::I64(neg) = unary(UnaryOp::Neg, (&m, &l)).unwrap() else {
            panic!("neg keeps i64");
        };
        assert_eq!(neg, vec![i64::MIN, 3, -4]);
    }

    #[test]
    fn result_dtypes_and_operand_checks() {
        use DType::*;
        assert_eq!(UnaryOp::Abs.result_dtype(Bool), Ok(Bool));
        assert_eq!(UnaryOp::Neg.result_dtype(I64), Ok(I64));
        assert!(UnaryOp::Neg.result_dtype(Bool).is_err());
        assert_eq!(UnaryOp::Not.result_dtype(F32), Ok(Bool));
        assert_eq!(UnaryOp::Relu.result_dtype(I64), Ok(F32));
        assert!(UnaryOp::Clamp(1.0, 0.0).result_dtype(F32).is_err());
        assert!(UnaryOp::Clamp(f32::NAN, 0.0).result_dtype(F32).is_err());
        assert!(UnaryOp::Clamp(0.0, f32::NAN).result_dtype(F32).is_err());
        assert_eq!(BinaryOp::Add.result_dtype(Bool, I64), I64);
        assert_eq!(BinaryOp::Div.result_dtype(I64, I64), F32);
        assert_eq!(BinaryOp::Pow.result_dtype(F32, F32), F32);
        assert_eq!(BinaryOp::Le.result_dtype(F32, F32), Bool);
        let l = Layout::contiguous(&[1]).unwrap();
        let (f, b) = (Buffer::F32(vec![1.0]), Buffer::Bool(vec![true]));
        assert!(unary(UnaryOp::Neg, (&b, &l)).is_err());
        assert!(select((&f, &l), (&f, &l), (&f, &l)).is_err());
        assert!(select((&b, &l), (&f, &l), (&b, &l)).is_ok());
    }

    #[test]
    fn mixed_operands_compute_in_the_promoted_type() {
        let l = Layout::contiguous(&[2]).unwrap();
        let i = Buffer::I64(vec![3, -2]);
        let f = Buffer::F32(vec![0.5, 0.5]);
        let Buffer::F32(sum) = binary(BinaryOp::Add, (&i, &l), (&f, &l)) else {
            panic!("i64 + f32 is f32");
        };
        assert_eq!(sum, vec![3.5, -1.5]);
        // In place, the f32 result is cast back to the destination's i64.
        let mut d = i.clone();
        binary_(&mut d, &l, BinaryOp::Add, (&f, &l));
        assert!(matches!(d, Buffer::I64(ref v) if v == &[3, -1]));
    }
}
