//! What an IR operator means to the tensor core: the one mapping from the
//! elementwise kinds to the op table and from [`ViewKind`] to the view
//! algebra, shared by the interpreter and the fused evaluator.

use tssa_ir::{BinaryKind, ScalarType, UnaryKind, ViewKind};
use tssa_tensor::{BinaryOp, DType, Layout, UnaryOp};

use crate::ExecError;

/// The element function of `kind`. `scalar(i)` reads the node's i-th
/// operand as a host float.
pub(crate) fn unary_op(
    kind: UnaryKind,
    scalar: impl Fn(usize) -> Result<f32, ExecError>,
) -> Result<UnaryOp, ExecError> {
    Ok(match kind {
        UnaryKind::Neg => UnaryOp::Neg,
        UnaryKind::Relu => UnaryOp::Relu,
        UnaryKind::Sigmoid => UnaryOp::Sigmoid,
        UnaryKind::Tanh => UnaryOp::Tanh,
        UnaryKind::Exp => UnaryOp::Exp,
        UnaryKind::Log => UnaryOp::Log,
        UnaryKind::Sqrt => UnaryOp::Sqrt,
        UnaryKind::Abs => UnaryOp::Abs,
        UnaryKind::LogicalNot => UnaryOp::Not,
        UnaryKind::AddScalar => UnaryOp::AddC(scalar(1)?),
        UnaryKind::SubScalar => UnaryOp::SubC(scalar(1)?),
        UnaryKind::MulScalar => UnaryOp::MulC(scalar(1)?),
        UnaryKind::DivScalar => UnaryOp::DivC(scalar(1)?),
        UnaryKind::PowScalar => UnaryOp::PowC(scalar(1)?),
        UnaryKind::Clamp => UnaryOp::Clamp(scalar(1)?, scalar(2)?),
    })
}

/// The element function of `kind`.
pub(crate) fn binary_op(kind: BinaryKind) -> BinaryOp {
    match kind {
        BinaryKind::Add => BinaryOp::Add,
        BinaryKind::Sub => BinaryOp::Sub,
        BinaryKind::Mul => BinaryOp::Mul,
        BinaryKind::Div => BinaryOp::Div,
        BinaryKind::Maximum => BinaryOp::Max,
        BinaryKind::Minimum => BinaryOp::Min,
        BinaryKind::Pow => BinaryOp::Pow,
        BinaryKind::Gt => BinaryOp::Gt,
        BinaryKind::Lt => BinaryOp::Lt,
        BinaryKind::Ge => BinaryOp::Ge,
        BinaryKind::Le => BinaryOp::Le,
        BinaryKind::Eq => BinaryOp::Eq,
        BinaryKind::LogicalAnd => BinaryOp::And,
        BinaryKind::LogicalOr => BinaryOp::Or,
    }
}

pub(crate) fn dtype_of(ty: ScalarType) -> DType {
    match ty {
        ScalarType::F32 => DType::F32,
        ScalarType::I64 => DType::I64,
        ScalarType::Bool => DType::Bool,
    }
}

/// `base` seen through the view operator `kind`. `int(i)` reads the
/// operator's i-th extra operand (select index, slice bounds) as a host
/// integer.
pub(crate) fn view_layout(
    kind: &ViewKind,
    base: &Layout,
    int: impl Fn(usize) -> Result<i64, ExecError>,
) -> Result<Layout, ExecError> {
    // Saturating: a bound that does not fit is out of range either way.
    let at = |v: i64| v.clamp(isize::MIN as i64, isize::MAX as i64) as isize;
    Ok(match kind {
        ViewKind::Select { dim } => base.select(at(*dim), at(int(0)?))?,
        ViewKind::SliceView { dim } => {
            base.slice(at(*dim), at(int(0)?), at(int(1)?), at(int(2)?))?
        }
        ViewKind::Permute { perm } => {
            let dim = |_, p: i64| usize::try_from(p).unwrap_or(usize::MAX);
            with_dims(perm, dim, |perm| base.permute(perm))?
        }
        ViewKind::Transpose { dim0, dim1 } => base.transpose(at(*dim0), at(*dim1))?,
        ViewKind::Unsqueeze { dim } => base.unsqueeze(at(*dim))?,
        ViewKind::Squeeze { dim } => base.squeeze(at(*dim))?,
        ViewKind::Expand { shape } => {
            // A -1 keeps the (right-aligned) base dimension.
            let pad = shape.len().saturating_sub(base.shape().len());
            let dim = |i, d: i64| match d {
                -1 if i >= pad => base.shape()[i - pad],
                _ => d.max(0) as usize,
            };
            with_dims(shape, dim, |target| base.broadcast_to(target))?
        }
        ViewKind::ViewShape { shape } => with_dims(shape, |_, d| at(d), |s| base.view(s))?,
    })
}

/// `go` on the IR dims `dims`, each mapped by `f(index, dim)` to what the
/// view algebra takes: on the stack up to rank 8, which no program reaches.
pub(crate) fn with_dims<T: Copy + Default, R>(
    dims: &[i64],
    f: impl Fn(usize, i64) -> T,
    go: impl FnOnce(&[T]) -> R,
) -> R {
    let mapped = dims.iter().enumerate().map(|(i, &d)| f(i, d));
    let mut stack = [T::default(); 8];
    if dims.len() > stack.len() {
        return go(&mapped.collect::<Vec<_>>());
    }
    stack.iter_mut().zip(mapped).for_each(|(o, v)| *o = v);
    go(&stack[..dims.len()])
}
