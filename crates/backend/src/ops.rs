//! What an IR operator means to the tensor core: the one mapping from
//! [`Op`] to the op table and from [`ViewKind`] to the view algebra, shared
//! by the interpreter and the fused evaluator.

use tssa_ir::{Op, ScalarType, ViewKind};
use tssa_tensor::{BinaryOp, DType, Layout, UnaryOp};

use crate::ExecError;

/// An elementwise operator, its scalar operands folded in.
pub(crate) enum Elementwise {
    Unary(UnaryOp),
    Binary(BinaryOp),
}

/// The element function of `op`, if it is elementwise. `scalar(i)` reads the
/// node's i-th operand as a host float.
pub(crate) fn elementwise(
    op: &Op,
    scalar: impl Fn(usize) -> Result<f32, ExecError>,
) -> Result<Option<Elementwise>, ExecError> {
    use Elementwise::{Binary, Unary};
    Ok(Some(match op {
        Op::Neg => Unary(UnaryOp::Neg),
        Op::Relu => Unary(UnaryOp::Relu),
        Op::Sigmoid => Unary(UnaryOp::Sigmoid),
        Op::Tanh => Unary(UnaryOp::Tanh),
        Op::Exp => Unary(UnaryOp::Exp),
        Op::Log => Unary(UnaryOp::Log),
        Op::Sqrt => Unary(UnaryOp::Sqrt),
        Op::Abs => Unary(UnaryOp::Abs),
        Op::LogicalNot => Unary(UnaryOp::Not),
        Op::AddScalar => Unary(UnaryOp::AddC(scalar(1)?)),
        Op::MulScalar => Unary(UnaryOp::MulC(scalar(1)?)),
        Op::SubScalar => Unary(UnaryOp::SubC(scalar(1)?)),
        Op::DivScalar => Unary(UnaryOp::DivC(scalar(1)?)),
        Op::PowScalar => Unary(UnaryOp::PowC(scalar(1)?)),
        Op::Clamp => Unary(UnaryOp::Clamp(scalar(1)?, scalar(2)?)),
        Op::Add => Binary(BinaryOp::Add),
        Op::Sub => Binary(BinaryOp::Sub),
        Op::Mul => Binary(BinaryOp::Mul),
        Op::Div => Binary(BinaryOp::Div),
        Op::Maximum => Binary(BinaryOp::Max),
        Op::Minimum => Binary(BinaryOp::Min),
        Op::Pow => Binary(BinaryOp::Pow),
        Op::Gt => Binary(BinaryOp::Gt),
        Op::Lt => Binary(BinaryOp::Lt),
        Op::Ge => Binary(BinaryOp::Ge),
        Op::Le => Binary(BinaryOp::Le),
        Op::EqElem => Binary(BinaryOp::Eq),
        Op::LogicalAnd => Binary(BinaryOp::And),
        Op::LogicalOr => Binary(BinaryOp::Or),
        _ => return Ok(None),
    }))
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
