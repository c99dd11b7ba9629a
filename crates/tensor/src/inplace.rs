//! In-place mutation operators (`Mutate(v, w)` in the paper, Definition 3.2).
//!
//! These write through the receiver's storage; any tensor aliasing that
//! storage observes the change. Sources broadcast to the receiver's shape
//! following PyTorch semantics. `x.op_(…)` stores what the pure `op(x, …)`
//! computes, cast to `x`'s element type — the rule the TensorSSA conversion
//! rewrites mutations by.

use crate::kernel::{self, BinaryOp, UnaryOp};
use crate::storage::Buffer;
use crate::{Layout, Result, Scalar, Tensor};

impl Tensor {
    /// Run `f` on this view's buffer, write-locked, and on `src` broadcast
    /// to this shape. A source in the same storage is read out first, so an
    /// overlapping write sees the old values throughout.
    fn update_from(
        &self,
        src: &Tensor,
        f: impl FnOnce(&mut Buffer, (&Buffer, &Layout)),
    ) -> Result<()> {
        if src.shares_storage_with(self) {
            let snapshot = src.to_buffer();
            let layout = Layout::contiguous(src.shape())?.broadcast_to(self.shape())?;
            f(&mut self.storage.write(), (&snapshot, &layout));
        } else {
            let layout = src.layout.broadcast_to(self.shape())?;
            f(&mut self.storage.write(), (&src.storage.read(), &layout));
        }
        Ok(())
    }

    /// Replace this view's data with `src` (broadcast), i.e. `aten::copy_`.
    ///
    /// # Errors
    ///
    /// Returns an error if `src` does not broadcast to this shape.
    pub fn copy_(&self, src: &Tensor) -> Result<()> {
        self.update_from(src, |dst, src| kernel::write(dst, &self.layout, src))
    }

    /// Fill every element with `value`, i.e. `aten::fill_`.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for interface uniformity with the
    /// other mutators.
    pub fn fill_(&self, value: f32) -> Result<()> {
        kernel::fill(&mut self.storage.write(), &self.layout, Scalar::F32(value));
        Ok(())
    }

    /// `self ← op(self)` elementwise (`aten::relu_`, `aten::clamp_`, …).
    /// Through a stride-0 view each logical element reads what the previous
    /// one wrote.
    ///
    /// # Errors
    ///
    /// As [`UnaryOp::result_dtype`].
    pub fn unary_(&self, op: UnaryOp) -> Result<()> {
        kernel::unary_(&mut self.storage.write(), &self.layout, op)
    }

    /// `self += value` for a scalar, i.e. `aten::add_(t, s)`.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for interface uniformity.
    pub fn add_scalar_(&self, value: f32) -> Result<()> {
        self.unary_(UnaryOp::AddC(value))
    }

    /// `self ← op(self, src)` elementwise with `src` broadcast
    /// (`aten::add_`, `aten::mul_`, …).
    ///
    /// # Errors
    ///
    /// Returns an error if `src` does not broadcast to this shape.
    pub fn binary_(&self, op: BinaryOp, src: &Tensor) -> Result<()> {
        self.update_from(src, |dst, src| kernel::binary_(dst, &self.layout, op, src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn iota(shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec_f32((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn copy_through_view_mutates_base() {
        let a = iota(&[2, 3]);
        let b = a.select(0, 0).unwrap();
        b.copy_(&Tensor::full(&[3], -1.0)).unwrap();
        assert_eq!(
            a.to_vec_f32().unwrap(),
            vec![-1.0, -1.0, -1.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn copy_broadcasts_source() {
        let a = iota(&[2, 3]);
        a.copy_(&Tensor::full(&[1], 5.0)).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![5.0; 6]);
        assert!(a.copy_(&iota(&[4])).is_err());
        assert!(a.copy_(&iota(&[1, 2, 3])).is_err());
    }

    #[test]
    fn arith_mutators() {
        let a = iota(&[3]);
        a.binary_(BinaryOp::Add, &Tensor::full(&[3], 1.0)).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![1.0, 2.0, 3.0]);
        a.unary_(UnaryOp::MulC(2.0)).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![2.0, 4.0, 6.0]);
        a.binary_(BinaryOp::Sub, &Tensor::full(&[3], 2.0)).unwrap();
        a.binary_(BinaryOp::Div, &Tensor::full(&[3], 2.0)).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![0.0, 1.0, 2.0]);
        assert!(a.binary_(BinaryOp::Mul, &iota(&[2])).is_err());
    }

    #[test]
    fn unary_mutators() {
        let a = Tensor::from_vec_f32(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        a.unary_(UnaryOp::Relu).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![0.0, 0.0, 2.0]);
        a.unary_(UnaryOp::Clamp(0.0, 1.0)).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![0.0, 0.0, 1.0]);
        assert!(a.unary_(UnaryOp::Clamp(2.0, 1.0)).is_err());
        assert!(a.unary_(UnaryOp::Clamp(f32::NAN, 1.0)).is_err());
        let s = Tensor::from_vec_f32(vec![0.0], &[1]).unwrap();
        s.unary_(UnaryOp::Sigmoid).unwrap();
        assert_eq!(s.to_vec_f32().unwrap(), vec![0.5]);
    }

    #[test]
    fn integer_and_bool_receivers_keep_their_dtype() {
        let big = (1i64 << 53) + 1;
        let t = Tensor::from_vec_i64(vec![big, -3], &[2]).unwrap();
        t.binary_(
            BinaryOp::Add,
            &Tensor::from_vec_i64(vec![0, 1], &[2]).unwrap(),
        )
        .unwrap();
        t.unary_(UnaryOp::Neg).unwrap();
        assert_eq!(t.to_vec_i64().unwrap(), vec![-big, 2]);
        t.unary_(UnaryOp::Relu).unwrap();
        assert_eq!(t.to_vec_i64().unwrap(), vec![0, 2]);
        let b = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        assert!(b.unary_(UnaryOp::Neg).is_err());
        b.unary_(UnaryOp::Not).unwrap();
        assert_eq!(b.to_vec_bool().unwrap(), vec![false, true]);
        assert_eq!(b.dtype(), DType::Bool);
    }

    #[test]
    fn overlapping_copy_reads_before_writing() {
        // a[0:2] = a[1:3] with overlap must behave as if the source were
        // snapshotted first.
        let a = iota(&[4]);
        let dst = a.slice(0, 0, 2, 1).unwrap();
        let src = a.slice(0, 1, 3, 1).unwrap();
        dst.copy_(&src).unwrap();
        assert_eq!(a.to_vec_f32().unwrap(), vec![1.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn fill_preserves_dtype() {
        let t = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        t.fill_(7.9).unwrap();
        assert_eq!(t.to_vec_i64().unwrap(), vec![7, 7]);
    }

    #[test]
    fn mutation_through_expand_writes_shared_element() {
        // Writing through a stride-0 view hits the same storage cell.
        let t = Tensor::zeros(&[1]);
        let e = t.expand(&[3]).unwrap();
        e.add_scalar_(1.0).unwrap();
        // Three logical elements all map to one physical cell: 0 +1 +1 +1.
        assert_eq!(t.to_vec_f32().unwrap(), vec![3.0]);
    }
}
