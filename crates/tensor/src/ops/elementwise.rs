//! Elementwise operators (pure: always allocate a fresh tensor), with
//! NumPy-style broadcasting of binary operands.

use crate::kernel::{self, BinaryOp, UnaryOp};
use crate::layout::broadcast_shapes;
use crate::tensor::with_buffers;
use crate::{Result, Tensor};

impl Tensor {
    /// `op` applied to every element (`aten::relu`, `aten::clamp`,
    /// `aten::add(t, s)`, …).
    ///
    /// # Errors
    ///
    /// As [`UnaryOp::result_dtype`].
    pub fn unary(&self, op: UnaryOp) -> Result<Tensor> {
        let buffer = kernel::unary(op, (&self.storage.read(), &self.layout))?;
        Ok(Tensor::dense(buffer, self.shape()))
    }

    /// `op` applied pairwise with broadcasting (`aten::add`, `aten::gt`, …).
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes do not broadcast.
    pub fn binary(&self, op: BinaryOp, rhs: &Tensor) -> Result<Tensor> {
        let shape = broadcast_shapes(self.shape(), rhs.shape(), "binary")?;
        let (la, lb) = (
            self.layout.broadcast_to(&shape)?,
            rhs.layout.broadcast_to(&shape)?,
        );
        let buffer = with_buffers([self, rhs], |[a, b]| kernel::binary(op, (a, &la), (b, &lb)));
        Ok(Tensor::dense(buffer, &shape))
    }

    /// Elementwise absolute value (`aten::abs`); the identity on bool.
    pub fn abs(&self) -> Tensor {
        self.unary(UnaryOp::Abs).expect("defined on every dtype")
    }

    /// Elementwise logistic sigmoid (`aten::sigmoid`).
    pub fn sigmoid(&self) -> Tensor {
        self.unary(UnaryOp::Sigmoid)
            .expect("defined on every dtype")
    }

    /// Elementwise addition with broadcasting (`aten::add`).
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes do not broadcast.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(BinaryOp::Add, rhs)
    }
}

/// Elementwise select: `cond ? a : b` with broadcasting (`aten::where`).
///
/// # Errors
///
/// Returns an error if `cond` is not boolean or shapes do not broadcast.
pub fn where_select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let shape = broadcast_shapes(a.shape(), b.shape(), "where")?;
    let shape = broadcast_shapes(cond.shape(), &shape, "where")?;
    let (lc, la, lb) = (
        cond.layout.broadcast_to(&shape)?,
        a.layout.broadcast_to(&shape)?,
        b.layout.broadcast_to(&shape)?,
    );
    let buffer = with_buffers([cond, a, b], |[c, x, y]| {
        kernel::select((c, &lc), (x, &la), (y, &lb))
    })?;
    Ok(Tensor::dense(buffer, &shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn f32s(data: &[f32]) -> Tensor {
        Tensor::from_vec_f32(data.to_vec(), &[data.len()]).unwrap()
    }

    fn un(t: &Tensor, op: UnaryOp) -> Vec<f32> {
        t.unary(op).unwrap().to_vec_f32().unwrap()
    }

    fn bin(a: &Tensor, op: BinaryOp, b: &Tensor) -> Tensor {
        a.binary(op, b).unwrap()
    }

    #[test]
    fn unary_ops_do_not_mutate_input() {
        let t = f32s(&[-2.0, 3.0]);
        let r = t.unary(UnaryOp::Relu).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![0.0, 3.0]);
        assert_eq!(t.to_vec_f32().unwrap(), vec![-2.0, 3.0]);
        assert!(!r.shares_storage_with(&t));
    }

    #[test]
    fn math_ops() {
        let t = f32s(&[0.0, 1.0]);
        assert_eq!(un(&t, UnaryOp::Exp)[0], 1.0);
        assert_eq!(t.sigmoid().to_vec_f32().unwrap()[0], 0.5);
        assert_eq!(un(&t, UnaryOp::Neg), vec![0.0, -1.0]);
        assert_eq!(un(&t, UnaryOp::AddC(2.0)), vec![2.0, 3.0]);
        assert_eq!(un(&t, UnaryOp::MulC(3.0)), vec![0.0, 3.0]);
        assert_eq!(un(&t, UnaryOp::PowC(2.0)), vec![0.0, 1.0]);
    }

    #[test]
    fn neg_and_abs_keep_the_operand_dtype() {
        let t = Tensor::from_vec_i64(vec![-3, 4], &[2]).unwrap();
        let neg = t.unary(UnaryOp::Neg).unwrap();
        assert_eq!(neg.to_vec_i64().unwrap(), vec![3, -4]);
        assert_eq!(t.abs().to_vec_i64().unwrap(), vec![3, 4]);
        let b = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        assert_eq!(b.abs(), b);
        assert!(b.unary(UnaryOp::Neg).is_err());
    }

    #[test]
    fn clamp_validates_bounds() {
        let t = f32s(&[-5.0, 5.0]);
        assert_eq!(un(&t, UnaryOp::Clamp(-1.0, 1.0)), vec![-1.0, 1.0]);
        assert!(t.unary(UnaryOp::Clamp(1.0, -1.0)).is_err());
        assert!(t.unary(UnaryOp::Clamp(f32::NAN, 1.0)).is_err());
        assert!(t.unary(UnaryOp::Clamp(-1.0, f32::NAN)).is_err());
    }

    #[test]
    fn logical_not_produces_bool() {
        let t = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let not = t.unary(UnaryOp::Not).unwrap();
        assert_eq!(not.to_vec_bool().unwrap(), vec![false, true]);
    }

    #[test]
    fn unary_through_view_reads_view_layout() {
        let t = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let col = t.transpose(0, 1).unwrap().select(0, 1).unwrap();
        assert_eq!(un(&col, UnaryOp::Neg), vec![-2.0, -4.0]);
    }

    #[test]
    fn add_broadcasts() {
        let a = f32s(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_vec_f32(vec![10.0, 20.0], &[2, 1]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(
            c.to_vec_f32().unwrap(),
            vec![11.0, 12.0, 13.0, 21.0, 22.0, 23.0]
        );
        assert!(Tensor::zeros(&[2]).add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn dtype_promotion() {
        let f = f32s(&[1.5]);
        let i = Tensor::from_vec_i64(vec![2], &[1]).unwrap();
        assert_eq!(f.add(&i).unwrap().dtype(), DType::F32);
        assert_eq!(i.add(&i).unwrap().dtype(), DType::I64);
        assert_eq!(bin(&i, BinaryOp::Div, &i).dtype(), DType::F32);
        // An operand added to itself locks its storage once.
        assert_eq!(f.add(&f).unwrap().to_vec_f32().unwrap(), vec![3.0]);
    }

    #[test]
    fn comparisons_and_logic_yield_bool() {
        let (a, b) = (f32s(&[1.0, 5.0]), f32s(&[3.0, 3.0]));
        let bools = |t: Tensor| t.to_vec_bool().unwrap();
        assert_eq!(bools(bin(&a, BinaryOp::Gt, &b)), vec![false, true]);
        assert_eq!(bools(bin(&a, BinaryOp::Le, &b)), vec![true, false]);
        assert_eq!(bools(bin(&a, BinaryOp::Eq, &a)), vec![true, true]);
        let p = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let q = Tensor::from_vec_bool(vec![true, true], &[2]).unwrap();
        assert_eq!(bools(bin(&p, BinaryOp::And, &q)), vec![true, false]);
        assert_eq!(bools(bin(&p, BinaryOp::Or, &q)), vec![true, true]);
    }

    #[test]
    fn min_max_pow() {
        let (a, b) = (f32s(&[1.0, 4.0]), f32s(&[2.0, 3.0]));
        let f32s = |t: Tensor| t.to_vec_f32().unwrap();
        assert_eq!(f32s(bin(&a, BinaryOp::Max, &b)), vec![2.0, 4.0]);
        assert_eq!(f32s(bin(&a, BinaryOp::Min, &b)), vec![1.0, 3.0]);
        assert_eq!(f32s(bin(&a, BinaryOp::Pow, &b)), vec![1.0, 64.0]);
    }

    #[test]
    fn binary_on_views_respects_strides() {
        let t = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c0 = t.transpose(0, 1).unwrap().select(0, 0).unwrap(); // column [1, 3]
        let c1 = t.transpose(0, 1).unwrap().select(0, 1).unwrap(); // column [2, 4]
        assert_eq!(c0.add(&c1).unwrap().to_vec_f32().unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn where_selects_elementwise() {
        let cond = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let a = Tensor::full(&[2], 1.0);
        let b = Tensor::full(&[2], 2.0);
        let r = where_select(&cond, &a, &b).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![1.0, 2.0]);
        assert!(where_select(&a, &a, &b).is_err());
    }

    #[test]
    fn where_broadcasts_condition() {
        let cond = Tensor::from_vec_bool(vec![true, false], &[2, 1]).unwrap();
        let a = Tensor::full(&[2, 3], 1.0);
        let b = Tensor::full(&[2, 3], 0.0);
        let r = where_select(&cond, &a, &b).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
