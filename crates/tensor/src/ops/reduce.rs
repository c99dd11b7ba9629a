//! Reductions: whole-tensor and along one dimension.

use crate::kernel::{for_each_row, typed, BinaryOp, Elem, UnaryOp};
use crate::layout::{normalize_dim, Dims};
use crate::storage::Buffer;
use crate::{Layout, Result, Tensor};

/// An operand over `shape` that is nowhere, but whose "address" is the
/// coordinate along `d`: walking it gives a row loop its index.
fn index_along(shape: &[usize], d: usize) -> Layout {
    Layout {
        offset: 0,
        shape: shape.into(),
        strides: Dims::from_fn(shape.len(), |i| usize::from(i == d)),
    }
}

impl Tensor {
    /// Fold every element, as f64, in row-major order.
    fn fold_all(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> f32 {
        let l = &self.layout;
        let mut acc = init;
        typed!(&*self.storage.read(), |x| for_each_row(
            &l.shape,
            [l],
            |len, [at], [step]| {
                for i in 0..len {
                    acc = f(acc, x[at + i * step].f64());
                }
            }
        ));
        acc as f32
    }

    /// Sum of all elements, as `f32`.
    pub fn sum_all(&self) -> f32 {
        self.fold_all(0.0, |a, b| a + b)
    }

    /// Maximum of all elements, as `f32` (`-inf` for empty tensors).
    pub fn max_all(&self) -> f32 {
        self.fold_all(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum of all elements, as `f32` (`+inf` for empty tensors).
    pub fn min_all(&self) -> f32 {
        self.fold_all(f64::INFINITY, f64::min)
    }

    /// `dim` normalized, and the shape with it set to 1: one cell per
    /// reduction.
    fn cells(&self, dim: isize) -> Result<(usize, Dims)> {
        let d = normalize_dim(dim, self.rank())?;
        let mut shape = Dims::from(self.shape());
        shape[d] = 1;
        Ok((d, shape))
    }

    /// Visit every element in row-major order as `f(i, cell, value)`: its
    /// index along `d`, the row-major index of its cell in `cells` and its
    /// value as f64. Each cell therefore sees its inputs in increasing `i`.
    fn walk_dim(&self, d: usize, cells: &[usize], mut f: impl FnMut(usize, usize, f64)) {
        let cells = Layout::contiguous(cells)
            .and_then(|l| l.broadcast_to(self.shape()))
            .expect("unit dims broadcast");
        let index = index_along(self.shape(), d);
        let l = &self.layout;
        typed!(&*self.storage.read(), |x| for_each_row(
            &l.shape,
            [l, &cells, &index],
            |len, [at, cell, i], [step, cell_step, i_step]| {
                for k in 0..len {
                    f(i + k * i_step, cell + k * cell_step, x[at + k * step].f64());
                }
            }
        ));
    }

    fn finish_dim(out: Tensor, d: usize, keepdim: bool) -> Result<Tensor> {
        if keepdim {
            Ok(out)
        } else {
            out.squeeze(d as isize)
        }
    }

    fn reduce_dim(
        &self,
        dim: isize,
        keepdim: bool,
        init: f64,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Tensor> {
        let (d, shape) = self.cells(dim)?;
        let mut acc = vec![init; shape.iter().product()];
        self.walk_dim(d, &shape, |_, cell, v| acc[cell] = f(acc[cell], v));
        let data = Buffer::F32(acc.into_iter().map(|v| v as f32).collect());
        Tensor::finish_dim(Tensor::dense(data, &shape), d, keepdim)
    }

    /// Sum along `dim` (`aten::sum.dim`).
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn sum_dim(&self, dim: isize, keepdim: bool) -> Result<Tensor> {
        self.reduce_dim(dim, keepdim, 0.0, |a, b| a + b)
    }

    /// Mean along `dim` (`aten::mean.dim`).
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn mean_dim(&self, dim: isize, keepdim: bool) -> Result<Tensor> {
        let n = self.size(dim)? as f32;
        self.sum_dim(dim, keepdim)?.unary(UnaryOp::DivC(n))
    }

    /// Maximum along `dim` (`aten::max.dim`, values only).
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn max_dim(&self, dim: isize, keepdim: bool) -> Result<Tensor> {
        self.reduce_dim(dim, keepdim, f64::NEG_INFINITY, f64::max)
    }

    /// Minimum along `dim` (`aten::min.dim`, values only).
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn min_dim(&self, dim: isize, keepdim: bool) -> Result<Tensor> {
        self.reduce_dim(dim, keepdim, f64::INFINITY, f64::min)
    }

    /// Index of the maximum along `dim` (`aten::argmax`), as an i64 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn argmax_dim(&self, dim: isize, keepdim: bool) -> Result<Tensor> {
        let (d, shape) = self.cells(dim)?;
        let mut best = vec![f64::NEG_INFINITY; shape.iter().product()];
        let mut idx = vec![0i64; best.len()];
        self.walk_dim(d, &shape, |i, cell, v| {
            if v > best[cell] {
                best[cell] = v;
                idx[cell] = i as i64;
            }
        });
        let out = Tensor::dense(Buffer::I64(idx), &shape);
        Tensor::finish_dim(out, d, keepdim)
    }

    /// Numerically-stable softmax along `dim` (`aten::softmax`).
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn softmax(&self, dim: isize) -> Result<Tensor> {
        let max = self.max_dim(dim, true)?;
        let e = self.binary(BinaryOp::Sub, &max)?.unary(UnaryOp::Exp)?;
        let z = e.sum_dim(dim, true)?;
        e.binary(BinaryOp::Div, &z)
    }

    /// Cumulative sum along `dim` (`aten::cumsum`), in the operand's dtype.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn cumsum(&self, dim: isize) -> Result<Tensor> {
        let d = normalize_dim(dim, self.rank())?;
        let mut out = self.to_buffer();
        let l = Layout::contiguous(self.shape())?;
        let index = index_along(self.shape(), d);
        let back = l.strides[d];
        // Row-major order reaches `i - 1` along `d` before `i`.
        typed!(&mut out, |x| for_each_row(
            &l.shape,
            [&l, &index],
            |len, [at, i], [step, i_step]| {
                for k in (0..len).filter(|k| i + k * i_step > 0) {
                    let o = at + k * step;
                    x[o] = x[o].add(x[o - back]);
                }
            }
        ));
        Ok(Tensor::dense(out, &l.shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec_f32((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn whole_tensor_reductions() {
        let t = iota(&[2, 3]);
        assert_eq!(t.sum_all(), 15.0);
        assert_eq!(t.max_all(), 5.0);
        assert_eq!(t.min_all(), 0.0);
        assert_eq!(t.transpose(0, 1).unwrap().sum_all(), 15.0);
        assert_eq!(iota(&[0]).max_all(), f32::NEG_INFINITY);
    }

    #[test]
    fn dim_reductions() {
        let t = iota(&[2, 3]);
        assert_eq!(
            t.sum_dim(0, false).unwrap().to_vec_f32().unwrap(),
            vec![3.0, 5.0, 7.0]
        );
        assert_eq!(
            t.sum_dim(1, false).unwrap().to_vec_f32().unwrap(),
            vec![3.0, 12.0]
        );
        assert_eq!(t.sum_dim(1, true).unwrap().shape(), &[2, 1]);
        assert_eq!(
            t.max_dim(1, false).unwrap().to_vec_f32().unwrap(),
            vec![2.0, 5.0]
        );
        assert_eq!(
            t.min_dim(0, false).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 1.0, 2.0]
        );
        assert_eq!(
            t.mean_dim(1, false).unwrap().to_vec_f32().unwrap(),
            vec![1.0, 4.0]
        );
        assert!(t.sum_dim(2, false).is_err());
        assert!(iota(&[]).sum_dim(0, false).is_err());
        assert_eq!(
            iota(&[2, 0]).sum_dim(1, false).unwrap(),
            Tensor::zeros(&[2])
        );
    }

    #[test]
    fn argmax_picks_first_max() {
        let t = Tensor::from_vec_f32(vec![1.0, 3.0, 3.0, 0.0], &[2, 2]).unwrap();
        assert_eq!(
            t.argmax_dim(1, false).unwrap().to_vec_i64().unwrap(),
            vec![1, 0]
        );
        assert_eq!(
            t.argmax_dim(0, true).unwrap().to_vec_i64().unwrap(),
            vec![1, 0]
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = iota(&[2, 4]);
        let s = t.softmax(1).unwrap();
        for r in 0..2 {
            let row: f32 = s.select(0, r).unwrap().sum_all();
            assert!((row - 1.0).abs() < 1e-6);
        }
        // Softmax is shift-invariant; large values stay finite.
        let big = Tensor::from_vec_f32(vec![1000.0, 1001.0], &[2]).unwrap();
        let s = big.softmax(0).unwrap().to_vec_f32().unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cumsum_along_dim() {
        let t = iota(&[4]);
        assert_eq!(
            t.cumsum(0).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 1.0, 3.0, 6.0]
        );
        let m = iota(&[2, 2]);
        assert_eq!(
            m.cumsum(0).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 1.0, 2.0, 4.0]
        );
        assert_eq!(
            m.cumsum(-1).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 1.0, 2.0, 5.0]
        );
        let big = Tensor::from_vec_i64(vec![(1 << 53) + 1, 1], &[2]).unwrap();
        assert_eq!(
            big.cumsum(0).unwrap().to_vec_i64().unwrap()[1],
            (1 << 53) + 2
        );
    }
}
