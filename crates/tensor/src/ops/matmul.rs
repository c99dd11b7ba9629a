//! Matrix multiplication: 2-D `matmul` and batched `bmm`.

use crate::storage::Buffer;
use crate::tensor::with_buffers;
use crate::{DType, Result, Tensor, TensorError};

impl Tensor {
    /// 2-D matrix product (`aten::matmul` for rank-2 operands).
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-2 operands, non-f32 dtypes or an inner
    /// dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        check_f32(self, "matmul")?;
        check_f32(rhs, "matmul")?;
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::invalid("matmul expects rank-2 operands"));
        }
        if self.shape()[1] != rhs.shape()[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let n = rhs.shape()[1];
        // Dense operands are read where they lie.
        let dense = |t: &Tensor| (!t.is_contiguous()).then(|| t.clone_data());
        let (a, b) = (dense(self), dense(rhs));
        let (a, b) = (a.as_ref().unwrap_or(self), b.as_ref().unwrap_or(rhs));
        let mut out = vec![0f32; m * n];
        // `chunks_exact` needs a row length; with none there is nothing to add.
        if m * k * n > 0 {
            with_buffers([a, b], |bufs| {
                let [Buffer::F32(av), Buffer::F32(bv)] = bufs else {
                    unreachable!("dtype checked above")
                };
                // Rows as slices, so the inner loops carry no bounds checks
                // and vectorise. Every cell still sums its products in
                // ascending `p` from +0.0, one rounding per step.
                let av = &av[a.layout.offset..][..m * k];
                let bv = &bv[b.layout.offset..][..k * n];
                if n == 1 {
                    for (o, arow) in out.iter_mut().zip(av.chunks_exact(k)) {
                        *o = (arow.iter().zip(bv)).fold(0.0, |acc, (&x, &y)| acc + x * y);
                    }
                } else {
                    for (orow, arow) in out.chunks_exact_mut(n).zip(av.chunks_exact(k)) {
                        for (&x, brow) in arow.iter().zip(bv.chunks_exact(n)) {
                            for (o, &y) in orow.iter_mut().zip(brow) {
                                *o += x * y;
                            }
                        }
                    }
                }
            });
        }
        Ok(Tensor::dense(Buffer::F32(out), &[m, n]))
    }

    /// Batched matrix product (`aten::bmm`): `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-3 operands or mismatched batch/inner
    /// dimensions.
    pub fn bmm(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rank() != 3 || rhs.rank() != 3 {
            return Err(TensorError::invalid("bmm expects rank-3 operands"));
        }
        if self.shape()[0] != rhs.shape()[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "bmm",
            });
        }
        let batch = self.shape()[0];
        let mut slabs = Vec::with_capacity(batch);
        for i in 0..batch {
            let a = self.select(0, i as isize)?;
            let b = rhs.select(0, i as isize)?;
            slabs.push(a.matmul(&b)?.unsqueeze(0)?);
        }
        let refs: Vec<&Tensor> = slabs.iter().collect();
        super::shape::concat(&refs, 0)
    }
}

fn check_f32(t: &Tensor, op: &'static str) -> Result<()> {
    if t.dtype() != DType::F32 {
        return Err(TensorError::DTypeMismatch {
            expected: DType::F32,
            found: t.dtype(),
            op,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec_f32(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.to_vec_f32().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::ones(&[3, 1]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.to_vec_f32().unwrap(), vec![6.0, 15.0]);
    }

    #[test]
    fn matmul_validates() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[2, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
        let i = Tensor::from_vec_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        assert!(i.matmul(&i).is_err());
    }

    #[test]
    fn matmul_on_transposed_view() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let at = a.transpose(0, 1).unwrap();
        let c = at.matmul(&Tensor::ones(&[2, 1])).unwrap();
        assert_eq!(c.to_vec_f32().unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn matmul_propagates_non_finite_operands_past_a_zero() {
        // 0 × inf and 0 × NaN are NaN (IEEE, PyTorch): a zero in A may not
        // skip its row of B.
        let a = Tensor::from_vec_f32(vec![0.0, 1.0], &[1, 2]).unwrap();
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let b = Tensor::from_vec_f32(vec![bad, 1.0], &[2, 1]).unwrap();
            assert!(a.matmul(&b).unwrap().to_vec_f32().unwrap()[0].is_nan());
            // The same through the row loop (`n > 1`).
            let b = Tensor::from_vec_f32(vec![bad, 2.0, 1.0, 3.0], &[2, 2]).unwrap();
            let c = a.matmul(&b).unwrap().to_vec_f32().unwrap();
            assert!(c[0].is_nan() && c[1] == 3.0, "{c:?}");
        }
    }

    #[test]
    fn matmul_with_an_empty_dimension() {
        let c = Tensor::zeros(&[2, 0])
            .matmul(&Tensor::zeros(&[0, 3]))
            .unwrap();
        assert_eq!(c.to_vec_f32().unwrap(), vec![0.0; 6]);
        let c = Tensor::zeros(&[0, 4])
            .matmul(&Tensor::zeros(&[4, 3]))
            .unwrap();
        assert_eq!(c.shape(), &[0, 3]);
        let c = Tensor::zeros(&[2, 4])
            .matmul(&Tensor::zeros(&[4, 0]))
            .unwrap();
        assert_eq!(c.shape(), &[2, 0]);
    }

    #[test]
    fn bmm_batches_independently() {
        let a = Tensor::from_vec_f32((1..=8).map(|v| v as f32).collect(), &[2, 2, 2]).unwrap();
        let b = Tensor::ones(&[2, 2, 2]);
        let c = a.bmm(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(
            c.to_vec_f32().unwrap(),
            vec![3.0, 3.0, 7.0, 7.0, 11.0, 11.0, 15.0, 15.0]
        );
        assert!(a.bmm(&Tensor::ones(&[3, 2, 2])).is_err());
    }
}
