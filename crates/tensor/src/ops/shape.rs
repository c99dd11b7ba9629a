//! Shape-combining operators: `concat`, `stack`, `gather`, `index_select`.

use crate::kernel::{for_each_row, typed};
use crate::layout::normalize_dim;
use crate::tensor::with_buffers;
use crate::{Buffer, DType, Layout, Result, Tensor, TensorError};

/// Concatenate tensors along `dim` (`aten::cat`).
///
/// # Errors
///
/// Returns an error if `tensors` is empty, shapes disagree outside `dim`, or
/// dtypes differ.
pub fn concat(tensors: &[&Tensor], dim: isize) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::invalid("concat of zero tensors"));
    }
    let first = tensors[0];
    let d = normalize_dim(dim, first.rank())?;
    let mut out_shape = first.shape().to_vec();
    let mut total = 0usize;
    for t in tensors {
        if t.rank() != first.rank() || t.dtype() != first.dtype() {
            return Err(TensorError::invalid(
                "concat operands must agree in rank and dtype",
            ));
        }
        for i in 0..first.rank() {
            if i != d && t.shape()[i] != first.shape()[i] {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                    op: "concat",
                });
            }
        }
        total += t.shape()[d];
    }
    out_shape[d] = total;
    let out = Tensor::zeros_dtype(&out_shape, first.dtype());
    let mut cursor = 0isize;
    for t in tensors {
        let len = t.shape()[d];
        let dst = out.slice(d as isize, cursor, cursor + len as isize, 1)?;
        dst.copy_(t)?;
        cursor += len as isize;
    }
    Ok(out)
}

/// Stack tensors along a new leading `dim` (`aten::stack`).
///
/// # Errors
///
/// Returns an error if `tensors` is empty or shapes/dtypes disagree.
pub fn stack(tensors: &[&Tensor], dim: isize) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::invalid("stack of zero tensors"));
    }
    let mut unsqueezed = Vec::with_capacity(tensors.len());
    for t in tensors {
        unsqueezed.push(t.unsqueeze(dim)?);
    }
    let refs: Vec<&Tensor> = unsqueezed.iter().collect();
    concat(&refs, dim)
}

impl Tensor {
    /// Gather elements along `dim` using integer `index` (`aten::gather`).
    ///
    /// `index` must have the same rank as `self`; the output has `index`'s
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns an error if ranks differ, `index` is not i64, or an index is
    /// out of range.
    pub fn gather(&self, dim: isize, index: &Tensor) -> Result<Tensor> {
        let d = normalize_dim(dim, self.rank())?;
        if index.dtype() != DType::I64 {
            return Err(TensorError::DTypeMismatch {
                expected: DType::I64,
                found: index.dtype(),
                op: "gather",
            });
        }
        if index.rank() != self.rank() {
            return Err(TensorError::invalid(
                "gather index rank must match input rank",
            ));
        }
        let size = self.shape()[d];
        let fits = |(k, (&i, &s)): (usize, (&usize, &usize))| k == d || i <= s;
        if !(index.shape().iter().zip(self.shape()).enumerate()).all(fits) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: index.shape().to_vec(),
                op: "gather",
            });
        }
        // The source at index 0 along `d`, walked in step with `index`.
        let mut base = Layout {
            shape: index.shape().into(),
            ..self.layout.clone()
        };
        let along = std::mem::take(&mut base.strides[d]);
        let mut bad = None;
        let out = with_buffers([self, index], |[src, ib]| {
            let Buffer::I64(ids) = ib else {
                unreachable!("dtype checked above")
            };
            typed!(src, |x| {
                let mut out = Vec::with_capacity(index.numel());
                for_each_row(
                    index.shape(),
                    [&index.layout, &base],
                    |len, [ii, at], [i_step, step]| {
                        out.extend((0..len).map(|k| {
                            let i = ids[ii + k * i_step];
                            match usize::try_from(i) {
                                Ok(i) if i < size => x[at + k * step + i * along],
                                _ => {
                                    bad = bad.or(Some(i));
                                    Default::default()
                                }
                            }
                        }));
                    },
                );
                crate::kernel::Elem::wrap(out)
            })
        });
        match bad {
            Some(i) => Err(TensorError::IndexOutOfRange {
                index: i as isize,
                size,
                dim: d,
            }),
            None => Ok(Tensor::dense(out, index.shape())),
        }
    }

    /// Select whole slices along `dim` by integer indices
    /// (`aten::index_select`).
    ///
    /// # Errors
    ///
    /// Returns an error if `index` is not a 1-D i64 tensor or any index is
    /// out of range.
    pub fn index_select(&self, dim: isize, index: &Tensor) -> Result<Tensor> {
        let d = normalize_dim(dim, self.rank())?;
        if index.dtype() != DType::I64 || index.rank() != 1 {
            return Err(TensorError::invalid("index_select needs a 1-D i64 index"));
        }
        let ids = index.to_vec_i64()?;
        let mut slices = Vec::with_capacity(ids.len());
        for &i in &ids {
            slices.push(self.select(d as isize, i as isize)?.unsqueeze(d as isize)?);
        }
        let refs: Vec<&Tensor> = slices.iter().collect();
        concat(&refs, d as isize)
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
    fn concat_rows_and_cols() {
        let a = iota(&[1, 2]);
        let b = iota(&[1, 2]);
        let r = concat(&[&a, &b], 0).unwrap();
        assert_eq!(r.shape(), &[2, 2]);
        let c = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape(), &[1, 4]);
        assert_eq!(c.to_vec_f32().unwrap(), vec![0.0, 1.0, 0.0, 1.0]);
        assert!(concat(&[], 0).is_err());
        assert!(concat(&[&a, &iota(&[1, 3])], 0).is_err());
    }

    #[test]
    fn stack_adds_dimension() {
        let a = iota(&[2]);
        let b = iota(&[2]);
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        let s1 = stack(&[&a, &b], 1).unwrap();
        assert_eq!(s1.shape(), &[2, 2]);
        assert_eq!(s1.to_vec_f32().unwrap(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn gather_along_dim() {
        let t = iota(&[2, 3]);
        let idx = Tensor::from_vec_i64(vec![2, 0], &[2, 1]).unwrap();
        let g = t.gather(1, &idx).unwrap();
        assert_eq!(g.to_vec_f32().unwrap(), vec![2.0, 3.0]);
        let bad = Tensor::from_vec_i64(vec![5, 0], &[2, 1]).unwrap();
        assert!(t.gather(1, &bad).is_err());
        let tall = Tensor::from_vec_i64(vec![0, 0, 0], &[3, 1]).unwrap();
        assert!(t.gather(1, &tall).is_err());
        let cols = t.transpose(0, 1).unwrap();
        let g = cols.gather(0, &idx.transpose(0, 1).unwrap()).unwrap();
        assert_eq!(g.to_vec_f32().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn index_select_picks_slices() {
        let t = iota(&[3, 2]);
        let idx = Tensor::from_vec_i64(vec![2, 0], &[2]).unwrap();
        let r = t.index_select(0, &idx).unwrap();
        assert_eq!(r.shape(), &[2, 2]);
        assert_eq!(r.to_vec_f32().unwrap(), vec![4.0, 5.0, 0.0, 1.0]);
    }
}
