//! View operators: alias-producing reinterpretations of a tensor's layout.
//!
//! Every method in this module returns a tensor that **shares storage** with
//! the receiver (Definition 3.1 of the paper: `v ← x[·]`). Mutating the result
//! through an in-place operator mutates the base tensor too. The arithmetic
//! is [`crate::Layout`]'s; see there for the exact rules.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Select index `index` along `dim`, removing that dimension.
    ///
    /// Equivalent to PyTorch's `t.select(dim, index)` / `t[index]` on `dim` 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` or `index` is out of range.
    pub fn select(&self, dim: isize, index: isize) -> Result<Tensor> {
        Ok(self.view_with(self.layout.select(dim, index)?))
    }

    /// Slice `[start, end)` with `step` along `dim`, keeping the dimension.
    ///
    /// `end` is clamped to the dimension size, matching PyTorch semantics.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range or `step` is zero/negative.
    pub fn slice(&self, dim: isize, start: isize, end: isize, step: isize) -> Result<Tensor> {
        Ok(self.view_with(self.layout.slice(dim, start, end, step)?))
    }

    /// Narrow to `length` elements starting at `start` along `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range does not fit in the dimension.
    pub fn narrow(&self, dim: isize, start: isize, length: usize) -> Result<Tensor> {
        let size = self.size(dim)?;
        let s = if start < 0 {
            start + size as isize
        } else {
            start
        };
        match usize::try_from(s).ok().and_then(|s| s.checked_add(length)) {
            Some(end) if end <= size => self.slice(dim, s, end as isize, 1),
            _ => Err(TensorError::invalid(format!(
                "narrow({start}, {length}) does not fit in a dimension of size {size}"
            ))),
        }
    }

    /// Reorder dimensions according to `perm` (a permutation of `0..rank`).
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` is not a permutation of the dimensions.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        Ok(self.view_with(self.layout.permute(perm)?))
    }

    /// Swap dimensions `dim0` and `dim1`.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is out of range.
    pub fn transpose(&self, dim0: isize, dim1: isize) -> Result<Tensor> {
        Ok(self.view_with(self.layout.transpose(dim0, dim1)?))
    }

    /// Insert a size-1 dimension at `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range (`0..=rank`).
    pub fn unsqueeze(&self, dim: isize) -> Result<Tensor> {
        Ok(self.view_with(self.layout.unsqueeze(dim)?))
    }

    /// Remove the size-1 dimension at `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range or not of size 1.
    pub fn squeeze(&self, dim: isize) -> Result<Tensor> {
        Ok(self.view_with(self.layout.squeeze(dim)?))
    }

    /// Broadcast size-1 dimensions up to `target` shape without copying
    /// (the expanded dimensions get stride 0).
    ///
    /// # Errors
    ///
    /// Returns an error if a non-1 dimension would need to change size.
    pub fn expand(&self, target: &[usize]) -> Result<Tensor> {
        Ok(self.view_with(self.layout.broadcast_to(target)?))
    }

    /// Reinterpret a contiguous tensor with a new shape, sharing storage.
    ///
    /// One dimension may be `-1` and is inferred.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotViewable`] if this tensor is not contiguous
    /// (use [`Tensor::reshape`] to fall back to a copy), or
    /// [`TensorError::NumelMismatch`] if the element counts differ.
    pub fn view(&self, shape: &[isize]) -> Result<Tensor> {
        Ok(self.view_with(self.layout.view(shape)?))
    }

    /// Like [`Tensor::view`], but copies to a contiguous layout when needed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[isize]) -> Result<Tensor> {
        self.contiguous().view(shape)
    }

    /// Flatten to one dimension, copying if non-contiguous.
    pub fn flatten(&self) -> Tensor {
        // A flatten can never fail: -1 always resolves.
        self.reshape(&[-1]).expect("flatten is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scalar;

    fn iota(shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec_f32((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn select_shares_storage() {
        let t = iota(&[3, 4]);
        let row = t.select(0, 1).unwrap();
        assert_eq!(row.shape(), &[4]);
        assert!(row.shares_storage_with(&t));
        assert_eq!(row.to_vec_f32().unwrap(), vec![4.0, 5.0, 6.0, 7.0]);
        let neg = t.select(0, -1).unwrap();
        assert_eq!(neg.at(&[0]).unwrap(), Scalar::F32(8.0));
        assert!(iota(&[]).select(0, 0).is_err());
    }

    #[test]
    fn slice_with_step_and_clamping() {
        let t = iota(&[6]);
        let s = t.slice(0, 1, 100, 2).unwrap();
        assert_eq!(s.to_vec_f32().unwrap(), vec![1.0, 3.0, 5.0]);
        assert!(t.slice(0, 0, 6, 0).is_err());
        let empty = t.slice(0, 4, 2, 1).unwrap();
        assert_eq!(empty.numel(), 0);
    }

    #[test]
    fn narrow_checks_bounds() {
        let t = iota(&[5]);
        assert_eq!(
            t.narrow(0, 1, 3).unwrap().to_vec_f32().unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(
            t.narrow(0, -2, 2).unwrap().to_vec_f32().unwrap(),
            [3.0, 4.0]
        );
        assert_eq!(t.narrow(0, 5, 0).unwrap().numel(), 0);
        assert!(t.narrow(0, 3, 3).is_err());
        assert!(t.narrow(0, -6, 1).is_err());
        assert!(t.narrow(0, 1, usize::MAX).is_err());
    }

    #[test]
    fn permute_and_transpose() {
        let t = iota(&[2, 3]);
        let p = t.transpose(0, 1).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.at(&[2, 1]).unwrap(), Scalar::F32(5.0));
        assert!(!p.is_contiguous());
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
    }

    #[test]
    fn squeeze_unsqueeze_round_trip() {
        let t = iota(&[2, 3]);
        let u = t.unsqueeze(1).unwrap();
        assert_eq!(u.shape(), &[2, 1, 3]);
        let s = u.squeeze(1).unwrap();
        assert_eq!(s.shape(), &[2, 3]);
        assert!(u.squeeze(0).is_err());
    }

    #[test]
    fn expand_broadcasts_without_copy() {
        let t = iota(&[1, 3]);
        let e = t.expand(&[4, 3]).unwrap();
        assert_eq!(e.shape(), &[4, 3]);
        assert_eq!(e.at(&[3, 2]).unwrap(), Scalar::F32(2.0));
        assert!(e.shares_storage_with(&t));
        assert!(iota(&[2, 3]).expand(&[4, 3]).is_err());
        // 2 * (2^63 + 1) elements would wrap to 2.
        assert!(iota(&[1, 1]).expand(&[usize::MAX / 2 + 2, 2]).is_err());
    }

    #[test]
    fn view_and_reshape() {
        let t = iota(&[2, 6]);
        let v = t.view(&[3, -1]).unwrap();
        assert_eq!(v.shape(), &[3, 4]);
        assert!(v.shares_storage_with(&t));
        let tp = t.transpose(0, 1).unwrap();
        assert!(tp.view(&[12]).is_err());
        let r = tp.reshape(&[12]).unwrap();
        assert!(!r.shares_storage_with(&t));
        assert_eq!(r.at(&[1]).unwrap(), Scalar::F32(6.0));
    }

    #[test]
    fn mutation_through_chained_views() {
        // b = a[1]; c = b[0:2]; c.fill_(9) mutates a.
        let a = iota(&[2, 4]);
        let b = a.select(0, 1).unwrap();
        let c = b.slice(0, 0, 2, 1).unwrap();
        c.fill_(9.0).unwrap();
        assert_eq!(
            a.to_vec_f32().unwrap(),
            vec![0.0, 1.0, 2.0, 3.0, 9.0, 9.0, 6.0, 7.0]
        );
    }
}
