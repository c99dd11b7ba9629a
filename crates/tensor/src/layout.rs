//! [`Layout`]: where a view's elements live in a flat buffer, and the view
//! algebra over it.
//!
//! Every view operator (Definition 3.1 of the paper: `v ← x[·]`) and every
//! broadcast is an affine map of coordinates, i.e. a new offset and strides
//! over the same buffer. [`crate::Tensor`] pairs a layout with shared
//! storage; the fused evaluator in `tssa-backend` pairs one with a plain
//! owned [`crate::Buffer`]. Both go through the methods here.

use crate::storage::Buffer;
use crate::{Result, TensorError};

/// A strided window onto a flat buffer: element `(c0, c1, …)` lives at
/// `offset + Σ ci · strides[i]`; broadcast dimensions have stride 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Index of element `(0, 0, …)`.
    pub offset: usize,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Distance between neighbours along each dimension, in elements.
    pub strides: Vec<usize>,
}

/// Normalize a possibly-negative dimension index against `rank`.
pub(crate) fn normalize_dim(dim: isize, rank: usize) -> Result<usize> {
    let d = if dim < 0 { dim + rank as isize } else { dim };
    if d < 0 || d >= rank as isize {
        return Err(TensorError::DimOutOfRange { dim, rank });
    }
    Ok(d as usize)
}

/// Normalize a possibly-negative element index against dimension `size`.
pub(crate) fn normalize_index(index: isize, size: usize, dim: usize) -> Result<usize> {
    let i = if index < 0 {
        index + size as isize
    } else {
        index
    };
    if i < 0 || i >= size as isize {
        return Err(TensorError::IndexOutOfRange { index, size, dim });
    }
    Ok(i as usize)
}

/// Broadcast two shapes per NumPy/PyTorch rules.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] (naming `op`) if a dimension
/// differs and neither side is 1.
pub fn broadcast_shapes(a: &[usize], b: &[usize], op: &'static str) -> Result<Vec<usize>> {
    let rank = a.len().max(b.len());
    let dim = |s: &[usize], i: usize| (i + s.len()).checked_sub(rank).map_or(1, |j| s[j]);
    (0..rank)
        .map(|i| match (dim(a, i), dim(b, i)) {
            (x, y) if x == y || y == 1 => Ok(x),
            (1, y) => Ok(y),
            _ => Err(TensorError::ShapeMismatch {
                lhs: a.to_vec(),
                rhs: b.to_vec(),
                op,
            }),
        })
        .collect()
}

impl Layout {
    /// All of a row-major buffer of `shape`.
    pub fn contiguous(shape: Vec<usize>) -> Layout {
        let mut strides = vec![1; shape.len()];
        for i in (1..shape.len()).rev() {
            strides[i - 1] = strides[i] * shape[i];
        }
        Layout {
            offset: 0,
            shape,
            strides,
        }
    }

    /// Number of logical elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the elements are laid out row-major without gaps (the stride
    /// of a size-1 dimension never affects addressing and is ignored).
    pub fn is_dense(&self) -> bool {
        let mut expect = 1;
        for (&d, &s) in self.shape.iter().zip(&self.strides).rev() {
            if d != 1 && s != expect {
                return false;
            }
            expect *= d;
        }
        true
    }

    /// Whether this view is exactly `buf`, so the buffer can stand for it.
    pub fn covers(&self, buf: &Buffer) -> bool {
        self.covers_len(buf.len())
    }

    /// Whether this view is exactly a buffer of `len` elements, in order.
    pub(crate) fn covers_len(&self, len: usize) -> bool {
        self.offset == 0 && self.is_dense() && self.numel() == len
    }

    /// Index `index` along `dim`, removing that dimension.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` or `index` is out of range.
    pub fn select(&self, dim: isize, index: isize) -> Result<Layout> {
        let d = normalize_dim(dim, self.shape.len())?;
        let i = normalize_index(index, self.shape[d], d)?;
        let mut v = self.clone();
        v.offset += i * v.strides[d];
        v.shape.remove(d);
        v.strides.remove(d);
        Ok(v)
    }

    /// `[start, end)` with `step` along `dim`; negative bounds count from
    /// the end and both are clamped to the dimension, as in PyTorch.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range or `step` is not positive.
    pub fn slice(&self, dim: isize, start: isize, end: isize, step: isize) -> Result<Layout> {
        let d = normalize_dim(dim, self.shape.len())?;
        if step <= 0 {
            return Err(TensorError::invalid("slice step must be positive"));
        }
        let size = self.shape[d] as isize;
        let clamp = |v: isize| (if v < 0 { v + size } else { v }).clamp(0, size);
        let start = clamp(start);
        let end = clamp(end).max(start);
        let mut v = self.clone();
        v.offset += start as usize * v.strides[d];
        v.shape[d] = ((end - start) as usize).div_ceil(step as usize);
        // With at most one element along `d` the stride is never used.
        v.strides[d] = v.strides[d].saturating_mul(step as usize);
        Ok(v)
    }

    /// Reorder dimensions according to `perm`.
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Layout> {
        let mut seen = vec![false; self.shape.len()];
        for &p in perm {
            match seen.get_mut(p) {
                Some(s) if !*s => *s = true,
                _ => return Err(TensorError::invalid("invalid permutation")),
            }
        }
        if perm.len() != seen.len() {
            return Err(TensorError::invalid("invalid permutation"));
        }
        Ok(Layout {
            offset: self.offset,
            shape: perm.iter().map(|&p| self.shape[p]).collect(),
            strides: perm.iter().map(|&p| self.strides[p]).collect(),
        })
    }

    /// Swap dimensions `dim0` and `dim1`.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is out of range.
    pub fn transpose(&self, dim0: isize, dim1: isize) -> Result<Layout> {
        let d0 = normalize_dim(dim0, self.shape.len())?;
        let d1 = normalize_dim(dim1, self.shape.len())?;
        let mut v = self.clone();
        v.shape.swap(d0, d1);
        v.strides.swap(d0, d1);
        Ok(v)
    }

    /// Insert a size-1 dimension at `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range (`0..=rank`).
    pub fn unsqueeze(&self, dim: isize) -> Result<Layout> {
        let d = normalize_dim(dim, self.shape.len() + 1)?;
        let mut v = self.clone();
        v.shape.insert(d, 1);
        v.strides.insert(d, 0);
        Ok(v)
    }

    /// Remove the size-1 dimension at `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range or not of size 1.
    pub fn squeeze(&self, dim: isize) -> Result<Layout> {
        let d = normalize_dim(dim, self.shape.len())?;
        if self.shape[d] != 1 {
            return Err(TensorError::invalid(format!(
                "squeeze dim {d} of size {}",
                self.shape[d]
            )));
        }
        let mut v = self.clone();
        v.shape.remove(d);
        v.strides.remove(d);
        Ok(v)
    }

    /// This view as an operand of an iteration over `shape` (`expand`):
    /// right-aligned, stride 0 along every dimension it is broadcast over.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if a non-1 dimension would
    /// have to change size.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Layout> {
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
                return Err(mismatch());
            }
        }
        Ok(Layout {
            offset: self.offset,
            shape: shape.to_vec(),
            strides,
        })
    }

    /// Reinterpret a dense view with a new shape; one entry may be `-1` and
    /// is inferred.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotViewable`] if this view is not dense,
    /// [`TensorError::NumelMismatch`] if the element counts differ, or
    /// [`TensorError::InvalidArgument`] for a malformed shape.
    pub fn view(&self, shape: &[isize]) -> Result<Layout> {
        if !self.is_dense() {
            return Err(TensorError::NotViewable {
                reason: "view() requires a contiguous tensor".into(),
            });
        }
        let total = self.numel();
        let mut known = 1usize;
        for &d in shape.iter().filter(|&&d| d != -1) {
            let d = usize::try_from(d)
                .map_err(|_| TensorError::invalid("negative dimension in shape"))?;
            known = known.saturating_mul(d);
        }
        let mismatch = TensorError::NumelMismatch {
            from: total,
            to: known,
        };
        let inferred = match shape.iter().filter(|&&d| d == -1).count() {
            0 => 1,
            1 if known != 0 && total.is_multiple_of(known) => total / known,
            1 => return Err(mismatch),
            _ => return Err(TensorError::invalid("at most one -1 dimension")),
        };
        if known.saturating_mul(inferred) != total {
            return Err(mismatch);
        }
        let dims = shape
            .iter()
            .map(|&d| if d == -1 { inferred } else { d as usize });
        Ok(Layout {
            offset: self.offset,
            ..Layout::contiguous(dims.collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_strides_row_major() {
        assert_eq!(Layout::contiguous(vec![2, 3, 4]).strides, vec![12, 4, 1]);
        assert!(Layout::contiguous(vec![]).strides.is_empty());
        assert_eq!(Layout::contiguous(vec![5]).strides, vec![1]);
    }

    #[test]
    fn broadcasting_rules() {
        assert_eq!(broadcast_shapes(&[2, 1], &[3], "t").unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4], "t").unwrap(), vec![4]);
        assert!(broadcast_shapes(&[2], &[3], "t").is_err());
        let l = Layout::contiguous(vec![2, 1]);
        assert_eq!(l.broadcast_to(&[2, 3]).unwrap().strides, vec![1, 0]);
        let l = Layout::contiguous(vec![3]);
        assert_eq!(l.broadcast_to(&[2, 3]).unwrap().strides, vec![0, 1]);
        assert!(l.broadcast_to(&[3, 2]).is_err());
        assert!(l.broadcast_to(&[]).is_err());
    }

    #[test]
    fn negative_dims_and_indices() {
        assert_eq!(normalize_dim(-1, 3).unwrap(), 2);
        assert!(normalize_dim(3, 3).is_err());
        assert!(normalize_dim(0, 0).is_err());
        assert_eq!(normalize_index(-2, 5, 0).unwrap(), 3);
        assert!(normalize_index(5, 5, 0).is_err());
    }

    #[test]
    fn density_ignores_unit_dims_and_sees_gaps() {
        let l = Layout::contiguous(vec![2, 3, 4]);
        assert!(l.is_dense());
        assert!(l.select(0, 1).unwrap().is_dense());
        assert!(!l.select(2, 1).unwrap().is_dense());
        assert!(l.unsqueeze(1).unwrap().is_dense());
        assert!(!l.slice(1, 0, 3, 2).unwrap().is_dense());
        assert!(l.slice(1, 0, 1, 2).unwrap().transpose(0, 1).is_ok());
        let buf = Buffer::F32(vec![0.0; 24]);
        assert!(l.covers(&buf));
        assert!(!l.select(0, 1).unwrap().covers(&buf));
    }

    #[test]
    fn slice_clamps_and_survives_huge_steps() {
        let l = Layout::contiguous(vec![6]);
        let s = l.slice(0, 1, 100, 2).unwrap();
        assert_eq!(
            (s.offset, &s.shape[..], &s.strides[..]),
            (1, &[3][..], &[2][..])
        );
        assert_eq!(l.slice(0, 4, 2, 1).unwrap().shape, vec![0]);
        assert_eq!(
            l.slice(0, -2, isize::MAX, isize::MAX).unwrap().shape,
            vec![1]
        );
        assert!(l.slice(0, 0, 6, 0).is_err());
    }

    #[test]
    fn view_resolves_and_validates_shapes() {
        let l = Layout::contiguous(vec![2, 6]);
        assert_eq!(l.view(&[3, -1]).unwrap().shape, vec![3, 4]);
        assert_eq!(
            l.view(&[4, 5]),
            Err(TensorError::NumelMismatch { from: 12, to: 20 })
        );
        assert!(matches!(
            l.view(&[5, -1]),
            Err(TensorError::NumelMismatch { .. })
        ));
        assert!(l.view(&[-1, -1]).is_err());
        assert!(l.view(&[-3, 4]).is_err());
        assert!(matches!(
            l.transpose(0, 1).unwrap().view(&[12]),
            Err(TensorError::NotViewable { .. })
        ));
        // A view of a row keeps the row's offset.
        assert_eq!(l.select(0, 1).unwrap().view(&[2, 3]).unwrap().offset, 6);
    }
}
