//! [`Layout`]: where a view's elements live in a flat buffer, and the view
//! algebra over it.
//!
//! Every view operator (Definition 3.1 of the paper: `v ← x[·]`) and every
//! broadcast is an affine map of coordinates, i.e. a new offset and strides
//! over the same buffer. [`crate::Tensor`] pairs a layout with shared
//! storage; the fused evaluator in `tssa-backend` pairs one with a plain
//! owned [`crate::Buffer`]. Both go through the methods here, and up to
//! rank [`INLINE`] none of them allocates: a view costs no more than its
//! affine map.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::storage::Buffer;
use crate::{Result, TensorError};

/// The rank up to which [`Dims`] are stored in place: the eight programs'
/// highest. A `Tensor` then takes 120 bytes; rank 6 makes it 152 and ran
/// 5 % slower on the RNN programs, though none of them spills at 4.
pub(crate) const INLINE: usize = 4;

/// A shape or a list of strides: up to [`INLINE`] dims in place, more on
/// the heap; read and written as a `[usize]`. Every constructor zeroes the
/// inline array past the last dim and writes stay inside it, so a list has
/// one representation and the derived equality is the slices'.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Dims {
    Inline(u8, [usize; INLINE]),
    Heap(Vec<usize>),
}

impl Dims {
    /// `len` dims, dim `i` being `f(i)`: every `Dims` is made here.
    pub(crate) fn from_fn(len: usize, f: impl Fn(usize) -> usize) -> Dims {
        match len {
            0..=INLINE => Dims::Inline(
                len as u8,
                std::array::from_fn(|i| if i < len { f(i) } else { 0 }),
            ),
            _ => Dims::Heap((0..len).map(f).collect()),
        }
    }
}

impl From<&[usize]> for Dims {
    fn from(dims: &[usize]) -> Dims {
        Dims::from_fn(dims.len(), |i| dims[i])
    }
}

impl Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            Dims::Inline(len, dims) => &dims[..usize::from(*len)],
            Dims::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Dims {
    fn deref_mut(&mut self) -> &mut [usize] {
        match self {
            Dims::Inline(len, dims) => &mut dims[..usize::from(*len)],
            Dims::Heap(heap) => heap,
        }
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A strided window onto a flat buffer: element `(c0, c1, …)` lives at
/// `offset + Σ ci · strides[i]`; broadcast dimensions have stride 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Index of element `(0, 0, …)`.
    pub offset: usize,
    pub(crate) shape: Dims,
    pub(crate) strides: Dims,
}

/// `dims` without dim `d`.
fn without(dims: &[usize], d: usize) -> Dims {
    Dims::from_fn(dims.len() - 1, |i| dims[i + usize::from(i >= d)])
}

/// `dims` with `value` inserted before dim `d`.
fn inserted(dims: &[usize], d: usize, value: usize) -> Dims {
    Dims::from_fn(dims.len() + 1, |i| match i.cmp(&d) {
        Ordering::Less => dims[i],
        Ordering::Equal => value,
        Ordering::Greater => dims[i - 1],
    })
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

/// The number of elements of `shape`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if its non-zero dims multiply
/// past what a `usize` counts, a 0 dim or not: then no product of its dims
/// in any order overflows, [`Layout::numel`]'s included.
pub(crate) fn checked_numel(shape: &[usize]) -> Result<usize> {
    let nonzero = shape.iter().filter(|&&d| d != 0);
    match nonzero.copied().try_fold(1usize, usize::checked_mul) {
        Some(_) if shape.contains(&0) => Ok(0),
        Some(n) => Ok(n),
        None => Err(TensorError::invalid(format!(
            "{shape:?}: more elements than a usize counts"
        ))),
    }
}

/// Broadcast two shapes per NumPy/PyTorch rules.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] (naming `op`) if a dimension
/// differs and neither side is 1.
pub fn broadcast_shapes(
    a: &[usize],
    b: &[usize],
    op: &'static str,
) -> Result<impl Deref<Target = [usize]>> {
    let rank = a.len().max(b.len());
    let dim = |s: &[usize], i: usize| (i + s.len()).checked_sub(rank).map_or(1, |j| s[j]);
    let fits = |i| matches!((dim(a, i), dim(b, i)), (x, y) if x == y || x == 1 || y == 1);
    if !(0..rank).all(fits) {
        let (lhs, rhs) = (a.to_vec(), b.to_vec());
        return Err(TensorError::ShapeMismatch { lhs, rhs, op });
    }
    Ok(Dims::from_fn(rank, |i| match dim(a, i) {
        1 => dim(b, i),
        x => x,
    }))
}

impl Layout {
    /// All of a row-major buffer of `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `shape` has more elements
    /// than a `usize` counts.
    pub fn contiguous(shape: &[usize]) -> Result<Layout> {
        checked_numel(shape)?;
        let mut strides = Dims::from_fn(shape.len(), |_| 1);
        let s = &mut strides[..];
        for i in (1..shape.len()).rev() {
            s[i - 1] = s[i] * shape[i];
        }
        Ok(Layout {
            offset: 0,
            shape: shape.into(),
            strides,
        })
    }

    /// Logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of logical elements. Unchecked: no constructor makes a layout
    /// with more than a `usize` counts.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the elements are laid out row-major without gaps (the stride
    /// of a size-1 dimension never affects addressing and is ignored).
    pub fn is_dense(&self) -> bool {
        let mut expect = 1;
        for (&d, &s) in self.shape.iter().zip(self.strides.iter()).rev() {
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
        Ok(Layout {
            offset: self.offset + i * self.strides[d],
            shape: without(&self.shape, d),
            strides: without(&self.strides, d),
        })
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
        let rank = self.shape.len();
        let fresh = |(i, &p): (usize, &usize)| p < rank && !perm[..i].contains(&p);
        if perm.len() != rank || !perm.iter().enumerate().all(fresh) {
            return Err(TensorError::invalid("invalid permutation"));
        }
        let (shape, strides) = (&self.shape[..], &self.strides[..]);
        Ok(Layout {
            offset: self.offset,
            shape: Dims::from_fn(rank, |i| shape[perm[i]]),
            strides: Dims::from_fn(rank, |i| strides[perm[i]]),
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
        Ok(Layout {
            offset: self.offset,
            shape: inserted(&self.shape, d, 1),
            strides: inserted(&self.strides, d, 0),
        })
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
        Ok(Layout {
            offset: self.offset,
            shape: without(&self.shape, d),
            strides: without(&self.strides, d),
        })
    }

    /// This view as an operand of an iteration over `shape` (`expand`):
    /// right-aligned, stride 0 along every dimension it is broadcast over.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if a non-1 dimension would
    /// have to change size, and [`TensorError::InvalidArgument`] if `shape`
    /// has more elements than a `usize` counts.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Layout> {
        let mismatch = || TensorError::ShapeMismatch {
            lhs: self.shape.to_vec(),
            rhs: shape.to_vec(),
            op: "broadcast",
        };
        let pad = shape
            .len()
            .checked_sub(self.shape.len())
            .ok_or_else(mismatch)?;
        checked_numel(shape)?;
        let (own, strides) = (&self.shape[..], &self.strides[..]);
        if (own.iter().zip(&shape[pad..])).any(|(&d, &t)| d != t && d != 1) {
            return Err(mismatch());
        }
        let strides = Dims::from_fn(shape.len(), |j| match j.checked_sub(pad) {
            Some(k) if own[k] == shape[j] => strides[k],
            _ => 0,
        });
        Ok(Layout {
            offset: self.offset,
            shape: shape.into(),
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
        let dims = Dims::from_fn(shape.len(), |i| match shape[i] {
            -1 => inferred,
            d => d as usize,
        });
        // A product that saturated to a `total` of `usize::MAX` is refused here.
        Ok(Layout {
            offset: self.offset,
            ..Layout::contiguous(&dims)?
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::for_each_row;

    #[test]
    fn contiguous_strides_row_major() {
        assert_eq!(
            Layout::contiguous(&[2, 3, 4]).unwrap().strides[..],
            [12, 4, 1]
        );
        assert!(Layout::contiguous(&[]).unwrap().strides.is_empty());
        assert_eq!(Layout::contiguous(&[5]).unwrap().strides[..], [1]);
    }

    #[test]
    fn broadcasting_rules() {
        assert_eq!(*broadcast_shapes(&[2, 1], &[3], "t").unwrap(), [2, 3]);
        assert_eq!(*broadcast_shapes(&[], &[4], "t").unwrap(), [4]);
        assert!(broadcast_shapes(&[2], &[3], "t").is_err());
        let l = Layout::contiguous(&[2, 1]).unwrap();
        assert_eq!(l.broadcast_to(&[2, 3]).unwrap().strides[..], [1, 0]);
        let l = Layout::contiguous(&[3]).unwrap();
        assert_eq!(l.broadcast_to(&[2, 3]).unwrap().strides[..], [0, 1]);
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
        let l = Layout::contiguous(&[2, 3, 4]).unwrap();
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
        let l = Layout::contiguous(&[6]).unwrap();
        let s = l.slice(0, 1, 100, 2).unwrap();
        assert_eq!(
            (s.offset, s.shape(), &s.strides[..]),
            (1, &[3][..], &[2][..])
        );
        assert_eq!(l.slice(0, 4, 2, 1).unwrap().shape(), [0]);
        assert_eq!(l.slice(0, -2, isize::MAX, isize::MAX).unwrap().shape(), [1]);
        assert!(l.slice(0, 0, 6, 0).is_err());
    }

    #[test]
    fn view_resolves_and_validates_shapes() {
        let l = Layout::contiguous(&[2, 6]).unwrap();
        assert_eq!(l.view(&[3, -1]).unwrap().shape(), [3, 4]);
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

    /// Every row `for_each_row` walks over `l`, as `(len, start, step)`.
    fn rows(l: &Layout) -> Vec<(usize, usize, usize)> {
        let mut seen = Vec::new();
        for_each_row(l.shape(), [l], |len, [at], [step]| {
            seen.push((len, at, step))
        });
        seen
    }

    #[test]
    fn dims_spill_past_the_inline_rank_and_come_back() {
        // Rank INLINE, strided: every other element of the last dim, two
        // middle dims swapped.
        let dims = [2, 3, 4, 5];
        assert_eq!(dims.len(), INLINE);
        let base = Layout::contiguous(&dims)
            .unwrap()
            .slice(-1, 1, 5, 2)
            .unwrap();
        let base = base.transpose(1, 2).unwrap();
        let walk = rows(&base);
        assert_eq!((walk.len(), &walk[..2]), (24, &[(2, 1, 2), (2, 21, 2)][..]));
        for at in 0..=INLINE {
            let up = base.unsqueeze(at as isize).unwrap();
            assert!(matches!(up.strides, Dims::Heap(_)));
            // What inserting into a `Vec` makes of them.
            let (mut s, mut st) = (base.shape().to_vec(), base.strides.to_vec());
            s.insert(at, 1);
            st.insert(at, 0);
            assert_eq!(
                (up.offset, up.shape(), &up.strides[..]),
                (1, &s[..], &st[..])
            );
            assert_eq!(rows(&up), walk, "unsqueeze at {at}");
            let down = up.squeeze(at as isize).unwrap();
            assert!(matches!(down.shape, Dims::Inline(..)));
            assert_eq!(down, base);
        }
    }
}
