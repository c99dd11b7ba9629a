//! The [`Tensor`] type: a strided view over shared storage.

use std::sync::RwLockReadGuard;

use crate::kernel::{self, for_each_row, typed};
use crate::layout::{checked_numel, normalize_dim, normalize_index};
use crate::storage::{Buffer, Storage};
use crate::{DType, Layout, Result, Scalar, TensorError};

/// An n-dimensional strided view over reference-counted storage.
///
/// Cloning a `Tensor` is cheap and produces another view of the *same*
/// storage; use [`Tensor::contiguous`] or [`Tensor::clone_data`] to copy the
/// data. View operators ([`Tensor::select`], [`Tensor::slice`], …) return
/// tensors that alias the receiver, and in-place operators ([`Tensor::copy_`],
/// [`Tensor::binary_`], …) mutate storage visible through every alias — the
/// semantics the TensorSSA pass functionalizes away.
#[derive(Debug, Clone)]
pub struct Tensor {
    pub(crate) storage: Storage,
    pub(crate) layout: Layout,
    dtype: DType,
}

/// The first of `ts` that shares `ts[k]`'s storage.
fn first_sharing(ts: &[&Tensor], k: usize) -> usize {
    let same = |&j: &usize| ts[j].storage.id() == ts[k].storage.id();
    (0..k).find(same).unwrap_or(k)
}

/// Run `f` on the buffers of `ts`, read-locking each distinct storage once
/// (a second `read()` of one lock can deadlock behind a waiting writer).
pub(crate) fn with_buffers<const N: usize, R>(
    ts: [&Tensor; N],
    f: impl FnOnce([&Buffer; N]) -> R,
) -> R {
    let first = |k: usize| first_sharing(&ts, k);
    let guards: [Option<RwLockReadGuard<Buffer>>; N] =
        std::array::from_fn(|k| (first(k) == k).then(|| ts[k].storage.read()));
    f(std::array::from_fn(|k| {
        &**guards[first(k)].as_ref().expect("locked above")
    }))
}

/// Run `f` on the storage buffers of `ts`, in order, each to be read
/// through its tensor's [`Tensor::layout`]: what the eager operators do for
/// their two or three operands, for a number of tensors known at run time.
/// Each distinct storage is read-locked once for the whole call.
pub fn read_buffers<R>(ts: &[&Tensor], f: impl FnOnce(&[&Buffer]) -> R) -> R {
    let first = |k: usize| first_sharing(ts, k);
    let guards: Vec<Option<RwLockReadGuard<Buffer>>> = (0..ts.len())
        .map(|k| (first(k) == k).then(|| ts[k].storage.read()))
        .collect();
    let bufs: Vec<&Buffer> = (0..ts.len())
        .map(|k| &**guards[first(k)].as_ref().expect("locked above"))
        .collect();
    f(&bufs)
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// `buffer` as a row-major tensor of `shape`, which it must fill.
    pub(crate) fn dense(buffer: Buffer, shape: &[usize]) -> Tensor {
        let layout = Layout::contiguous(shape).expect("a buffer's shape fits");
        debug_assert_eq!(buffer.len(), layout.numel());
        Tensor {
            dtype: buffer.dtype(),
            storage: Storage::new(buffer),
            layout,
        }
    }

    /// A new f32 tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full_scalar(shape, Scalar::F32(0.0))
    }

    /// A new f32 tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full_scalar(shape, Scalar::F32(1.0))
    }

    /// A new f32 tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor::full_scalar(shape, Scalar::F32(value))
    }

    /// A new tensor of `value`'s dtype filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` has more elements than a `usize` counts, as `vec!`
    /// does past `isize::MAX` bytes; so do the constructors built on it.
    pub fn full_scalar(shape: &[usize], value: Scalar) -> Tensor {
        let n = checked_numel(shape).unwrap_or_else(|e| panic!("{e}"));
        let buffer = Buffer::filled(value.dtype(), n, value);
        Tensor::dense(buffer, shape)
    }

    /// A new tensor of the given dtype filled with zeros.
    pub fn zeros_dtype(shape: &[usize], dtype: DType) -> Tensor {
        Tensor::full_scalar(shape, Scalar::F32(0.0).cast(dtype))
    }

    /// Build a tensor of `buffer`'s dtype from its elements in row-major
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] if the buffer's length does not
    /// match the number of elements of `shape`, and
    /// [`TensorError::InvalidArgument`] if that number is more than a `usize`
    /// counts.
    pub fn from_buffer(buffer: Buffer, shape: &[usize]) -> Result<Tensor> {
        let to = checked_numel(shape)?;
        if buffer.len() != to {
            return Err(TensorError::NumelMismatch {
                from: buffer.len(),
                to,
            });
        }
        Ok(Tensor::dense(buffer, shape))
    }

    /// Build an f32 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] if `data.len()` does not match
    /// the number of elements of `shape`.
    pub fn from_vec_f32(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_buffer(Buffer::F32(data), shape)
    }

    /// Build an i64 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] on length mismatch.
    pub fn from_vec_i64(data: Vec<i64>, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_buffer(Buffer::I64(data), shape)
    }

    /// Build a bool tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] on length mismatch.
    pub fn from_vec_bool(data: Vec<bool>, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_buffer(Buffer::Bool(data), shape)
    }

    /// `[0, 1, …, n-1]` as a 1-D f32 tensor.
    pub fn arange_f32(n: usize) -> Tensor {
        Tensor::dense(Buffer::F32((0..n).map(|i| i as f32).collect()), &[n])
    }

    // ------------------------------------------------------------- metadata

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.layout.shape
    }

    /// Where this view's elements live in its storage.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Size of dimension `dim`; a negative `dim` counts from the end.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is out of range.
    pub fn size(&self, dim: isize) -> Result<usize> {
        Ok(self.shape()[normalize_dim(dim, self.rank())?])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.layout.shape.len()
    }

    /// Number of logical elements.
    pub fn numel(&self) -> usize {
        self.layout.numel()
    }

    /// Whether two tensors share the same storage buffer.
    pub fn shares_storage_with(&self, other: &Tensor) -> bool {
        self.storage.id() == other.storage.id()
    }

    /// Whether this view is laid out contiguously in row-major order.
    pub fn is_contiguous(&self) -> bool {
        self.layout.is_dense()
    }

    /// Another view of the same storage.
    ///
    /// # Errors
    ///
    /// Returns an error if `layout` reaches past the end of the storage.
    pub fn with_layout(&self, layout: Layout) -> Result<Tensor> {
        let span = |(&d, &s): (&usize, &usize)| (d - 1).checked_mul(s);
        let last = || {
            (layout.shape.iter().zip(layout.strides.iter()))
                .try_fold(layout.offset, |at, ds| at.checked_add(span(ds)?))
        };
        if !layout.shape.contains(&0) && last().is_none_or(|i| i >= self.storage.len()) {
            return Err(TensorError::invalid("layout reaches past its storage"));
        }
        Ok(self.view_with(layout))
    }

    /// Another view of the same storage; `layout` must stay inside it.
    pub(crate) fn view_with(&self, layout: Layout) -> Tensor {
        Tensor {
            storage: self.storage.clone(),
            layout,
            dtype: self.dtype,
        }
    }

    // -------------------------------------------------------- element access

    /// Read the element at `coord`.
    ///
    /// # Errors
    ///
    /// Returns an error if `coord` has the wrong rank or is out of range.
    pub fn at(&self, coord: &[usize]) -> Result<Scalar> {
        if coord.len() != self.rank() {
            return Err(TensorError::invalid(format!(
                "coordinate of length {} for rank {} tensor",
                coord.len(),
                self.rank()
            )));
        }
        let mut off = self.layout.offset;
        for (d, (&c, &s)) in coord.iter().zip(self.layout.strides.iter()).enumerate() {
            off += normalize_index(c as isize, self.shape()[d], d)? * s;
        }
        Ok(self.storage.read().get(off))
    }

    /// The single element of a one-element tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor has more than one element.
    pub fn item(&self) -> Result<Scalar> {
        if self.numel() != 1 {
            return Err(TensorError::invalid(format!(
                "item() on tensor with {} elements",
                self.numel()
            )));
        }
        // Every dim has size 1: the element is at the offset.
        Ok(self.storage.read().get(self.layout.offset))
    }

    /// Whether `f` holds for every pair of corresponding elements of two
    /// tensors of one shape, visited in row-major order.
    fn all2(&self, other: &Tensor, f: impl Fn(Scalar, Scalar) -> bool) -> bool {
        let (la, lb) = (&self.layout, &other.layout);
        let mut all = true;
        with_buffers([self, other], |[a, b]| {
            typed!(a, |x| typed!(b, |y| for_each_row(
                &la.shape,
                [la, lb],
                |len, [ia, ib], [sa, sb]| {
                    all &= (0..len).all(|i| f(x[ia + i * sa].into(), y[ib + i * sb].into()));
                }
            )));
        });
        all
    }

    // ----------------------------------------------------------- conversion

    /// The logical contents as a fresh row-major buffer.
    pub(crate) fn to_buffer(&self) -> Buffer {
        kernel::cast((&self.storage.read(), &self.layout), self.dtype)
    }

    /// Give up the storage buffer itself: succeeds only when no other tensor
    /// shares the storage and this view is all of it in row-major order, so
    /// the buffer *is* the tensor's contents and nobody else can see what
    /// its next owner writes. Otherwise the tensor comes back unchanged.
    ///
    /// # Errors
    ///
    /// Returns `self` if the storage is shared or the view does not cover it.
    pub fn into_buffer(self) -> std::result::Result<Buffer, Tensor> {
        if !self.layout.covers_len(self.storage.len()) {
            return Err(self);
        }
        let Tensor {
            storage,
            layout,
            dtype,
        } = self;
        storage.into_buffer().map_err(|storage| Tensor {
            storage,
            layout,
            dtype,
        })
    }

    /// Copy the logical contents into a fresh contiguous tensor.
    pub fn clone_data(&self) -> Tensor {
        Tensor::dense(self.to_buffer(), self.shape())
    }

    /// This tensor if already contiguous, otherwise a contiguous copy.
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            self.clone()
        } else {
            self.clone_data()
        }
    }

    /// Cast to another element type (always copies).
    pub fn cast(&self, dtype: DType) -> Tensor {
        let buffer = kernel::cast((&self.storage.read(), &self.layout), dtype);
        Tensor::dense(buffer, self.shape())
    }

    /// Logical contents as a flat `Vec<f32>` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-f32 tensors.
    pub fn to_vec_f32(&self) -> Result<Vec<f32>> {
        match self.to_buffer() {
            Buffer::F32(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::F32,
                found: other.dtype(),
                op: "to_vec_f32",
            }),
        }
    }

    /// Logical contents as a flat `Vec<i64>` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-i64 tensors.
    pub fn to_vec_i64(&self) -> Result<Vec<i64>> {
        match self.to_buffer() {
            Buffer::I64(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::I64,
                found: other.dtype(),
                op: "to_vec_i64",
            }),
        }
    }

    /// Logical contents as a flat `Vec<bool>` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-bool tensors.
    pub fn to_vec_bool(&self) -> Result<Vec<bool>> {
        match self.to_buffer() {
            Buffer::Bool(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::Bool,
                found: other.dtype(),
                op: "to_vec_bool",
            }),
        }
    }

    /// Whether two tensors have identical shape and all elements within
    /// `tol` of each other (after conversion to f64).
    ///
    /// Useful in tests comparing eager execution against compiled execution.
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.all2(other, |a, b| {
                let (a, b) = (a.as_f64(), b.as_f64());
                (a - b).abs() <= tol + tol * b.abs().max(a.abs())
            })
    }
}

impl PartialEq for Tensor {
    /// Structural equality: same shape, dtype and logical contents.
    fn eq(&self, other: &Tensor) -> bool {
        self.shape() == other.shape()
            && self.dtype == other.dtype
            && self.all2(other, |a, b| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metadata() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.layout().strides[..], [3, 1]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dtype(), DType::F32);
        assert!(t.is_contiguous());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec_f32(vec![1.0, 2.0], &[3]).is_err());
        let t = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.at(&[1, 0]).unwrap(), Scalar::F32(3.0));
        assert!(t.at(&[0, 2]).is_err());
        assert!(t.at(&[0]).is_err());
    }

    #[test]
    fn clone_aliases_clone_data_copies() {
        let t = Tensor::zeros(&[2]);
        let alias = t.clone();
        let copy = t.clone_data();
        assert!(t.shares_storage_with(&alias));
        assert!(!t.shares_storage_with(&copy));
        t.fill_(1.0).unwrap();
        assert_eq!(alias.at(&[0]).unwrap(), Scalar::F32(1.0));
        assert_eq!(copy.at(&[0]).unwrap(), Scalar::F32(0.0));
    }

    #[test]
    fn with_layout_checks_the_storage_bounds() {
        let t = Tensor::arange_f32(6);
        let l = t.layout().slice(0, 1, 6, 2).unwrap();
        let v = t.with_layout(l.clone()).unwrap();
        assert!(v.shares_storage_with(&t));
        assert_eq!(v.to_vec_f32().unwrap(), vec![1.0, 3.0, 5.0]);
        assert!(t
            .with_layout(Layout {
                offset: 2,
                ..l.clone()
            })
            .is_err());
        assert!(t.with_layout(Layout::contiguous(&[7]).unwrap()).is_err());
        // The last element's index overflows.
        assert!(t
            .with_layout(Layout {
                offset: usize::MAX,
                ..l.clone()
            })
            .is_err());
        assert!(t.with_layout(Layout::contiguous(&[0, 9]).unwrap()).is_ok());
    }

    #[test]
    fn only_a_sole_owner_of_all_of_its_storage_gives_up_the_buffer() {
        let t = Tensor::arange_f32(6);
        // Another handle on the storage, of any layout, keeps the buffer.
        let alias = t.clone();
        let t = t.into_buffer().unwrap_err();
        drop(alias);
        let row = t.select(0, 1).unwrap();
        let t = t.into_buffer().unwrap_err();
        drop(row);
        // A view that is not all of the storage in order keeps it too.
        let tail = t.slice(0, 1, 6, 1).unwrap();
        drop(t);
        let tail = tail.into_buffer().unwrap_err();
        assert_eq!(tail.to_vec_f32().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let grid = Tensor::arange_f32(6).view(&[2, 3]).unwrap();
        let flipped = grid.transpose(0, 1).unwrap();
        drop(grid);
        assert!(flipped.into_buffer().is_err());
        // A reshaped sole owner is still all of it.
        let grid = Tensor::arange_f32(6).view(&[2, 3]).unwrap();
        let Ok(Buffer::F32(data)) = grid.into_buffer() else {
            panic!("sole owner of a dense f32 view");
        };
        assert_eq!(data, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn read_buffers_locks_a_shared_storage_once() {
        let a = Tensor::arange_f32(4);
        let b = Tensor::from_vec_i64(vec![7], &[1]).unwrap();
        let row = a.slice(0, 2, 4, 1).unwrap();
        // Holding a write lock elsewhere would block; holding the read
        // lock twice is what must not happen, so the same buffer comes
        // back for both handles.
        let seen = read_buffers(&[&a, &b, &row], |bufs| {
            assert!(std::ptr::eq(bufs[0], bufs[2]));
            (bufs[0].dtype(), bufs[1].dtype(), bufs.len())
        });
        assert_eq!(seen, (DType::F32, DType::I64, 3));
        assert_eq!(read_buffers(&[], |bufs| bufs.len()), 0);
        // The locks are gone: the storage can be written again.
        a.fill_(1.0).unwrap();
        assert_eq!(row.to_vec_f32().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn item_requires_single_element() {
        let t = Tensor::from_vec_i64(vec![4], &[]).unwrap();
        assert_eq!(t.item().unwrap(), Scalar::I64(4));
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn cast_converts_elements() {
        let t = Tensor::from_vec_f32(vec![0.0, 1.5], &[2]).unwrap();
        assert_eq!(t.cast(DType::I64).to_vec_i64().unwrap(), vec![0, 1]);
        assert_eq!(
            t.cast(DType::Bool).to_vec_bool().unwrap(),
            vec![false, true]
        );
    }

    #[test]
    fn structural_equality() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let c = Tensor::from_vec_f32(vec![1.0, 2.0], &[2, 1]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, a.cast(DType::I64));
        assert!(a.allclose(&a.cast(DType::I64), 0.0));
        // A tensor compared with a view of itself locks its storage once.
        assert_eq!(a, a.clone());
    }
}
