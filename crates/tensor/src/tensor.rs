//! The [`Tensor`] type: a strided view over shared storage.

use crate::index::{contiguous_strides, normalize_index, numel, offset_of, CoordIter};
use crate::storage::{Buffer, Storage};
use crate::{DType, Result, Scalar, StorageId, TensorError};

/// An n-dimensional strided view over reference-counted storage.
///
/// Cloning a `Tensor` is cheap and produces another view of the *same*
/// storage; use [`Tensor::contiguous`] or [`Tensor::clone_data`] to copy the
/// data. View operators ([`Tensor::select`], [`Tensor::slice`], …) return
/// tensors that alias the receiver, and in-place operators ([`Tensor::copy_`],
/// [`Tensor::add_`], …) mutate storage visible through every alias — the
/// semantics the TensorSSA pass functionalizes away.
#[derive(Debug, Clone)]
pub struct Tensor {
    pub(crate) storage: Storage,
    pub(crate) offset: usize,
    pub(crate) shape: Vec<usize>,
    pub(crate) strides: Vec<isize>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    pub(crate) fn from_buffer(buffer: Buffer, shape: Vec<usize>) -> Tensor {
        debug_assert_eq!(buffer.len(), numel(&shape));
        let strides = contiguous_strides(&shape);
        Tensor {
            storage: Storage::new(buffer),
            offset: 0,
            shape,
            strides,
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
    pub fn full_scalar(shape: &[usize], value: Scalar) -> Tensor {
        let buffer = Buffer::filled(value.dtype(), numel(shape), value);
        Tensor::from_buffer(buffer, shape.to_vec())
    }

    /// A new tensor of the given dtype filled with zeros.
    pub fn zeros_dtype(shape: &[usize], dtype: DType) -> Tensor {
        Tensor::full_scalar(shape, Scalar::F32(0.0).cast(dtype))
    }

    /// A rank-0 f32 tensor.
    pub fn scalar_f32(value: f32) -> Tensor {
        Tensor::from_buffer(Buffer::F32(vec![value]), vec![])
    }

    /// A rank-0 i64 tensor.
    pub fn scalar_i64(value: i64) -> Tensor {
        Tensor::from_buffer(Buffer::I64(vec![value]), vec![])
    }

    /// A rank-0 bool tensor.
    pub fn scalar_bool(value: bool) -> Tensor {
        Tensor::from_buffer(Buffer::Bool(vec![value]), vec![])
    }

    /// Build an f32 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] if `data.len()` does not match
    /// the number of elements of `shape`.
    pub fn from_vec_f32(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        if data.len() != numel(shape) {
            return Err(TensorError::NumelMismatch {
                from: data.len(),
                to: numel(shape),
            });
        }
        Ok(Tensor::from_buffer(Buffer::F32(data), shape.to_vec()))
    }

    /// Build an i64 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] on length mismatch.
    pub fn from_vec_i64(data: Vec<i64>, shape: &[usize]) -> Result<Tensor> {
        if data.len() != numel(shape) {
            return Err(TensorError::NumelMismatch {
                from: data.len(),
                to: numel(shape),
            });
        }
        Ok(Tensor::from_buffer(Buffer::I64(data), shape.to_vec()))
    }

    /// Build a bool tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NumelMismatch`] on length mismatch.
    pub fn from_vec_bool(data: Vec<bool>, shape: &[usize]) -> Result<Tensor> {
        if data.len() != numel(shape) {
            return Err(TensorError::NumelMismatch {
                from: data.len(),
                to: numel(shape),
            });
        }
        Ok(Tensor::from_buffer(Buffer::Bool(data), shape.to_vec()))
    }

    /// `[0, 1, …, n-1]` as a 1-D f32 tensor.
    pub fn arange_f32(n: usize) -> Tensor {
        Tensor::from_buffer(Buffer::F32((0..n).map(|i| i as f32).collect()), vec![n])
    }

    /// `[0, 1, …, n-1]` as a 1-D i64 tensor.
    pub fn arange_i64(n: usize) -> Tensor {
        Tensor::from_buffer(Buffer::I64((0..n as i64).collect()), vec![n])
    }

    // ------------------------------------------------------------- metadata

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// Logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Strides in elements (0 for broadcast dimensions).
    pub fn strides(&self) -> &[isize] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of logical elements.
    pub fn numel(&self) -> usize {
        numel(&self.shape)
    }

    /// Identity of the underlying storage; equal ids alias the same memory.
    pub fn storage_id(&self) -> StorageId {
        self.storage.id()
    }

    /// Offset (in elements) of this view into its storage.
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// Whether two tensors share the same storage buffer.
    pub fn shares_storage_with(&self, other: &Tensor) -> bool {
        self.storage_id() == other.storage_id()
    }

    /// Whether this view is laid out contiguously in row-major order.
    pub fn is_contiguous(&self) -> bool {
        self.strides == contiguous_strides(&self.shape)
    }

    // -------------------------------------------------------- element access

    fn checked_offset(&self, coord: &[usize]) -> Result<usize> {
        if coord.len() != self.rank() {
            return Err(TensorError::invalid(format!(
                "coordinate of length {} for rank {} tensor",
                coord.len(),
                self.rank()
            )));
        }
        for (d, (&c, &s)) in coord.iter().zip(&self.shape).enumerate() {
            normalize_index(c as isize, s, d)?;
        }
        let rel = offset_of(coord, &self.strides);
        Ok((self.offset as isize + rel) as usize)
    }

    /// Read the element at `coord`.
    ///
    /// # Errors
    ///
    /// Returns an error if `coord` has the wrong rank or is out of range.
    pub fn at(&self, coord: &[usize]) -> Result<Scalar> {
        let off = self.checked_offset(coord)?;
        Ok(self.storage.with_read(|b| b.get(off)))
    }

    /// Write the element at `coord` (casting `value` to this tensor's dtype).
    ///
    /// # Errors
    ///
    /// Returns an error if `coord` has the wrong rank or is out of range.
    pub fn set_at(&self, coord: &[usize], value: Scalar) -> Result<()> {
        let off = self.checked_offset(coord)?;
        self.storage.with_write(|b| b.set(off, value));
        Ok(())
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
        let coord = vec![0; self.rank()];
        self.at(&coord)
    }

    // ----------------------------------------------------------- iteration

    /// Visit every element in row-major logical order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(Scalar)) {
        if self.is_contiguous() {
            // Fast path: a single flat range, no coordinate arithmetic.
            let n = self.numel();
            self.storage.with_read(|b| match b {
                Buffer::F32(v) => {
                    for &x in &v[self.offset..self.offset + n] {
                        f(Scalar::F32(x));
                    }
                }
                Buffer::I64(v) => {
                    for &x in &v[self.offset..self.offset + n] {
                        f(Scalar::I64(x));
                    }
                }
                Buffer::Bool(v) => {
                    for &x in &v[self.offset..self.offset + n] {
                        f(Scalar::Bool(x));
                    }
                }
            });
            return;
        }
        self.storage.with_read(|b| {
            for coord in CoordIter::new(&self.shape) {
                let off = (self.offset as isize + offset_of(&coord, &self.strides)) as usize;
                f(b.get(off));
            }
        });
    }

    /// Flat storage offsets of every element in row-major logical order.
    pub(crate) fn element_offsets(&self) -> Vec<usize> {
        CoordIter::new(&self.shape)
            .map(|coord| (self.offset as isize + offset_of(&coord, &self.strides)) as usize)
            .collect()
    }

    pub(crate) fn storage(&self) -> &Storage {
        &self.storage
    }

    // ----------------------------------------------------------- conversion

    /// The logical contents as a fresh row-major buffer.
    fn to_buffer(&self) -> Buffer {
        self.storage.with_read(|b| {
            if self.is_contiguous() {
                // Fast path: one slice copy.
                let n = self.numel();
                return match b {
                    Buffer::F32(v) => Buffer::F32(v[self.offset..self.offset + n].to_vec()),
                    Buffer::I64(v) => Buffer::I64(v[self.offset..self.offset + n].to_vec()),
                    Buffer::Bool(v) => Buffer::Bool(v[self.offset..self.offset + n].to_vec()),
                };
            }
            let offs = self.element_offsets();
            match b {
                Buffer::F32(v) => Buffer::F32(offs.iter().map(|&o| v[o]).collect()),
                Buffer::I64(v) => Buffer::I64(offs.iter().map(|&o| v[o]).collect()),
                Buffer::Bool(v) => Buffer::Bool(offs.iter().map(|&o| v[o]).collect()),
            }
        })
    }

    /// Copy the logical contents into a fresh contiguous tensor.
    pub fn clone_data(&self) -> Tensor {
        Tensor::from_buffer(self.to_buffer(), self.shape.clone())
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
        let mut out: Vec<Scalar> = Vec::with_capacity(self.numel());
        self.for_each(|s| out.push(s.cast(dtype)));
        let buffer = match dtype {
            DType::F32 => Buffer::F32(out.iter().map(|s| s.as_f32()).collect()),
            DType::I64 => Buffer::I64(out.iter().map(|s| s.as_i64()).collect()),
            DType::Bool => Buffer::Bool(out.iter().map(|s| s.as_bool()).collect()),
        };
        Tensor::from_buffer(buffer, self.shape.clone())
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
        if self.shape != other.shape {
            return false;
        }
        let mut lhs = Vec::with_capacity(self.numel());
        self.for_each(|s| lhs.push(s.as_f64()));
        let mut rhs = Vec::with_capacity(other.numel());
        other.for_each(|s| rhs.push(s.as_f64()));
        lhs.iter()
            .zip(&rhs)
            .all(|(a, b)| (a - b).abs() <= tol + tol * b.abs().max(a.abs()))
    }
}

impl PartialEq for Tensor {
    /// Structural equality: same shape, dtype and logical contents.
    fn eq(&self, other: &Tensor) -> bool {
        if self.shape != other.shape || self.dtype() != other.dtype() {
            return false;
        }
        let mut lhs = Vec::with_capacity(self.numel());
        self.for_each(|s| lhs.push(s));
        let mut rhs = Vec::with_capacity(other.numel());
        other.for_each(|s| rhs.push(s));
        lhs == rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metadata() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.strides(), &[3, 1]);
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
    }

    #[test]
    fn element_set_and_get() {
        let t = Tensor::zeros(&[2, 2]);
        t.set_at(&[0, 1], Scalar::F32(5.0)).unwrap();
        assert_eq!(t.at(&[0, 1]).unwrap(), Scalar::F32(5.0));
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
        t.set_at(&[0], Scalar::F32(1.0)).unwrap();
        assert_eq!(alias.at(&[0]).unwrap(), Scalar::F32(1.0));
        assert_eq!(copy.at(&[0]).unwrap(), Scalar::F32(0.0));
    }

    #[test]
    fn item_requires_single_element() {
        assert_eq!(Tensor::scalar_i64(4).item().unwrap(), Scalar::I64(4));
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
    }

    #[test]
    fn arange_builders() {
        assert_eq!(Tensor::arange_i64(3).to_vec_i64().unwrap(), vec![0, 1, 2]);
        assert_eq!(Tensor::arange_f32(2).to_vec_f32().unwrap(), vec![0.0, 1.0]);
    }
}
