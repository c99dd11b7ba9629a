//! Typed element buffers and shared, reference-counted storage.
//!
//! A [`Buffer`] is plain owned data. A [`Storage`] is the unit of aliasing:
//! every tensor view of the same base tensor holds a clone of the same
//! `Storage`, and in-place operators write through it. A [`StorageId`] tells
//! whether two tensors share memory without touching the data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{DType, Scalar};

static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(0);

/// Opaque identity of a storage buffer; equal ids mean shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct StorageId(u64);

/// Typed element buffer.
#[derive(Debug, Clone)]
pub enum Buffer {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl Default for Buffer {
    fn default() -> Buffer {
        Buffer::F32(Vec::new())
    }
}

impl Buffer {
    /// Element type.
    pub fn dtype(&self) -> DType {
        match self {
            Buffer::F32(_) => DType::F32,
            Buffer::I64(_) => DType::I64,
            Buffer::Bool(_) => DType::Bool,
        }
    }

    pub(crate) fn len(&self) -> usize {
        crate::kernel::typed!(self, |v| v.len())
    }

    pub(crate) fn get(&self, i: usize) -> Scalar {
        crate::kernel::typed!(self, |v| v[i].into())
    }

    /// `len` elements of `dtype`, each `value` cast to it.
    pub fn filled(dtype: DType, len: usize, value: Scalar) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(vec![value.as_f32(); len]),
            DType::I64 => Buffer::I64(vec![value.as_i64(); len]),
            DType::Bool => Buffer::Bool(vec![value.as_bool(); len]),
        }
    }
}

/// Reference-counted shared buffer; clones alias the same memory.
#[derive(Debug, Clone)]
pub(crate) struct Storage {
    id: StorageId,
    len: usize,
    data: Arc<RwLock<Buffer>>,
}

/// glibc serves a request at or above its mmap threshold by mapping fresh
/// pages and unmaps them on free. The threshold starts at 128 KiB and only
/// ever rises to the size of the largest mapped block freed so far — so,
/// left alone, every buffer of a program's largest tensor size is mapped,
/// page-faulted and unmapped once per operator (on the 393 KiB tensors of
/// `exec-cv`'s yolov3/b8 cell that is a fifth of the run). Freeing one
/// 1 MiB block up front — never touched, so never resident — starts the
/// threshold there: the small tensors, whose kernels cost less than the
/// mapping, come from the heap, and anything larger still goes back to the
/// system when freed. Other allocators ignore it. Still needed now that a
/// fused launch borrows its inputs instead of copying them: every compute
/// node returns a whole buffer, and without this `exec-cv` loses a tenth of
/// its throughput (EXPERIMENTS.md "PR 21").
fn raise_mmap_threshold() {
    static PRIMED: Once = Once::new();
    PRIMED.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 20))));
}

impl Storage {
    pub(crate) fn new(buffer: Buffer) -> Storage {
        raise_mmap_threshold();
        Storage {
            id: StorageId(NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed)),
            len: buffer.len(),
            data: Arc::new(RwLock::new(buffer)),
        }
    }

    pub(crate) fn id(&self) -> StorageId {
        self.id
    }

    /// Element count; in-place operators never resize a buffer.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Shared access to the buffer.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Buffer> {
        self.data.read()
    }

    /// Exclusive access to the buffer.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Buffer> {
        self.data.write()
    }

    /// The buffer itself, if this is the only handle on it.
    pub(crate) fn into_buffer(self) -> Result<Buffer, Storage> {
        let Storage { id, len, data } = self;
        match Arc::try_unwrap(data) {
            Ok(lock) => Ok(lock.into_inner()),
            Err(data) => Err(Storage { id, len, data }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_identity_and_data() {
        let s = Storage::new(Buffer::F32(vec![1.0, 2.0]));
        let t = s.clone();
        assert_eq!(s.id(), t.id());
        *t.write() = Buffer::F32(vec![9.0, 2.0]);
        assert_eq!(s.read().get(0), Scalar::F32(9.0));
    }

    #[test]
    fn fresh_storages_have_distinct_ids() {
        let a = Storage::new(Buffer::F32(vec![0.0]));
        let b = Storage::new(Buffer::F32(vec![0.0]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn filled_buffers_match_dtype() {
        assert_eq!(
            Buffer::filled(DType::I64, 3, Scalar::F32(2.7)).get(1),
            Scalar::I64(2)
        );
        assert_eq!(
            Buffer::filled(DType::Bool, 2, Scalar::I64(1)).get(0),
            Scalar::Bool(true)
        );
    }
}
