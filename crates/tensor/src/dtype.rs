//! Element types and dynamically-typed scalars.

use std::fmt;

/// Element type of a [`crate::Tensor`].
///
/// The workloads in the TensorSSA evaluation only need floating-point data,
/// integer indices and boolean masks, so the runtime supports exactly those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit signed integer (indices, lengths).
    I64,
    /// Boolean (comparison results, masks).
    Bool,
}

impl DType {
    /// Size of one element in bytes, used by the device cost model.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::I64 => 8,
            DType::Bool => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DType::F32 => write!(f, "f32"),
            DType::I64 => write!(f, "i64"),
            DType::Bool => write!(f, "bool"),
        }
    }
}

/// A dynamically-typed scalar value, the element-level counterpart of
/// [`crate::Tensor`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum Scalar {
    /// A float element.
    F32(f32),
    /// An integer element.
    I64(i64),
    /// A boolean element.
    Bool(bool),
}

impl Scalar {
    /// The element type this scalar belongs to.
    pub fn dtype(self) -> DType {
        match self {
            Scalar::F32(_) => DType::F32,
            Scalar::I64(_) => DType::I64,
            Scalar::Bool(_) => DType::Bool,
        }
    }

    /// Numeric value as `f64`, converting integers and booleans.
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::F32(v) => v as f64,
            Scalar::I64(v) => v as f64,
            Scalar::Bool(v) => {
                if v {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Value as `f32`, converting integers and booleans.
    pub(crate) fn as_f32(self) -> f32 {
        match self {
            Scalar::F32(v) => v,
            other => other.as_f64() as f32,
        }
    }

    /// Value as `i64`, truncating floats.
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::F32(v) => v as i64,
            Scalar::I64(v) => v,
            Scalar::Bool(v) => v as i64,
        }
    }

    /// Value as `bool` (non-zero is `true`).
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::F32(v) => v != 0.0,
            Scalar::I64(v) => v != 0,
            Scalar::Bool(v) => v,
        }
    }

    /// Convert to another element type.
    pub fn cast(self, dtype: DType) -> Scalar {
        match dtype {
            DType::F32 => Scalar::F32(self.as_f32()),
            DType::I64 => Scalar::I64(self.as_i64()),
            DType::Bool => Scalar::Bool(self.as_bool()),
        }
    }
}

impl From<f32> for Scalar {
    fn from(v: f32) -> Self {
        Scalar::F32(v)
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::I64(v)
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F32(v) => write!(f, "{v}"),
            Scalar::I64(v) => write!(f, "{v}"),
            Scalar::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Promotion rule used by binary operators: `bool < i64 < f32`.
pub fn promote(a: DType, b: DType) -> DType {
    use DType::*;
    match (a, b) {
        (F32, _) | (_, F32) => F32,
        (I64, _) | (_, I64) => I64,
        (Bool, Bool) => Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_casts_round_trip() {
        assert_eq!(Scalar::F32(2.5).as_i64(), 2);
        assert_eq!(Scalar::I64(3).as_f32(), 3.0);
        assert!(Scalar::F32(0.1).as_bool());
        assert!(!Scalar::I64(0).as_bool());
        assert_eq!(Scalar::Bool(true).cast(DType::F32), Scalar::F32(1.0));
    }

    #[test]
    fn promotion_prefers_float() {
        assert_eq!(promote(DType::Bool, DType::Bool), DType::Bool);
        assert_eq!(promote(DType::Bool, DType::I64), DType::I64);
        assert_eq!(promote(DType::I64, DType::F32), DType::F32);
        assert_eq!(promote(DType::F32, DType::F32), DType::F32);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }
}
