//! Dynamically-typed runtime values flowing through the interpreter.

use tssa_tensor::Tensor;

use crate::ExecError;

/// A runtime value bound to an IR value during execution.
#[derive(Debug, Clone)]
pub enum RtValue {
    /// A device tensor.
    Tensor(Tensor),
    /// A host integer.
    Int(i64),
    /// A host float.
    Float(f64),
    /// A host boolean.
    Bool(bool),
    /// A host list.
    List(Vec<RtValue>),
}

impl RtValue {
    /// Borrow as tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] for non-tensor values.
    pub fn as_tensor(&self) -> Result<&Tensor, ExecError> {
        match self {
            RtValue::Tensor(t) => Ok(t),
            other => Err(ExecError::type_mismatch("Tensor", other)),
        }
    }

    /// Read as integer.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] for non-int values.
    pub fn as_int(&self) -> Result<i64, ExecError> {
        match self {
            RtValue::Int(v) => Ok(*v),
            other => Err(ExecError::type_mismatch("int", other)),
        }
    }

    /// Read as float.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] for non-float values (ints are
    /// promoted).
    pub fn as_float(&self) -> Result<f64, ExecError> {
        match self {
            RtValue::Float(v) => Ok(*v),
            RtValue::Int(v) => Ok(*v as f64),
            other => Err(ExecError::type_mismatch("float", other)),
        }
    }

    /// Read as boolean.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] for non-bool values.
    pub fn as_bool(&self) -> Result<bool, ExecError> {
        match self {
            RtValue::Bool(v) => Ok(*v),
            other => Err(ExecError::type_mismatch("bool", other)),
        }
    }

    /// Borrow as list.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TypeMismatch`] for non-list values.
    pub(crate) fn as_list(&self) -> Result<&[RtValue], ExecError> {
        match self {
            RtValue::List(v) => Ok(v),
            other => Err(ExecError::type_mismatch("list", other)),
        }
    }

    /// Short description used in error messages (`Tensor[2x3]`, `int`, …).
    pub fn kind(&self) -> String {
        match self {
            RtValue::Tensor(t) => format!(
                "Tensor[{}]",
                t.shape()
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            RtValue::Int(_) => "int".into(),
            RtValue::Float(_) => "float".into(),
            RtValue::Bool(_) => "bool".into(),
            RtValue::List(_) => "list".into(),
        }
    }
}

impl From<Tensor> for RtValue {
    fn from(t: Tensor) -> Self {
        RtValue::Tensor(t)
    }
}

impl From<i64> for RtValue {
    fn from(v: i64) -> Self {
        RtValue::Int(v)
    }
}

impl From<f64> for RtValue {
    fn from(v: f64) -> Self {
        RtValue::Float(v)
    }
}

impl From<bool> for RtValue {
    fn from(v: bool) -> Self {
        RtValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_check_types() {
        let v = RtValue::Int(3);
        assert_eq!(v.as_int().unwrap(), 3);
        assert_eq!(v.as_float().unwrap(), 3.0);
        assert!(v.as_bool().is_err());
        assert!(v.as_tensor().is_err());
        let t = RtValue::Tensor(Tensor::zeros(&[2, 3]));
        assert_eq!(t.kind(), "Tensor[2x3]");
        assert!(t.as_tensor().is_ok());
        let l = RtValue::List(vec![RtValue::Bool(true)]);
        assert_eq!(l.as_list().unwrap().len(), 1);
    }
}
