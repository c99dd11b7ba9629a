//! Human-readable tensor formatting.

use std::fmt;

use crate::{DType, Tensor};

/// How many elements per dimension to print before eliding with `…`.
const EDGE_ITEMS: usize = 4;

impl fmt::Display for Tensor {
    /// Nested-bracket rendering (like NumPy/PyTorch), eliding long
    /// dimensions and annotating shape and dtype:
    ///
    /// ```text
    /// [[0, 1, 2], [3, 4, 5]] : f32[2x3]
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_dim(self, &mut Vec::new(), f)?;
        write!(
            f,
            " : {}[{}]",
            self.dtype(),
            self.shape()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x")
        )
    }
}

fn fmt_scalar(t: &Tensor, coord: &[usize], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t.at(coord) {
        Ok(s) => match t.dtype() {
            DType::F32 => {
                let v = s.as_f32();
                if v == v.trunc() && v.abs() < 1e6 {
                    write!(f, "{v:.0}")
                } else {
                    write!(f, "{v:.4}")
                }
            }
            DType::I64 => write!(f, "{}", s.as_i64()),
            DType::Bool => write!(f, "{}", s.as_bool()),
        },
        Err(_) => write!(f, "?"),
    }
}

fn fmt_dim(t: &Tensor, coord: &mut Vec<usize>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let depth = coord.len();
    if depth == t.rank() {
        return fmt_scalar(t, coord, f);
    }
    let size = t.shape()[depth];
    write!(f, "[")?;
    let mut printed = 0;
    for i in 0..size {
        if size > 2 * EDGE_ITEMS && i == EDGE_ITEMS {
            write!(f, ", …")?;
            continue;
        }
        if size > 2 * EDGE_ITEMS && i > EDGE_ITEMS && i < size - EDGE_ITEMS {
            continue;
        }
        if printed > 0 {
            write!(f, ", ")?;
        }
        coord.push(i);
        fmt_dim(t, coord, f)?;
        coord.pop();
        printed += 1;
    }
    write!(f, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tensor_renders_fully() {
        let t = Tensor::from_vec_f32(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3]).unwrap();
        assert_eq!(t.to_string(), "[[0, 1, 2], [3, 4, 5]] : f32[2x3]");
    }

    #[test]
    fn long_dimension_is_elided() {
        let t = Tensor::arange_f32(100);
        let s = t.to_string();
        assert!(s.contains('…'), "{s}");
        assert!(s.contains("f32[100]"), "{s}");
        assert!(s.contains("99"), "tail edge items shown: {s}");
    }

    #[test]
    fn scalar_and_bool_tensors() {
        let scalar = Tensor::from_vec_f32(vec![2.5], &[]).unwrap();
        assert_eq!(scalar.to_string(), "2.5000 : f32[]");
        let b = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        assert_eq!(b.to_string(), "[true, false] : bool[2]");
        let i = Tensor::from_vec_i64(vec![-7], &[1]).unwrap();
        assert_eq!(i.to_string(), "[-7] : i64[1]");
    }

    #[test]
    fn views_render_their_logical_contents() {
        let t = Tensor::from_vec_f32(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]).unwrap();
        let col = t.transpose(0, 1).unwrap().select(0, 1).unwrap();
        assert_eq!(col.to_string(), "[1, 3] : f32[2]");
    }
}
