//! Strided-view tensor runtime with shared storage, views and in-place mutation.
//!
//! This crate is the "PyTorch eager" substrate of the TensorSSA reproduction:
//! it provides n-dimensional tensors whose *views* (produced by [`Tensor::select`],
//! [`Tensor::slice`], [`Tensor::permute`], …) share the same underlying storage
//! as their base tensor, and *in-place* operators ([`Tensor::copy_`],
//! [`Tensor::binary_`], …) that mutate that storage through any view. This is
//! exactly the aliasing behaviour that the TensorSSA functionalization pass
//! (crate `tssa-core`) must analyse and eliminate.
//!
//! # Examples
//!
//! A mutation through a view is visible through the base tensor (Figure 1 of
//! the paper):
//!
//! ```
//! # use tssa_tensor::Tensor;
//! # fn main() -> Result<(), tssa_tensor::TensorError> {
//! let a = Tensor::zeros(&[2, 3]);
//! let b = a.select(0, 1)?;          // b is a view of row 1 of a
//! let c = Tensor::full(&[3], 7.0);
//! b.copy_(&c)?;                     // mutating b mutates a
//! assert_eq!(a.to_vec_f32()?, vec![0.0, 0.0, 0.0, 7.0, 7.0, 7.0]);
//! # Ok(())
//! # }
//! ```

mod dtype;
mod error;
mod fmt;
mod inplace;
pub mod kernel;
mod layout;
mod math;
mod ops;
mod random;
mod storage;
mod tensor;
mod view;

pub use dtype::{promote, DType, Scalar};
pub use error::TensorError;
pub use kernel::{BinaryOp, UnaryOp};
pub use layout::{broadcast_shapes, Layout};
pub use ops::{concat, stack, where_select};
pub use storage::Buffer;
pub use tensor::{read_buffers, Tensor};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
