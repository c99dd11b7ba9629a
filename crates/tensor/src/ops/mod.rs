//! Functional (out-of-place) operators.

mod elementwise;
mod matmul;
mod reduce;
mod shape;

pub use elementwise::where_select;
pub use shape::{concat, stack};
