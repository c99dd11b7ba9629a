//! Frontend for a small imperative tensor DSL.
//!
//! The paper's input programs are imperative PyTorch functions; this crate
//! plays the role of the TorchScript frontend, turning a Python-flavoured
//! source text into graph-level IR. Whole-variable reassignment (including
//! across `for`/`if`) is resolved to SSA form during lowering — exactly the
//! scalar-SSA capture step the paper assumes (§2.2), leaving only *partial*
//! (view-level) mutation in the graph for the TensorSSA pass to handle.
//!
//! Supported constructs: typed parameters, `for _ in range(n)`, `if`/`else`,
//! tensor views by subscripting (`a[i]`, `a[1:4]`, `a[:, 0]`), in-place
//! methods (`t.copy_(s)`, `t.add_(s)`, subscript assignment `a[i] = x`),
//! elementwise/matrix math and the usual factory functions.
//!
//! # Examples
//!
//! The running example of the paper (Figure 4):
//!
//! ```
//! use tssa_frontend::compile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = compile(
//!     "def add_rows(b0: Tensor, n: int):
//!          b = b0.clone()
//!          for i in range(n):
//!              b[i] = b[i] + 1.0
//!          return b
//! ")?;
//! assert!(graph.to_string().contains("prim::Loop"));
//! assert!(graph.to_string().contains("aten::copy_"));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ast;
mod error;
mod lexer;
mod lower;
mod parser;

pub use error::FrontendError;
use lower::lower;
use parser::parse;

use tssa_ir::Graph;

/// Parse and lower a DSL source into graph IR in one step.
///
/// # Errors
///
/// Returns a [`FrontendError`] with a line number on syntax or semantic
/// problems.
pub fn compile(source: &str) -> Result<Graph, FrontendError> {
    let func = parse(source)?;
    let graph = lower(&func)?;
    graph.verify().map_err(|e| FrontendError {
        line: 0,
        message: format!("internal: lowered graph failed verification: {e}"),
    })?;
    Ok(graph)
}
