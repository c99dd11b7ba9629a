//! The paper's primary contribution: TensorSSA conversion (Algorithm 1 of
//! the DAC'24 paper) plus the supporting pass infrastructure.
//!
//! The entry point is [`convert_to_tensorssa`], which takes a graph
//! containing aliasing view operators and in-place mutations and rewrites the
//! memory-dependency-only alias components (found by `tssa-alias`) into pure
//! functional form:
//!
//! 1. **Rewrite mutation** (§4.1.1) — every view becomes an `immut::access`;
//!    every mutation is decomposed into its functional counterpart, a
//!    *pass-up* chain of `immut::assign` producing a new version of the
//!    origin tensor, and a *pass-down* re-access of every dominated view,
//!    annotated with `tssa::update` markers.
//! 2. **Block propagation** (§4.1.2) — updates whose new version is defined
//!    inside a control-flow block are propagated outward by extending loop
//!    carries and branch returns.
//! 3. **Renaming** — every use of a mutated value after an update is
//!    replaced by the latest version; update markers are removed.
//!
//! The result contains no `aten::*_` mutation inside converted components, so
//! downstream fusion (`tssa-fusion`) can treat the program as pure data flow
//! (§4.2).
//!
//! # Examples
//!
//! The paper's Figure 4 example — mutating a row of `b` inside a loop:
//!
//! ```
//! use tssa_core::{convert_to_tensorssa, passes, Pass};
//! use tssa_ir::parse_graph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = parse_graph(
//!     "graph(%b0 : Tensor, %n : int):
//!        %b : Tensor = aten::clone(%b0)
//!        %t : bool = prim::Constant[value=true]()
//!        %one : float = prim::Constant[value=1.0]()
//!        prim::Loop(%n, %t)
//!          block0(%i : int):
//!            %bi : Tensor = aten::select[dim=0](%b, %i)
//!            %m : Tensor = aten::add_scalar_(%bi, %one)
//!            -> (%t)
//!        return (%b)",
//! )?;
//! let stats = convert_to_tensorssa(&mut g);
//! assert_eq!(stats.mutations_removed, 1);
//! passes::Dce.run(&mut g);
//! let text = g.to_string();
//! assert!(text.contains("immut::assign"));
//! assert!(!text.contains("aten::add_scalar_"));
//! # Ok(())
//! # }
//! ```

mod defunctionalize;
mod pass;
pub mod passes;
mod tensorssa;

pub use defunctionalize::defunctionalize;
pub use pass::{Pass, PassHook, PassManager, PassRun, SanitizerViolation};
pub use tensorssa::{convert_to_tensorssa, ConversionStats};
