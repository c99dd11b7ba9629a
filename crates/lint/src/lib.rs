//! Static analysis for imperative tensor programs: effect checking, lint
//! rules, a pass sanitizer and differential IR fuzzing.
//!
//! TensorSSA (the DAC'24 paper this workspace reproduces) hinges on one
//! semantic claim: after functionalization, the graph is *pure*, so every
//! downstream rewrite may treat it as immutable data flow. This crate turns
//! that claim from an assumption into a checked property, four ways:
//!
//! - [`check_effects`] / [`certify_pure`] — a dataflow effect checker over
//!   the `tssa-alias` points-to graph proving a graph free of in-place
//!   mutation, leftover `tssa::update` markers, and views escaping their
//!   origin's control-flow region.
//! - [`lint`] — four lint rules over pre-functionalization IR, one fixed
//!   table with one severity each: non-functionalizable mutations per
//!   Eq. (1)–(2), shape-incompatible view chains and provably impossible
//!   broadcasts (both deny), and data-dependent output dims.
//! - [`certify_shapes`] — the shape-polymorphism certifier: seeds the
//!   symbolic shape analysis with fresh per-input-dim variables and emits a
//!   `ShapeSignature` classifying every input dim as polymorphic,
//!   specialized or data-dependent — the certificate a bucketed plan cache
//!   keys on.
//! - [`PassSanitizer`] — the one debug `tssa_core::PassHook`: after every
//!   pass it re-runs `Graph::verify`, then the effect checker, then the
//!   shape ratchet (no statically known output dim may widen), attributing
//!   the first broken invariant to `pass:<name>` (surfaced through the
//!   `tssa-obs` span tree). Installed by `tssa-pipelines` in debug builds.
//! - [`fuzz`] — a TorchProbe-style differential harness: seeded random DSL
//!   programs with views, mutations and nested control flow, executed by
//!   the reference interpreter before and after a transformation and
//!   diffed element-wise.
//!
//! # Examples
//!
//! ```
//! use tssa_lint::{check_effects, lint};
//! use tssa_frontend::compile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = compile(
//!     "def f(x: Tensor, n: int):
//!          b = x.clone()
//!          for i in range(n):
//!              b[i] = b[i] + 1.0
//!          return b
//! ")?;
//! // The imperative graph carries one effect (the row write)…
//! assert_eq!(check_effects(&g).mutations, 1);
//! // …which the linter proves functionalizable (no diagnostics).
//! assert!(lint(&g).is_empty());
//! # Ok(())
//! # }
//! ```

mod diag;
mod effect;
pub mod fuzz;
mod rules;
mod sanitize;
mod shapesig;

pub use diag::{Diagnostic, Severity};
pub use effect::{certify_pure, check_effects, PurityReport};
pub use rules::{lint, rules};
pub use sanitize::PassSanitizer;
pub use shapesig::certify_shapes;
