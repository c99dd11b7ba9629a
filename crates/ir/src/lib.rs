//! Block-structured graph-level IR for imperative tensor programs.
//!
//! This crate mirrors the shape of TorchScript's graph IR, which the
//! TensorSSA paper (DAC'24) builds on: a [`Graph`] owns a tree of
//! [`Block`]s; each block holds an ordered list of [`Node`]s plus block
//! *parameters* and *returns*; control flow is expressed by `prim::If` and
//! `prim::Loop` nodes carrying nested blocks (the "functional SSA" form where
//! dependent values are passed as block arguments — §2.2 of the paper).
//!
//! The operator set ([`Op`]) covers four families:
//!
//! * **aliasing view operators** ([`Op::View`]) — `select`, `slice`, … which
//!   produce tensors sharing storage with their base;
//! * **in-place mutation operators** ([`Op::Mutate`]) — `copy_`, `add_`, …
//!   with tensor-level side effects;
//! * **pure functional operators** — elementwise math ([`Op::Unary`],
//!   [`Op::Binary`]), host-scalar arithmetic ([`Op::Scalar`]), reductions,
//!   matmul…;
//! * **TensorSSA operators** — `immut::access`, `immut::assign` and
//!   `tssa::update` (§3.2), the immutable replacements installed by the
//!   conversion pass in `tssa-core`.
//!
//! # Examples
//!
//! Build `y = relu(x + 1)` and print it:
//!
//! ```
//! use tssa_ir::{Graph, Type, UnaryKind};
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", Type::Tensor);
//! let one = g.constant_float(1.0);
//! let add = g.append(g.top(), UnaryKind::AddScalar, &[x, one], &[Type::Tensor]);
//! let sum = g.node(add).outputs[0];
//! let relu = g.append(g.top(), UnaryKind::Relu, &[sum], &[Type::Tensor]);
//! let y = g.node(relu).outputs[0];
//! g.set_returns(g.top(), &[y]);
//! assert!(g.verify().is_ok());
//! assert!(g.to_string().contains("aten::relu"));
//! ```

mod dot;
mod graph;
mod ops;
mod order;
mod parser;
mod printer;
mod shapes;
mod symdim;
mod types;
mod verify;

pub use dot::to_dot;
pub use graph::{Block, BlockId, Graph, Node, NodeId, SrcSpan, Use, Value, ValueDef, ValueId};
pub use ops::{BinaryKind, MutateKind, Op, ScalarError, ScalarKind, UnaryKind, ViewKind};
pub use parser::{parse_graph, ParseIrError};
pub use shapes::{infer_shapes, infer_shapes_symbolic, Shape, ShapeInfo};
pub use symdim::{Constraint, DimClass, DimUnionFind, DimVar, ShapeSignature, SymDim, SymExpr};
pub use types::{ConstValue, ScalarType, Type};
pub use verify::{VerifyError, VerifyErrorKind};
