//! Execution engine and simulated-GPU cost model.
//!
//! The [`Executor`] interprets graph IR with the *real* semantics of the
//! `tssa-tensor` runtime — views alias, mutations write through shared
//! storage — so both imperative (pre-conversion) and functional
//! (TensorSSA-form) programs run and can be compared for equivalence.
//!
//! While executing, the engine plays the role of the GPU runtime the paper
//! measures: every tensor operator is a *kernel launch* against a
//! [`DeviceProfile`] (launch overhead + memory bandwidth + FLOP throughput),
//! scalar/control operators run on the *host* with per-framework overheads
//! from [`ExecConfig`], a `prim::FusionGroup` is charged as a **single**
//! launch that keeps its intermediates in registers, and a
//! `prim::ParallelMap` as one batched launch of all loop iterations.
//! [`ExecStats`] reports kernel counts (Figure 6) and simulated time
//! (Figures 5, 7, 8).
//!
//! What does not depend on a run's shapes and values — how each fusion
//! group lowers onto kernels, and which values a block lets go of where —
//! is an [`ExecPlan`], built once per graph; [`Executor::run`] builds one on
//! the spot, long-lived callers keep it ([`Executor::run_plan`]).
//!
//! # Examples
//!
//! ```
//! use tssa_backend::{ExecConfig, Executor, RtValue};
//! use tssa_ir::parse_graph;
//! use tssa_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = parse_graph(
//!     "graph(%x : Tensor):
//!        %y : Tensor = aten::relu(%x)
//!        return (%y)",
//! )?;
//! let exec = Executor::new(ExecConfig::compiled());
//! let x = Tensor::from_vec_f32(vec![-1.0, 2.0], &[2])?;
//! let (outs, stats) = exec.run(&g, &[RtValue::Tensor(x)])?;
//! assert_eq!(outs[0].as_tensor()?.to_vec_f32()?, vec![0.0, 2.0]);
//! assert_eq!(stats.kernel_launches, 1);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod device;
mod error;
mod fused;
mod interp;
mod observe;
mod ops;
mod plan;
mod stats;
mod value;

pub use device::{DeviceProfile, ExecConfig};
pub use error::ExecError;
pub use interp::Executor;
pub use observe::{OpObserver, TOP_LEVEL_GROUP};
pub use plan::ExecPlan;
pub use stats::ExecStats;
pub use value::RtValue;
