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
//! from [`ExecConfig`], a `prim::FusionGroup` executes as a **single** launch
//! evaluated element-at-a-time without intermediate buffers, and a
//! `prim::ParallelMap` executes all loop iterations as one batched launch.
//! [`ExecStats`] reports kernel counts (Figure 6) and simulated time
//! (Figures 5, 7, 8).
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

mod device;
mod error;
mod fused;
mod interp;
mod observe;
mod ops;
mod stats;
mod value;

pub use device::{DeviceProfile, ExecConfig};
pub use error::ExecError;
pub use interp::{Executor, OpProfile};
pub use observe::{OpObserver, TOP_LEVEL_GROUP};
pub use stats::ExecStats;
pub use value::RtValue;
