//! Execution observation seam: the backend reports per-op wall time to an
//! [`OpObserver`] without depending on any particular profiler.
//!
//! The observer vocabulary is deliberately minimal — `(group, node, op,
//! wall, bytes, flops)` — so the backend stays free of observability
//! dependencies; `tssa-pipelines` adapts it onto the `tssa-obs` profile
//! sinks (adding the plan label the backend does not know).

use tssa_ir::Op;

/// Sentinel "fusion group" id for ops executed outside any fusion group.
pub const TOP_LEVEL_GROUP: u32 = u32::MAX;

/// Receives one sample per executed op. Implementations must be cheap and
/// thread-safe: one observer is shared by every thread that runs the plan.
pub trait OpObserver: Send + Sync {
    /// One op executed: `group` is the owning fusion-group node id (or
    /// [`TOP_LEVEL_GROUP`]), `node` the op's node id, `wall_ns` its wall
    /// self-time (child blocks excluded), `bytes`/`flops` the traffic the
    /// cost model attributed to it.
    fn record_op(&self, group: u32, node: u32, op: &Op, wall_ns: u64, bytes: u64, flops: u64);
}
