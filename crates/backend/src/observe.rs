//! Execution observation seam: the backend reports per-op wall time, and
//! the shape of every tensor it binds, to an [`OpObserver`] without
//! depending on any particular profiler or checker.
//!
//! The observer vocabulary is deliberately minimal — `(group, node, op,
//! wall, bytes, flops)` per op and `(value, shape)` per binding — so the
//! backend stays free of observability dependencies; `tssa-pipelines`
//! adapts it onto the `tssa-obs` profile sinks (adding the plan label the
//! backend does not know), and the fuzzer's concretization check records
//! the bindings.

use tssa_ir::{Op, ValueId};

/// Sentinel "fusion group" id for ops executed outside any fusion group.
pub const TOP_LEVEL_GROUP: u32 = u32::MAX;

/// Receives one sample per executed op. Implementations must be cheap and
/// thread-safe: one observer is shared by every thread that runs the plan.
pub trait OpObserver: Send + Sync {
    /// One op executed: `group` is the owning fusion-group node id (or
    /// [`TOP_LEVEL_GROUP`]), `node` the op's node id, `wall_ns` its wall
    /// self-time (its wall time less what the nodes nested in it
    /// reported), `bytes`/`flops` the traffic the cost model attributed to
    /// it.
    fn record_op(&self, group: u32, node: u32, op: &Op, wall_ns: u64, bytes: u64, flops: u64);

    /// A tensor value was bound to `shape`: a block parameter at block
    /// entry or a node output after the node ran, once per loop iteration.
    /// Values inside a fusion group's body are not bound one by one.
    fn bound(&self, value: ValueId, shape: &[usize]) {
        let _ = (value, shape);
    }
}
