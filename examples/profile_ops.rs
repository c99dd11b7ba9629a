//! Per-operator cost breakdown of a workload before and after TensorSSA —
//! shows *where* the time goes (the paper's §5.2 analysis that view/mutation
//! operators dominate the imperative programs).
//!
//! ```text
//! cargo run --release --example profile_ops [workload]
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tensorssa::backend::{
    DeviceProfile, ExecConfig, Executor, OpObserver, RtValue, TOP_LEVEL_GROUP,
};
use tensorssa::ir::{Graph, Op};
use tensorssa::pipelines::{Pipeline, TensorSsa};
use tensorssa::workloads::Workload;

#[derive(Default)]
struct Row {
    count: u64,
    launches: u64,
    device_ns: f64,
    wall_ns: u64,
}

/// Counts samples per operator name and prices their traffic on `device`.
struct OpTable {
    device: DeviceProfile,
    rows: Mutex<HashMap<String, Row>>,
}

impl OpObserver for OpTable {
    fn record_op(&self, group: u32, _node: u32, op: &Op, wall_ns: u64, bytes: u64, flops: u64) {
        let mut rows = self.rows.lock().expect("no sample panics");
        let row = rows.entry(op.name()).or_default();
        row.count += 1;
        row.wall_ns += wall_ns;
        // An op inside a fusion group rides the group's launch, and the
        // group's own sample carries the bytes that reach memory.
        let fused = group != TOP_LEVEL_GROUP && *op != Op::FusionGroup;
        if !fused && (bytes > 0 || flops > 0) {
            row.launches += 1;
            row.device_ns += self.device.launch_overhead_ns;
        }
        let bytes = if fused { 0 } else { bytes };
        row.device_ns += self.device.kernel_work_ns(bytes, flops);
    }
}

fn profile(
    title: &str,
    cfg: ExecConfig,
    graph: &Graph,
    inputs: &[RtValue],
) -> Result<(), Box<dyn std::error::Error>> {
    let table = Arc::new(OpTable {
        device: cfg.device.clone(),
        rows: Mutex::default(),
    });
    let (_, stats) = Executor::new(cfg)
        .observed(table.clone())
        .run(graph, inputs)?;
    let mut rows: Vec<(String, Row)> = table.rows.lock().expect("run is over").drain().collect();
    rows.sort_by(|a, b| b.1.device_ns.total_cmp(&a.1.device_ns));
    println!("\n== {title} ({stats}) ==");
    println!(
        "{:<26} {:>6} {:>9} {:>12} {:>12}",
        "operator", "count", "launches", "device(us)", "wall(us)"
    );
    for (name, r) in rows.iter().take(12) {
        println!(
            "{:<26} {:>6} {:>9} {:>12.1} {:>12.1}",
            name,
            r.count,
            r.launches,
            r.device_ns / 1000.0,
            r.wall_ns as f64 / 1000.0
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lstm".into());
    let workload = Workload::by_name(&name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
    let graph = workload.graph()?;
    let inputs = workload.inputs(0, 0, 7);

    let eager = ExecConfig::eager();
    profile(&format!("{name} — eager"), eager, &graph, &inputs)?;
    let compiled = TensorSsa::default().compile(&graph);
    let ours = compiled.exec_config.clone();
    profile(
        &format!("{name} — TensorSSA"),
        ours,
        &compiled.graph,
        &inputs,
    )
}
