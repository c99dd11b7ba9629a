//! Compare all five pipelines on the YOLOv3 post-processing workload —
//! the bounding-box decode the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example yolo_postprocess
//! ```

use tensorssa::backend::DeviceProfile;
use tensorssa::pipelines::PipelineKind;
use tensorssa::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::by_name("yolov3").expect("built-in workload");
    let graph = workload.graph()?;
    println!("=== YOLOv3 post-processing (imperative capture) ===\n{graph}");

    let inputs = workload.inputs(4, 0, 2024);
    let device = DeviceProfile::consumer();

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "pipeline", "launches", "device(us)", "host(us)", "total(us)"
    );
    let mut eager_total = None;
    for pipeline in PipelineKind::all() {
        let compiled = pipeline.compile(&graph);
        let (_, stats) = compiled.run(device.clone(), &inputs)?;
        let total = stats.total_us();
        let eager = *eager_total.get_or_insert(total);
        println!(
            "{:<22} {:>10} {:>12.1} {:>12.1} {:>10.1}  ({:.2}x)",
            pipeline.name(),
            stats.kernel_launches,
            stats.device_ns / 1000.0,
            stats.host_ns / 1000.0,
            total,
            eager / total,
        );
    }
    Ok(())
}
