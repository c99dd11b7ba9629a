//! Sweep the attention workload over sequence lengths (the shape of the
//! paper's Figure 8): latency should grow linearly, with TensorSSA below
//! the baselines at every point thanks to horizontal parallelization of the
//! causal-masking loop.
//!
//! ```text
//! cargo run --release --example attention_seqlen
//! ```

use tensorssa::backend::DeviceProfile;
use tensorssa::pipelines::PipelineKind;
use tensorssa::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::by_name("attention").expect("built-in workload");
    let graph = workload.graph()?;
    let device = DeviceProfile::datacenter();
    let seqs = [4usize, 8, 16, 32, 64];

    print!("{:<22}", "pipeline");
    for s in seqs {
        print!("{:>12}", format!("seq={s}"));
    }
    println!();
    for pipeline in PipelineKind::all() {
        let compiled = pipeline.compile(&graph);
        print!("{:<22}", pipeline.name());
        for s in seqs {
            let inputs = workload.inputs(0, s, 99);
            let (_, stats) = compiled.run(device.clone(), &inputs)?;
            print!("{:>12}", format!("{:.0}us", stats.total_us()));
        }
        println!();
    }
    Ok(())
}
