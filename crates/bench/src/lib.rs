//! Shared measurement harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index):
//!
//! * `fig5_overall` — end-to-end speedup over eager per pipeline/workload/
//!   platform (Figure 5);
//! * `fig6_kernel_launches` — kernel-launch counts (Figure 6);
//! * `fig7_batch_sweep` — speedup across batch sizes (Figure 7);
//! * `fig8_seqlen_sweep` — latency across sequence lengths (Figure 8);
//! * `table_op_census` — imperative-operator census backing the §1 claim;
//! * `ablation` — TensorSSA with individual optimizations disabled.

use tssa_backend::{DeviceProfile, ExecStats};
use tssa_pipelines::PipelineKind;
use tssa_workloads::Workload;

/// One measurement of one (workload, pipeline, device, size) combination.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Pipeline name.
    pub pipeline: String,
    /// Device profile name.
    pub device: String,
    /// Batch size used.
    pub batch: usize,
    /// Sequence length used (0 for CV workloads).
    pub seq: usize,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Execute `workload` under every pipeline on `device`; batch/seq of 0 use
/// the workload defaults.
///
/// # Panics
///
/// Panics if a workload fails to compile or execute — the binaries are
/// developer tools where aborting with the error is the right behaviour.
pub fn measure_all_pipelines(
    workload: &Workload,
    device: &DeviceProfile,
    batch: usize,
    seq: usize,
    seed: u64,
) -> Vec<Record> {
    let g = workload.graph().expect("workload compiles");
    let inputs = workload.inputs(batch, seq, seed);
    PipelineKind::all()
        .into_iter()
        .map(|p| {
            let cp = p.compile(&g);
            let (_, stats) = cp
                .session()
                .on_device(device.clone())
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", workload.name, p.name()));
            Record {
                workload: workload.name.to_string(),
                pipeline: p.name().to_string(),
                device: device.name.to_string(),
                batch: if batch == 0 {
                    workload.default_batch
                } else {
                    batch
                },
                seq: if seq == 0 { workload.default_seq } else { seq },
                stats,
            }
        })
        .collect()
}

/// Speedup of each record in `records` relative to the `Eager` record of the
/// same (workload, device, batch, seq).
pub fn speedups_vs_eager(records: &[Record]) -> Vec<(Record, f64)> {
    records
        .iter()
        .map(|r| {
            let eager = records
                .iter()
                .find(|e| {
                    e.pipeline == "Eager"
                        && e.workload == r.workload
                        && e.device == r.device
                        && e.batch == r.batch
                        && e.seq == r.seq
                })
                .expect("eager baseline present");
            (r.clone(), eager.stats.total_ns() / r.stats.total_ns())
        })
        .collect()
}

/// Render a fixed-width table: header row then data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The two platforms of the paper (§5.1).
pub fn both_devices() -> Vec<DeviceProfile> {
    vec![DeviceProfile::consumer(), DeviceProfile::datacenter()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_workloads::all_workloads;

    #[test]
    fn measurement_produces_all_pipelines() {
        let w = all_workloads()
            .into_iter()
            .find(|w| w.name == "yolact")
            .unwrap();
        let records = measure_all_pipelines(&w, &DeviceProfile::consumer(), 2, 0, 1);
        assert_eq!(records.len(), 5);
        let speeds = speedups_vs_eager(&records);
        let eager = speeds.iter().find(|(r, _)| r.pipeline == "Eager").unwrap();
        assert!((eager.1 - 1.0).abs() < 1e-9);
    }
}
