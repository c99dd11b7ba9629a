//! The five workloads and what a timed phase of one returns.

pub mod edge_http;
pub mod exec;
pub mod plan_load;
pub mod serve_batch;

use std::path::PathBuf;
use std::time::Instant;

use tssa_obs::{SpanRecord, Tracer};

use crate::cells::Tally;
use crate::metrics::Report;
use crate::stats::median;

/// Ops every cell runs, and has checked, in set-up before anything is
/// timed. A fixed count, so `setup_s` does not depend on the run length.
pub const WARMUP_OPS: usize = 10;

/// Slices the timed phase of a multi-threaded workload is cut into; its
/// throughput is the median over slices.
const SLICES: usize = 20;

/// What a workload is set up with.
pub struct Ctx {
    pub seed: u64,
    /// Shared by the harness and the service under test; the disabled tracer
    /// in the untraced run.
    pub tracer: Tracer,
    pub traced: bool,
    /// Where temporary files may go (inside the checkout).
    pub scratch: PathBuf,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Op latencies in µs, per cell.
    pub lat_us: Vec<Vec<f64>>,
    /// The same cells under the `Eager` plan (`exec-*` only).
    pub eager_us: Vec<Vec<f64>>,
    /// Throughput in ops/s of each slice of the phase.
    pub slice_ops_s: Vec<f64>,
    /// CPU seconds the ops themselves burned, when the workload can tell
    /// (`exec-*` separates its TensorSSA blocks from its Eager blocks);
    /// otherwise `None` and the whole phase's process CPU is used.
    pub op_cpu_s: Option<f64>,
    /// Bytes sent and received over sockets (`edge-http` only).
    pub bytes: (usize, usize),
    pub tally: Tally,
}

impl Samples {
    /// Empty samples for `cells` cells.
    pub fn new(cells: usize) -> Samples {
        Samples {
            lat_us: vec![Vec::new(); cells],
            eager_us: vec![Vec::new(); cells],
            ..Samples::default()
        }
    }

    /// Ops that completed and were timed.
    pub fn completed(&self) -> usize {
        self.lat_us.iter().map(Vec::len).sum()
    }

    pub fn throughput_ops_s(&self) -> f64 {
        median(&self.slice_ops_s)
    }

    /// Cut the completions of a phase into [`SLICES`] runs of equal count
    /// and take each run's rate: the per-slice throughput of a workload
    /// whose ops overlap in time. `completions` are seconds since the phase
    /// began; those after `phase_s` (the drain) are left out.
    pub fn slice_by_wall(&mut self, completions: &[f64], phase_s: f64) {
        let mut at: Vec<f64> = completions
            .iter()
            .copied()
            .filter(|&t| t < phase_s)
            .collect();
        at.sort_by(f64::total_cmp);
        let per_slice = (at.len() / SLICES).max(1);
        let mut slice_began = 0.0;
        self.slice_ops_s = at
            .chunks_exact(per_slice)
            .map(|run| {
                let ended = run[per_slice - 1];
                let rate = per_slice as f64 / (ended - slice_began);
                slice_began = ended;
                rate
            })
            .collect();
    }
}

/// What the traced run hands a workload to derive its per-layer metrics
/// from.
pub struct Phases<'a> {
    /// The short untraced phase that preceded the traced one.
    pub untraced: &'a Samples,
    pub traced: &'a Samples,
    /// Every span of the traced phase, the service's own joined under the
    /// harness's.
    pub spans: &'a [SpanRecord],
    /// How long a probe that repeats the closed loop may run.
    pub probe_seconds: f64,
}

/// One workload, set up and ready to be timed.
pub trait Workload {
    /// Run the closed loop for `seconds` and return what it measured.
    fn run(&mut self, seconds: f64) -> Samples;

    /// Per-layer metrics of the traced run: probes of the layers this
    /// workload exercises, on this workload's own inputs, plus what the
    /// recorded `spans` show.
    fn layers(&mut self, phases: &Phases, report: &mut Report);

    /// How the service's own root spans are joined under the harness's op
    /// spans (see [`crate::trace`]). Returns the number left unjoined.
    fn join_spans(&self, spans: &mut [SpanRecord]) -> usize {
        crate::trace::join_by_id_order(spans);
        0
    }

    /// Stop every thread and remove every file the workload created.
    fn shutdown(self: Box<Self>);
}

/// Set up workload `name`; `None` for an unknown name.
pub fn setup(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "exec-cv" => Box::new(exec::Exec::setup(ctx, &exec::CV)),
        "exec-rnn" => Box::new(exec::Exec::setup(ctx, &exec::RNN)),
        "serve-batch" => Box::new(serve_batch::ServeBatch::setup(ctx)),
        "edge-http" => Box::new(edge_http::EdgeHttp::setup(ctx)),
        "plan-load" => Box::new(plan_load::PlanLoad::setup(ctx)),
        _ => return None,
    })
}

/// Time `f` in µs.
pub fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Median time in µs of `reps` calls of `f`.
pub fn probe_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, us) = timed_us(&mut f);
            std::hint::black_box(out);
            us
        })
        .collect();
    median(&samples)
}

/// Worker and generator threads the host allows.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_slices_are_runs_of_equal_count() {
        let mut s = Samples::new(1);
        // 40 completions, 10 per second for 2 s then 20 per second for 1 s,
        // and one in the drain (ignored): 20 slices of 2 completions.
        let mut at: Vec<f64> = (1..=20).map(|i| f64::from(i) * 0.1).collect();
        at.extend((1..=20).map(|i| 2.0 + f64::from(i) * 0.05));
        at.push(3.5);
        s.slice_by_wall(&at, 3.2);
        assert_eq!(s.slice_ops_s.len(), SLICES);
        assert!((s.slice_ops_s[0] - 10.0).abs() < 1e-9);
        assert!((s.slice_ops_s[SLICES - 1] - 20.0).abs() < 1e-9);
        assert!((s.throughput_ops_s() - 15.0).abs() < 1e-9);
    }
}
