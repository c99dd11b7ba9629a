//! `exec-cv` and `exec-rnn`: bare `TensorSsa::compile` → `ExecSession::run`
//! with one caller. Serve, net and store do nothing here; all time is in
//! `backend` and `tensor`.
//!
//! Every round runs each cell once under the TensorSSA plan and once under
//! the `Eager` plan, through the same call, as two blocks whose order
//! alternates from round to round. Only the TensorSSA ops count towards
//! throughput, latency and CPU; the Eager ops are the baseline of
//! `speedup_vs_eager`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use tssa_backend::{ExecStats, OpObserver, RtValue, TOP_LEVEL_GROUP};
use tssa_ir::Op;
use tssa_obs::Tracer;
use tssa_pipelines::{CompiledProgram, Eager, Pipeline, TensorSsa};
use tssa_tensor::Tensor;

use super::{probe_us, Ctx, Phases, Samples, Workload, WARMUP_OPS};
use crate::cells::{outputs_match, reference, Program, Tally};
use crate::metrics::{exec_programs, Report};
use crate::stats::{median, RoundRobin};
use crate::trace::HARNESS;
use crate::{alloc, procfs};

/// One exec workload: its name (which fixes its programs, see
/// [`exec_programs`]) and the two sizes each program runs at, as
/// `(batch, seq, label)`; 0 selects the program's default.
pub struct Spec {
    workload: &'static str,
    sizes: [(usize, usize, &'static str); 2],
}

/// Straight-line post-processing: time is in the fused per-element evaluator
/// and the tensor kernels.
pub const CV: Spec = Spec {
    workload: "exec-cv",
    sizes: [(0, 0, "default"), (8, 0, "b8")],
};

/// Loop-carried recurrences: time is in the interpreter's loop handling,
/// `immut::assign` copies and (attention) `prim::ParallelMap`.
pub const RNN: Spec = Spec {
    workload: "exec-rnn",
    sizes: [(0, 0, "default"), (0, 64, "s64")],
};

struct Cell {
    name: String,
    program: &'static str,
    default_size: bool,
    inputs: Vec<RtValue>,
    reference: Vec<RtValue>,
    eager: CompiledProgram,
    tssa: CompiledProgram,
}

/// Sums the executors' per-op wall self-times by kind.
#[derive(Default)]
struct SelfTimes {
    fused_ns: AtomicU64,
    assign_ns: AtomicU64,
    control_ns: AtomicU64,
    other_ns: AtomicU64,
}

impl OpObserver for SelfTimes {
    fn record_op(&self, group: u32, _node: u32, op: &Op, wall_ns: u64, _bytes: u64, _flops: u64) {
        // An access or assign fused into a group is still a copy: the op
        // decides first, the group second.
        let bucket = match op {
            Op::Assign(_) => &self.assign_ns,
            Op::If | Op::Loop | Op::ParallelMap { .. } => &self.control_ns,
            _ if group != TOP_LEVEL_GROUP => &self.fused_ns,
            _ => &self.other_ns,
        };
        bucket.fetch_add(wall_ns, Relaxed);
    }
}

/// Totals over the TensorSSA ops run since set-up ended.
#[derive(Default)]
struct Totals {
    observer: Arc<SelfTimes>,
    stats: ExecStats,
    allocs: u64,
    alloc_bytes: u64,
    wall_ns: u64,
    ops: u64,
}

pub struct Exec {
    cells: Vec<Cell>,
    order: RoundRobin,
    tracer: Tracer,
    traced: bool,
    totals: Totals,
}

impl Exec {
    pub fn setup(ctx: &Ctx, spec: &Spec) -> Exec {
        let mut cells = Vec::new();
        for &name in exec_programs(spec.workload) {
            let program = Program::builtin(name);
            let graph = tssa_frontend::compile(&program.source).expect("built-in program");
            for (i, &(batch, seq, label)) in spec.sizes.iter().enumerate() {
                let inputs = program.inputs(batch, seq, ctx.seed + cells.len() as u64);
                cells.push(Cell {
                    name: format!("{name}/{label}"),
                    program: name,
                    default_size: i == 0,
                    reference: reference(&program, &inputs),
                    inputs,
                    eager: Eager.compile(&graph),
                    tssa: TensorSsa::default().compile(&graph),
                });
            }
        }
        let mut exec = Exec {
            order: RoundRobin::new(cells.len(), ctx.seed),
            cells,
            tracer: ctx.tracer.clone(),
            traced: ctx.traced,
            totals: Totals::default(),
        };
        let mut warm = Tally {
            check_all: true,
            ..Tally::default()
        };
        for c in 0..exec.cells.len() {
            for _ in 0..WARMUP_OPS {
                exec.op(c, true, &mut warm);
                exec.op(c, false, &mut warm);
            }
        }
        assert_eq!(warm.failed, 0, "warm-up outputs differ from the reference");
        // Warm-up is not part of any per-op average.
        exec.totals = Totals::default();
        exec
    }

    /// One op: run cell `c` under one plan. Returns its latency in µs, or
    /// `None` if it errored.
    fn op(&mut self, c: usize, tssa: bool, tally: &mut Tally) -> Option<f64> {
        let cell = &self.cells[c];
        let mut op_span = self.tracer.root(cell.name.as_str(), HARNESS);
        op_span.counter("eager", i64::from(!tssa));
        let (result, wall, allocated) = {
            let plan = if tssa { &cell.tssa } else { &cell.eager };
            let mut session = plan.session();
            if tssa && self.traced {
                session =
                    session.observed(Arc::clone(&self.totals.observer) as Arc<dyn OpObserver>);
            }
            let layer_span = op_span.child("backend.exec", "backend");
            let before = alloc::snapshot();
            let started = Instant::now();
            let result = session.run(&cell.inputs);
            let wall = started.elapsed();
            let after = alloc::snapshot();
            layer_span.finish();
            (result, wall, (after.0 - before.0, after.1 - before.1))
        };
        let check = tally.attempt();
        let Ok((outputs, stats)) = result else {
            tally.fail();
            return None;
        };
        if check {
            tally.check(outputs_match(&outputs, &cell.reference));
        }
        if tssa {
            let t = &mut self.totals;
            t.stats.merge(&stats);
            t.allocs += allocated.0;
            t.alloc_bytes += allocated.1;
            t.wall_ns += wall.as_nanos() as u64;
            t.ops += 1;
        }
        Some(wall.as_secs_f64() * 1e6)
    }
}

impl Workload for Exec {
    fn run(&mut self, seconds: f64) -> Samples {
        let mut samples = Samples::new(self.cells.len());
        samples.tally.check_all = self.traced;
        let mut op_cpu_s = 0.0;
        // Counting is worth its cost only here: one caller, so the counters
        // are not contended, and every allocation is the executor's.
        alloc::set_enabled(self.traced);
        let started = Instant::now();
        let mut round = 0u64;
        while started.elapsed().as_secs_f64() < seconds {
            // Both blocks of a round visit the cells in the same order.
            let order = self.order.round().to_vec();
            for block in 0..2 {
                let tssa = (block == 0) == round.is_multiple_of(2);
                let cpu_before = procfs::cpu_seconds();
                let (mut block_us, mut done) = (0.0, 0usize);
                for &c in &order {
                    if let Some(us) = self.op(c, tssa, &mut samples.tally) {
                        let into = if tssa {
                            &mut samples.lat_us
                        } else {
                            &mut samples.eager_us
                        };
                        into[c].push(us);
                        block_us += us;
                        done += 1;
                    }
                }
                if tssa {
                    // Summed op time: the harness's own work between ops
                    // (output checks, span bookkeeping) is excluded.
                    op_cpu_s += procfs::cpu_seconds() - cpu_before;
                    samples.slice_ops_s.push(done as f64 / (block_us / 1e6));
                }
            }
            round += 1;
        }
        alloc::set_enabled(false);
        samples.op_cpu_s = Some(op_cpu_s);
        samples
    }

    fn layers(&mut self, phases: &Phases, report: &mut Report) {
        let samples = phases.traced;
        for (c, cell) in self.cells.iter().enumerate() {
            if cell.default_size {
                let p = cell.program;
                report.set(
                    format!("backend.exec_p50_us.{p}"),
                    median(&samples.lat_us[c]),
                );
                report.set(
                    format!("backend.eager_p50_us.{p}"),
                    median(&samples.eager_us[c]),
                );
            }
        }
        let t = &self.totals;
        let o = &t.observer;
        let [fused, assign, control, other] =
            [&o.fused_ns, &o.assign_ns, &o.control_ns, &o.other_ns].map(|a| a.load(Relaxed) as f64);
        let observed = fused + assign + control + other;
        report.set("backend.fused_self_share", fused / observed);
        report.set("backend.assign_self_share", assign / observed);
        report.set("backend.control_self_share", control / observed);
        report.set("backend.observed_coverage", observed / t.wall_ns as f64);
        let ops = t.ops as f64;
        report.set(
            "backend.ops_executed_per_op",
            t.stats.ops_executed as f64 / ops,
        );
        report.set(
            "backend.kernel_launches_per_op",
            t.stats.kernel_launches as f64 / ops,
        );
        report.set("backend.sim_us_per_op", t.stats.total_us() / ops);
        report.set("backend.allocs_per_op", t.allocs as f64 / ops);
        report.set("backend.alloc_bytes_per_op", t.alloc_bytes as f64 / ops);
        tensor_probes(report);
    }

    fn shutdown(self: Box<Self>) {}
}

/// The four tensor kernels the eight programs lean on, at the shapes the
/// programs use them. Both plans call these, so a change here should move
/// `latency_p50_us` and leave `speedup_vs_eager` alone.
fn tensor_probes(report: &mut Report) {
    const REPS: usize = 300;
    let ns_per = |us: f64, n: usize| us * 1e3 / n as f64;

    let x = Tensor::rand_uniform(&[4, 768, 16], -2.0, 2.0, 1);
    report.set(
        "tensor.unary_ns_per_elem",
        ns_per(probe_us(REPS, || x.sigmoid()), x.numel()),
    );

    let loc = Tensor::rand_uniform(&[4, 512, 4], -1.0, 1.0, 2);
    let priors = Tensor::rand_uniform(&[512, 4], 0.1, 0.9, 3);
    report.set(
        "tensor.bcast_binary_ns_per_elem",
        ns_per(
            probe_us(REPS, || loc.add(&priors).expect("broadcastable")),
            loc.numel(),
        ),
    );

    let dst = Tensor::zeros(&[4, 768, 16]);
    let src = Tensor::rand_uniform(&[4, 768, 2], -1.0, 1.0, 4);
    report.set(
        "tensor.slice_copy_ns_per_elem",
        ns_per(
            probe_us(REPS, || {
                let view = dst.slice(2, 0, 2, 1).expect("in range");
                view.copy_(&src).expect("same shape");
            }),
            src.numel(),
        ),
    );

    let a = Tensor::rand_uniform(&[4, 48], -1.0, 1.0, 5);
    let w = Tensor::rand_uniform(&[48, 48], -0.4, 0.4, 6);
    report.set(
        "tensor.matmul_ns_per_flop",
        ns_per(
            probe_us(REPS, || a.matmul(&w).expect("conformable")),
            2 * 4 * 48 * 48,
        ),
    );
}
