//! `serve-batch`: an in-process `Service` fed by one generator thread that
//! keeps a sliding window of tickets in flight. Admission, queue,
//! dispatcher, cross-shape batching, the class cache and the serve metrics
//! carry real weight; net does nothing.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use tssa_backend::RtValue;
use tssa_obs::{Sampler, Span, SpanRecord, Tracer};
use tssa_serve::{ModelHandle, Profiler, ServeConfig, Service, Ticket};

use super::{nproc, probe_us, Ctx, Phases, Samples, Workload, WARMUP_OPS};
use crate::cells::{outputs_match, reference, Program};
use crate::metrics::Report;
use crate::stats::{median, RoundRobin};
use crate::trace::{durations_us, HARNESS};

/// Tickets the generator keeps in flight.
const WINDOW: usize = 8;

/// Stacked programs (cross-shape batching forms between their cells) and
/// the batch sizes each is requested at.
const STACKED: [&str; 3] = ["yolov3", "yolact", "fcos"];
const BATCHES: [usize; 3] = [1, 2, 4];
/// One shared (unbatched) program beside them.
const SHARED: &str = "lstm";

/// Share of executions the profiler samples when measuring its overhead.
const PROFILE_RATE: f64 = 0.1;

struct Cell {
    name: String,
    handle: ModelHandle,
    inputs: Vec<RtValue>,
    reference: Vec<RtValue>,
}

struct InFlight {
    cell: usize,
    submitted: Instant,
    ticket: Ticket,
    span: Span,
    check: bool,
}

pub struct ServeBatch {
    service: Service,
    cells: Vec<Cell>,
    order: RoundRobin,
    tracer: Tracer,
    traced: bool,
    seed: u64,
    /// Durations of the `submit` call alone (traced run).
    submit_us: Vec<f64>,
}

impl ServeBatch {
    pub fn setup(ctx: &Ctx) -> ServeBatch {
        Self::setup_with(ctx.seed, ctx.tracer.clone(), ctx.traced, None)
    }

    fn setup_with(
        seed: u64,
        tracer: Tracer,
        traced: bool,
        profiler: Option<Profiler>,
    ) -> ServeBatch {
        let service = Service::new(
            ServeConfig::default()
                .with_workers(nproc())
                .with_tracer(tracer.clone())
                .with_profiler(profiler),
        );
        let mut cells = Vec::new();
        let mut add = |program: &Program, batch: usize, label: String, seed: u64| {
            let inputs = program.inputs(batch, 0, seed);
            let handle = service
                .loader(&program.source)
                .named(&program.name)
                .example(&inputs)
                .batch(program.spec())
                .load()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            cells.push(Cell {
                name: label,
                handle,
                reference: reference(program, &inputs),
                inputs,
            });
        };
        for (i, name) in STACKED.iter().enumerate() {
            let program = Program::builtin(name);
            for batch in BATCHES {
                // One seed per program: the cells of a program share their
                // `Shared` arguments, so requests of different batch sizes
                // may coalesce.
                add(&program, batch, format!("{name}/b{batch}"), seed + i as u64);
            }
        }
        add(
            &Program::builtin(SHARED),
            0,
            format!("{SHARED}/default"),
            seed,
        );

        let mut sb = ServeBatch {
            order: RoundRobin::new(cells.len(), seed),
            service,
            cells,
            tracer,
            traced,
            seed,
            submit_us: Vec::new(),
        };
        let warmup_ops = WARMUP_OPS * sb.cells.len();
        let warm = sb.drive(|_, submitted| submitted < warmup_ops, true);
        assert_eq!(
            warm.tally.failed, 0,
            "warm-up responses differ from the reference"
        );
        sb.submit_us.clear();
        sb
    }

    /// The closed loop: submit the cells round-robin (see [`RoundRobin`]) while
    /// `keep_going(elapsed_s, submitted)` holds, never more than [`WINDOW`]
    /// in flight; wait on the oldest ticket, refill; then drain.
    fn drive(&mut self, keep_going: impl Fn(f64, usize) -> bool, check_all: bool) -> Samples {
        let mut samples = Samples::new(self.cells.len());
        samples.tally.check_all = check_all;
        let mut completions = Vec::new();
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        let started = Instant::now();
        let mut submitted = 0usize;
        // When submitting stopped; what completes later is the drain.
        let mut phase_s = None;
        loop {
            let submitting = keep_going(started.elapsed().as_secs_f64(), submitted);
            if !submitting {
                phase_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
            }
            if inflight.len() == WINDOW || !submitting {
                let Some(op) = inflight.pop_front() else {
                    break;
                };
                let result = op.ticket.wait();
                samples.lat_us[op.cell].push(op.submitted.elapsed().as_secs_f64() * 1e6);
                completions.push(started.elapsed().as_secs_f64());
                op.span.finish();
                match result {
                    Ok(response) if op.check => samples.tally.check(outputs_match(
                        &response.outputs,
                        &self.cells[op.cell].reference,
                    )),
                    Ok(_) => {}
                    Err(_) => samples.tally.fail(),
                }
            }
            if submitting {
                let cell = self.order.next_cell();
                submitted += 1;
                let check = samples.tally.attempt();
                let span = self.tracer.root(self.cells[cell].name.as_str(), HARNESS);
                let submitted_at = Instant::now();
                let ticket = {
                    let _call = span.child("serve.submit", "serve");
                    self.service
                        .submit(&self.cells[cell].handle, self.cells[cell].inputs.clone())
                };
                if self.traced {
                    self.submit_us
                        .push(submitted_at.elapsed().as_secs_f64() * 1e6);
                }
                match ticket {
                    Ok(ticket) => inflight.push_back(InFlight {
                        cell,
                        submitted: submitted_at,
                        ticket,
                        span,
                        check,
                    }),
                    Err(_) => samples.tally.fail(),
                }
            }
        }
        samples.slice_by_wall(&completions, phase_s.unwrap_or(f64::INFINITY));
        samples
    }
}

impl Workload for ServeBatch {
    fn run(&mut self, seconds: f64) -> Samples {
        let check_all = self.traced;
        self.drive(|elapsed, _| elapsed < seconds, check_all)
    }

    fn layers(&mut self, phases: &Phases, report: &mut Report) {
        let spans = phases.spans;
        report.set("serve.submit_call_p50_us", median(&self.submit_us));
        report.set(
            "serve.queue_span_p50_us",
            median(&durations_us(spans, "queue")),
        );
        report.set(
            "serve.batch_span_p50_us",
            median(&durations_us(spans, "batch")),
        );
        report.set(
            "serve.exec_span_p50_us",
            median(&durations_us(spans, "exec")),
        );
        report.set(
            "serve.overhead_p50_us",
            median(&request_overheads_us(spans)),
        );

        let m = self.service.metrics();
        report.set("serve.batch_occupancy_avg", m.avg_batch_occupancy);
        report.set(
            "serve.batches_per_op",
            m.batches as f64 / m.completed as f64,
        );
        report.set("serve.class_hits", m.cache.class_hits as f64);
        report.set("serve.cache_misses", m.cache.misses as f64);
        report.set(
            "serve.shed_total",
            (m.shed_queue_full + m.shed_deadline) as f64,
        );
        report.set(
            "serve.prometheus_render_p50_us",
            probe_us(20, || self.service.prometheus()),
        );

        // The profiler's cost in wall time: the untraced loop again, on a
        // twin service that samples a tenth of its executions.
        let profiler = Profiler::sampled(Sampler::new(self.seed, PROFILE_RATE));
        let mut twin = ServeBatch::setup_with(self.seed, Tracer::disabled(), false, Some(profiler));
        let profiled = twin.run(phases.probe_seconds);
        Box::new(twin).shutdown();
        report.set(
            "obs.profile_overhead_ratio",
            phases.untraced.throughput_ops_s() / profiled.throughput_ops_s(),
        );
    }

    fn shutdown(self: Box<Self>) {
        self.service.shutdown();
    }
}

/// Per request that hosted its batch's execution: the `request` span minus
/// the `exec` span beneath it — everything the service added around the
/// executor (admission, queueing, stacking, splitting, completion).
fn request_overheads_us(spans: &[SpanRecord]) -> Vec<f64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.id, r)).collect();
    spans
        .iter()
        .filter(|r| r.name == "exec")
        .filter_map(|exec| {
            let mut at = exec;
            while at.name != "request" {
                at = by_id.get(&at.parent?)?;
            }
            Some(at.dur_ns.saturating_sub(exec.dur_ns) as f64 / 1e3)
        })
        .collect()
}
