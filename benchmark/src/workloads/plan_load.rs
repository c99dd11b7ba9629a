//! `plan-load`: one op is one `Service::loader(..).load()`. Frontend, alias,
//! core, fusion, lint, store and the serve cache and class tables do all the
//! work and backend none; the store's write path sits beside its two read
//! paths in one workload.
//!
//! Each program is loaded three ways per round:
//! - `cold`: fresh `Service`, empty `PlanStore` directory — parse, compile,
//!   certify, queue the write-back;
//! - `hit`: the same service, a different batch size — class-table
//!   admission;
//! - `disk`: a fresh `Service` on the same directory after `flush` — decode.
//!
//! Constructing services, flushing the store and removing directories is
//! harness work between ops and is not timed.

use std::path::PathBuf;
use std::sync::Arc;

use tssa_alias::AliasAnalysis;
use tssa_backend::RtValue;
use tssa_obs::Tracer;
use tssa_pipelines::{Pipeline, TensorSsa};
use tssa_serve::{ModelHandle, PlanStore, ServeConfig, Service};
use tssa_store::{format, roster_fingerprint, Expected};

use super::{timed_us, Ctx, Phases, Samples, Workload, WARMUP_OPS};
use crate::cells::{outputs_match, reference, Program};
use crate::metrics::{Report, CORE_PASSES, FUSION_PASSES, PROGRAMS};
use crate::stats::{geomean, loglog_slope, mean, median, RoundRobin};
use crate::trace::HARNESS;

/// Generated straight-line programs beside the paper's eight: compile time
/// grows superlinearly with their length, decode time only with the text.
const DEEP: [usize; 3] = [16, 32, 48];

const KINDS: [&str; 3] = ["cold", "hit", "disk"];
const COLD: usize = 0;
const HIT: usize = 1;
const DISK: usize = 2;

/// Repetitions of each layer probe (odd, so the median is a sample).
const PROBE_REPS: usize = 7;

struct Entry {
    program: Program,
    inputs: Vec<RtValue>,
    reference: Vec<RtValue>,
    /// Inputs of the `hit` load: another batch size where the program's
    /// shape class admits one, else the same inputs (a concrete-key hit).
    hit_inputs: Vec<RtValue>,
    hit_reference: Vec<RtValue>,
}

/// Times in µs of the calls into each layer a load passes through.
#[derive(Default)]
struct LayerCalls {
    frontend: Vec<f64>,
    alias: Vec<f64>,
    compile: Vec<f64>,
    certify: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
}

impl LayerCalls {
    /// Append to each series the median of the same series of `reps`.
    fn push_medians_of(&mut self, reps: &LayerCalls) {
        for (into, from) in [
            (&mut self.frontend, &reps.frontend),
            (&mut self.alias, &reps.alias),
            (&mut self.compile, &reps.compile),
            (&mut self.certify, &reps.certify),
            (&mut self.encode, &reps.encode),
            (&mut self.decode, &reps.decode),
            (&mut self.save, &reps.save),
            (&mut self.load, &reps.load),
        ] {
            into.push(median(from));
        }
    }
}

pub struct PlanLoad {
    entries: Vec<Entry>,
    /// Cell `p * 3 + kind` is program `p` loaded the `kind` way.
    cell_names: Vec<String>,
    order: RoundRobin,
    tracer: Tracer,
    traced: bool,
    scratch: PathBuf,
    dirs_made: usize,
}

fn service_on(store: &Arc<PlanStore>, tracer: &Tracer) -> Service {
    Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_plan_store(Some(Arc::clone(store)))
            .with_tracer(tracer.clone()),
    )
}

fn load(service: &Service, program: &Program, inputs: &[RtValue]) -> Option<ModelHandle> {
    service
        .loader(&program.source)
        .example(inputs)
        .batch(program.spec())
        .load()
        .ok()
}

impl PlanLoad {
    pub fn setup(ctx: &Ctx) -> PlanLoad {
        let programs = PROGRAMS
            .iter()
            .map(|name| Program::builtin(name))
            .chain(DEEP.iter().map(|&n| Program::deep(n)));
        let mut pl = PlanLoad {
            entries: Vec::new(),
            cell_names: Vec::new(),
            order: RoundRobin::new(0, ctx.seed),
            tracer: ctx.tracer.clone(),
            traced: ctx.traced,
            scratch: ctx
                .scratch
                .join(format!("plan-load-{}", std::process::id())),
            dirs_made: 0,
        };
        for (i, program) in programs.enumerate() {
            let seed = ctx.seed + i as u64;
            let inputs = program.inputs(0, 0, seed);
            let mut hit_inputs = program.inputs(program.default_batch() + 1, 0, seed);
            // Does the program's shape class admit the other batch size?
            let probe = Service::new(ServeConfig::default().with_workers(1));
            let admitted = load(&probe, &program, &inputs).is_some()
                && load(&probe, &program, &hit_inputs).is_some()
                && probe.cache().stats().misses == 1;
            probe.shutdown();
            if !admitted {
                hit_inputs = inputs.clone();
            }
            pl.entries.push(Entry {
                reference: reference(&program, &inputs),
                hit_reference: reference(&program, &hit_inputs),
                program,
                inputs,
                hit_inputs,
            });
        }
        pl.order = RoundRobin::new(pl.entries.len(), ctx.seed);
        pl.cell_names = pl
            .entries
            .iter()
            .flat_map(|e| KINDS.iter().map(move |k| format!("{}/{k}", e.program.name)))
            .collect();
        let mut warm = Samples::new(pl.cell_names.len());
        warm.tally.check_all = true;
        // A round loads every program three ways, so warm-up needs a third
        // as many rounds as other workloads need ops per cell.
        for _ in 0..WARMUP_OPS.div_ceil(3) {
            pl.round(&mut warm);
        }
        assert_eq!(warm.tally.failed, 0, "a warm-up load failed its check");
        pl
    }

    /// One timed load. `valid` says, from the service's own counters,
    /// whether the load took the path the cell is named after.
    fn op(
        &self,
        samples: &mut Samples,
        cell: usize,
        service: &Service,
        entry: &Entry,
        hit: bool,
        valid: impl FnOnce(&ModelHandle) -> bool,
    ) -> Option<f64> {
        let (inputs, want) = if hit {
            (&entry.hit_inputs, &entry.hit_reference)
        } else {
            (&entry.inputs, &entry.reference)
        };
        let check = samples.tally.attempt();
        let span = self.tracer.root(self.cell_names[cell].as_str(), HARNESS);
        let (handle, us) = timed_us(|| load(service, &entry.program, inputs));
        span.finish();
        let Some(handle) = handle.filter(|h| valid(h)) else {
            samples.tally.fail();
            return None;
        };
        samples.lat_us[cell].push(us);
        if check {
            let ran = handle.plan().session().run(inputs);
            samples
                .tally
                .check(ran.is_ok_and(|(got, _)| outputs_match(&got, want)));
        }
        Some(us)
    }

    /// Load every program cold, hit and from disk, in a freshly drawn order.
    fn round(&mut self, samples: &mut Samples) {
        let mut op_us = Vec::new();
        for p in self.order.round().to_vec() {
            let entry = &self.entries[p];
            let dir = self.scratch.join(self.dirs_made.to_string());
            self.dirs_made += 1;
            let store = Arc::new(PlanStore::open(&dir).expect("open plan store"));
            let service = service_on(&store, &self.tracer);
            op_us.extend(self.op(samples, p * 3 + COLD, &service, entry, false, |h| {
                service.cache().stats().misses == 1 && !h.plan().passes.is_empty()
            }));
            op_us.extend(self.op(samples, p * 3 + HIT, &service, entry, true, |_| {
                service.cache().stats().misses == 1
            }));
            store.flush();
            service.shutdown();
            drop(store);

            let store = Arc::new(PlanStore::open(&dir).expect("reopen plan store"));
            let service = service_on(&store, &self.tracer);
            op_us.extend(self.op(samples, p * 3 + DISK, &service, entry, false, |h| {
                store.stats().disk_hits == 1 && h.plan().passes.is_empty()
            }));
            service.shutdown();
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
        // Summed op time: service construction, flushes and directory
        // removal between ops are excluded.
        samples
            .slice_ops_s
            .push(op_us.len() as f64 / (op_us.iter().sum::<f64>() / 1e6));
    }

    /// Geomean over programs of the median latency of the cells of `kind`.
    fn kind_p50_us(&self, samples: &Samples, kind: usize) -> f64 {
        let medians: Vec<f64> = (0..self.entries.len())
            .map(|p| median(&samples.lat_us[p * 3 + kind]))
            .collect();
        geomean(&medians)
    }
}

impl Workload for PlanLoad {
    fn run(&mut self, seconds: f64) -> Samples {
        let mut samples = Samples::new(self.cell_names.len());
        samples.tally.check_all = self.traced;
        let started = std::time::Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            self.round(&mut samples);
        }
        samples
    }

    fn layers(&mut self, phases: &Phases, report: &mut Report) {
        let samples = phases.traced;
        let probe_dir = self.scratch.join("probe");
        let store = PlanStore::open(&probe_dir).expect("open probe store");
        let pipeline = TensorSsa::default();
        let fingerprint = roster_fingerprint(pipeline.roster().iter().copied());
        let passes: Vec<&str> = CORE_PASSES.iter().chain(&FUSION_PASSES).copied().collect();

        // Each layer's call, timed from outside: one median per program.
        let mut calls = LayerCalls::default();
        let mut pass_us = vec![0.0; passes.len()];
        let (mut ir_nodes, mut ir_nodes_after, mut mutations_removed) = (0, 0, 0);
        let (mut groups, mut parallel_loops, mut plan_bytes) = (0, 0, 0);
        for (p, entry) in self.entries.iter().enumerate() {
            let source = &entry.program.source;
            let hash = p as u64;
            let ranks: Vec<Option<usize>> = entry
                .inputs
                .iter()
                .map(|v| match v {
                    RtValue::Tensor(t) => Some(t.rank()),
                    _ => None,
                })
                .collect();
            let mut reps = LayerCalls::default();
            let mut pass_reps = vec![Vec::new(); passes.len()];
            for rep in 0..PROBE_REPS {
                let (graph, us) = timed_us(|| tssa_frontend::compile(source).expect("compiles"));
                reps.frontend.push(us);
                reps.alias.push(timed_us(|| AliasAnalysis::build(&graph)).1);
                let (mut plan, us) = timed_us(|| pipeline.compile(&graph));
                reps.compile.push(us);
                for (slot, name) in passes.iter().enumerate() {
                    // `dce` runs three times in the pipeline: summed.
                    let runs = plan.passes.iter().filter(|run| run.name == *name);
                    pass_reps[slot].push(runs.map(|r| r.duration.as_secs_f64() * 1e6).sum());
                }
                let (signature, us) = timed_us(|| tssa_lint::certify_shapes(&plan.graph, &ranks));
                reps.certify.push(us);
                plan.signature = Some(signature);
                let (bytes, us) = timed_us(|| format::encode_plan(&plan, hash, fingerprint));
                reps.encode.push(us);
                let decoded = timed_us(|| format::decode_plan_full(&bytes, Expected::default()));
                decoded.0.expect("own encoding decodes");
                reps.decode.push(decoded.1);
                let saved = timed_us(|| store.save_blocking(hash, fingerprint, &plan));
                saved.0.expect("probe directory is writable");
                reps.save.push(saved.1);
                let loaded = timed_us(|| store.load(hash, fingerprint));
                loaded.0.expect("just saved");
                reps.load.push(loaded.1);
                if rep == 0 {
                    ir_nodes += graph.live_node_count();
                    ir_nodes_after += plan.graph.live_node_count();
                    mutations_removed += plan.conversion.mutations_removed;
                    groups += plan.fusion_groups;
                    parallel_loops += plan.parallel_loops;
                    plan_bytes += bytes.len();
                }
            }
            calls.push_medians_of(&reps);
            for (total, reps) in pass_us.iter_mut().zip(&pass_reps) {
                *total += median(reps);
            }
        }
        drop(store);
        std::fs::remove_dir_all(&probe_dir).ok();

        report.set("frontend.compile_p50_us", geomean(&calls.frontend));
        report.set("frontend.ir_nodes", ir_nodes as f64);
        report.set("alias.build_p50_us", geomean(&calls.alias));
        // Pass times are summed over the programs: the cost of the pass in
        // one round of this workload.
        for (name, us) in passes.iter().zip(&pass_us) {
            let layer = if CORE_PASSES.contains(name) {
                "core"
            } else {
                "fusion"
            };
            report.set(format!("{layer}.pass_us.{name}"), *us);
        }
        report.set("core.mutations_removed", mutations_removed as f64);
        report.set("core.ir_nodes_after", ir_nodes_after as f64);
        report.set("fusion.groups", groups as f64);
        report.set("fusion.parallel_loops", parallel_loops as f64);
        report.set("lint.certify_shapes_p50_us", geomean(&calls.certify));
        let (paper, deep) = calls.compile.split_at(PROGRAMS.len());
        report.set("pipelines.compile_p50_us", geomean(paper));
        report.set("pipelines.compile_deep_p50_us", deep[deep.len() - 1]);
        let scaling: Vec<(f64, f64)> = DEEP
            .iter()
            .zip(deep)
            .map(|(&len, &us)| (len as f64, us))
            .collect();
        report.set("pipelines.compile_scaling_exponent", loglog_slope(&scaling));
        report.set("store.encode_p50_us", geomean(&calls.encode));
        report.set("store.decode_p50_us", geomean(&calls.decode));
        report.set("store.plan_bytes", plan_bytes as f64);
        report.set("store.save_blocking_p50_us", geomean(&calls.save));
        report.set("store.load_p50_us", geomean(&calls.load));

        report.set("serve.load_cold_p50_us", self.kind_p50_us(samples, COLD));
        report.set("serve.load_disk_p50_us", self.kind_p50_us(samples, DISK));
        report.set("serve.load_hit_p50_us", self.kind_p50_us(samples, HIT));
        // What the service adds to a cold load beyond the three layer calls
        // it makes, per program; and the share of the cold loads those calls
        // account for. Differences can be negative, so they are averaged.
        let cold: Vec<f64> = (0..self.entries.len())
            .map(|p| median(&samples.lat_us[p * 3 + COLD]))
            .collect();
        let accounted: Vec<f64> = (0..self.entries.len())
            .map(|p| calls.frontend[p] + calls.compile[p] + calls.certify[p])
            .collect();
        let overheads: Vec<f64> = cold.iter().zip(&accounted).map(|(c, a)| c - a).collect();
        report.set("serve.load_overhead_p50_us", mean(&overheads));
        report.set(
            "serve.load_cold_coverage",
            accounted.iter().sum::<f64>() / cold.iter().sum::<f64>(),
        );
    }

    fn shutdown(self: Box<Self>) {
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}
