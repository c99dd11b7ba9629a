//! Cross-shape differential suite: one cached class plan must serve every
//! admitted batch size with outputs indistinguishable from a per-shape cold
//! compile.
//!
//! This is the certification the shape-class cache rests on. The class key
//! erases polymorphic dims, so a plan compiled at batch 2 serves batch 7 —
//! but only legitimately if the certifier's polymorphism claim is *true*.
//! For each paper workload the suite sweeps ≥ 6 batch sizes through one
//! service (asserting exactly one compile for the whole sweep) and checks
//! every output against a fresh service that cold-compiles at that exact
//! shape.

use std::sync::{Mutex, PoisonError};

use tssa_backend::RtValue;
use tssa_serve::{
    ArgRole, BatchSpec, FaultKind, FaultPlan, MetricsRegistry, PipelineKind, ServeConfig, Service,
    Tracer,
};
use tssa_workloads::{all_workloads, Workload};

// Batch 1 included deliberately: a class plan must not silently assume a
// batch dim ≥ the deriving example's.
const BATCHES: [usize; 6] = [1, 2, 3, 4, 6, 8];

/// Every test here compiles, and every compile feeds the process-wide
/// `tssa_pass_wall_us` histogram; the zero-recompile assertion reads that
/// histogram, so no test may compile while another holds this lock.
static COMPILES: Mutex<()> = Mutex::new(());

/// Samples in the global `tssa_pass_wall_us` histogram, summed over passes:
/// it grows by one per pass run, wherever in the process the compile was.
fn pass_samples() -> u64 {
    MetricsRegistry::global()
        .prometheus_text()
        .lines()
        .filter(|l| l.starts_with("tssa_pass_wall_us_count"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// All-Shared spec: every request runs unbatched, so the differential
/// comparison exercises the plan itself rather than the batcher.
fn shared_spec(w: &Workload) -> BatchSpec {
    BatchSpec {
        args: vec![ArgRole::Shared; w.inputs(0, 0, 1).len()],
        outputs: Vec::new(),
    }
}

fn rt_close(a: &RtValue, b: &RtValue) -> bool {
    match (a, b) {
        (RtValue::Tensor(x), RtValue::Tensor(y)) => x.shape() == y.shape() && x.allclose(y, 1e-6),
        (RtValue::Int(x), RtValue::Int(y)) => x == y,
        (RtValue::Bool(x), RtValue::Bool(y)) => x == y,
        (RtValue::Float(x), RtValue::Float(y)) => (x - y).abs() <= 1e-9,
        (RtValue::List(xs), RtValue::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| rt_close(x, y))
        }
        _ => false,
    }
}

/// Run `inputs` through a fresh service that compiles at exactly this
/// shape — the ground truth the class plan is compared against.
fn cold_reference(w: &Workload, inputs: &[RtValue]) -> Vec<RtValue> {
    let service = Service::new(ServeConfig::default().with_workers(1));
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(inputs)
        .batch(shared_spec(w))
        .load()
        .expect("reference load");
    let out = service
        .submit(&model, inputs.to_vec())
        .expect("reference submit")
        .wait()
        .expect("reference wait")
        .outputs;
    service.shutdown();
    out
}

#[test]
fn one_class_plan_serves_every_batch_size() {
    let _compiles = COMPILES.lock().unwrap_or_else(PoisonError::into_inner);
    for w in all_workloads() {
        let (tracer, sink) = Tracer::ring(8192);
        let service = Service::new(ServeConfig::default().with_workers(1).with_tracer(tracer));
        let mut sweep: Vec<(usize, Vec<RtValue>, Vec<RtValue>)> = Vec::new();
        let before = pass_samples();
        let mut after_first_load = before;
        for (i, &b) in BATCHES.iter().enumerate() {
            let inputs = w.inputs(b, 0, 9);
            let model = service
                .loader(w.source)
                .pipeline(PipelineKind::TensorSsa)
                .example(&inputs)
                .batch(shared_spec(&w))
                .load()
                .unwrap_or_else(|e| panic!("{} @ batch {b}: {e}", w.name));
            if i == 0 {
                after_first_load = pass_samples();
            }
            assert!(
                model.class().key().render().contains('*'),
                "{}: class-eligible (fully polymorphic signature)",
                w.name
            );
            let outputs = service
                .submit(&model, inputs.clone())
                .unwrap()
                .wait()
                .unwrap_or_else(|e| panic!("{} @ batch {b}: {e}", w.name))
                .outputs;
            sweep.push((b, inputs, outputs));
        }
        // The cache's own miss count cannot see a compile that bypassed it;
        // the pass histogram sees every compile in the process.
        assert!(
            after_first_load > before,
            "{}: the first load runs the pass pipeline",
            w.name
        );
        assert_eq!(
            pass_samples(),
            after_first_load,
            "{}: the pass pipeline ran again after the class compile",
            w.name
        );
        let stats = service.cache().stats();
        assert_eq!(
            stats.misses, 1,
            "{}: one compile serves the whole sweep: {stats:?}",
            w.name
        );
        assert!(
            stats.class_hits >= (BATCHES.len() - 1) as u64,
            "{}: every later load is a class hit: {stats:?}",
            w.name
        );
        service.shutdown();
        let compiles = sink
            .snapshot()
            .iter()
            .filter(|r| r.name.starts_with("compile:"))
            .count();
        assert_eq!(compiles, 1, "{}: exactly one compile span", w.name);

        // Differential check: the class plan's outputs at every batch size
        // must match a cold compile specialized to that exact shape.
        for (b, inputs, outputs) in sweep {
            let want = cold_reference(&w, &inputs);
            assert_eq!(
                outputs.len(),
                want.len(),
                "{} @ batch {b}: output arity",
                w.name
            );
            for (i, (got, want)) in outputs.iter().zip(&want).enumerate() {
                assert!(
                    rt_close(got, want),
                    "{} @ batch {b}: output {i} diverges from per-shape cold compile",
                    w.name
                );
            }
        }
    }
}

/// `(bucket, hits)` per `tssa_plan_class_hits_total` series in `service`'s
/// exposition, sorted by bucket label.
fn class_hits(service: &Service) -> Vec<(String, u64)> {
    let mut hits: Vec<(String, u64)> = service
        .prometheus()
        .lines()
        .filter_map(|l| l.strip_prefix("tssa_plan_class_hits_total{bucket=\""))
        .filter_map(|l| {
            let (bucket, rest) = l.split_once('"')?;
            Some((bucket.to_string(), rest.rsplit(' ').next()?.parse().ok()?))
        })
        .collect();
    hits.sort();
    hits
}

#[test]
fn census_counts_every_served_bucket() {
    let _compiles = COMPILES.lock().unwrap_or_else(PoisonError::into_inner);
    let w = Workload::by_name("yolact").unwrap();
    let service = Service::new(ServeConfig::default().with_workers(1));
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&w.inputs(2, 0, 5))
        .batch(shared_spec(&w))
        .load()
        .unwrap();
    // Loading serves no request, so no bucket has a hit yet.
    assert_eq!(class_hits(&service), vec![]);

    for (b, requests) in [(4, 5), (6, 3), (8, 1)] {
        for seed in 0..requests {
            service
                .submit(&model, w.inputs(b, 0, seed))
                .unwrap()
                .wait()
                .unwrap();
        }
    }
    let census = class_hits(&service);
    service.shutdown();
    let want: Vec<(String, u64)> = [("4x48x48", 5), ("6x48x48", 3), ("8x48x48", 1)]
        .map(|(label, hits)| (label.to_string(), hits))
        .into();
    assert_eq!(census, want);
}

#[test]
fn compatible_shapes_stack_pad_free_in_one_batch() {
    let _compiles = COMPILES.lock().unwrap_or_else(PoisonError::into_inner);
    let w = Workload::by_name("yolact").unwrap();
    // The first execution sleeps, holding the one worker while both
    // requests queue behind it.
    let faults = FaultPlan::script()
        .at(FaultKind::SlowExec, 0)
        .with_slow_exec(std::time::Duration::from_millis(50))
        .faults();
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(4)
            .with_faults(faults),
    );
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&w.inputs(2, 0, 5))
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    // The hold: the same class loaded unbatched, so it runs alone.
    let hold = service
        .loader(w.source)
        .example(&w.inputs(2, 0, 5))
        .batch(shared_spec(&w))
        .load()
        .unwrap();
    let held = service.submit(&hold, w.inputs(2, 0, 5)).unwrap();
    // Two requests from *different* concrete shapes of the class — only the
    // batch dim differs, so they concatenate with zero padding.
    let small = w.inputs(2, 0, 61);
    let large = w.inputs(3, 0, 62);
    let t_small = service.submit(&model, small.clone()).unwrap();
    let t_large = service.submit(&model, large.clone()).unwrap();
    let r_small = t_small.wait().unwrap();
    let r_large = t_large.wait().unwrap();
    assert_eq!(
        r_small.outputs[0].as_tensor().unwrap().shape()[0],
        2,
        "each request gets its own rows back"
    );
    assert_eq!(r_large.outputs[0].as_tensor().unwrap().shape()[0], 3);
    assert_eq!(
        r_small.coalesced + r_large.coalesced,
        4,
        "both requests shared one two-request batch"
    );
    for (inputs, response) in [(&small, &r_small), (&large, &r_large)] {
        let want = cold_reference(&w, inputs);
        for (got, want) in response.outputs.iter().zip(&want) {
            assert!(rt_close(got, want), "stacked execution diverges");
        }
    }
    assert_eq!(held.wait().unwrap().coalesced, 1);
    let metrics = service.shutdown().metrics;
    assert_eq!(
        metrics.batches, 2,
        "the hold, then one batch executed both shapes"
    );
    assert_eq!(metrics.max_batch, 2);
}
