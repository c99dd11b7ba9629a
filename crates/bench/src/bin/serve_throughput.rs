//! Closed-loop load generator for the `tssa-serve` inference engine.
//!
//! Experiments, documented in `EXPERIMENTS.md`:
//!
//! 1. **Overload** — a shallow admission queue offered far more load than
//!    capacity: everything completes or is shed with a typed error.
//! 2. **Sampled-trace walkthrough** — head-sampling at rate 0 with one
//!    injected slow execution: the tail-keep rules retain exactly the
//!    interesting trace, printed as a text tree next to the sampler ledger
//!    and the registry's Prometheus series.
//! 3. **Autoscaling** — closed-loop TCP load against a deliberately slow
//!    single worker; the autoscaler reads the live queue-wait histogram,
//!    grows the pool, and shrinks it back after the load stops. Both
//!    transitions are timed and the ledger must still reconcile.
//! 4. **Shape classes** — every workload loaded at six batch sizes through
//!    one service. The shape-class cache admits them all from a single
//!    compile; the gate is the global `tssa_pass_wall_us` histogram, which
//!    must record zero new samples after each class's first compile. The
//!    recompiles a per-shape cache would have paid are written to
//!    `perf/BENCH_9.json` with `--json`.
//!
//! Load, restart, span-phase, edge and scaling *timings* are the
//! `benchmark/` harness's (`plan-load`, `serve-batch`, `edge-http`); what is
//! left here asserts behaviour, not speed.
//!
//! Run all experiments with no arguments, or one by name
//! (`serve_throughput shape-class --json perf/BENCH_9.json`).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tssa_bench::print_table;
use tssa_net::{
    encode_infer_request, roundtrip, AutoscaleConfig, Autoscaler, Gateway, GatewayConfig,
};
use tssa_obs::text_tree;
use tssa_serve::{
    ArgRole, BatchSpec, FaultKind, FaultPlan, MetricsRegistry, PipelineKind, RingSink, Sampler,
    ServeConfig, ServeError, Service, TraceSink, Tracer,
};
use tssa_workloads::{all_workloads, Workload};

/// Batch contract per workload: which arguments carry per-request rows
/// along dimension 0, and which are shared (weights, anchors, lengths).
fn spec_for(w: &Workload) -> BatchSpec {
    let (args, outputs) = match w.name {
        "yolov3" => (vec![ArgRole::Stacked], vec![ArgRole::Stacked]),
        "yolact" => (vec![ArgRole::Stacked], vec![ArgRole::Stacked]),
        "fcos" => (
            vec![
                ArgRole::Stacked,
                ArgRole::Stacked,
                ArgRole::Stacked,
                ArgRole::Shared,
            ],
            vec![ArgRole::Stacked, ArgRole::Stacked],
        ),
        // ssd loops over a runtime batch-count argument and the NLP and
        // attention workloads batch along dimension 1 (or scale the head
        // dimension), so they run unbatched: the service still caches,
        // pools and meters them.
        _ => (vec![ArgRole::Shared; w.inputs(0, 0, 1).len()], Vec::new()),
    };
    BatchSpec { args, outputs }
}

fn overload() {
    const OFFERED: usize = 400;
    let w = Workload::by_name("fcos").expect("known workload");
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(4)
            .with_max_batch(1),
    );
    let inputs = w.inputs(4, 0, 3);
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec_for(&w))
        .load()
        .expect("compiles");
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for _ in 0..OFFERED {
        match service.submit(&model, inputs.clone()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { .. }) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    let accepted = tickets.len();
    for t in tickets {
        t.wait().expect("accepted requests complete");
    }
    let report = service.shutdown();
    println!("Serve — overload (queue depth 4, 1 worker, {OFFERED} offered)");
    println!("  accepted {accepted}, shed {shed}; every request reached a typed terminal state");
    println!("{}\n", report.metrics);
    assert_eq!(report.metrics.resolved(), OFFERED as u64);
    assert!(shed > 0, "overload run must actually shed");
}

fn sampled_trace_walkthrough() {
    const REQUESTS: usize = 32;
    // Rate 0 is the harshest head-sampling setting: *nothing* is kept by
    // the coin flip, so whatever survives did so on the tail-keep rules.
    // One scripted slow execution makes exactly one trace interesting.
    let sink = Arc::new(RingSink::new(16 * 1024));
    let tracer = Tracer::sampled(
        Arc::clone(&sink) as Arc<dyn TraceSink>,
        Sampler::new(7, 0.0),
    );
    let faults = FaultPlan::script()
        .at(FaultKind::SlowExec, 0)
        .with_slow_exec(Duration::from_micros(300))
        .faults();
    let registry = MetricsRegistry::new();
    let w = Workload::by_name("yolov3").expect("known workload");
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(4)
            .with_tracer(tracer.clone())
            .with_faults(faults)
            .with_registry(registry.clone()),
    );
    let inputs = w.inputs(2, 0, 5);
    let model = service
        .loader(w.source)
        .named("yolo-post")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec_for(&w))
        .load()
        .expect("compiles");
    for _ in 0..REQUESTS {
        service
            .submit(&model, inputs.clone())
            .expect("admitted")
            .wait()
            .expect("completes");
    }
    service.shutdown();

    let stats = tracer.sampler_stats().expect("sampled tracer");
    println!("Serve — sampled-trace walkthrough (yolov3, {REQUESTS} requests, head rate 0)");
    println!(
        "  sampler ledger: {} roots, {} head-kept, {} tail-kept, {} traces dropped",
        stats.roots, stats.head_kept, stats.tail_kept, stats.dropped_traces
    );
    assert!(
        stats.tail_kept >= 1,
        "the fault-marked trace must survive tail-keep"
    );
    println!("  the kept trace (every span of the slow request, nothing else):");
    for line in text_tree(&sink.snapshot()).lines() {
        println!("    {line}");
    }
    println!("  registry excerpt (one exposition, the registry is the store):");
    let exposition = registry.prometheus_text();
    for line in exposition.lines().filter(|l| {
        l.starts_with("tssa_queue_wait_us_count")
            || l.starts_with("tssa_batch_occupancy_sum")
            || l.starts_with("tssa_batch_occupancy_count")
            || l.starts_with("tssa_requests_completed_total")
            || l.starts_with("tssa_faults_injected_total")
    }) {
        println!("    {line}");
    }
    println!();
}

fn autoscale() {
    const CLIENTS: usize = 8;
    // A deliberately slow single worker: queue wait builds immediately, so
    // the windowed p99 crosses the high watermark within a few ticks.
    let faults = FaultPlan::seeded(1)
        .with_rate(FaultKind::SlowExec, 1.0, 1_000_000)
        .with_slow_exec(Duration::from_millis(2))
        .faults();
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(32)
            .with_max_batch(2)
            .with_max_wait(Duration::from_micros(200))
            .with_faults(faults),
    ));
    let w = Workload::by_name("yolov3").expect("known workload");
    let inputs = w.inputs(2, 0, 13);
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec_for(&w))
        .load()
        .expect("compiles");
    let gateway = Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind");
    gateway.register_model("yolov3", model.clone());
    let addr = gateway.local_addr();
    let config = AutoscaleConfig {
        min_workers: 1,
        max_workers: 4,
        high_water_us: 400,
        low_water_us: 200,
        high_ticks: 2,
        low_ticks: 3,
        cooldown_ticks: 1,
        tick: Duration::from_millis(25),
    };
    let autoscaler = Autoscaler::spawn(Arc::clone(&service), config);

    let body = encode_infer_request("yolov3", &inputs).expect("encodable inputs");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let t0 = Instant::now();
    let grow_us = std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let stop = Arc::clone(&stop);
            let body = body.as_str();
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    match roundtrip(&mut stream, "POST", "/v1/infer", &[], body.as_bytes()) {
                        Ok(resp) => {
                            assert!(resp.status == 200 || resp.status == 429, "{}", resp.text())
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        // Load until the pool grows, then idle until it shrinks back.
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.worker_count() <= 1 {
            assert!(Instant::now() < deadline, "autoscaler never grew the pool");
            std::thread::sleep(Duration::from_millis(5));
        }
        let grow_us = t0.elapsed().as_secs_f64() * 1e6;
        stop.store(true, Ordering::Relaxed);
        grow_us
    });
    let t1 = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.worker_count() > 1 {
        assert!(
            Instant::now() < deadline,
            "autoscaler never shrank back to the floor"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let shrink_us = t1.elapsed().as_secs_f64() * 1e6;

    let registry = service.registry().clone();
    let ups = registry
        .counter("tssa_autoscaler_scale_ups_total", "", &[])
        .get();
    let downs = registry
        .counter("tssa_autoscaler_scale_downs_total", "", &[])
        .get();
    gateway.shutdown();
    autoscaler.stop();
    let report = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("gateway drained"))
        .shutdown();
    assert_eq!(report.metrics.resolved(), report.metrics.submitted);
    assert!(ups >= 1, "at least one scale-up must be recorded");
    assert!(downs >= 1, "at least one scale-down must be recorded");
    println!("Serve — registry-driven autoscaling (slow worker, {CLIENTS} TCP clients)");
    println!(
        "  scale-up after {:.0}ms of load (p99 queue wait over the 400us watermark for 2 ticks)",
        grow_us / 1e3
    );
    println!(
        "  scale-down {:.0}ms after load stopped (p99 under 200us for 3 ticks, cooldown 1)",
        shrink_us / 1e3
    );
    println!(
        "  {ups} scale-up(s), {downs} scale-down(s); {} requests, ledger reconciled\n",
        report.metrics.submitted
    );
}

/// Experiment 8: the shape-class plan cache. Each workload is loaded and
/// served at six batch sizes through one service; the class key erases the
/// polymorphic dims, so one compile covers the whole sweep. The recompile
/// gate reads the *global* registry — `tssa_pass_wall_us` is recorded by
/// the pass manager, not the service's own registry — and fails if the
/// histogram gains any sample after a class's first compile.
fn shape_class(json_path: Option<&str>) {
    const BATCHES: [usize; 6] = [1, 2, 3, 4, 6, 8];
    fn pass_samples() -> u64 {
        MetricsRegistry::global()
            .prometheus_text()
            .lines()
            .filter(|l| l.starts_with("tssa_pass_wall_us_count"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    }
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut total_avoided = 0u64;
    for w in all_workloads() {
        let service = Service::new(ServeConfig::default().with_workers(1));
        let before = pass_samples();
        let mut first_compile_samples = 0u64;
        for (i, &b) in BATCHES.iter().enumerate() {
            let inputs = w.inputs(b, 0, 17);
            let model = service
                .loader(w.source)
                .pipeline(PipelineKind::TensorSsa)
                .example(&inputs)
                .batch(spec_for(&w))
                .load()
                .unwrap_or_else(|e| panic!("{} @ batch {b}: {e}", w.name));
            service
                .submit(&model, inputs)
                .expect("admitted")
                .wait()
                .unwrap_or_else(|e| panic!("{} @ batch {b}: {e}", w.name));
            let samples = pass_samples() - before;
            if i == 0 {
                assert!(samples > 0, "{}: first load runs the pass pipeline", w.name);
                first_compile_samples = samples;
            } else {
                assert_eq!(
                    samples, first_compile_samples,
                    "{} @ batch {b}: the pass pipeline ran again after the class compile",
                    w.name
                );
            }
        }
        let stats = service.cache().stats();
        assert_eq!(stats.misses, 1, "{}: one compile per class", w.name);
        assert!(
            stats.class_hits >= (BATCHES.len() - 1) as u64,
            "{}: every later load is a class hit: {stats:?}",
            w.name
        );
        service.shutdown();
        let avoided = (BATCHES.len() - 1) as u64;
        total_avoided += avoided;
        rows.push(vec![
            w.name.to_string(),
            BATCHES.len().to_string(),
            "1".into(),
            stats.class_hits.to_string(),
            avoided.to_string(),
        ]);
        entries.push(format!(
            "    {{\"name\": \"{}\", \"batch_sizes\": {}, \"compiles\": 1, \"class_hits\": {}, \"recompiles_avoided\": {}}}",
            w.name,
            BATCHES.len(),
            stats.class_hits,
            avoided
        ));
    }
    print_table(
        "Serve — shape-class plan cache (one compile per class, six batch sizes)",
        &[
            "workload".into(),
            "shapes".into(),
            "compiles".into(),
            "class hits".into(),
            "avoided".into(),
        ],
        &rows,
    );
    let seed_compiles = entries.len() * BATCHES.len();
    println!(
        "  {total_avoided} recompiles avoided across {} workloads (a per-shape cache pays {seed_compiles})\n",
        entries.len()
    );
    if let Some(path) = json_path {
        // Counts only — deterministic across hosts, so the file can be
        // committed and diffed.
        let json = format!(
            "{{\n  \"experiment\": \"shape_class\",\n  \"batch_sizes\": {:?},\n  \"workloads\": [\n{}\n  ],\n  \"total_compiles\": {},\n  \"per_shape_cache_compiles\": {},\n  \"recompiles_avoided\": {}\n}}\n",
            BATCHES,
            entries.join(",\n"),
            entries.len(),
            seed_compiles,
            total_avoided
        );
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create report directory");
        }
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("  report written to {path}\n");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut json: Option<String> = None;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json = Some(path.clone()),
                None => {
                    eprintln!("serve_throughput: --json needs a path");
                    std::process::exit(2);
                }
            },
            name if !name.starts_with('-') && which.is_none() => which = Some(name.to_string()),
            other => {
                eprintln!("serve_throughput: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    match which.as_deref() {
        None => {
            overload();
            sampled_trace_walkthrough();
            autoscale();
            shape_class(json.as_deref());
        }
        Some("overload") => overload(),
        Some("sampled-trace") => sampled_trace_walkthrough(),
        Some("autoscale") => autoscale(),
        Some("shape-class") => shape_class(json.as_deref()),
        Some(other) => {
            eprintln!(
                "serve_throughput: unknown experiment `{other}` \
                 (overload, sampled-trace, autoscale, shape-class)"
            );
            std::process::exit(2);
        }
    }
}
