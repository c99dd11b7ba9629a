//! Closed-loop load generator for the `tssa-serve` inference engine.
//!
//! Experiments, documented in `EXPERIMENTS.md`:
//!
//! 1. **Cold vs warm** — per workload, the latency of acquiring a plan
//!    through a cold cache (frontend parse + full pipeline compile) versus
//!    a warm cache (a keyed lookup), plus first-request versus steady-state
//!    end-to-end latency for context. A second table drills the *restart*
//!    variant: first load on a cold boot (compile + write-back) versus on a
//!    disk-warm boot (deserialize from the persistent plan store), the
//!    ratio `EXPERIMENTS.md` quotes for warm-restart deployments.
//! 2. **Worker scaling** — closed-loop throughput with 8 client threads as
//!    the pool grows 1 → 2 → 4 workers.
//! 3. **Overload** — a shallow admission queue offered far more load than
//!    capacity: everything completes or is shed with a typed error.
//! 4. **Trace attribution** — requests run under a tracer; end-to-end time
//!    is decomposed into queue / batch / exec phases from the span tree.
//! 5. **Sampled-trace walkthrough** — head-sampling at rate 0 with one
//!    injected slow execution: the tail-keep rules retain exactly the
//!    interesting trace, printed as a text tree next to the sampler ledger
//!    and the registry's Prometheus series.
//! 6. **Edge overhead** — the same requests issued via direct `submit`
//!    versus a real TCP round trip through the `tssa-net` gateway (HTTP
//!    framing + JSON wire codec); the per-request overhead in µs is the
//!    cost of the network front-end.
//! 7. **Autoscaling** — closed-loop TCP load against a deliberately slow
//!    single worker; the autoscaler reads the live queue-wait histogram,
//!    grows the pool, and shrinks it back after the load stops. Both
//!    transitions are timed and the ledger must still reconcile.
//! 8. **Shape classes** — every workload loaded at six batch sizes through
//!    one service. The shape-class cache admits them all from a single
//!    compile; the gate is the global `tssa_pass_wall_us` histogram, which
//!    must record zero new samples after each class's first compile. The
//!    recompiles a per-shape cache would have paid are written to
//!    `perf/BENCH_9.json` with `--json`.
//!
//! Throughput experiments report two figures with explicit tags: `sim` is
//! the simulated-device makespan (the repository's evaluation methodology
//! — deterministic, and what every assertion checks) and `wall` is host
//! wall-clock (informational only; bounded by the host's core count and
//! scheduler, never asserted).
//!
//! The scaling experiment runs with sampled tracing *on by default* — the
//! production posture this crate is arguing for. What watching costs is a
//! wall-clock question the simulated device cannot see; the `benchmark/`
//! harness measures it (`obs.trace_overhead_ratio`,
//! `obs.profile_overhead_ratio`).
//!
//! Run all experiments with no arguments, or one by name
//! (`serve_throughput shape-class --json perf/BENCH_9.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tssa_backend::ExecStats;
use tssa_bench::print_table;
use tssa_net::{
    encode_infer_request, roundtrip, AutoscaleConfig, Autoscaler, Gateway, GatewayConfig,
};
use tssa_obs::text_tree;
use tssa_serve::{
    ArgRole, BatchSpec, FaultKind, FaultPlan, MetricsRegistry, PipelineKind, PlanStore, RingSink,
    Sampler, ServeConfig, ServeError, Service, TraceSink, Tracer,
};
use tssa_workloads::{all_workloads, Workload};

/// The default production tracer for these experiments: head-sample 1% of
/// traces, tail-keep anything slower than 50ms or carrying a fault mark.
fn sampled_tracer() -> (Tracer, Arc<RingSink>) {
    let sink = Arc::new(RingSink::new(64 * 1024));
    let sampler = Sampler::new(0x5EED, 0.01).slow_after(Duration::from_millis(50));
    let tracer = Tracer::sampled(Arc::clone(&sink) as Arc<dyn TraceSink>, sampler);
    (tracer, sink)
}

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

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn cold_vs_warm() {
    const WARM_SAMPLES: usize = 25;
    let mut rows = Vec::new();
    let mut min_load_ratio = f64::MAX;
    for w in all_workloads() {
        let service = Service::new(ServeConfig::default().with_workers(1));
        let inputs = w.inputs(0, 0, 42);
        let spec = spec_for(&w);

        // Cold: the cache has never seen this (source, pipeline, signature).
        let t = Instant::now();
        let model = service
            .loader(w.source)
            .pipeline(PipelineKind::TensorSsa)
            .example(&inputs)
            .batch(spec.clone())
            .load()
            .expect("workload compiles");
        let cold_load_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        service
            .submit(&model, inputs.clone())
            .expect("admitted")
            .wait()
            .expect("first request completes");
        let cold_req_us = cold_load_us + t.elapsed().as_secs_f64() * 1e6;

        // Warm: same key, plan already resident.
        let warm_load_us = median_us(
            (0..WARM_SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    service
                        .loader(w.source)
                        .pipeline(PipelineKind::TensorSsa)
                        .example(&inputs)
                        .batch(spec.clone())
                        .load()
                        .expect("cache hit");
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        );
        let warm_req_us = median_us(
            (0..WARM_SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    service
                        .submit(&model, inputs.clone())
                        .expect("admitted")
                        .wait()
                        .expect("completes");
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        );
        let load_ratio = cold_load_us / warm_load_us.max(1e-3);
        min_load_ratio = min_load_ratio.min(load_ratio);
        rows.push(vec![
            w.name.to_string(),
            format!("{cold_load_us:.1}"),
            format!("{warm_load_us:.1}"),
            format!("{load_ratio:.0}x"),
            format!("{cold_req_us:.1}"),
            format!("{warm_req_us:.1}"),
            format!("{:.2}x", cold_req_us / warm_req_us.max(1e-3)),
        ]);
        drop(service);
    }
    print_table(
        "Serve — cold vs warm plan cache (TensorSSA pipeline)",
        &[
            "workload".into(),
            "cold load us".into(),
            "warm load us".into(),
            "load ratio".into(),
            "cold req us".into(),
            "warm req us".into(),
            "e2e ratio".into(),
        ],
        &rows,
    );
    println!(
        "  worst-case cold/warm plan-acquisition ratio: {min_load_ratio:.0}x (target >= 10x)\n"
    );
    assert!(
        min_load_ratio >= 10.0,
        "plan cache must cut acquisition latency at least 10x on every workload"
    );
}

/// Experiment 1b: the *restart* story. A fresh process has an empty
/// in-memory cache, so without persistence every deploy pays the full
/// compile again. With a plan store on disk the second boot's first load is
/// a deserialization, not a compile.
fn restart_cold_vs_warm() {
    let dir = std::env::temp_dir().join(format!("tssa-bench-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut rows = Vec::new();
    let mut min_ratio = f64::MAX;
    // The paper's workloads compile in under a millisecond, so the drill
    // also scales a synthetic body to production-sized graphs (the compile
    // cost grows superlinearly with the pass pipeline's work; the
    // deserialize cost only with the plan text). The >= 5x bar is asserted
    // on those depth-scaled cases.
    let deep = |n: usize| -> String {
        let mut s = String::from("def f(x: Tensor):\n    y = x.clone()\n");
        for i in 0..n {
            s.push_str(&format!("    y[{}] = relu(y[{}])\n", i % 8, (i + 1) % 8));
        }
        s.push_str("    return y\n");
        s
    };
    let mut cases: Vec<(String, String, Vec<tssa_backend::RtValue>, BatchSpec)> = all_workloads()
        .into_iter()
        .map(|w| {
            (
                w.name.to_string(),
                w.source.to_string(),
                w.inputs(0, 0, 42),
                spec_for(&w),
            )
        })
        .collect();
    for n in [64usize, 128] {
        cases.push((
            format!("deep-{n}"),
            deep(n),
            vec![tssa_backend::RtValue::Tensor(tssa_tensor::Tensor::ones(&[
                8, 4,
            ]))],
            BatchSpec {
                args: vec![ArgRole::Shared],
                outputs: Vec::new(),
            },
        ));
    }
    for (name, source, inputs, spec) in &cases {
        // Boot 1: empty disk — the load compiles, then writes back.
        let store = Arc::new(PlanStore::open(&dir).expect("open store"));
        let service = Service::new(
            ServeConfig::default()
                .with_workers(1)
                .with_plan_store(Some(Arc::clone(&store))),
        );
        let t = Instant::now();
        service
            .loader(source)
            .pipeline(PipelineKind::TensorSsa)
            .example(inputs)
            .batch(spec.clone())
            .load()
            .expect("cold boot compiles");
        let cold_us = t.elapsed().as_secs_f64() * 1e6;
        store.flush();
        drop(service);

        // Boot 2: a new process image — fresh in-memory cache, same disk.
        let store = Arc::new(PlanStore::open(&dir).expect("reopen store"));
        let service = Service::new(
            ServeConfig::default()
                .with_workers(1)
                .with_plan_store(Some(Arc::clone(&store))),
        );
        let t = Instant::now();
        service
            .loader(source)
            .pipeline(PipelineKind::TensorSsa)
            .example(inputs)
            .batch(spec.clone())
            .load()
            .expect("warm boot loads from disk");
        let warm_us = t.elapsed().as_secs_f64() * 1e6;
        let stats = store.stats();
        assert_eq!(
            stats.disk_hits, 1,
            "{name}: warm boot must hit the disk cache"
        );
        drop(service);

        let ratio = cold_us / warm_us.max(1e-3);
        if name.starts_with("deep-") {
            min_ratio = min_ratio.min(ratio);
        }
        rows.push(vec![
            name.clone(),
            format!("{cold_us:.1}"),
            format!("{warm_us:.1}"),
            format!("{ratio:.1}x"),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    print_table(
        "Serve — restart drill: first load, cold boot vs disk-warm boot",
        &[
            "workload".into(),
            "cold boot us".into(),
            "warm boot us".into(),
            "ratio".into(),
        ],
        &rows,
    );
    println!(
        "  worst-case cold/warm restart ratio at depth >= 64: {min_ratio:.1}x (target >= 5x)\n"
    );
    assert!(
        min_ratio >= 5.0,
        "persistent plan cache must cut restart latency at least 5x on production-sized graphs"
    );
}

fn worker_scaling() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 30;
    let mut rows = Vec::new();
    let mut last_sim_rps = 0.0;
    let mut monotonic = true;
    // Always-on sampled tracing: the scaling numbers are measured in the
    // production posture, not a tracing-free lab configuration.
    let (tracer, _sink) = sampled_tracer();
    for workers in [1usize, 2, 4] {
        let service = Arc::new(Service::new(
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_depth(256)
                .with_max_batch(8)
                .with_max_wait(Duration::from_micros(500))
                .with_tracer(tracer.clone())
                // One executor thread each: pool width, not intra-op
                // threading, is the variable under test.
                .with_worker_parallel_threads(Some(1)),
        ));
        let w = Workload::by_name("yolov3").expect("known workload");
        let model = service
            .loader(w.source)
            .pipeline(PipelineKind::TensorSsa)
            .example(&w.inputs(2, 0, 1))
            .batch(spec_for(&w))
            .load()
            .expect("compiles");
        let completed = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let service = Arc::clone(&service);
                let model = model.clone();
                let completed = &completed;
                let inputs: Vec<_> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| w.inputs(2, 0, (c * REQUESTS_PER_CLIENT + r) as u64))
                    .collect();
                scope.spawn(move || {
                    for i in inputs {
                        // Closed loop: one outstanding request per client.
                        match service.submit(&model, i) {
                            Ok(ticket) => {
                                ticket.wait().expect("request completes");
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("admission failed under closed loop: {e}"),
                        }
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let done = completed.load(Ordering::Relaxed);
        let wall_rps = done as f64 / elapsed;
        let snapshot = service.metrics();
        let report = Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("all clients joined"))
            .shutdown();
        assert_eq!(report.metrics.completed, done);
        // The backend charges simulated device/host time (the repository's
        // evaluation methodology); the pool's simulated makespan is the
        // busiest worker's accumulated execution time. Wall-clock cannot
        // scale past the host's core count, so monotonicity is asserted on
        // the simulated figure.
        let makespan_ns = report
            .per_worker
            .iter()
            .map(ExecStats::total_ns)
            .fold(0.0f64, f64::max);
        let sim_rps = done as f64 / (makespan_ns / 1e9).max(1e-12);
        rows.push(vec![
            workers.to_string(),
            done.to_string(),
            format!("{wall_rps:.0}"),
            format!("{:.2}", makespan_ns / 1e6),
            format!("{sim_rps:.0}"),
            format!("{:.2}", snapshot.avg_batch_occupancy),
        ]);
        if sim_rps < last_sim_rps {
            monotonic = false;
        }
        last_sim_rps = sim_rps;
    }
    print_table(
        "Serve — closed-loop worker scaling (yolov3, 8 clients, serial executors)",
        &[
            "workers".into(),
            "requests".into(),
            "wall req/s".into(),
            "sim makespan ms".into(),
            "sim req/s".into(),
            "avg batch".into(),
        ],
        &rows,
    );
    println!(
        "  sim  (authoritative): simulated-device makespan; monotonic 1 -> 2 -> 4 workers: {monotonic} (asserted)\n  wall (informational): host wall-clock, bounded by the host's {} core(s); never asserted\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    assert!(
        monotonic,
        "adding workers must not lower simulated throughput"
    );
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

fn trace_attribution() {
    const REQUESTS: usize = 40;
    let (tracer, sink) = tssa_obs::Tracer::ring(16 * 1024);
    let w = Workload::by_name("attention").expect("known workload");
    let service = Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_tracer(tracer.clone()),
    );
    let inputs = w.inputs(2, 24, 9);
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec_for(&w))
        .load()
        .expect("compiles");
    let tickets: Vec<_> = (0..REQUESTS)
        .map(|_| service.submit(&model, inputs.clone()).expect("admitted"))
        .collect();
    for t in tickets {
        t.wait().expect("completes");
    }
    service.shutdown();

    let records = sink.snapshot();
    let median = |name: &str| {
        median_us(
            records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.dur_ns as f64 / 1_000.0)
                .collect(),
        )
    };
    let requests = records.iter().filter(|r| r.name == "request").count();
    assert_eq!(requests, REQUESTS, "one root span per submitted request");
    let rows = vec![
        vec![
            "request (end-to-end)".into(),
            format!("{:.1}", median("request")),
        ],
        vec!["  queue".into(), format!("{:.1}", median("queue"))],
        vec![
            "  batch (shared run)".into(),
            format!("{:.1}", median("batch")),
        ],
        vec!["    exec".into(), format!("{:.1}", median("exec"))],
        vec![
            "    batch[0] kernel".into(),
            format!("{:.1}", median("batch[0]")),
        ],
    ];
    print_table(
        &format!("Serve — trace attribution (attention, {REQUESTS} requests, median us)"),
        &["span".into(), "median us".into()],
        &rows,
    );
    println!(
        "  {} spans captured ({} dropped by the ring buffer)\n",
        records.len(),
        sink.dropped()
    );
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

fn edge_overhead() {
    const WARMUP: usize = 10;
    const SAMPLES: usize = 60;
    let w = Workload::by_name("yolov3").expect("known workload");
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_depth(64)
            .with_max_batch(1),
    ));
    let inputs = w.inputs(2, 0, 11);
    let model = service
        .loader(w.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec_for(&w))
        .load()
        .expect("compiles");

    // Direct path: in-process submit + wait.
    let direct = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                service
                    .submit(&model, inputs.clone())
                    .expect("admitted")
                    .wait()
                    .expect("completes");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    direct(WARMUP);
    let direct_us = median_us(direct(SAMPLES));

    // Network path: the same requests over one keep-alive TCP connection,
    // paying HTTP framing plus the JSON wire codec both ways.
    let gateway = Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind");
    gateway.register_model("yolov3", model.clone());
    let body = encode_infer_request("yolov3", &inputs).expect("encodable inputs");
    let mut stream = std::net::TcpStream::connect(gateway.local_addr()).expect("connect");
    let tcp = |stream: &mut std::net::TcpStream, n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                let resp = roundtrip(stream, "POST", "/v1/infer", &[], body.as_bytes())
                    .expect("round trip");
                assert_eq!(resp.status, 200, "{}", resp.text());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    tcp(&mut stream, WARMUP);
    let tcp_us = median_us(tcp(&mut stream, SAMPLES));
    drop(stream);
    gateway.shutdown();

    let overhead_us = tcp_us - direct_us;
    let report = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("gateway drained"))
        .shutdown();
    assert_eq!(report.metrics.resolved(), report.metrics.submitted);
    println!("Serve — network edge overhead (yolov3, {SAMPLES} samples, median us)");
    println!("  direct submit+wait: {direct_us:.1}us");
    println!(
        "  TCP round trip:     {tcp_us:.1}us (HTTP framing + JSON codec, {} byte body)",
        body.len()
    );
    println!(
        "  edge overhead:      {overhead_us:.1}us/request ({:.2}x)\n",
        tcp_us / direct_us.max(1e-3)
    );
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
            cold_vs_warm();
            restart_cold_vs_warm();
            worker_scaling();
            overload();
            trace_attribution();
            sampled_trace_walkthrough();
            edge_overhead();
            autoscale();
            shape_class(json.as_deref());
        }
        Some("cold-vs-warm") => {
            cold_vs_warm();
            restart_cold_vs_warm();
        }
        Some("worker-scaling") => worker_scaling(),
        Some("overload") => overload(),
        Some("trace-attribution") => trace_attribution(),
        Some("sampled-trace") => sampled_trace_walkthrough(),
        Some("edge-overhead") => edge_overhead(),
        Some("autoscale") => autoscale(),
        Some("shape-class") => shape_class(json.as_deref()),
        Some(other) => {
            eprintln!(
                "serve_throughput: unknown experiment `{other}` \
                 (cold-vs-warm, worker-scaling, overload, trace-attribution, \
                 sampled-trace, edge-overhead, autoscale, shape-class)"
            );
            std::process::exit(2);
        }
    }
}
