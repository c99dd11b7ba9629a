//! Chaos suite: 200+ deterministic seeded fault schedules driven through
//! the full service. Under every schedule — worker panics, compile stalls,
//! cache poisoning, admission bursts, slow executions, deadlines — the
//! invariants must hold:
//!
//! - **No silent drops.** Every accepted ticket reaches a terminal state
//!   (a hang here fails the suite by timeout), and the metric ledger
//!   reconciles: `resolved() == submitted`. Transient outcomes — admission
//!   sheds and cancellations from worker churn — surface typed to the
//!   caller (`QueueFull`, `Canceled`); nothing retries them in-process.
//! - **Fault accounting.** `faults_injected` in the snapshot equals the
//!   plan's own injection count, batch re-queues never exceed panics, and
//!   observed successes equal the `completed` counter.
//! - **Pool integrity.** Per-worker stats keep full pool strength through
//!   crashes and respawns.
//! - **Observability under chaos.** Every round runs fully traced into one
//!   shared [`StreamSink`] (NDJSON spans on disk, as a long production run
//!   would), and the sink must come out healthy: spans written, zero
//!   dropped to backpressure.
//! - **No cross-shape mixing.** Traffic is heterogeneous — batch sizes 2–4
//!   interleave through one class plan — and every successful response must
//!   carry exactly the rows of the shape it submitted. A CachePoison fault
//!   evicts the whole class (the one entry serving every shape), and the
//!   next load recompiles it.

use std::io::BufWriter;
use std::sync::Arc;
use std::time::Duration;

use tssa_backend::RtValue;
use tssa_serve::{
    silence_injected_panics_for_tests, BatchSpec, FaultKind, FaultPlan, PipelineKind, ServeConfig,
    ServeError, Service, StreamSink, TraceSink, Tracer,
};
use tssa_tensor::Tensor;

const SEEDS: u64 = 210;
const SOURCE: &str =
    "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";

fn inputs_at(b: usize) -> Vec<RtValue> {
    vec![RtValue::Tensor(Tensor::ones(&[b, 4]))]
}

/// Per-round tallies accumulated across the whole suite.
#[derive(Default)]
struct SuiteTotals {
    injected_by_kind: [u64; 6],
    requeues: u64,
    respawns: u64,
    completed: u64,
    /// Deadline sheds plus waiter timeouts, from the deadline-mode rounds.
    deadline_outcomes: u64,
    /// Mid-round re-loads admitted by the resident shape class.
    class_hits: u64,
}

fn chaos_round(seed: u64, tracer: &Tracer, totals: &mut SuiteTotals) {
    // One round in four carries deadlines; the rest are plain submit/wait.
    let deadlines = seed % 4 == 3;
    let mut plan = FaultPlan::seeded(seed)
        .with_rate(FaultKind::WorkerPanic, 0.06, 48)
        .with_rate(FaultKind::QueueFullBurst, 0.10, 48)
        .with_rate(FaultKind::CachePoison, 0.25, 16)
        .with_rate(FaultKind::CompileStall, 0.30, 8)
        .with_rate(FaultKind::CompilePanic, 0.25, 4)
        .with_stall(Duration::from_micros(300))
        .with_slow_exec(Duration::from_micros(500));
    // Deadline rounds lean on slow executions to build a queue backlog.
    plan = if deadlines {
        plan.with_rate(FaultKind::SlowExec, 0.50, 64)
    } else {
        plan.with_rate(FaultKind::SlowExec, 0.12, 48)
    };
    if deadlines {
        // A slow execution must outlive every deadline (max 2.4ms) plus the
        // 2ms grace even in release builds, where the un-faulted path is
        // microseconds — otherwise deadline outcomes depend on the build
        // profile and host load instead of the schedule.
        plan = plan.with_slow_exec(Duration::from_millis(6));
    }
    let faults = plan.faults();

    let mut config = ServeConfig::default()
        .with_workers(2)
        .with_queue_depth(8)
        .with_max_batch(4)
        .with_tracer(tracer.clone())
        .with_faults(faults.clone());
    if deadlines {
        // Tight grace so stalled executions resolve as waiter timeouts.
        config = config.with_timeout_grace(Duration::from_millis(2));
    }
    let service = Service::new(config);
    // An injected CompilePanic surfaces as a typed error on the leading
    // load; retry until a non-faulted arrival compiles (the schedule's
    // horizon is finite, so this terminates).
    let load = |b: usize| loop {
        match service
            .loader(SOURCE)
            .pipeline(PipelineKind::TensorSsa)
            .example(&inputs_at(b))
            .batch(BatchSpec::stacked(1, 1))
            .load()
        {
            Err(ServeError::CompilePanic) => continue,
            other => return other,
        }
    };
    let model = load(2).unwrap_or_else(|e| panic!("seed {seed}: load failed: {e}"));

    let mut observed_ok = 0u64;
    let mut observed_shed = 0u64;
    // Mixed batch sizes throughout. Plain rounds re-load at never-yet-loaded
    // shapes so class hits (and therefore poison injections) happen
    // mid-round; deadline rounds give every request 1.2–2.4 ms, so some shed
    // as DeadlineExceeded and executions that outlive deadline + grace
    // resolve as Timeout. The ledger must reconcile exactly either way.
    let mut tickets = Vec::new();
    for i in 0..18usize {
        if !deadlines && i % 6 == 5 {
            // A class hit unless poisoned; poison evicts the whole class
            // and the retry recompiles it — either way the load must
            // succeed.
            load(2 + (i / 6) % 3).unwrap_or_else(|e| panic!("seed {seed}: re-load failed: {e}"));
        }
        let b = 2 + i % 3;
        let deadline = deadlines.then(|| Duration::from_micros(1200 + 300 * (i % 5) as u64));
        match service.submit_with(&model, inputs_at(b), deadline) {
            Ok(t) => tickets.push((b, t)),
            Err(ServeError::QueueFull { .. }) => observed_shed += 1,
            Err(other) => panic!("seed {seed}: unexpected admission error: {other}"),
        }
    }
    for (b, t) in tickets {
        match t.wait() {
            Ok(resp) => {
                observed_ok += 1;
                let out = resp.outputs[0].as_tensor().expect("tensor output");
                assert_eq!(
                    out.shape(),
                    [b, 4],
                    "seed {seed}: response rows must match the submitted shape"
                );
            }
            // Canceled: batch crashed twice, or drained at shutdown.
            Err(ServeError::Canceled) => {}
            Err(ServeError::DeadlineExceeded { .. } | ServeError::Timeout { .. }) if deadlines => {}
            Err(other) => panic!("seed {seed}: unexpected terminal state: {other}"),
        }
    }

    let report = service.shutdown();
    let metrics = &report.metrics;
    let plan = faults.plan().expect("plan is installed");

    // Ledger reconciliation: nothing dropped, nothing double-counted.
    assert_eq!(
        metrics.resolved(),
        metrics.submitted,
        "seed {seed}: ledger must reconcile\n{metrics}"
    );
    assert_eq!(
        metrics.completed, observed_ok,
        "seed {seed}: observed successes disagree with the completed counter"
    );
    assert_eq!(
        metrics.shed_queue_full, observed_shed,
        "seed {seed}: observed sheds disagree with the shed counter"
    );
    // Fault accounting: the snapshot agrees with the plan's own count.
    assert_eq!(
        metrics.faults_injected,
        plan.injected_total(),
        "seed {seed}: snapshot and plan disagree on injected faults"
    );
    assert_eq!(
        metrics.cache.poisoned,
        plan.injected(FaultKind::CachePoison),
        "seed {seed}: cache poison accounting"
    );
    // Recovery bounds: at most one re-queue (and one respawn) per panic.
    let panics = plan.injected(FaultKind::WorkerPanic);
    assert!(
        metrics.requeues <= panics,
        "seed {seed}: {} requeues from {panics} panics",
        metrics.requeues
    );
    assert!(
        metrics.worker_respawns <= panics,
        "seed {seed}: {} respawns from {panics} panics",
        metrics.worker_respawns
    );
    assert_eq!(report.per_worker.len(), 2, "seed {seed}: pool strength");
    if !deadlines {
        assert_eq!(
            metrics.timeouts, 0,
            "seed {seed}: no deadlines, no timeouts"
        );
        assert_eq!(
            metrics.shed_deadline, 0,
            "seed {seed}: no deadlines, no deadline sheds"
        );
    }

    for kind in FaultKind::ALL {
        totals.injected_by_kind[kind.index()] += plan.injected(kind);
    }
    totals.requeues += metrics.requeues;
    totals.respawns += metrics.worker_respawns;
    totals.completed += metrics.completed;
    totals.deadline_outcomes += metrics.shed_deadline + metrics.timeouts;
    totals.class_hits += metrics.cache.class_hits;
}

#[test]
fn two_hundred_seeded_schedules_never_drop_or_miscount() {
    silence_injected_panics_for_tests();
    // The whole suite streams spans to one NDJSON file, like a production
    // deployment shipping traces to disk for rotation.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_spans.ndjson");
    let file = std::fs::File::create(&path).expect("create span stream");
    let sink = Arc::new(StreamSink::with_flush_every(BufWriter::new(file), 256));
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let mut totals = SuiteTotals::default();
    for seed in 0..SEEDS {
        chaos_round(seed, &tracer, &mut totals);
    }
    // The suite must actually exercise every fault kind and every recovery
    // path — a schedule that never fires proves nothing.
    for kind in FaultKind::ALL {
        assert!(
            totals.injected_by_kind[kind.index()] > 0,
            "suite never injected {}",
            kind.name()
        );
    }
    assert!(totals.requeues > 0, "suite never exercised batch re-queue");
    assert!(totals.respawns > 0, "suite never exercised worker respawn");
    assert!(
        totals.deadline_outcomes > 0,
        "suite never exercised deadlines/timeouts"
    );
    assert!(
        totals.class_hits > 0,
        "suite never re-loaded through a shape class"
    );
    assert!(
        totals.completed > SEEDS * 5,
        "most traffic completes despite the chaos"
    );

    // Sink health: the streaming sink absorbed every span the suite
    // produced — nothing lost to write errors or backpressure — and the
    // stream on disk is parseable NDJSON cut at line boundaries.
    sink.flush().expect("flush span stream");
    assert_eq!(sink.dropped(), 0, "chaos suite dropped spans");
    assert!(
        sink.written() > SEEDS * 10,
        "chaos suite wrote only {} spans",
        sink.written()
    );
    let text = std::fs::read_to_string(&path).expect("read span stream");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, sink.written());
    for line in lines.iter().step_by(97) {
        tssa_obs::json::parse(line).expect("span stream line is valid JSON");
    }
}

/// Determinism spot-check: the same seed drives the same injection schedule
/// (the scheduling decision is a pure function of seed and arrival index,
/// independent of thread interleaving).
#[test]
fn same_seed_same_schedule() {
    let a = FaultPlan::seeded(7)
        .with_rate(FaultKind::WorkerPanic, 0.2, 32)
        .with_rate(FaultKind::SlowExec, 0.4, 32);
    let b = FaultPlan::seeded(7)
        .with_rate(FaultKind::WorkerPanic, 0.2, 32)
        .with_rate(FaultKind::SlowExec, 0.4, 32);
    for kind in [FaultKind::WorkerPanic, FaultKind::SlowExec] {
        assert_eq!(a.scheduled(kind), b.scheduled(kind));
    }
}
