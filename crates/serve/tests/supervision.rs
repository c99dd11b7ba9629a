//! Worker recovery and pool sizing: a panic mid-batch must not lose the
//! batch or shrink the pool. The worker that owns the batch retries it
//! exactly once on its own thread and keeps serving, graceful shutdown still
//! drains clean with full per-worker accounting, and grow/shrink take effect
//! before they return.

use std::sync::Once;
use std::time::Duration;

use tssa_serve::{
    BatchSpec, FaultKind, FaultPlan, PipelineKind, ServeConfig, ServeError, Service, Tracer,
    INJECTED_PANIC,
};
use tssa_workloads::Workload;

/// Keep injected worker panics out of the test output; real panics still
/// print through the default hook.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_PANIC))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                default(info);
            }
        }));
    });
}

#[test]
fn panicked_worker_requeues_batch_once_and_pool_recovers() {
    silence_injected_panics();
    const FOLLOW_UPS: usize = 6;
    let workload = Workload::by_name("yolov3").unwrap();
    // The very first batch any worker picks up panics mid-execution; every
    // later batch (including the re-queued first one) runs normally.
    let faults = FaultPlan::script().at(FaultKind::WorkerPanic, 0).faults();
    let (tracer, sink) = Tracer::ring(256);
    let service = Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(1)
            .with_tracer(tracer)
            .with_faults(faults.clone()),
    );
    let inputs = workload.inputs(2, 0, 3);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();

    // The request whose batch gets the panic still completes successfully —
    // through the retry, on the same worker.
    let first = service.submit(&model, inputs.clone()).unwrap();
    let response = first.wait().expect("re-queued batch completes");
    assert_eq!(response.coalesced, 1);

    // The pool is back to full strength: follow-up traffic flows.
    let tickets: Vec<_> = (0..FOLLOW_UPS)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("pool serves normally after respawn");
    }

    let report = service.shutdown();
    assert_eq!(report.metrics.completed, 1 + FOLLOW_UPS as u64);
    assert_eq!(report.metrics.resolved(), 1 + FOLLOW_UPS as u64);
    assert_eq!(report.metrics.requeues, 1, "batch re-queued exactly once");
    assert_eq!(report.metrics.worker_respawns, 1);
    assert_eq!(report.metrics.faults_injected, 1);
    assert_eq!(faults.plan().unwrap().injected(FaultKind::WorkerPanic), 1);
    assert_eq!(
        report.per_worker.len(),
        2,
        "a slot's stats survive its worker's crash"
    );

    // The trace records both the fault and the recovery.
    let records = sink.snapshot();
    assert!(
        records
            .iter()
            .any(|r| r.name == "batch" && r.is_marked("fault:worker_panic")),
        "panicked batch span carries the fault mark"
    );
    assert!(
        records
            .iter()
            .any(|r| r.name == "request" && r.is_marked("requeued")),
        "re-queued request span carries the recovery mark"
    );
    assert!(
        records
            .iter()
            .any(|r| r.name == "batch" && r.is_marked("requeue_attempt")),
        "second batch attempt is marked as a requeue"
    );
}

#[test]
fn second_crash_on_same_batch_fails_typed_not_hangs() {
    silence_injected_panics();
    let workload = Workload::by_name("yolov3").unwrap();
    // Occurrences 0 and 1: the original attempt panics, then the re-queued
    // attempt panics too. The batch must terminate with Canceled, not loop
    // or hang.
    let faults = FaultPlan::script()
        .at(FaultKind::WorkerPanic, 0)
        .at(FaultKind::WorkerPanic, 1)
        .faults();
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(1)
            .with_faults(faults),
    );
    let inputs = workload.inputs(2, 0, 3);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    let ticket = service.submit(&model, inputs.clone()).unwrap();
    match ticket.wait() {
        Err(ServeError::Canceled) => {}
        other => panic!("expected Canceled after double crash, got {other:?}"),
    }
    // Service still works for fresh traffic afterwards.
    let ok = service.submit(&model, inputs).unwrap();
    ok.wait().expect("pool recovers after double crash");
    let report = service.shutdown();
    assert_eq!(report.metrics.requeues, 1);
    assert_eq!(report.metrics.worker_respawns, 2);
    assert_eq!(report.metrics.canceled, 1);
    assert_eq!(report.metrics.completed, 1);
    assert_eq!(report.metrics.resolved(), 2, "{}", report.metrics);
    // Shutdown drains clean even with panics in the history.
    std::thread::sleep(Duration::from_millis(1));
}

#[test]
fn grow_and_shrink_take_effect_before_they_return() {
    let service = Service::new(ServeConfig::default().with_workers(1));
    let pool_gauge = |service: &Service| {
        let text = service.prometheus();
        text.lines()
            .find_map(|l| l.strip_prefix("tssa_pool_workers "))
            .map(|v| v.parse::<f64>().unwrap())
            .unwrap_or_else(|| panic!("no tssa_pool_workers in:\n{text}"))
    };
    assert_eq!(service.worker_count(), 1);

    service.grow(2);
    assert_eq!(service.worker_count(), 3, "grow is visible on return");
    assert_eq!(pool_gauge(&service), 3.0);

    // Shrinking past the pool size keeps the last worker.
    service.shrink(10);
    assert_eq!(
        service.worker_count(),
        1,
        "shrink never retires the last worker"
    );
    assert_eq!(pool_gauge(&service), 1.0);

    // Retired slots stay in the report.
    assert_eq!(service.shutdown().per_worker.len(), 3);
}
