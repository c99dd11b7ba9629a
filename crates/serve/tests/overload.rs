//! Overload behavior: under sustained pressure every request either
//! completes or comes back with a *typed* [`ServeError`] — never a panic,
//! never a silently dropped ticket — and shutdown drains to zero.

use std::time::Duration;

use tssa_serve::{BatchSpec, PipelineKind, ServeConfig, ServeError, Service};
use tssa_workloads::Workload;

#[test]
fn queue_full_sheds_with_typed_error_and_rest_complete() {
    const OFFERED: usize = 200;
    let workload = Workload::by_name("yolov3").unwrap();
    // One worker, shallow queue, no batching: overload is guaranteed.
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(2)
            .with_max_batch(1),
    );
    let inputs = workload.inputs(4, 0, 3);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();

    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for _ in 0..OFFERED {
        match service.submit(&model, inputs.clone()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { depth }) => {
                assert_eq!(depth, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(shed > 0, "queue depth 2 with 200 offered must shed");
    let accepted = tickets.len();
    for t in tickets {
        t.wait().expect("accepted requests complete successfully");
    }
    // The class-hit counter counts requests *served*: shed ones never were.
    let class_hits: u64 = service
        .prometheus()
        .lines()
        .filter(|l| l.starts_with("tssa_plan_class_hits_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(class_hits, accepted as u64);
    let report = service.shutdown();
    assert_eq!(report.metrics.completed, accepted as u64);
    assert_eq!(report.metrics.shed_queue_full, shed as u64);
    assert_eq!(report.metrics.submitted, OFFERED as u64);
    assert_eq!(
        report.metrics.resolved(),
        OFFERED as u64,
        "{}",
        report.metrics
    );
    assert!(report.total.ops_executed > 0);
}

#[test]
fn expired_deadline_returns_deadline_exceeded() {
    let workload = Workload::by_name("yolact").unwrap();
    let service = Service::new(ServeConfig::default().with_workers(1));
    let inputs = workload.inputs(2, 0, 5);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    let ticket = service
        .submit_with(&model, inputs, Some(Duration::ZERO))
        .unwrap();
    match ticket.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let snapshot = service.metrics();
    assert_eq!(snapshot.shed_deadline, 1);
}

#[test]
fn malformed_inputs_rejected_at_admission() {
    let workload = Workload::by_name("yolov3").unwrap();
    let service = Service::new(ServeConfig::default().with_workers(1));
    let inputs = workload.inputs(2, 0, 5);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    // Wrong arity is refused synchronously with a typed error.
    match service.submit(&model, Vec::new()) {
        Err(ServeError::InvalidRequest(_)) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    // Bad model source is a typed frontend error, not a panic.
    match service
        .loader("def broken(")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
    {
        Err(ServeError::Frontend(_)) => {}
        other => panic!("expected Frontend error, got {:?}", other.err()),
    }
    // A loader without a batching contract is refused with a typed error.
    match service.loader(workload.source).example(&inputs).load() {
        Err(ServeError::InvalidRequest(_)) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
}

#[test]
fn shutdown_drains_queued_work() {
    const SUBMITTED: usize = 12;
    let workload = Workload::by_name("fcos").unwrap();
    let service = Service::new(ServeConfig::default().with_workers(2).with_max_batch(4));
    let inputs = workload.inputs(2, 0, 9);
    let spec = BatchSpec {
        args: vec![
            tssa_serve::ArgRole::Stacked,
            tssa_serve::ArgRole::Stacked,
            tssa_serve::ArgRole::Stacked,
            tssa_serve::ArgRole::Shared,
        ],
        outputs: vec![tssa_serve::ArgRole::Stacked, tssa_serve::ArgRole::Stacked],
    };
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(spec)
        .load()
        .unwrap();
    let tickets: Vec<_> = (0..SUBMITTED)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    // Shut down immediately: queued and binned requests must still drain.
    let report = service.shutdown();
    let mut completed = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(ServeError::Canceled) => {}
            Err(other) => panic!("unexpected terminal state: {other}"),
        }
    }
    assert_eq!(completed as u64, report.metrics.completed);
    assert_eq!(
        report.metrics.resolved(),
        SUBMITTED as u64,
        "{}",
        report.metrics
    );
    assert_eq!(report.per_worker.len(), 2);
}
