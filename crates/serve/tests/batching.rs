//! Dynamic batching must be invisible to callers: for models that are
//! elementwise over the batch dimension, a request's outputs are
//! *bit-for-bit* identical whether it ran alone or coalesced into a batch.
//!
//! A free worker never waits for company, so these tests make company
//! deterministically: a scripted slow execution holds the one worker while
//! the requests under test queue behind it, and the worker takes them
//! together when it comes free.

use std::time::Duration;

use tssa_backend::{DeviceProfile, RtValue};
use tssa_serve::{
    ArgRole, BatchSpec, FaultKind, FaultPlan, PipelineKind, ServeConfig, ServeError, Service,
    Ticket,
};
use tssa_workloads::Workload;

/// How long the hold request occupies the worker.
const HOLD: Duration = Duration::from_millis(100);

/// A single-worker service whose first execution sleeps for [`HOLD`].
fn held_service(max_batch: usize) -> Service {
    let faults = FaultPlan::script()
        .at(FaultKind::SlowExec, 0)
        .with_slow_exec(HOLD)
        .faults();
    Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(max_batch)
            .with_faults(faults),
    )
}

/// Submit the hold request: `source` loaded unbatched, so it runs alone and
/// meets the scripted slow execution, and everything submitted after it
/// queues until it is done.
fn hold(service: &Service, source: &str, inputs: &[RtValue]) -> Ticket {
    let model = service
        .loader(source)
        .example(inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
        .load()
        .unwrap();
    service.submit(&model, inputs.to_vec()).unwrap()
}

/// Batch contracts for the three CV workloads whose computation is
/// elementwise over dimension 0.
fn spec_for(name: &str) -> BatchSpec {
    match name {
        "yolov3" => BatchSpec::stacked(1, 1),
        "yolact" => BatchSpec::stacked(1, 1),
        "fcos" => BatchSpec {
            args: vec![
                ArgRole::Stacked, // cls
                ArgRole::Stacked, // ctr
                ArgRole::Stacked, // reg
                ArgRole::Shared,  // anchor points, identical per request
            ],
            outputs: vec![ArgRole::Stacked, ArgRole::Stacked],
        },
        other => panic!("no batch spec for {other}"),
    }
}

#[test]
fn batched_equals_sequential_bit_for_bit() {
    const REQUESTS: usize = 5;
    for name in ["yolov3", "yolact", "fcos"] {
        let workload = Workload::by_name(name).unwrap();
        let spec = spec_for(name);
        // Per-request inputs: same shapes (same plan), different data.
        // fcos's shared `points` argument must be identical across requests,
        // which `inputs(batch, seq, seed)` guarantees only for equal seeds —
        // so splice one request's points into all of them.
        let mut all_inputs: Vec<Vec<RtValue>> = (0..REQUESTS)
            .map(|i| workload.inputs(2, 0, 1000 + i as u64))
            .collect();
        if name == "fcos" {
            let shared_points = all_inputs[0][3].clone();
            for inputs in &mut all_inputs {
                inputs[3] = shared_points.clone();
            }
        }

        // The held single worker takes every request in one coalesced
        // execution.
        let service = held_service(REQUESTS);
        let model = service
            .loader(workload.source)
            .pipeline(PipelineKind::TensorSsa)
            .example(&all_inputs[0])
            .batch(spec)
            .load()
            .unwrap();

        // Sequential reference: each request run alone through the same plan.
        let references: Vec<Vec<RtValue>> = all_inputs
            .iter()
            .map(|inputs| {
                model
                    .plan()
                    .run(DeviceProfile::consumer(), inputs)
                    .unwrap()
                    .0
            })
            .collect();

        let held = hold(&service, workload.source, &all_inputs[0]);
        let tickets: Vec<_> = all_inputs
            .iter()
            .map(|inputs| service.submit(&model, inputs.clone()).unwrap())
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(held.wait().unwrap().coalesced, 1, "the hold runs alone");

        assert!(
            responses.iter().any(|r| r.coalesced > 1),
            "{name}: batching never engaged (coalesced sizes: {:?})",
            responses.iter().map(|r| r.coalesced).collect::<Vec<_>>()
        );
        for (i, (response, reference)) in responses.iter().zip(&references).enumerate() {
            assert_eq!(
                response.outputs.len(),
                reference.len(),
                "{name} req {i}: arity"
            );
            for (j, (got, want)) in response.outputs.iter().zip(reference).enumerate() {
                let (got, want) = (got.as_tensor().unwrap(), want.as_tensor().unwrap());
                assert_eq!(
                    got, want,
                    "{name} req {i} output {j}: batched != sequential"
                );
            }
        }
        let report = service.shutdown();
        assert_eq!(
            report.metrics.completed,
            REQUESTS as u64 + 1,
            "with the hold"
        );
        assert!(report.metrics.max_batch >= 2, "{name}: {}", report.metrics);
    }
}

#[test]
fn incompatible_shared_args_never_share_a_batch() {
    let workload = Workload::by_name("fcos").unwrap();
    let service = held_service(4);
    // Different seeds → different anchor points → `a` and `b` must not
    // merge; `c` carries `a`'s points, so it may join `a`.
    let a = workload.inputs(2, 0, 1);
    let b = workload.inputs(2, 0, 2);
    let mut c = workload.inputs(2, 0, 3);
    c[3] = a[3].clone();
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&a)
        .batch(spec_for("fcos"))
        .load()
        .unwrap();
    let refs: Vec<Vec<RtValue>> = [&a, &b, &c]
        .iter()
        .map(|i| model.plan().run(DeviceProfile::consumer(), i).unwrap().0)
        .collect();

    let held = hold(&service, workload.source, &a);
    let tickets: Vec<_> = [a, b, c]
        .into_iter()
        .map(|i| service.submit(&model, i).unwrap())
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(held.wait().unwrap().coalesced, 1, "the hold runs alone");
    let coalesced: Vec<_> = responses.iter().map(|r| r.coalesced).collect();
    assert_eq!(coalesced, [2, 1, 2], "a and c share a batch, b runs alone");
    for (response, reference) in responses.iter().zip(&refs) {
        for (got, want) in response.outputs.iter().zip(reference) {
            assert_eq!(got.as_tensor().unwrap(), want.as_tensor().unwrap());
        }
    }
}

#[test]
fn mixed_row_counts_split_correctly() {
    let workload = Workload::by_name("yolov3").unwrap();
    let service = held_service(3);
    // Different batch sizes → different plan signatures; load per size but
    // submit through one service so rows are split per request.
    let sizes = [1usize, 2, 3];
    let inputs: Vec<Vec<RtValue>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &b)| workload.inputs(b, 0, 50 + i as u64))
        .collect();
    // One handle (one plan) serves all rows: same signature requires same
    // shape, so use the plan loaded for batch 1 only for its source; in this
    // engine plans are shape-polymorphic, making a single handle valid for
    // every row count.
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs[0])
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    let references: Vec<Vec<RtValue>> = inputs
        .iter()
        .map(|i| model.plan().run(DeviceProfile::consumer(), i).unwrap().0)
        .collect();
    let held = hold(&service, workload.source, &inputs[0]);
    let tickets: Vec<_> = inputs
        .iter()
        .map(|i| service.submit(&model, i.clone()).unwrap())
        .collect();
    for ((ticket, reference), &rows) in tickets.into_iter().zip(&references).zip(&sizes) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.coalesced, 3, "the three requests share a batch");
        let got = response.outputs[0].as_tensor().unwrap();
        assert_eq!(got.shape()[0], rows);
        assert_eq!(got, reference[0].as_tensor().unwrap());
    }
    assert_eq!(held.wait().unwrap().coalesced, 1, "the hold runs alone");
}

// The queue's promises: oldest request first, waits measured up to
// execution, and no request stranded by a shrink.

const A: &str =
    "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";
const B: &str =
    "def f(x: Tensor):\n    y = x.clone()\n    y[:, 1:2] = tanh(x[:, 1:2])\n    return y\n";

fn row(seed: u64) -> Vec<RtValue> {
    vec![RtValue::Tensor(tssa_tensor::Tensor::rand_uniform(
        &[2, 4],
        -1.0,
        1.0,
        seed,
    ))]
}

#[test]
fn the_oldest_request_goes_first_with_its_followers_across_plans() {
    let service = held_service(8);
    let load = |source| {
        service
            .loader(source)
            .example(&row(0))
            .batch(BatchSpec::stacked(1, 1))
            .load()
            .unwrap()
    };
    let (a, b) = (load(A), load(B));
    let held = hold(&service, A, &row(0));
    let a1 = service.submit(&a, row(1)).unwrap();
    let b1 = service.submit(&b, row(2)).unwrap();
    let a2 = service.submit(&a, row(3)).unwrap();
    let a3 = service.submit(&a, row(4)).unwrap();
    assert_eq!(b1.wait().unwrap().coalesced, 1);
    // B was queued second, so the A batch had already delivered when B's
    // result arrived: the hold, three A requests and B.
    assert_eq!(service.metrics().completed, 5, "A×3 ran before B");
    for ticket in [a1, a2, a3] {
        assert_eq!(ticket.wait().unwrap().coalesced, 3, "A×3 shared one batch");
    }
    assert_eq!(held.wait().unwrap().coalesced, 1);
    let metrics = service.shutdown().metrics;
    assert_eq!(metrics.batches, 3, "the hold, A×3, then B: {metrics}");
    assert_eq!(metrics.max_batch, 3);
}

#[test]
fn queue_wait_runs_from_admission_to_execution() {
    let service = held_service(8);
    let model = service
        .loader(A)
        .example(&row(0))
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    let held = hold(&service, B, &row(0));
    let queued = service.submit(&model, row(1)).unwrap();
    queued.wait().unwrap();
    held.wait().unwrap();
    let wait = service.registry().histogram("tssa_queue_wait_us", "", &[]);
    assert_eq!(wait.count(), 2);
    // The request queued behind the hold waited it out: its sample lies in
    // the bucket at or above 32,768 µs (upper bound 65,536).
    assert!(
        wait.quantile(1.0) >= 65_536,
        "longest recorded wait below 32,768 µs: {:?}",
        wait.cumulative_buckets()
    );
}

#[test]
fn a_request_after_a_shrink_of_an_idle_pool_resolves() {
    let service = Service::new(ServeConfig::default().with_workers(2));
    let model = service
        .loader(A)
        .example(&row(0))
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    for round in 0..20 {
        service.shrink(1);
        assert_eq!(service.worker_count(), 1);
        // The queued request reaches the surviving worker; a stranded one
        // would sit in the queue until the deadline.
        let ticket = service
            .submit_with(&model, row(round), Some(Duration::from_secs(2)))
            .unwrap();
        assert!(ticket.wait().is_ok(), "round {round}: request stranded");
        service.grow(1);
    }
}

#[test]
fn a_result_delivered_past_the_waiters_bound_is_a_timeout() {
    // A free worker starts a request at once, so a short deadline no longer
    // expires in a queue: the execution starts in time and then overruns
    // deadline + grace. The late result must not reach a waiter that only
    // looks after it arrived.
    let faults = FaultPlan::script()
        .at(FaultKind::SlowExec, 0)
        .with_slow_exec(Duration::from_millis(400))
        .faults();
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_timeout_grace(Duration::from_millis(5))
            .with_faults(faults),
    );
    let model = service
        .loader(A)
        .example(&row(0))
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    let ticket = service
        .submit_with(&model, row(1), Some(Duration::from_millis(100)))
        .unwrap();
    // Only a start delay past the 100 ms deadline could turn this into
    // `DeadlineExceeded`; the result lands at ≈ 400 ms, past the 105 ms bound.
    std::thread::sleep(Duration::from_millis(600));
    match ticket.wait() {
        Err(ServeError::Timeout { .. }) => {}
        other => panic!("expected Timeout, got {:?}", other.map(|r| r.coalesced)),
    }
    let metrics = service.shutdown().metrics;
    assert_eq!((metrics.timeouts, metrics.completed), (1, 0), "{metrics}");
}
