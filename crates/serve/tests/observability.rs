//! Metrics wiring: the service's [`MetricsRegistry`] is its only metrics
//! store — request counters, latency, queue-wait and per-plan
//! batch-occupancy histograms all record into it, and
//! [`Service::prometheus`] renders it as one exposition.

use tssa_serve::{BatchSpec, MetricsRegistry, PipelineKind, Profiler, ServeConfig, Service};
use tssa_workloads::Workload;

#[test]
fn registry_collects_queue_wait_and_per_plan_occupancy() {
    const SUBMITTED: usize = 12;
    let registry = MetricsRegistry::new();
    let workload = Workload::by_name("yolov3").unwrap();
    let service = Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_registry(registry.clone()),
    );
    let inputs = workload.inputs(2, 0, 3);
    let model = service
        .loader(workload.source)
        .named("yolo-post")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    assert_eq!(model.label(), "yolo-post");
    let tickets: Vec<_> = (0..SUBMITTED)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("request completes");
    }

    // The dispatcher recorded every request's wait and every flush's
    // occupancy into the service's registry.
    let queue_wait = registry.histogram("tssa_queue_wait_us", "", &[]);
    assert_eq!(queue_wait.count(), SUBMITTED as u64);
    let occupancy = registry.histogram("tssa_batch_occupancy", "", &[("plan", "yolo-post")]);
    assert!(occupancy.count() > 0, "at least one batch was dispatched");
    assert_eq!(
        occupancy.sum(),
        SUBMITTED as u64,
        "occupancy sums to the requests dispatched"
    );

    // One consolidated exposition.
    let text = service.prometheus();
    assert!(text.contains("tssa_queue_wait_us_bucket"));
    assert!(text.contains("tssa_batch_occupancy_bucket{plan=\"yolo-post\",le="));
    assert!(text.contains(&format!(
        "tssa_batch_occupancy_sum{{plan=\"yolo-post\"}} {SUBMITTED}"
    )));
    assert!(text.contains("tssa_requests_completed_total"));
    assert!(text.contains("tssa_request_latency_us_bucket"));
    assert!(service.registry().same_as(&registry));

    // After shutdown every outcome counter is settled, and the registry —
    // being the store — shows the exact values with no bridging step.
    let report = service.shutdown();
    assert_eq!(report.metrics.completed, SUBMITTED as u64);
    let text = registry.prometheus_text();
    for series in [
        format!("tssa_requests_submitted_total {SUBMITTED}"),
        format!("tssa_requests_completed_total {SUBMITTED}"),
        format!("tssa_request_latency_us_count {SUBMITTED}"),
        format!("tssa_batches_total {}", report.metrics.batches),
        "tssa_plan_cache_misses_total 1".to_string(),
    ] {
        assert!(text.contains(&series), "missing `{series}` in:\n{text}");
    }
}

/// The exposition's family set, pinned: dashboards and `perf/alerts.toml`
/// key on these names and kinds, so a family may only join or leave on
/// purpose — by editing this list.
#[test]
fn exposition_family_set_is_pinned() {
    const GOLDEN: &str = "\
# TYPE tssa_batch_max gauge
# TYPE tssa_batch_occupancy histogram
# TYPE tssa_batch_occupancy_avg gauge
# TYPE tssa_batch_requeues_total counter
# TYPE tssa_batches_total counter
# TYPE tssa_faults_injected_total counter
# TYPE tssa_plan_cache_class_hits_total counter
# TYPE tssa_plan_cache_coalesced_total counter
# TYPE tssa_plan_cache_disk_corrupt_total counter
# TYPE tssa_plan_cache_disk_hits_total counter
# TYPE tssa_plan_cache_disk_misses_total counter
# TYPE tssa_plan_cache_disk_stale_total counter
# TYPE tssa_plan_cache_disk_writes_total counter
# TYPE tssa_plan_cache_entries gauge
# TYPE tssa_plan_cache_evictions_total counter
# TYPE tssa_plan_cache_hits_total counter
# TYPE tssa_plan_cache_misses_total counter
# TYPE tssa_plan_class_hits_total counter
# TYPE tssa_plan_polymorphic_dims gauge
# TYPE tssa_pool_workers gauge
# TYPE tssa_queue_wait_us histogram
# TYPE tssa_request_latency_us histogram
# TYPE tssa_requests_canceled_total counter
# TYPE tssa_requests_completed_total counter
# TYPE tssa_requests_exec_failures_total counter
# TYPE tssa_requests_shed_deadline_total counter
# TYPE tssa_requests_shed_queue_full_total counter
# TYPE tssa_requests_submitted_total counter
# TYPE tssa_requests_timeout_total counter
# TYPE tssa_throughput_rps gauge
# TYPE tssa_worker_respawns_total counter
";
    let workload = Workload::by_name("yolov3").unwrap();
    let service = Service::new(ServeConfig::default().with_workers(1));
    let inputs = workload.inputs(2, 0, 3);
    let model = service
        .loader(workload.source)
        .named("golden")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    service.submit(&model, inputs).unwrap().wait().unwrap();
    let text = service.prometheus();
    let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    types.sort_unstable();
    assert_eq!(types.join("\n") + "\n", GOLDEN);
}

#[test]
fn profiled_service_attributes_op_self_time_per_plan() {
    let profiler = Profiler::new();
    let workload = Workload::by_name("lstm").unwrap();
    let service = Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_profiler(Some(profiler.clone())),
    );
    let inputs = workload.inputs(1, 4, 7);
    let model = service
        .loader(workload.source)
        .named("lstm")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
        .load()
        .unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("request completes");
    }

    // Every executed op landed in the table under the model's plan label,
    // with a resolved op name and non-zero invocation counts.
    let snap = profiler.snapshot();
    assert!(!snap.entries.is_empty(), "profiler saw no ops");
    for (key, stat) in &snap.entries {
        assert_eq!(&*key.plan, "lstm");
        assert!(!stat.op.is_empty());
        assert!(stat.count > 0);
    }

    // The exposition carries the per-op self-time series and the
    // profiler's own merge cost.
    let text = service.prometheus();
    assert!(text.contains("tssa_op_self_us{"));
    assert!(text.contains("plan=\"lstm\""));
    assert!(text.contains("tssa_obs_profile_merge_us"));

    // Totals are monotone across scrapes even while workers churn sinks.
    let before = profiler.snapshot().total_self_ns();
    let more: Vec<_> = (0..4)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    for t in more {
        t.wait().expect("request completes");
    }
    assert!(profiler.snapshot().total_self_ns() >= before);
    service.shutdown();
}

#[test]
fn default_plan_labels_name_pipeline_and_source() {
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
    let label = model.label().to_string();
    assert!(
        label.starts_with("TensorSSA:"),
        "default label names the pipeline: {label}"
    );
    assert_eq!(label.len(), "TensorSSA:".len() + 8, "8-hex-digit suffix");
    // Same source, same pipeline → same label; the label is derived, not
    // random.
    let again = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    assert_eq!(again.label(), label);
}
