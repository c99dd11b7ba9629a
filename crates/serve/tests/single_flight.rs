//! Single-flight contract of the plan cache: M concurrent threads asking
//! for the same cold plan run the compiler exactly once — and so do M
//! threads asking for one class-eligible program at different batch sizes.
//! One LRU bounds every resident plan.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use tssa_backend::RtValue;
use tssa_serve::{
    BatchSpec, FaultKind, FaultPlan, Faults, ModelHandle, PipelineKind, ServeConfig, Service,
};
use tssa_tensor::Tensor;
use tssa_workloads::Workload;

/// Faults stalling the first compile for 100 ms, widening the race window:
/// every other thread must arrive while that compilation is still in
/// flight.
fn stalled_first_compile() -> Faults {
    FaultPlan::script()
        .at(FaultKind::CompileStall, 0)
        .with_stall(Duration::from_millis(100))
        .faults()
}

/// Load `workload` on `THREADS` threads at once, thread `i` at batch size
/// `batch(i)`.
fn race_loads(
    service: &Arc<Service>,
    workload: &Workload,
    threads: usize,
    batch: impl Fn(usize) -> usize,
) -> Vec<ModelHandle> {
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let service = Arc::clone(service);
            let barrier = Arc::clone(&barrier);
            let example = workload.inputs(batch(i), 0, 7);
            let source = workload.source;
            std::thread::spawn(move || {
                barrier.wait();
                service
                    .loader(source)
                    .pipeline(PipelineKind::TensorSsa)
                    .example(&example)
                    .batch(BatchSpec::stacked(1, 1))
                    .load()
                    .unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn m_threads_compile_once() {
    const THREADS: usize = 8;
    let faults = stalled_first_compile();
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_faults(faults.clone()),
    ));
    let workload = Workload::by_name("yolov3").unwrap();
    let models = race_loads(&service, &workload, THREADS, |_| 2);

    let compiles = faults.plan().unwrap().arrivals(FaultKind::CompileStall);
    assert_eq!(compiles, 1, "compiler must run once");
    for m in &models {
        assert!(
            Arc::ptr_eq(m.plan(), models[0].plan()),
            "all threads share one plan"
        );
    }
    let stats = service.cache().stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.coalesced + stats.hits,
        (THREADS - 1) as u64,
        "everyone else waited on or reused the single flight: {stats:?}"
    );
    assert_eq!(stats.entries, 1);
}

#[test]
fn service_load_coalesces_concurrent_loads() {
    const THREADS: usize = 6;
    let service = Arc::new(Service::new(ServeConfig::default().with_workers(1)));
    let workload = Workload::by_name("yolact").unwrap();
    let models = race_loads(&service, &workload, THREADS, |_| 2);
    for m in &models {
        assert!(Arc::ptr_eq(m.plan(), models[0].plan()));
    }
    let stats = service.cache().stats();
    assert_eq!(stats.misses, 1, "{stats:?}");

    // A different batch size is *not* a different plan: the certified
    // shape class admits it, so the load is a class hit, not a compile.
    let other = workload.inputs(4, 0, 7);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&other)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    assert!(Arc::ptr_eq(model.plan(), models[0].plan()));
    let stats = service.cache().stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert!(stats.class_hits >= 1, "{stats:?}");

    // Concurrent cold loads at *different* batch sizes: the single flight
    // is per program, so the followers wait for the leader's class and are
    // admitted by it — one compile for all of them.
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_faults(stalled_first_compile()),
    ));
    let models = race_loads(&service, &workload, THREADS, |i| 2 + i);
    for m in &models {
        assert!(Arc::ptr_eq(m.plan(), models[0].plan()));
    }
    let stats = service.cache().stats();
    assert_eq!((stats.misses, stats.entries), (1, 1), "{stats:?}");
}

const ELIGIBLE: &str =
    "def a(x: Tensor):\n    y = x.clone()\n    y[:, 0:2] = sigmoid(x[:, 0:2])\n    return y\n";

fn load(service: &Service, source: &str) -> ModelHandle {
    service
        .loader(source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&[RtValue::Tensor(Tensor::ones(&[2, 4]))])
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap()
}

#[test]
fn eviction_recompiles_cold_plans() {
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(1),
    );
    let src_b =
        "def b(x: Tensor):\n    y = x.clone()\n    y[:, 0:2] = tanh(x[:, 0:2])\n    return y\n";
    load(&service, ELIGIBLE);
    load(&service, src_b);
    let stats = service.cache().stats();
    assert_eq!(
        (stats.misses, stats.evictions, stats.entries),
        (2, 1, 1),
        "{stats:?}"
    );
    // `a`'s class was evicted by `b`: the reload compiles it again.
    load(&service, ELIGIBLE);
    let stats = service.cache().stats();
    assert_eq!(
        (stats.misses, stats.evictions, stats.entries),
        (3, 2, 1),
        "{stats:?}"
    );
}

#[test]
fn capacity_bounds_every_resident_plan() {
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(2),
    );
    // Six programs, each class-eligible: its one plan serves every batch
    // size.
    let sources: Vec<String> = (0..6)
        .map(|k| ELIGIBLE.replace("sigmoid(x[:, 0:2])", &format!("x[:, 0:2] + {k}.0")))
        .collect();
    for source in &sources {
        let model = load(&service, source);
        assert!(
            model.class().key().render().contains('*'),
            "class-eligible: {}",
            model.class().key().render()
        );
    }
    let stats = service.cache().stats();
    assert_eq!(
        (stats.misses, stats.evictions, stats.entries),
        (6, 4, 2),
        "{stats:?}"
    );
    // The first program's class was evicted: reloading it compiles.
    load(&service, &sources[0]);
    let stats = service.cache().stats();
    assert_eq!(
        (stats.misses, stats.class_hits, stats.entries),
        (7, 0, 2),
        "{stats:?}"
    );
}
