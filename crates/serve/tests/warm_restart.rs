//! The restart drill: a service backed by a persistent plan store is shut
//! down and rebooted over the same cache directory — the rebooted
//! service's first load comes from disk (no compile span, disk-hit
//! counter increments) and serves bit-identical outputs.

use std::sync::Arc;
use std::time::Duration;

use tssa_backend::{DeviceProfile, RtValue};
use tssa_serve::{BatchSpec, PipelineKind, PlanStore, ServeConfig, Service, Tracer};
use tssa_tensor::Tensor;
use tssa_workloads::Workload;

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tssa-warm-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config_with_store(dir: &std::path::Path) -> (ServeConfig, Arc<PlanStore>) {
    let store = Arc::new(PlanStore::open(dir).expect("open plan store"));
    let config = ServeConfig::default()
        .with_workers(1)
        .with_plan_store(Some(Arc::clone(&store)));
    (config, store)
}

#[test]
fn restart_drill_first_load_is_a_disk_hit() {
    let dir = store_dir("drill");
    let workload = Workload::by_name("attention").unwrap();
    let inputs = workload.inputs(2, 16, 5);

    // Boot #1: cold — compiles, serves, writes the plan back to disk.
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
        .load()
        .unwrap();
    let cold_outputs = model
        .plan()
        .run(DeviceProfile::consumer(), &inputs)
        .unwrap()
        .0;
    store.flush();
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 0, "boot #1 is cold: {stats:?}");
    assert_eq!(stats.disk_misses, 1);
    assert_eq!(stats.writes, 1);
    service.shutdown();
    drop(store);

    // Boot #2: same directory, fresh process state, tracer installed so the
    // load path is observable span by span.
    let (tracer, sink) = Tracer::ring(4096);
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config.with_tracer(tracer));
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
        .load()
        .unwrap();

    // The plan came from disk: counted, marked, and no compile span exists.
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 1, "boot #2 warm-starts: {stats:?}");
    assert_eq!(stats.writes, 0, "a disk hit is not re-persisted");
    let records = sink.snapshot();
    let load_span = records
        .iter()
        .find(|r| r.name == "request:load")
        .expect("load span recorded");
    assert!(
        load_span.is_marked("warm_hit"),
        "disk-served load carries the warm_hit mark: {load_span:?}"
    );
    assert!(
        !records.iter().any(|r| r.name.starts_with("compile:")),
        "a warm start must not compile"
    );

    // The disk-loaded plan is the one the workers run, and it computes
    // exactly what the cold plan computed.
    let warm_outputs = model
        .plan()
        .run(DeviceProfile::consumer(), &inputs)
        .unwrap()
        .0;
    assert_eq!(cold_outputs.len(), warm_outputs.len());
    for (cold, warm) in cold_outputs.iter().zip(&warm_outputs) {
        assert_eq!(cold.as_tensor().unwrap(), warm.as_tensor().unwrap());
    }
    let response = service.submit(&model, inputs).unwrap().wait().unwrap();
    assert_eq!(response.outputs.len(), warm_outputs.len());

    // The counter is on the exposition under its documented name.
    let prom = service.prometheus();
    assert!(
        prom.contains("tssa_plan_cache_disk_hits_total 1"),
        "disk hits missing from exposition:\n{prom}"
    );
    service.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_entry_on_disk_recompiles_and_heals() {
    let dir = store_dir("heal");
    let workload = Workload::by_name("lstm").unwrap();
    let inputs = workload.inputs(2, 0, 9);

    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    loader_on(&service, &workload, &inputs).load().unwrap();
    store.flush();
    service.shutdown();

    // Truncate the single on-disk entry.
    assert_eq!(store.entries(), 1, "one entry persisted");
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "plan"))
        .expect("plan file on disk");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 3]).unwrap();
    drop(store);

    // Reboot over the damaged directory: the load succeeds via recompile,
    // the corruption is counted + evicted, and the write-back heals disk.
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    let model = loader_on(&service, &workload, &inputs).load().unwrap();
    let response = service.submit(&model, inputs.clone()).unwrap().wait();
    response.expect("recompiled plan serves");
    store.flush();
    let stats = store.stats();
    assert_eq!(stats.corrupt_evicted, 1, "{stats:?}");
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.writes, 1, "recompile re-persists the entry");
    let snapshot = service.metrics();
    assert_eq!(snapshot.disk.corrupt_evicted, 1);
    service.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The shape class survives restart: the rebooted service serves a batch
/// size no pre-restart request ever carried — from disk, with zero
/// recompiles.
#[test]
fn reboot_serves_a_never_seen_batch_size_from_disk() {
    let dir = store_dir("class");
    let workload = Workload::by_name("yolact").unwrap();

    // Boot #1: compile once at batch 2, then serve batches 2, 3 and 4
    // through the one class plan.
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    let model = loader_on(&service, &workload, &workload.inputs(2, 0, 7))
        .load()
        .unwrap();
    for b in [2usize, 3, 4] {
        let out = service
            .submit(&model, workload.inputs(b, 0, 7))
            .unwrap()
            .wait()
            .unwrap()
            .outputs;
        assert_eq!(out[0].as_tensor().unwrap().shape()[0], b);
    }
    store.flush();
    assert_eq!(
        store.stats().disk_misses,
        1,
        "boot #1 compiled exactly once"
    );
    service.shutdown();
    drop(store);

    // Boot #2: the example is batch 7 — never seen before the restart. The
    // exact-key probe misses, the class scan admits the shape, and the load
    // never compiles.
    let (tracer, sink) = Tracer::ring(4096);
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config.with_tracer(tracer));
    let inputs = workload.inputs(7, 0, 8);
    let model = loader_on(&service, &workload, &inputs).load().unwrap();
    let stats = store.stats();
    assert_eq!(
        stats.disk_hits, 1,
        "the class scan serves the new shape: {stats:?}"
    );
    assert!(
        !sink
            .snapshot()
            .iter()
            .any(|r| r.name.starts_with("compile:")),
        "a never-seen batch size must not recompile after reboot"
    );

    assert!(
        model.class().key().render().contains('*'),
        "disk-loaded plan reforms its class"
    );

    let out = service
        .submit(&model, inputs)
        .unwrap()
        .wait()
        .unwrap()
        .outputs;
    assert_eq!(out[0].as_tensor().unwrap().shape()[0], 7);
    service.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

fn loader_on<'s>(
    service: &'s Service,
    workload: &Workload,
    inputs: &[RtValue],
) -> tssa_serve::ModelLoader<'s> {
    service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
}

/// A fresh load certifies the plan's shape signature, surfaces the
/// polymorphic-dim count on `/metrics`, and persists the signature through
/// the store so a warm restart gets it back without re-analysis.
#[test]
fn shape_signature_attaches_on_load_and_survives_restart() {
    let dir = store_dir("shapesig");
    let source =
        "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";
    let example = [RtValue::Tensor(Tensor::ones(&[2, 4]))];

    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    let model = service
        .loader(source)
        .named("sig-demo")
        .pipeline(PipelineKind::TensorSsa)
        .example(&example)
        .batch(BatchSpec::stacked(1, 1))
        .deadline(Duration::from_secs(30))
        .load()
        .unwrap();
    let sig = model
        .plan()
        .signature
        .clone()
        .expect("fresh compile certifies a shape signature");
    assert!(
        sig.polymorphic_dims() > 0,
        "batch dim should be polymorphic:\n{}",
        sig.render()
    );
    let prom = service.prometheus();
    assert!(
        prom.contains("tssa_plan_polymorphic_dims{plan=\"sig-demo\"}"),
        "polymorphic-dim gauge missing from exposition:\n{prom}"
    );
    store.flush();
    service.shutdown();
    drop(store);

    // Reboot: the warm load's signature comes off disk, identical.
    let (config, store) = config_with_store(&dir);
    let service = Service::new(config);
    let warm = service
        .loader(source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&example)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .unwrap();
    assert_eq!(store.stats().disk_hits, 1, "reboot load is a disk hit");
    assert_eq!(warm.plan().signature, Some(sig));
    service.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
