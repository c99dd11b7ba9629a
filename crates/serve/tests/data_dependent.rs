//! A program whose certified signature has data-dependent dims, end to
//! end: no shape class generalizes it, so each concrete tensor shape is
//! its own plan (scalar values still share one), the outputs match the
//! `Eager` reference, and a warm restart serves only the shapes it stored.

use std::path::PathBuf;
use std::sync::Arc;

use tssa_backend::RtValue;
use tssa_serve::{BatchSpec, ModelHandle, PipelineKind, PlanStore, ServeConfig, Service};
use tssa_tensor::Tensor;

const SOURCE: &str = "def f(x: Tensor, n: int):\n    y = x[0:n]\n    return y.clone()\n";

fn inputs(rows: usize, n: i64) -> Vec<RtValue> {
    vec![
        RtValue::Tensor(Tensor::rand_uniform(&[rows, 4], -1.0, 1.0, rows as u64)),
        RtValue::Int(n),
    ]
}

fn store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tssa-data-dependent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load(service: &Service, inputs: &[RtValue]) -> ModelHandle {
    service
        .loader(SOURCE)
        .pipeline(PipelineKind::TensorSsa)
        .example(inputs)
        .batch(BatchSpec::unbatched(2))
        .load()
        .unwrap()
}

/// Serve `inputs` on `model` and compare with the `Eager` plan's outputs.
fn assert_matches_eager(service: &Service, model: &ModelHandle, inputs: &[RtValue]) {
    let served = service
        .submit(model, inputs.to_vec())
        .unwrap()
        .wait()
        .unwrap()
        .outputs;
    let graph = tssa_frontend::compile(SOURCE).unwrap();
    let (want, _) = PipelineKind::Eager
        .compile(&graph)
        .session()
        .run(inputs)
        .unwrap();
    assert_eq!(served.len(), want.len());
    for (got, want) in served.iter().zip(&want) {
        assert_eq!(got.as_tensor().unwrap(), want.as_tensor().unwrap());
    }
}

#[test]
fn data_dependent_plans_are_per_shape_and_survive_restart() {
    let dir = store_dir();
    let store = Arc::new(PlanStore::open(&dir).unwrap());
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_plan_store(Some(Arc::clone(&store))),
    );

    let model = load(&service, &inputs(4, 2));
    let sig = model.plan().signature.as_ref().expect("certified");
    assert_eq!(sig.data_dependent_input_dims(), 1, "{}", sig.render());
    assert_eq!(sig.data_dependent_output_dims(), 1, "{}", sig.render());
    assert_matches_eager(&service, &model, &inputs(4, 2));

    // Another value of `n` at the same tensor shape: the same plan.
    let same = load(&service, &inputs(4, 3));
    assert!(Arc::ptr_eq(same.plan(), model.plan()));
    assert_matches_eager(&service, &same, &inputs(4, 3));
    assert_eq!(service.cache().stats().misses, 1);

    // Another tensor shape: a second plan.
    let wider = load(&service, &inputs(5, 3));
    assert!(!Arc::ptr_eq(wider.plan(), model.plan()));
    assert_matches_eager(&service, &wider, &inputs(5, 3));
    assert_eq!(service.cache().stats().misses, 2);
    store.flush();
    service.shutdown();
    drop(store);

    // Restart on the same store: a stored shape comes back from disk, an
    // unseen one compiles.
    let store = Arc::new(PlanStore::open(&dir).unwrap());
    let service = Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_plan_store(Some(Arc::clone(&store))),
    );
    let warm = load(&service, &inputs(5, 2));
    assert_eq!(store.stats().disk_hits, 1, "{:?}", store.stats());
    assert!(warm.plan().passes.is_empty(), "a disk plan ran no passes");
    assert_matches_eager(&service, &warm, &inputs(5, 2));

    let cold = load(&service, &inputs(6, 4));
    let stats = store.stats();
    assert_eq!((stats.disk_hits, stats.disk_misses), (1, 1), "{stats:?}");
    assert!(!cold.plan().passes.is_empty(), "an unseen shape compiles");
    assert_matches_eager(&service, &cold, &inputs(6, 4));
    assert_eq!(service.cache().stats().misses, 2);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
