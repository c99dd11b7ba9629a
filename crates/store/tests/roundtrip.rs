//! Serialize → deserialize → run round-trips: a disk-loaded plan must be
//! numerically indistinguishable from the plan that was compiled in
//! process, across the paper's 8 workloads and the differential fuzzer's
//! generated programs.

use proptest::proptest;
use std::sync::Arc;
use tssa_backend::{DeviceProfile, RtValue};
use tssa_ir::{Constraint, DimClass, DimVar, ShapeSignature, SymDim, SymExpr};
use tssa_pipelines::{CompiledProgram, Pipeline, TensorSsa};
use tssa_store::{
    format::{decode_plan_full, encode_plan},
    roster_fingerprint, Expected, PlanStore,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tssa-store-rt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fingerprint(pipeline: &TensorSsa) -> u64 {
    roster_fingerprint(pipeline.roster().iter().copied())
}

fn assert_same_outputs(cold: &CompiledProgram, warm: &CompiledProgram, inputs: &[RtValue]) {
    let (a, _) = cold.run(DeviceProfile::consumer(), inputs).unwrap();
    let (b, _) = warm.run(DeviceProfile::consumer(), inputs).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        match (x, y) {
            (RtValue::Tensor(t), RtValue::Tensor(u)) => {
                assert!(t.allclose(u, 1e-5), "tensor outputs diverge after reload");
            }
            _ => assert_eq!(format!("{x:?}"), format!("{y:?}")),
        }
    }
}

#[test]
fn all_eight_workloads_round_trip_through_the_store() {
    let dir = temp_dir("workloads");
    let store = PlanStore::open(&dir).unwrap();
    let pipeline = TensorSsa::default();
    let fp = fingerprint(&pipeline);
    for (i, w) in tssa_workloads::all_workloads().iter().enumerate() {
        let g = w.graph().unwrap();
        let cold = Arc::new(pipeline.compile(&g));
        let key = 0x1000 + i as u64;
        store.save_async_with(key, fp, Arc::clone(&cold), 0);
        store.flush();
        let warm = store
            .load(key, fp)
            .unwrap_or_else(|| panic!("{}: warm load failed", w.name));
        assert_eq!(warm.pipeline, cold.pipeline, "{}", w.name);
        assert_eq!(warm.fusion_groups, cold.fusion_groups, "{}", w.name);
        assert_eq!(warm.parallel_loops, cold.parallel_loops, "{}", w.name);
        assert_eq!(warm.conversion, cold.conversion, "{}", w.name);
        assert_eq!(warm.exec_config, cold.exec_config, "{}", w.name);
        assert!(warm.passes.is_empty(), "a reloaded plan ran no passes here");
        let inputs = w.inputs(0, 0, 42 + i as u64);
        assert_same_outputs(&cold, &warm, &inputs);
    }
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 8);
    assert_eq!(stats.writes, 8);
    assert_eq!(stats.corrupt_evicted + stats.stale_evicted, 0);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #[test]
    fn fuzzer_programs_round_trip(seed in 0u64..48) {
        let source = tssa_lint::fuzz::generate_source(seed);
        let g = tssa_frontend::compile(&source).unwrap();
        let pipeline = TensorSsa::default();
        let cold = pipeline.compile(&g);
        let fp = fingerprint(&pipeline);
        let bytes = encode_plan(&cold, seed, fp);
        let warm = decode_plan_full(
            &bytes,
            Expected { content_hash: Some(seed), roster_fingerprint: Some(fp) },
        ).unwrap();
        let inputs = tssa_lint::fuzz::inputs_for(seed);
        assert_same_outputs(&cold, &warm, &inputs);
    }
}

#[test]
fn shape_signature_round_trips_and_surfaces_in_the_header() {
    let w = &tssa_workloads::all_workloads()[0];
    let g = w.graph().unwrap();
    let pipeline = TensorSsa::default();
    let mut plan = pipeline.compile(&g);
    let ranks: Vec<Option<usize>> = w
        .inputs(4, 0, 7)
        .iter()
        .map(|v| match v {
            RtValue::Tensor(t) => Some(t.rank()),
            _ => None,
        })
        .collect();
    let sig = tssa_lint::certify_shapes(&plan.graph, &ranks);
    assert!(sig.polymorphic_dims() > 0, "{}", sig.render());
    plan.signature = Some(sig.clone());
    let fp = fingerprint(&pipeline);
    let bytes = encode_plan(&plan, 0xbeef, fp);
    let header = tssa_store::peek_header(&bytes).unwrap();
    assert_eq!(header.content_hash, 0xbeef);
    let warm = decode_plan_full(
        &bytes,
        Expected {
            content_hash: Some(0xbeef),
            roster_fingerprint: Some(fp),
        },
    )
    .unwrap();
    assert_eq!(warm.signature, Some(sig));
}

#[test]
fn typed_constraints_round_trip_through_the_plan_file() {
    let g = tssa_frontend::compile(
        "def f(x: Tensor, y: Tensor):
             return x + y
    ",
    )
    .unwrap();
    let mut plan = TensorSsa::default().compile(&g);
    let var = |input, dim| SymExpr::var(DimVar { input, dim });
    let constraints = vec![
        Constraint::Eq(var(0, 1), var(1, 1)),
        Constraint::Ge(var(0, 0).mul_const(2).unwrap(), SymExpr::constant(-3)),
    ];
    plan.signature = Some(ShapeSignature {
        inputs: vec![Some(vec![DimClass::Polymorphic; 2]); 2],
        outputs: vec![Some(vec![SymDim::var(0, 0), SymDim::var(0, 1)])],
        constraints: constraints.clone(),
    });
    let bytes = encode_plan(&plan, 11, 12);
    let decoded = decode_plan_full(&bytes, Expected::default()).unwrap();
    let sig = decoded.signature.expect("signature decoded");
    assert_eq!(sig.constraints, constraints);
    assert_eq!(sig, plan.signature.unwrap());
}

#[test]
fn decode_validates_nothing_extra_when_expectations_absent() {
    let g = tssa_frontend::compile(
        "def f(x: Tensor):
             y = x.clone()
             y[0] = relu(y[0])
             return y
    ",
    )
    .unwrap();
    let plan = TensorSsa::default().compile(&g);
    let bytes = encode_plan(&plan, 7, 9);
    // An Expected::default() reader accepts any key/roster (used by tools
    // that inspect arbitrary plan files).
    let decoded = decode_plan_full(&bytes, Expected::default()).unwrap();
    assert_eq!(decoded.pipeline, "TensorSSA");
}
