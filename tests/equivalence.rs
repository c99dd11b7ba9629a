//! Cross-crate integration: every pipeline must compute the same results as
//! eager execution on every workload, while TensorSSA launches no more
//! kernels than any baseline.

use tensorssa::backend::{DeviceProfile, ExecStats, RtValue};
use tensorssa::pipelines::{Pipeline, PipelineKind, TensorSsa};
use tensorssa::workloads::all_workloads;

fn run_workload(name: &str, batch: usize, seq: usize) -> Vec<(String, Vec<RtValue>, ExecStats)> {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload exists");
    let g = w.graph().expect("compiles");
    let inputs = w.inputs(batch, seq, 1234);
    PipelineKind::all()
        .into_iter()
        .map(|p| {
            let cp = p.compile(&g);
            assert!(
                cp.graph.verify().is_ok(),
                "{name}/{}: {:?}",
                p.name(),
                cp.graph.verify()
            );
            let (o, s) = cp
                .run(DeviceProfile::consumer(), &inputs)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name()));
            (p.name().to_string(), o, s)
        })
        .collect()
}

fn assert_all_agree(name: &str, results: &[(String, Vec<RtValue>, ExecStats)]) {
    let (_, reference, _) = &results[0];
    for (pname, outs, _) in results {
        assert_eq!(outs.len(), reference.len(), "{name}/{pname} arity");
        for (i, (o, r)) in outs.iter().zip(reference).enumerate() {
            let (o, r) = (o.as_tensor().unwrap(), r.as_tensor().unwrap());
            assert!(
                o.allclose(r, 1e-4),
                "{name}/{pname}: output {i} diverges from eager"
            );
        }
    }
}

macro_rules! workload_tests {
    ($($fn_name:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $fn_name() {
                let results = run_workload($name, 0, 0);
                assert_all_agree($name, &results);
                let launches = |n: &str| {
                    results
                        .iter()
                        .find(|(p, ..)| p == n)
                        .map(|(_, _, s)| s.kernel_launches)
                        .unwrap()
                };
                let ours = launches("TensorSSA");
                for p in ["Eager", "TorchScript+NNC", "TorchScript+nvFuser", "Dynamo+Inductor"] {
                    assert!(
                        ours <= launches(p),
                        "{}: TensorSSA launches {ours} kernels but {p} launches {}",
                        $name,
                        launches(p)
                    );
                }
            }
        )*
    };
}

workload_tests!(
    yolov3_agrees => "yolov3",
    ssd_agrees => "ssd",
    yolact_agrees => "yolact",
    fcos_agrees => "fcos",
    nasrnn_agrees => "nasrnn",
    lstm_agrees => "lstm",
    seq2seq_agrees => "seq2seq",
    attention_agrees => "attention",
);

#[test]
fn tensorssa_beats_baselines_in_simulated_time_on_average() {
    let mut total_ours = 0.0;
    let mut total_best_baseline = 0.0;
    for w in all_workloads() {
        let results = run_workload(w.name, 0, 0);
        let ours = results
            .iter()
            .find(|(p, ..)| p == "TensorSSA")
            .map(|(_, _, s)| s.total_ns())
            .unwrap();
        let best = results
            .iter()
            .filter(|(p, ..)| p != "TensorSSA" && p != "Eager")
            .map(|(_, _, s)| s.total_ns())
            .fold(f64::INFINITY, f64::min);
        total_ours += ours;
        total_best_baseline += best;
    }
    assert!(
        total_ours < total_best_baseline,
        "TensorSSA total {total_ours}ns should beat best-baseline total {total_best_baseline}ns"
    );
}

#[test]
fn batch_scaling_preserves_agreement() {
    for batch in [1, 2, 8] {
        let results = run_workload("ssd", batch, 0);
        assert_all_agree("ssd", &results);
    }
}

#[test]
fn seq_scaling_preserves_agreement() {
    for seq in [4, 32] {
        let results = run_workload("attention", 0, seq);
        assert_all_agree("attention", &results);
    }
}

#[test]
fn ablations_stay_correct() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "yolact")
        .unwrap();
    let g = w.graph().unwrap();
    let inputs = w.inputs(0, 0, 99);
    let reference = tensorssa::pipelines::Eager
        .compile(&g)
        .run(DeviceProfile::consumer(), &inputs)
        .unwrap()
        .0;
    for variant in [
        TensorSsa {
            block_propagation: false,
            ..TensorSsa::default()
        },
        TensorSsa {
            horizontal: false,
            ..TensorSsa::default()
        },
        TensorSsa {
            fuse_access_assign: false,
            ..TensorSsa::default()
        },
    ] {
        let cp = variant.compile(&g);
        let (outs, _) = cp.run(DeviceProfile::consumer(), &inputs).unwrap();
        assert!(outs[0]
            .as_tensor()
            .unwrap()
            .allclose(reference[0].as_tensor().unwrap(), 1e-5));
    }
}

/// Host-int arithmetic that overflows an `i64`, computed from constants: the
/// constant folder and the shape analysis see it at compile time, the
/// interpreter at run time, and every pipeline must return `Eager`'s ints
/// bit for bit — the interpreter's, which wrap.
#[test]
fn overflowing_int_constants_compile_and_wrap_as_eager_does() {
    let src = "def f(n: int):
    m = 0 - 9223372036854775807 - 1
    q = m // -1
    r = m % -1
    s = 9223372036854775807 + 1
    t = -m
    return q + n, r + n, s + n, t + n
";
    let g = tensorssa::frontend::compile(src).expect("compiles");
    let ints = |p: &dyn Pipeline| -> Vec<i64> {
        let (outs, _) = p
            .compile(&g)
            .run(DeviceProfile::consumer(), &[RtValue::Int(0)])
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        outs.iter().map(|v| v.as_int().unwrap()).collect()
    };
    let eager = ints(&tensorssa::pipelines::Eager);
    assert_eq!(eager, [i64::MIN, 0, i64::MIN, i64::MIN]);
    for p in PipelineKind::all() {
        assert_eq!(ints(p.pipeline()), eager, "{}", p.name());
    }
}
