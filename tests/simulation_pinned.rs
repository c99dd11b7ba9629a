//! The simulated device model is a function of the compiled graph and the
//! input shapes only: how the host evaluates a fusion group must not move
//! it. The counters below were captured before the fused evaluator was
//! rewritten (ISSUE 14); Figures 5–8 are derived from them.

use tensorssa::backend::DeviceProfile;
use tensorssa::pipelines::{Pipeline, TensorSsa};
use tensorssa::workloads::all_workloads;

/// `(workload, kernel_launches, bytes, flops, ops_executed)` under TensorSSA
/// at the workload's default batch size and sequence length.
const PINNED: [(&str, u64, u64, u64, u64); 8] = [
    ("yolov3", 2, 491576, 36864, 11),
    ("ssd", 6, 458960, 45056, 17),
    ("yolact", 3, 110648, 27648, 13),
    ("fcos", 3, 372784, 67584, 11),
    ("nasrnn", 50, 800448, 614400, 69),
    ("lstm", 51, 629120, 609792, 78),
    ("seq2seq", 82, 500864, 274432, 84),
    ("attention", 2, 503424, 113472, 6),
];

#[test]
fn tensorssa_exec_stats_match_the_pinned_values() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), PINNED.len());
    for (w, (name, launches, bytes, flops, ops)) in workloads.iter().zip(PINNED) {
        assert_eq!(w.name, name, "workload roster changed");
        let cp = TensorSsa::default().compile(&w.graph().expect("compiles"));
        let (_, s) = cp
            .run(DeviceProfile::consumer(), &w.inputs(0, 0, 1234))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (s.kernel_launches, s.bytes, s.flops, s.ops_executed),
            (launches, bytes, flops, ops),
            "{name}: simulated ExecStats moved"
        );
    }
}
