//! Golden trace for the doc example: compiling and running the Figure 4
//! loop under a tracer must yield exactly the expected span tree — one
//! `pass:*` child per scheduled pass, in order, under the compile span, and
//! one `batch[i]` child per run under the exec span.

use tssa_backend::{DeviceProfile, RtValue};
use tssa_obs::{SpanRecord, Tracer};
use tssa_pipelines::{Pipeline, TensorSsa};
use tssa_tensor::Tensor;

fn children<'a>(records: &'a [SpanRecord], parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    let mut out: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.parent == Some(parent.id))
        .collect();
    out.sort_by_key(|r| r.start_ns);
    out
}

#[test]
fn compile_and_exec_span_tree_matches_pass_schedule() {
    let g = tssa_frontend::compile(
        "def f(b0: Tensor, n: int):
             b = b0.clone()
             for i in range(n):
                 b[i] = sigmoid(b[i]) * 2.0
             return b
    ",
    )
    .unwrap();
    let (tracer, sink) = Tracer::ring(256);

    let pipeline = TensorSsa::default();
    let cp = pipeline.compile_traced(&g, &tracer.scope());
    let inputs = [RtValue::Tensor(Tensor::ones(&[8, 4])), RtValue::Int(8)];
    {
        let mut session = cp
            .session()
            .on_device(DeviceProfile::consumer())
            .traced(&tracer.scope());
        session.run(&inputs).unwrap();
        session.run(&inputs).unwrap();
        // Dropping the session closes the exec span.
    }

    let records = sink.snapshot();

    // Exactly two roots: the compile span, then the exec span, disjoint in
    // time and in that order.
    let roots: Vec<&SpanRecord> = records.iter().filter(|r| r.parent.is_none()).collect();
    assert_eq!(roots.len(), 2, "{roots:#?}");
    let compile = roots[0];
    let exec = roots[1];
    assert_eq!(compile.name, "compile:TensorSSA");
    assert_eq!(compile.category, "compile");
    assert_eq!(exec.name, "exec");
    assert_eq!(exec.category, "exec");
    assert!(
        compile.end_ns() <= exec.start_ns,
        "compile must finish before execution starts"
    );

    // The compile span's children: the graph capture, then one span per
    // scheduled pass, in schedule order — mirroring `cp.passes` exactly —
    // then the `ExecPlan` build.
    let compile_children = children(&records, compile);
    assert_eq!(compile_children[0].name, "capture");
    assert_eq!(compile_children.last().unwrap().name, "plan");
    let pass_names: Vec<&str> = compile_children[1..compile_children.len() - 1]
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    let expected: Vec<String> = cp
        .passes
        .iter()
        .map(|r| format!("pass:{}", r.name))
        .collect();
    assert_eq!(
        pass_names,
        expected.iter().map(String::as_str).collect::<Vec<_>>()
    );
    assert_eq!(
        pass_names,
        vec![
            "pass:tensorssa-convert",
            "pass:purify-views",
            "pass:constant-fold",
            "pass:cse",
            "pass:licm",
            "pass:dce",
            "pass:prune-loop-carries",
            "pass:dce",
            "pass:parallelize-loops",
            "pass:fuse-vertical",
            "pass:revert-unfused-accesses",
            "pass:dce",
        ]
    );
    // Pass spans tile the compile window in order and carry graph deltas.
    for pair in compile_children.windows(2) {
        assert!(pair[0].end_ns() <= pair[1].start_ns);
    }
    let convert = compile_children
        .iter()
        .find(|r| r.name == "pass:tensorssa-convert")
        .unwrap();
    assert_eq!(
        convert.counter("rewrites"),
        Some(cp.conversion.mutations_removed as i64)
    );
    assert!(convert.counter("nodes_before").is_some());
    assert!(convert.counter("nodes_after").is_some());

    // The exec span: one batch child per run, in order, each with stats.
    let exec_children = children(&records, exec);
    let names: Vec<&str> = exec_children.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["batch[0]", "batch[1]"]);
    for batch in &exec_children {
        assert!(batch.counter("kernel_launches").unwrap_or(0) > 0);
        assert!(batch.end_ns() <= exec.end_ns());
    }
}
