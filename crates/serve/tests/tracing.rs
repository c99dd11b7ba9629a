//! End-to-end tracing through the service: one TensorSSA request must
//! produce a span tree at least three levels deep (request → compile/exec →
//! per-pass/per-batch), exportable as valid Chrome-trace JSON.

use std::collections::HashMap;

use tssa_obs::{chrome_trace_json, json, SpanRecord, Tracer};
use tssa_serve::{BatchSpec, PipelineKind, ServeConfig, Service};
use tssa_workloads::Workload;

/// Depth of `record` in the span forest (roots are depth 0).
fn depth(by_id: &HashMap<u64, &SpanRecord>, record: &SpanRecord) -> usize {
    let mut d = 0;
    let mut cursor = record.parent;
    while let Some(id) = cursor {
        d += 1;
        cursor = by_id.get(&id).and_then(|r| r.parent);
    }
    d
}

fn children<'a>(records: &'a [SpanRecord], parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    records
        .iter()
        .filter(|r| r.parent == Some(parent.id))
        .collect()
}

#[test]
fn single_request_traces_three_levels_deep() {
    let (tracer, sink) = Tracer::ring(4096);
    let service = Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_tracer(tracer.clone()),
    );
    let workload = Workload::by_name("attention").unwrap();
    let inputs = workload.inputs(2, 24, 7);
    let model = service
        .loader(workload.source)
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(inputs.len()))
        .load()
        .unwrap();
    let response = service
        .submit(&model, inputs.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.coalesced, 1);
    // A burst in flight at once: every request still gets its own root.
    const BURST: usize = 12;
    let tickets: Vec<_> = (0..BURST)
        .map(|_| service.submit(&model, inputs.clone()).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    service.shutdown();

    let records = sink.snapshot();
    let roots = records.iter().filter(|r| r.name == "request").count();
    assert_eq!(roots, 1 + BURST, "one root span per submitted request");
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();

    // Load path: request:load → compile:TensorSSA → pass:* children.
    let load = records.iter().find(|r| r.name == "request:load").unwrap();
    assert_eq!(load.counter("cache_hit"), Some(0));
    let compile = records
        .iter()
        .find(|r| r.name == "compile:TensorSSA")
        .unwrap();
    assert_eq!(compile.parent, Some(load.id));
    let pass_children: Vec<_> = children(&records, compile)
        .into_iter()
        .filter(|r| r.category == "pass")
        .collect();
    assert!(
        pass_children.len() >= 5,
        "expected the TensorSSA pass sequence under the compile span, got {:?}",
        pass_children.iter().map(|r| &r.name).collect::<Vec<_>>()
    );
    assert!(pass_children
        .iter()
        .any(|r| r.name == "pass:tensorssa-convert"));
    assert!(pass_children.iter().any(|r| r.name == "pass:fuse-vertical"));

    // Submit path: request → queue + batch; batch → exec → batch[0].
    let request = records.iter().find(|r| r.name == "request").unwrap();
    assert!(request.parent.is_none());
    let request_children = children(&records, request);
    assert!(request_children.iter().any(|r| r.name == "queue"));
    let batch = request_children.iter().find(|r| r.name == "batch").unwrap();
    assert_eq!(batch.counter("coalesced"), Some(1));
    let exec = records
        .iter()
        .find(|r| r.name == "exec" && r.parent == Some(batch.id))
        .unwrap();
    let batch0 = records
        .iter()
        .find(|r| r.name == "batch[0]" && r.parent == Some(exec.id))
        .unwrap();
    assert!(batch0.counter("kernel_launches").unwrap_or(0) > 0);
    assert!(depth(&by_id, batch0) >= 3, "request trace too shallow");

    // Parents must contain their children in time.
    for r in &records {
        if let Some(parent) = r.parent.and_then(|id| by_id.get(&id)) {
            assert!(
                r.start_ns >= parent.start_ns,
                "{} starts before {}",
                r.name,
                parent.name
            );
            assert!(
                r.end_ns() <= parent.end_ns(),
                "{} ends after {}",
                r.name,
                parent.name
            );
        }
    }

    // The whole trace must round-trip through the Chrome exporter as valid
    // JSON with one event per span.
    let chrome = chrome_trace_json(&records);
    let parsed = json::parse(&chrome).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(json::JsonValue::as_array)
        .unwrap();
    assert_eq!(events.len(), records.len());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(json::JsonValue::as_str))
        .collect();
    for expected in [
        "request",
        "request:load",
        "compile:TensorSSA",
        "exec",
        "batch[0]",
    ] {
        assert!(
            names.contains(&expected),
            "missing {expected} in chrome trace"
        );
    }
}
