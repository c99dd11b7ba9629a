//! Every obs lock recovers from poison: a caller that panics while one is
//! held — a metric family asked for as two kinds, a span writer that
//! panics — leaves the registry and the sinks working for everyone after.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tssa_obs::{MetricsRegistry, StreamSink, TraceSink, Tracer};

#[test]
fn a_kind_clash_leaves_the_registry_recording_and_rendering() {
    let registry = MetricsRegistry::new();
    registry.counter("tssa_clash", "first kind", &[]).inc();
    let clash = catch_unwind(AssertUnwindSafe(|| {
        registry.gauge("tssa_clash", "second kind", &[]);
    }));
    assert!(
        clash.is_err(),
        "a family keeps the kind it was registered as"
    );

    registry.counter("tssa_clash", "first kind", &[]).inc();
    registry
        .counter("tssa_after", "registered later", &[("plan", "p")])
        .add(3);
    let text = registry.prometheus_text();
    assert!(text.contains("tssa_clash 2"), "{text}");
    assert!(text.contains("tssa_after{plan=\"p\"} 3"), "{text}");
}

/// A writer whose first write panics and whose later writes land.
#[derive(Default)]
struct PanicsOnce {
    panicked: bool,
    out: Vec<u8>,
}

impl Write for PanicsOnce {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.panicked {
            self.panicked = true;
            panic!("the writer panics once");
        }
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_writer_that_panics_leaves_the_stream_sink_writing() {
    let sink = Arc::new(StreamSink::new(PanicsOnce::default()));
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let first = catch_unwind(AssertUnwindSafe(|| tracer.root("lost", "test").finish()));
    assert!(first.is_err(), "the first record panics in the writer");

    for name in ["second", "third"] {
        tracer.root(name, "test").finish();
    }
    assert_eq!(sink.written(), 2);
    drop(tracer);
    let sink = Arc::into_inner(sink).expect("the tracer is gone");
    let text = String::from_utf8(sink.into_inner().out).expect("NDJSON is UTF-8");
    let names: Vec<String> = text
        .lines()
        .map(|line| {
            let span = tssa_obs::json::parse(line).expect("one JSON span per line");
            span.get("name")
                .and_then(|n| n.as_str())
                .unwrap_or("")
                .to_string()
        })
        .collect();
    assert_eq!(names, ["second", "third"]);
}
