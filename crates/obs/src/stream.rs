//! [`StreamSink`]: a [`TraceSink`] that writes spans as NDJSON — one JSON
//! object per line — to any `io::Write`. Unlike [`crate::RingSink`] it
//! never wraps, so it is the sink of choice for long chaos and load runs;
//! write failures are *counted* (`dropped`), never propagated into the
//! traced code, and the writer is flushed every `flush_every` records so
//! external log rotation always cuts at a line boundary.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::json::escape;
use crate::lock;
use crate::sink::TraceSink;
use crate::span::SpanRecord;

/// One span as a single-line JSON object (no trailing newline): ids, root,
/// timing, and counters as an array of `[name, value]` pairs (an array
/// because duplicate counter names are allowed).
pub(crate) fn span_ndjson(r: &SpanRecord) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"id\":{},\"root\":{}", r.id, r.root);
    if let Some(p) = r.parent {
        let _ = write!(line, ",\"parent\":{p}");
    }
    let _ = write!(
        line,
        ",\"name\":\"{}\",\"cat\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
        escape(&r.name),
        escape(r.category),
        r.start_ns,
        r.dur_ns
    );
    if !r.counters.is_empty() {
        line.push_str(",\"counters\":[");
        for (i, (name, value)) in r.counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[\"{}\",{}]", escape(name), value);
        }
        line.push(']');
    }
    line.push('}');
    line
}

struct StreamInner<W> {
    writer: W,
    since_flush: usize,
}

/// Streaming NDJSON trace sink over any writer. `Mutex`-serialized per
/// record; see the module docs for the drop/flush contract.
pub struct StreamSink<W: Write + Send> {
    inner: Mutex<StreamInner<W>>,
    flush_every: usize,
    written: AtomicU64,
    dropped: AtomicU64,
}

impl<W: Write + Send> StreamSink<W> {
    /// A sink flushing every 64 records.
    pub fn new(writer: W) -> StreamSink<W> {
        StreamSink::with_flush_every(writer, 64)
    }

    /// A sink flushing after every `flush_every` records (min 1). Lower
    /// values bound how many spans a crash can lose; higher values batch
    /// syscalls.
    pub fn with_flush_every(writer: W, flush_every: usize) -> StreamSink<W> {
        StreamSink {
            inner: Mutex::new(StreamInner {
                writer,
                since_flush: 0,
            }),
            flush_every: flush_every.max(1),
            written: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans successfully written.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Spans lost to write errors (sink backpressure). The traced code
    /// never sees the error — recording must not fail the work it observes.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Force a flush now — a rotation point for external log shippers.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.since_flush = 0;
        inner.writer.flush()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(self) -> W {
        let mut inner = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = inner.writer.flush();
        inner.writer
    }

    /// Run `f` with exclusive access to the underlying writer (blocks
    /// concurrent span recording for the duration — keep `f` cheap).
    pub(crate) fn with_writer<T>(&self, f: impl FnOnce(&W) -> T) -> T {
        let inner = lock(&self.inner);
        f(&inner.writer)
    }
}

impl<W: Write + Send> TraceSink for StreamSink<W> {
    fn record(&self, span: SpanRecord) {
        let mut line = span_ndjson(&span);
        line.push('\n');
        let mut inner = lock(&self.inner);
        match inner.writer.write_all(line.as_bytes()) {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
                inner.since_flush += 1;
                if inner.since_flush >= self.flush_every {
                    inner.since_flush = 0;
                    // Flush failures are absorbed; the next write reports
                    // a persistent sink problem via `dropped`.
                    let _ = inner.writer.flush();
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for StreamSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("flush_every", &self.flush_every)
            .field("written", &self.written())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::Tracer;
    use std::sync::Arc;

    /// A writer that fails after `ok` successful writes.
    struct Flaky {
        ok: usize,
        seen: usize,
        buf: Vec<u8>,
    }

    impl Write for Flaky {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.seen += 1;
            if self.seen > self.ok {
                return Err(std::io::Error::other("sink full"));
            }
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spans_stream_as_parseable_ndjson_lines() {
        let sink = Arc::new(StreamSink::new(Vec::new()));
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let mut root = tracer.root("request \"q\"", "serve");
        root.counter("rows", 4);
        root.child("exec", "exec").finish();
        root.finish();
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.dropped(), 0);
        drop(tracer);
        let sink = Arc::into_inner(sink).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Child finishes (and therefore streams) first.
        let child = parse(lines[0]).expect("valid JSON line");
        let root = parse(lines[1]).expect("valid JSON line");
        assert_eq!(
            root.get("name").and_then(JsonValue::as_str),
            Some("request \"q\"")
        );
        assert_eq!(child.get("parent"), root.get("id"));
        assert_eq!(child.get("root"), root.get("id"));
        let counters = root.get("counters").and_then(JsonValue::as_array).unwrap();
        assert_eq!(counters.len(), 1);
    }

    #[test]
    fn write_errors_count_as_drops_without_failing_the_span() {
        let sink = StreamSink::new(Flaky {
            ok: 1,
            seen: 0,
            buf: Vec::new(),
        });
        let rec = |id| SpanRecord {
            id,
            parent: None,
            root: id,
            name: "s".into(),
            category: "test",
            start_ns: 0,
            dur_ns: 1,
            counters: Vec::new(),
        };
        sink.record(rec(1));
        sink.record(rec(2));
        assert_eq!(sink.written(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn flush_points_land_on_line_boundaries() {
        let sink = StreamSink::with_flush_every(Vec::new(), 2);
        for id in 1..=5 {
            sink.record(SpanRecord {
                id,
                parent: None,
                root: id,
                name: format!("s{id}"),
                category: "test",
                start_ns: id,
                dur_ns: 1,
                counters: Vec::new(),
            });
        }
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 5);
    }
}
