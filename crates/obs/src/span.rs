//! Hierarchical spans and the [`Tracer`] that mints them.
//!
//! A [`Span`] is an owned, `Send` handle to one timed region of work. It
//! records itself into the tracer's [`TraceSink`] when finished (explicitly
//! via [`Span::finish`] or implicitly on drop), carrying its parent link and
//! any counters attached along the way. Ownership — not thread-locals —
//! expresses the hierarchy, so a span can be created on one thread (a serve
//! request at admission) and finished on another (the worker that ran it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::sample::{Sampler, SamplerCore, SamplerStats};
use crate::sink::{NullSink, RingSink, TraceSink};

/// One finished span as delivered to a [`TraceSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Id of this span's root ancestor — equal to `id` for roots. Lets
    /// sinks and samplers group a whole trace without walking parents.
    pub root: u64,
    /// Human-readable name (`"compile"`, `"pass:dce"`, `"batch[0]"`, …).
    pub name: String,
    /// Coarse category (`"compile"`, `"pass"`, `"exec"`, `"serve"`, …),
    /// mapped to the Chrome-trace `cat` field.
    pub category: &'static str,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Counters attached while the span was live (graph deltas, batch
    /// occupancy, kernel launches, …).
    pub counters: Vec<(String, i64)>,
}

impl SpanRecord {
    /// End offset from the tracer's epoch, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Whether [`Span::mark`] flagged this span with `name` — the
    /// convention fault-injection and recovery paths use to annotate spans
    /// (`fault:worker_panic`, `requeued`, `timed_out`, …).
    pub fn is_marked(&self, name: &str) -> bool {
        self.counter(name).is_some_and(|v| v != 0)
    }
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    sampler: Option<SamplerCore>,
    epoch: Instant,
    next_id: AtomicU64,
    enabled: bool,
}

/// Mints spans and forwards finished records to a [`TraceSink`]. Cheap to
/// clone (an `Arc` internally); clones share the sink, epoch and id space.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer recording into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                sink,
                sampler: None,
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                enabled: true,
            }),
        }
    }

    /// A tracer that routes every finished span through `sampler` before
    /// `sink`: whole traces (grouped by root) are either streamed (head
    /// decision), retained after the fact (tail-keep: slow, errored or
    /// fault-marked), or discarded — always-on tracing with bounded
    /// overhead. See [`Sampler`].
    pub fn sampled(sink: Arc<dyn TraceSink>, sampler: Sampler) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                sink,
                sampler: Some(SamplerCore::new(sampler)),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                enabled: true,
            }),
        }
    }

    /// Convenience: a tracer backed by a fresh [`RingSink`] of `capacity`
    /// spans, returning both so the caller can drain the buffer later.
    pub fn ring(capacity: usize) -> (Tracer, Arc<RingSink>) {
        let sink = Arc::new(RingSink::new(capacity));
        (Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>), sink)
    }

    /// A tracer that drops everything; spans minted from it are free of
    /// allocation and record nothing. The default for untraced paths.
    pub fn disabled() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                sink: Arc::new(NullSink),
                sampler: None,
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                enabled: false,
            }),
        }
    }

    /// Whether spans from this tracer record anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Sampling counters, when this tracer was built with
    /// [`Tracer::sampled`].
    pub fn sampler_stats(&self) -> Option<SamplerStats> {
        self.inner.sampler.as_ref().map(SamplerCore::stats)
    }

    /// Start a root span.
    pub fn root(&self, name: impl Into<String>, category: &'static str) -> Span {
        self.span(None, None, name, category)
    }

    /// A root scope for threading through APIs that accept a [`TraceScope`].
    pub fn scope(&self) -> TraceScope {
        TraceScope {
            tracer: self.clone(),
            parent: None,
            root: None,
        }
    }

    fn span(
        &self,
        parent: Option<u64>,
        root: Option<u64>,
        name: impl Into<String>,
        category: &'static str,
    ) -> Span {
        if !self.inner.enabled {
            return Span {
                tracer: self.clone(),
                id: 0,
                parent: None,
                root: 0,
                name: String::new(),
                category,
                start: Instant::now(),
                counters: Vec::new(),
                done: true, // nothing to record
            };
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let root = root.unwrap_or(id);
        if parent.is_none() {
            // A new trace begins: the sampler takes its head decision in
            // root-mint order, which is what makes the kept set a pure
            // function of (seed, arrival order).
            if let Some(sampler) = &self.inner.sampler {
                sampler.admit(root);
            }
        }
        Span {
            tracer: self.clone(),
            id,
            parent,
            root,
            name: name.into(),
            category,
            start: Instant::now(),
            counters: Vec::new(),
            done: false,
        }
    }
}

/// A (tracer, parent) pair: "record new spans here, under this parent".
/// The unit APIs accept so callers can nest foreign subsystems (a pass
/// manager, an exec session) under their own spans. A disabled scope makes
/// every tracing call a no-op.
#[derive(Debug, Clone)]
pub struct TraceScope {
    tracer: Tracer,
    parent: Option<u64>,
    root: Option<u64>,
}

impl TraceScope {
    /// A scope that records nothing.
    pub fn disabled() -> TraceScope {
        TraceScope {
            tracer: Tracer::disabled(),
            parent: None,
            root: None,
        }
    }

    /// Whether spans opened through this scope record anything.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Open a span under this scope's parent.
    pub fn span(&self, name: impl Into<String>, category: &'static str) -> Span {
        self.tracer.span(self.parent, self.root, name, category)
    }

    /// The tracer backing this scope.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl Default for TraceScope {
    fn default() -> Self {
        TraceScope::disabled()
    }
}

/// A live span. Finishing (or dropping) records it into the tracer's sink
/// with its wall-clock duration; counters attached before that travel with
/// the record.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    root: u64,
    name: String,
    category: &'static str,
    start: Instant,
    counters: Vec<(String, i64)>,
    done: bool,
}

impl Span {
    /// This span's id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The root ancestor's id (this span's own id for roots).
    pub fn root_id(&self) -> u64 {
        self.root
    }

    /// Whether this span will record anything when finished.
    pub fn enabled(&self) -> bool {
        !self.done
    }

    /// Open a child span.
    pub fn child(&self, name: impl Into<String>, category: &'static str) -> Span {
        self.tracer
            .span(Some(self.id), Some(self.root), name, category)
    }

    /// A scope minting children of this span.
    pub fn scope(&self) -> TraceScope {
        if self.tracer.enabled() {
            TraceScope {
                tracer: self.tracer.clone(),
                parent: Some(self.id),
                root: Some(self.root),
            }
        } else {
            TraceScope {
                tracer: self.tracer.clone(),
                parent: None,
                root: None,
            }
        }
    }

    /// Attach a counter (kept in insertion order, duplicates allowed).
    pub fn counter(&mut self, name: impl Into<String>, value: i64) {
        if self.tracer.inner.enabled {
            self.counters.push((name.into(), value));
        }
    }

    /// Flag this span with a named event (a counter pinned to 1) — how the
    /// serving layer annotates spans with injected faults and recovery
    /// actions so trace-based assertions can find them via
    /// [`SpanRecord::is_marked`].
    pub fn mark(&mut self, name: impl Into<String>) {
        self.counter(name, 1);
    }

    /// Attach several counters at once.
    pub fn counters<I, S>(&mut self, iter: I)
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        if self.tracer.inner.enabled {
            self.counters
                .extend(iter.into_iter().map(|(n, v)| (n.into(), v)));
        }
    }

    /// Record the span now instead of at drop.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let inner = &self.tracer.inner;
        let start_ns = self
            .start
            .saturating_duration_since(inner.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            root: self.root,
            name: std::mem::take(&mut self.name),
            category: self.category,
            start_ns,
            dur_ns,
            counters: std::mem::take(&mut self.counters),
        };
        match &inner.sampler {
            Some(sampler) => sampler.offer(record, &*inner.sink),
            None => inner.sink.record(record),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_hierarchy_and_counters() {
        let (tracer, sink) = Tracer::ring(16);
        let mut root = tracer.root("compile", "compile");
        root.counter("nodes", 7);
        let child = root.child("pass:dce", "pass");
        child.finish();
        root.finish();
        let records = sink.snapshot();
        assert_eq!(records.len(), 2);
        // snapshot() sorts by start time, so the parent leads.
        assert_eq!(records[0].name, "compile");
        assert_eq!(records[1].name, "pass:dce");
        assert_eq!(records[1].parent, Some(records[0].id));
        assert_eq!(records[0].counter("nodes"), Some(7));
        assert!(records[0].end_ns() >= records[1].end_ns());
    }

    #[test]
    fn dropped_span_still_records() {
        let (tracer, sink) = Tracer::ring(4);
        {
            let _span = tracer.root("exec", "exec");
        }
        assert_eq!(sink.snapshot().len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let mut span = tracer.root("compile", "compile");
        span.counter("n", 1);
        let child = span.child("x", "pass");
        drop(child);
        // Nothing observable: the null sink swallows everything, and the
        // span paths avoid allocation.
        assert_eq!(span.id(), 0);
        span.finish();
    }

    #[test]
    fn marks_round_trip_through_records() {
        let (tracer, sink) = Tracer::ring(4);
        let mut span = tracer.root("batch", "serve");
        span.mark("fault:worker_panic");
        span.finish();
        let records = sink.snapshot();
        assert!(records[0].is_marked("fault:worker_panic"));
        assert!(!records[0].is_marked("requeued"));
    }

    #[test]
    fn root_ids_group_whole_traces() {
        let (tracer, sink) = Tracer::ring(16);
        let root = tracer.root("request", "serve");
        let child = root.child("exec", "exec");
        let grandchild = child.child("batch[0]", "exec");
        let scope = root.scope();
        scope.span("late", "serve").finish();
        drop(grandchild);
        drop(child);
        let other = tracer.root("request2", "serve");
        drop(other);
        root.finish();
        let records = sink.snapshot();
        let find = |name: &str| records.iter().find(|r| r.name == name).unwrap();
        let root_id = find("request").id;
        for name in ["request", "exec", "batch[0]", "late"] {
            assert_eq!(find(name).root, root_id, "{name} rides the trace root");
        }
        let other = find("request2");
        assert_eq!(other.root, other.id, "a root is its own trace root");
    }

    #[test]
    fn scope_threads_parentage() {
        let (tracer, sink) = Tracer::ring(8);
        let root = tracer.root("request", "serve");
        let scope = root.scope();
        scope.span("queue", "serve").finish();
        root.finish();
        let records = sink.snapshot();
        assert_eq!(records[1].parent, Some(records[0].id));
    }
}
