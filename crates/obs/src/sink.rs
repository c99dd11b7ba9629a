//! Where finished spans go: the [`TraceSink`] trait and the default
//! bounded [`RingSink`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock;
use crate::span::SpanRecord;

/// Consumer of finished spans. Implementations must be cheap and
/// non-blocking — `record` is called from compile paths, worker threads and
/// request tails.
pub trait TraceSink: Send + Sync {
    /// Accept one finished span.
    fn record(&self, span: SpanRecord);
}

/// Discards everything; backs [`crate::Tracer::disabled`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _span: SpanRecord) {}
}

/// Bounded in-memory sink: keeps the most recent `capacity` spans, counting
/// (rather than blocking on) overflow. The default sink for tests, the
/// `trace_dump` example and ad-hoc profiling.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
    warned: AtomicBool,
}

impl RingSink {
    /// A ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
            warned: AtomicBool::new(false),
        }
    }

    /// Copy out the buffered spans, oldest first, sorted by start time so
    /// parents precede children even though spans record at *finish*.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut v: Vec<SpanRecord> = lock(&self.buf).iter().cloned().collect();
        v.sort_by_key(|r| (r.start_ns, r.id));
        v
    }

    /// Drain the buffer, returning its contents sorted by start time.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut v: Vec<SpanRecord> = lock(&self.buf).drain(..).collect();
        v.sort_by_key(|r| (r.start_ns, r.id));
        v
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSink for RingSink {
    fn record(&self, span: SpanRecord) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "tssa-obs: RingSink wrapped (capacity {}); oldest spans are being \
                     dropped — use StreamSink for long runs",
                    self.capacity
                );
            }
        }
        buf.push_back(span);
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, start_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            root: id,
            name: format!("s{id}"),
            category: "test",
            start_ns,
            dur_ns: 1,
            counters: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let sink = RingSink::new(2);
        sink.record(rec(1, 10));
        sink.record(rec(2, 20));
        sink.record(rec(3, 30));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let snap = sink.snapshot();
        assert_eq!(snap[0].id, 2);
        assert_eq!(snap[1].id, 3);
    }

    #[test]
    fn snapshot_sorts_by_start() {
        let sink = RingSink::new(4);
        sink.record(rec(2, 50)); // finishes first but starts later
        sink.record(rec(1, 10));
        let snap = sink.snapshot();
        assert_eq!(snap[0].id, 1);
        assert_eq!(sink.len(), 2, "snapshot must not drain");
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.is_empty());
    }
}
