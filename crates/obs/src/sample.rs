//! Trace sampling: seeded head decisions by trace root plus tail-keep
//! rules, so production services can leave tracing always-on with bounded
//! sink volume.
//!
//! The unit of sampling is the *trace* — every span sharing one root id —
//! never the individual span, so a kept trace is always complete. Two
//! mechanisms combine:
//!
//! * **Head sampling.** When a root span is minted, a seeded hash of the
//!   root's arrival index decides whether the whole trace streams to the
//!   sink. The decision is a pure function of `(seed, arrival order)`, so
//!   two runs submitting the same traffic in the same order keep the same
//!   traces.
//! * **Tail keep.** Traces the head decision rejected are buffered until
//!   their root finishes, then retained anyway if any span carries a
//!   `fault:*` mark or one of the error marks in [`DEFAULT_KEEP_MARKS`]
//!   (`timed_out`, `failed`, `deadline_exceeded`). Everything else is
//!   discarded — the broken traces survive even at aggressive sampling
//!   rates.
//!
//! Buffering is bounded by the spans of currently *in-flight* traces; a
//! finished trace either streams out or frees its buffer immediately.
//! Spans whose trace is unknown (foreign roots, or stragglers finishing
//! after their root closed the trace) fail open and are forwarded.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock;
use crate::sink::TraceSink;
use crate::span::SpanRecord;

/// Marks that force tail retention regardless of sampling rate, in
/// addition to the `fault:*` prefix.
pub const DEFAULT_KEEP_MARKS: [&str; 3] = ["timed_out", "failed", "deadline_exceeded"];

/// Sampling policy consumed by [`crate::Tracer::sampled`].
#[derive(Debug, Clone)]
pub struct Sampler {
    seed: u64,
    rate: f64,
}

impl Sampler {
    /// Head-keep roughly `rate` (clamped to `[0, 1]`) of traces, decided by
    /// a seeded hash of each root's arrival index. Tail-keep rules are the
    /// `fault:*` prefix plus [`DEFAULT_KEEP_MARKS`].
    pub fn new(seed: u64, rate: f64) -> Sampler {
        Sampler {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The configured head-sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The seed behind the head decisions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The head decision for the `index`-th root minted by the tracer — a
    /// pure function of `(seed, index)`, exposed so tests can predict the
    /// kept set.
    pub fn head_keep(&self, index: u64) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits give a uniform draw in [0, 1).
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < self.rate
    }

    /// Whether a finished trace must be retained by the tail rules.
    fn tail_keep(&self, trace: &[SpanRecord]) -> bool {
        trace.iter().any(|r| {
            r.counters.iter().any(|(name, v)| {
                *v != 0
                    && (name.starts_with("fault:") || DEFAULT_KEEP_MARKS.contains(&name.as_str()))
            })
        })
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counters describing what a sampling tracer has done so far; see
/// [`crate::Tracer::sampler_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Root spans minted (head decisions taken).
    pub roots: u64,
    /// Traces streamed because the head decision kept them.
    pub head_kept: u64,
    /// Traces retained by a tail-keep rule after the head said no.
    pub tail_kept: u64,
    /// Traces discarded entirely.
    pub dropped_traces: u64,
    /// Spans discarded with those traces.
    pub dropped_spans: u64,
    /// Spans forwarded without a pending trace entry (foreign roots, or
    /// stragglers finishing after their root) — sampling fails open.
    pub passthrough: u64,
}

impl SamplerStats {
    /// Traces that reached the sink, by either mechanism.
    pub fn kept(&self) -> u64 {
        self.head_kept + self.tail_kept
    }
}

struct Pending {
    head: bool,
    buf: Vec<SpanRecord>,
}

struct SamplerState {
    next_root_index: u64,
    pending: HashMap<u64, Pending>,
}

/// Shared sampling state owned by a tracer built with
/// [`crate::Tracer::sampled`].
pub(crate) struct SamplerCore {
    cfg: Sampler,
    state: Mutex<SamplerState>,
    roots: AtomicU64,
    head_kept: AtomicU64,
    tail_kept: AtomicU64,
    dropped_traces: AtomicU64,
    dropped_spans: AtomicU64,
    passthrough: AtomicU64,
}

enum Verdict {
    Forward(SpanRecord),
    Passthrough(SpanRecord),
    Buffered,
    Closed(Vec<SpanRecord>),
}

impl SamplerCore {
    pub(crate) fn new(cfg: Sampler) -> SamplerCore {
        SamplerCore {
            cfg,
            state: Mutex::new(SamplerState {
                next_root_index: 0,
                pending: HashMap::new(),
            }),
            roots: AtomicU64::new(0),
            head_kept: AtomicU64::new(0),
            tail_kept: AtomicU64::new(0),
            dropped_traces: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
            passthrough: AtomicU64::new(0),
        }
    }

    /// A new trace begins: take its head decision in arrival order.
    pub(crate) fn admit(&self, root_id: u64) {
        let mut state = lock(&self.state);
        let index = state.next_root_index;
        state.next_root_index += 1;
        let head = self.cfg.head_keep(index);
        state.pending.insert(
            root_id,
            Pending {
                head,
                buf: Vec::new(),
            },
        );
        drop(state);
        self.roots.fetch_add(1, Ordering::Relaxed);
        if head {
            self.head_kept.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route one finished span: stream it (head-kept trace), buffer it
    /// (undecided trace), close out its trace (the root just finished), or
    /// forward it untouched (unknown trace — fail open).
    pub(crate) fn offer(&self, record: SpanRecord, sink: &dyn TraceSink) {
        let verdict = {
            let mut state = lock(&self.state);
            let is_root = record.id == record.root;
            match state.pending.entry(record.root) {
                Entry::Vacant(_) => Verdict::Passthrough(record),
                Entry::Occupied(p) if p.get().head => {
                    if is_root {
                        p.remove();
                    }
                    Verdict::Forward(record)
                }
                Entry::Occupied(mut p) => {
                    p.get_mut().buf.push(record);
                    if is_root {
                        Verdict::Closed(p.remove().buf)
                    } else {
                        Verdict::Buffered
                    }
                }
            }
        };
        // The sink runs outside the sampler lock: record() may do file IO.
        match verdict {
            Verdict::Forward(r) => sink.record(r),
            Verdict::Passthrough(r) => {
                self.passthrough.fetch_add(1, Ordering::Relaxed);
                sink.record(r);
            }
            Verdict::Buffered => {}
            Verdict::Closed(buf) => {
                if self.cfg.tail_keep(&buf) {
                    self.tail_kept.fetch_add(1, Ordering::Relaxed);
                    for r in buf {
                        sink.record(r);
                    }
                } else {
                    self.dropped_traces.fetch_add(1, Ordering::Relaxed);
                    self.dropped_spans
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    pub(crate) fn stats(&self) -> SamplerStats {
        SamplerStats {
            roots: self.roots.load(Ordering::Relaxed),
            head_kept: self.head_kept.load(Ordering::Relaxed),
            tail_kept: self.tail_kept.load(Ordering::Relaxed),
            dropped_traces: self.dropped_traces.load(Ordering::Relaxed),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            passthrough: self.passthrough.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RingSink, Tracer};
    use std::sync::Arc;

    fn sampled_ring(sampler: Sampler) -> (Tracer, Arc<RingSink>) {
        let sink = Arc::new(RingSink::new(1024));
        let tracer = Tracer::sampled(Arc::clone(&sink) as Arc<dyn TraceSink>, sampler);
        (tracer, sink)
    }

    #[test]
    fn rate_zero_drops_plain_traces() {
        let (tracer, sink) = sampled_ring(Sampler::new(7, 0.0));
        for _ in 0..10 {
            let root = tracer.root("request", "serve");
            root.child("exec", "exec").finish();
            root.finish();
        }
        assert!(sink.is_empty());
        let stats = tracer.sampler_stats().unwrap();
        assert_eq!(stats.roots, 10);
        assert_eq!(stats.dropped_traces, 10);
        assert_eq!(stats.dropped_spans, 20);
    }

    #[test]
    fn rate_one_streams_everything() {
        let (tracer, sink) = sampled_ring(Sampler::new(7, 1.0));
        let root = tracer.root("request", "serve");
        root.child("exec", "exec").finish();
        root.finish();
        assert_eq!(sink.len(), 2);
        let stats = tracer.sampler_stats().unwrap();
        assert_eq!(stats.head_kept, 1);
        assert_eq!(stats.dropped_spans, 0);
    }

    #[test]
    fn fault_marked_traces_survive_rate_zero() {
        let (tracer, sink) = sampled_ring(Sampler::new(7, 0.0));
        let root = tracer.root("request", "serve");
        let mut exec = root.child("exec", "exec");
        exec.mark("fault:worker_panic");
        exec.finish();
        root.finish();
        // Whole trace retained, not just the marked span.
        let records = sink.snapshot();
        assert_eq!(records.len(), 2);
        assert!(records.iter().any(|r| r.is_marked("fault:worker_panic")));
        assert_eq!(tracer.sampler_stats().unwrap().tail_kept, 1);
    }

    #[test]
    fn timed_out_mark_on_root_is_kept() {
        let (tracer, sink) = sampled_ring(Sampler::new(7, 0.0));
        let mut root = tracer.root("request", "serve");
        root.mark("timed_out");
        root.finish();
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn head_decisions_are_seed_deterministic() {
        let a = Sampler::new(42, 0.3);
        let b = Sampler::new(42, 0.3);
        let c = Sampler::new(43, 0.3);
        let keeps = |s: &Sampler| (0..256).map(|i| s.head_keep(i)).collect::<Vec<_>>();
        assert_eq!(keeps(&a), keeps(&b));
        assert_ne!(
            keeps(&a),
            keeps(&c),
            "a different seed keeps a different set"
        );
        let kept = keeps(&a).iter().filter(|k| **k).count();
        assert!((40..=115).contains(&kept), "rate 0.3 of 256 kept {kept}");
    }

    #[test]
    fn stragglers_after_root_fail_open() {
        let (tracer, sink) = sampled_ring(Sampler::new(7, 0.0));
        let root = tracer.root("request", "serve");
        let late = root.child("late", "serve");
        root.finish(); // closes (and drops) the trace
        late.finish(); // no pending entry left: forwarded
        assert_eq!(sink.len(), 1);
        assert_eq!(tracer.sampler_stats().unwrap().passthrough, 1);
    }
}
