//! [`MetricsRegistry`]: first-class counters, gauges and histograms with
//! labels, rendered as one consolidated Prometheus exposition.
//!
//! The tracing side of this crate answers "what happened inside *this*
//! request"; the registry answers "what is the process doing over time".
//! Every layer registers into the same namespace — `tssa-serve` keeps its
//! request counters and latency, queue-wait and per-plan batch-occupancy
//! histograms here (its `MetricsSnapshot` is a typed read of them) and
//! writes its plan-cache counters through, and `PassManager` records
//! per-pass wall-time histograms — so one scrape shows the whole stack.
//!
//! Handles ([`Counter`], [`Gauge`], [`HistogramMetric`]) are cheap atomic
//! cells, safe to record into from hot paths; the registry mutex is only
//! taken at registration and render time. Histograms use power-of-two
//! buckets (bucket *i* covers `[2^i, 2^(i+1))`), so recording is one atomic
//! increment and a quantile is one pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::lock;
use crate::prom::PromText;

/// Number of power-of-two histogram buckets (up to ~2^39, ~6 days in µs).
pub(crate) const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an absolute value — for bridging counters owned
    /// elsewhere (a snapshot) into the registry.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle (f64 bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A sampled observation pinned to the trace it came from, rendered as an
/// OpenMetrics-style `# {trace_id="..."} value` suffix on the matching
/// bucket line — the bridge from an aggregate back to one concrete trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Exemplar {
    /// The observed value (same unit as the histogram).
    pub(crate) value: u64,
    /// Root span id of the trace that produced the observation.
    pub(crate) trace_id: u64,
}

struct HistogramCore {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    /// Latest trace-linked observation; two packed atomics instead of a
    /// mutex so the hot path stays lock-free (a torn read across the pair
    /// can at worst mislabel one scrape's exemplar, never corrupt data).
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    fn bucket(value: u64) -> usize {
        let idx = 63 - value.max(1).leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A fixed-bucket log2 histogram handle. Values are unit-agnostic `u64`s;
/// by convention the stack records microseconds (`_us` metric names).
#[derive(Clone)]
pub struct HistogramMetric(Arc<HistogramCore>);

impl HistogramMetric {
    /// Record one value.
    pub fn observe(&self, value: u64) {
        self.0.counts[HistogramCore::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration, in microseconds.
    pub fn observe_duration_us(&self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one value and pin it as the series' exemplar, linking the
    /// aggregate to the trace (root span id) that produced it. A
    /// `trace_id` of 0 means "untraced" and records without pinning.
    pub fn observe_with_exemplar(&self, value: u64, trace_id: u64) {
        self.observe(value);
        if trace_id != 0 {
            self.0.exemplar_value.store(value, Ordering::Relaxed);
            self.0.exemplar_trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// The latest trace-linked observation, when one was recorded.
    pub(crate) fn exemplar(&self) -> Option<Exemplar> {
        let trace_id = self.0.exemplar_trace.load(Ordering::Relaxed);
        (trace_id != 0).then(|| Exemplar {
            value: self.0.exemplar_value.load(Ordering::Relaxed),
            trace_id,
        })
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 < p <= 1.0`), or 0 when empty — a ≤ 2× overestimate by
    /// construction.
    pub fn quantile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.0.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// `(upper bound, cumulative count)` per bucket, ascending, trailing
    /// empty buckets elided (the exporter's `+Inf` covers them).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::new();
        for (i, c) in self.0.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            out.push((1u64 << (i + 1), cumulative));
        }
        while out.len() > 1 && out[out.len() - 1].1 == out[out.len() - 2].1 {
            out.pop();
        }
        out
    }
}

impl std::fmt::Debug for HistogramMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramMetric")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// One series' cell; cloning yields another handle onto the same cell.
#[derive(Clone)]
enum Value {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

struct Series {
    labels: Vec<(String, String)>,
    value: Value,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<Series>,
}

/// A set of metric families. Cheap to clone (shared interior); families
/// render in registration order, series within a family in label order.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Family>>>,
}

fn normalize(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry — the default destination for layers that
    /// are not handed an explicit one (e.g. `PassManager`).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Whether two handles point at the same underlying registry.
    pub fn same_as(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn series_value(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Value,
    ) -> Value {
        let labels = normalize(labels);
        let mut families = lock(&self.inner);
        let at = match families.iter().position(|f| f.name == name) {
            Some(at) => at,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[at];
        assert_eq!(
            family.kind, kind,
            "metric family `{name}` registered as {} and {kind}",
            family.kind
        );
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.value.clone();
        }
        let value = make();
        let handle = value.clone();
        family.series.push(Series { labels, value });
        handle
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series_value(name, help, "counter", labels, || {
            Value::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Value::Counter(c) => Counter(c),
            _ => unreachable!("family kind is pinned to counter"),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series_value(name, help, "gauge", labels, || {
            Value::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            Value::Gauge(g) => Gauge(g),
            _ => unreachable!("family kind is pinned to gauge"),
        }
    }

    /// Get or create a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramMetric {
        match self.series_value(name, help, "histogram", labels, || {
            Value::Histogram(Arc::new(HistogramCore::new()))
        }) {
            Value::Histogram(h) => HistogramMetric(h),
            _ => unreachable!("family kind is pinned to histogram"),
        }
    }

    /// Bridge an absolute counter value owned elsewhere (snapshots).
    pub fn set_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.counter(name, help, labels).set(value);
    }

    /// Bridge an absolute gauge value owned elsewhere.
    pub fn set_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.gauge(name, help, labels).set(value);
    }

    /// Registered family count (for tests and diagnostics).
    fn family_count(&self) -> usize {
        lock(&self.inner).len()
    }

    /// The whole registry as one Prometheus text-exposition document.
    pub fn prometheus_text(&self) -> String {
        let families = lock(&self.inner);
        let mut prom = PromText::new();
        for family in families.iter() {
            let name = prom.family(&family.name, &family.help, family.kind);
            let mut series: Vec<&Series> = family.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match &s.value {
                    Value::Counter(c) => {
                        prom.sample(&name, &s.labels, c.load(Ordering::Relaxed));
                    }
                    Value::Gauge(g) => {
                        prom.sample(&name, &s.labels, f64::from_bits(g.load(Ordering::Relaxed)));
                    }
                    Value::Histogram(h) => {
                        let hist = HistogramMetric(Arc::clone(h));
                        Self::render_histogram(&mut prom, &name, &s.labels, &hist);
                    }
                }
            }
        }
        prom.render()
    }

    fn render_histogram(
        prom: &mut PromText,
        name: &str,
        labels: &[(String, String)],
        hist: &HistogramMetric,
    ) {
        let count = hist.count();
        let bucket_name = format!("{name}_bucket");
        // The exemplar rides on the first bucket whose bound covers it
        // (OpenMetrics semantics); falls through to +Inf when out of range.
        let mut pending = hist.exemplar();
        for (le, cumulative) in hist.cumulative_buckets() {
            let mut with_le = labels.to_vec();
            with_le.push(("le".to_string(), le.to_string()));
            match pending {
                Some(e) if e.value <= le => {
                    pending = None;
                    prom.sample_with_exemplar(
                        &bucket_name,
                        &with_le,
                        cumulative,
                        e.trace_id,
                        e.value,
                    );
                }
                _ => prom.sample(&bucket_name, &with_le, cumulative),
            }
        }
        let mut inf = labels.to_vec();
        inf.push(("le".to_string(), "+Inf".to_string()));
        match pending {
            Some(e) => prom.sample_with_exemplar(&bucket_name, &inf, count, e.trace_id, e.value),
            None => prom.sample(&bucket_name, &inf, count),
        }
        prom.sample(&format!("{name}_sum"), labels, hist.sum());
        prom.sample(&format!("{name}_count"), labels, count);
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("families", &self.family_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_series_across_lookups() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("reqs_total", "Requests.", &[("plan", "yolo")]);
        let b = reg.counter("reqs_total", "Requests.", &[("plan", "yolo")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = reg.counter("reqs_total", "Requests.", &[("plan", "ssd")]);
        assert_eq!(other.get(), 0, "distinct labels are distinct series");
        assert_eq!(reg.family_count(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c", "h", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("c", "h", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauges_hold_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("occupancy", "h", &[]);
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
        assert!(reg.prometheus_text().contains("occupancy 2.5"));
    }

    #[test]
    fn histograms_count_sum_and_quantile() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait_us", "h", &[]);
        for _ in 0..9 {
            h.observe(100); // bucket le=128
        }
        h.observe(5_000); // bucket le=8192
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 5_900);
        assert_eq!(h.quantile(0.5), 128);
        assert_eq!(h.quantile(1.0), 8192);
        let text = reg.prometheus_text();
        assert!(text.contains("wait_us_bucket{le=\"128\"} 9"));
        assert!(text.contains("wait_us_bucket{le=\"+Inf\"} 10"));
        assert!(text.contains("wait_us_sum 5900"));
        assert!(text.contains("wait_us_count 10"));
        // Trailing empty buckets are elided; `+Inf` covers them.
        assert_eq!(h.cumulative_buckets().last(), Some(&(8192, 10)));
    }

    #[test]
    fn histogram_buckets_clamp_at_both_ends() {
        assert_eq!(HistogramCore::bucket(0), 0);
        assert_eq!(HistogramCore::bucket(1), 0);
        assert_eq!(HistogramCore::bucket(2), 1);
        assert_eq!(HistogramCore::bucket(3), 1);
        assert_eq!(HistogramCore::bucket(1024), 10);
        assert_eq!(HistogramCore::bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = MetricsRegistry::new().histogram("empty", "h", &[]);
        assert_eq!(h.quantile(0.5), 0, "empty histogram has no quantile");
    }

    #[test]
    fn exemplars_ride_the_matching_bucket_line() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait_us", "h", &[]);
        h.observe(100);
        h.observe_with_exemplar(100, 0xABCD); // bucket le=128
        let text = reg.prometheus_text();
        assert!(
            text.contains("wait_us_bucket{le=\"128\"} 2 # {trace_id=\"000000000000abcd\"} 100"),
            "exemplar suffix missing:\n{text}"
        );
        // Only the covering bucket carries the suffix.
        assert_eq!(text.matches(" # {trace_id=").count(), 1);
        assert_eq!(
            h.exemplar(),
            Some(Exemplar {
                value: 100,
                trace_id: 0xABCD
            })
        );
        // A later traced observation replaces the exemplar; untraced ones
        // (trace_id 0) record without touching it.
        h.observe_with_exemplar(5_000, 0xFF);
        h.observe_with_exemplar(7, 0);
        assert_eq!(
            h.exemplar(),
            Some(Exemplar {
                value: 5_000,
                trace_id: 0xFF
            })
        );
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn global_is_one_registry() {
        assert!(MetricsRegistry::global().same_as(MetricsRegistry::global()));
        let fresh = MetricsRegistry::new();
        assert!(!fresh.same_as(MetricsRegistry::global()));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }
}
