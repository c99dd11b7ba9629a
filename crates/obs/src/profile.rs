//! Op-level execution profiler: per-worker [`ProfileSink`] buffers merged
//! into one [`Profiler`] table, with flamegraph / Chrome-trace / JSON
//! exports and a fusion-group hotness ranking.
//!
//! The tracing side of this crate stops at `exec -> batch[i]` spans; this
//! module opens the box below the batch level. Executors attribute wall
//! self-time, invocation counts and FLOP/byte estimates to every op —
//! keyed by `(plan, fusion group, node)` — into a [`ProfileSink`] owned by
//! the recording thread. Sinks are `Mutex`-guarded but uncontended in
//! steady state (one sink per worker), so recording costs a hash insert.
//! Merging into the shared table happens only at snapshot time (a scrape,
//! a report), and the merge wall time is itself accounted
//! (`tssa_obs_profile_merge_us`) so the profiler's own overhead is visible
//! in the exposition it feeds.
//!
//! Production deployments keep the profiler always-on by sampling whole
//! executions through the same seeded [`Sampler`] seam the tracer uses:
//! [`Profiler::should_profile`] draws per run, so the overhead bound is a
//! configuration, not a build flag.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::escape;
use crate::registry::MetricsRegistry;
use crate::sample::Sampler;

/// Sentinel "fusion group" for ops executed at the top level of a plan
/// (outside any fusion group). Rendered as the `top` frame.
pub const TOP_LEVEL_GROUP: u32 = u32::MAX;

/// Identity of one profiled op site.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpKey {
    /// Plan (model) label the op executed under.
    pub plan: Arc<str>,
    /// Fusion-group node id, or [`TOP_LEVEL_GROUP`].
    pub group: u32,
    /// Node id within the graph.
    pub node: u32,
}

/// Export-granularity frame `(plan, group, op)` — node ids collapsed away.
type OpFrame = (Arc<str>, u32, String);

/// Render a group id as a flamegraph frame / metric label.
pub fn group_frame(group: u32) -> String {
    if group == TOP_LEVEL_GROUP {
        "top".to_string()
    } else {
        format!("g{group}")
    }
}

/// Accumulated statistics for one op site.
#[derive(Clone, Debug, Default)]
pub struct OpStat {
    /// Op kind name (e.g. `conv2d`, `view.slice`).
    pub op: String,
    /// Invocations.
    pub count: u64,
    /// Wall self-time, nanoseconds.
    pub self_ns: u64,
    /// Estimated bytes moved.
    pub bytes: u64,
    /// Estimated floating-point operations.
    pub flops: u64,
}

impl OpStat {
    fn observe(&mut self, wall_ns: u64, bytes: u64, flops: u64) {
        self.count += 1;
        self.self_ns += wall_ns;
        self.bytes += bytes;
        self.flops += flops;
    }

    fn merge(&mut self, other: &OpStat) {
        if self.op.is_empty() {
            self.op = other.op.clone();
        }
        self.count += other.count;
        self.self_ns += other.self_ns;
        self.bytes += other.bytes;
        self.flops += other.flops;
    }
}

/// A per-worker recording buffer. The mutex is uncontended in steady state
/// (each worker records into its own sink); the profiler's snapshot path
/// takes it briefly to drain.
#[derive(Default)]
pub struct ProfileSink {
    local: Mutex<HashMap<OpKey, OpStat>>,
}

impl ProfileSink {
    /// Record one op execution. `op_name` is only invoked the first time
    /// this site is seen, so steady-state recording never allocates a name.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        plan: &Arc<str>,
        group: u32,
        node: u32,
        wall_ns: u64,
        bytes: u64,
        flops: u64,
        op_name: impl FnOnce() -> String,
    ) {
        let key = OpKey {
            plan: Arc::clone(plan),
            group,
            node,
        };
        let mut local = self.local.lock().expect("profile sink lock");
        let stat = local.entry(key).or_default();
        if stat.op.is_empty() {
            stat.op = op_name();
        }
        stat.observe(wall_ns, bytes, flops);
    }

    /// Take everything recorded so far, leaving the sink empty.
    pub fn drain(&self) -> HashMap<OpKey, OpStat> {
        std::mem::take(&mut *self.local.lock().expect("profile sink lock"))
    }

    /// Recorded site count (tests and diagnostics).
    pub fn len(&self) -> usize {
        self.local.lock().expect("profile sink lock").len()
    }

    /// Whether nothing has been recorded since the last drain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct ProfilerInner {
    merged: Mutex<HashMap<OpKey, OpStat>>,
    sinks: Mutex<Vec<Arc<ProfileSink>>>,
    sampler: Option<Sampler>,
    runs: AtomicU64,
    merges: AtomicU64,
    merge_us: AtomicU64,
}

/// The shared profile table plus the sampling decision. Cheap to clone
/// (shared interior); one per service / tool run.
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<ProfilerInner>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("rate", &self.rate())
            .field("runs", &self.runs())
            .finish_non_exhaustive()
    }
}

impl Profiler {
    /// An always-on profiler: every execution is recorded.
    pub fn new() -> Profiler {
        Profiler::with_sampler(None)
    }

    /// A sampling profiler: each execution draws through `sampler`'s seeded
    /// head-keep decision (by run index), bounding steady-state overhead to
    /// roughly the configured rate.
    pub fn sampled(sampler: Sampler) -> Profiler {
        Profiler::with_sampler(Some(sampler))
    }

    fn with_sampler(sampler: Option<Sampler>) -> Profiler {
        Profiler {
            inner: Arc::new(ProfilerInner {
                merged: Mutex::new(HashMap::new()),
                sinks: Mutex::new(Vec::new()),
                sampler,
                runs: AtomicU64::new(0),
                merges: AtomicU64::new(0),
                merge_us: AtomicU64::new(0),
            }),
        }
    }

    /// Create a new recording sink registered with this profiler (one per
    /// worker thread). The profiler keeps its own reference: samples a
    /// crashed or retired worker never drained still reach the table at the
    /// next snapshot, so totals stay monotone across worker churn.
    pub fn sink(&self) -> Arc<ProfileSink> {
        let sink = Arc::new(ProfileSink::default());
        self.inner
            .sinks
            .lock()
            .expect("profiler sinks lock")
            .push(Arc::clone(&sink));
        sink
    }

    /// Draw the sampling decision for the next execution. Always true for
    /// an unsampled profiler; deterministic in the sampler's seed otherwise.
    pub fn should_profile(&self) -> bool {
        let run = self.inner.runs.fetch_add(1, Ordering::Relaxed);
        match &self.inner.sampler {
            None => true,
            Some(s) => s.head_keep(run),
        }
    }

    /// Sampling rate (1.0 when unsampled).
    pub fn rate(&self) -> f64 {
        self.inner.sampler.as_ref().map_or(1.0, Sampler::rate)
    }

    /// Executions offered to [`Profiler::should_profile`] so far.
    pub fn runs(&self) -> u64 {
        self.inner.runs.load(Ordering::Relaxed)
    }

    /// `(merge count, cumulative merge wall µs)` — the profiler's own cost.
    fn merge_stats(&self) -> (u64, u64) {
        (
            self.inner.merges.load(Ordering::Relaxed),
            self.inner.merge_us.load(Ordering::Relaxed),
        )
    }

    /// Drain every live sink into the table and return a point-in-time
    /// snapshot sorted by self-time (descending). Totals are cumulative:
    /// successive snapshots are monotone non-decreasing.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let started = Instant::now();
        let mut merged = self.inner.merged.lock().expect("profiler table lock");
        {
            let sinks = self.inner.sinks.lock().expect("profiler sinks lock");
            for sink in sinks.iter() {
                for (key, stat) in sink.drain() {
                    merged.entry(key).or_default().merge(&stat);
                }
            }
        }
        let mut entries: Vec<(OpKey, OpStat)> =
            merged.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        drop(merged);
        entries.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(&b.0)));
        self.inner.merges.fetch_add(1, Ordering::Relaxed);
        let merge_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.inner.merge_us.fetch_add(merge_us, Ordering::Relaxed);
        let (merges, merge_us) = self.merge_stats();
        ProfileSnapshot {
            entries,
            merges,
            merge_us,
        }
    }
}

/// One fusion group's share of the measured execution time — the unit the
/// codegen work-list ranks.
#[derive(Clone, Debug)]
pub struct GroupHotness {
    /// Plan (model) label.
    pub plan: Arc<str>,
    /// Fusion-group node id, or [`TOP_LEVEL_GROUP`].
    pub group: u32,
    /// Cumulative wall self-time of the group's ops, nanoseconds.
    pub self_ns: u64,
    /// Total op invocations inside the group.
    pub count: u64,
    /// Distinct op sites inside the group.
    pub sites: usize,
}

/// A point-in-time, self-time-sorted copy of the profile table.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Per-site statistics, sorted by self-time descending.
    pub entries: Vec<(OpKey, OpStat)>,
    /// Sink merges performed so far (including the one that built this).
    pub merges: u64,
    /// Cumulative merge wall time, microseconds.
    pub merge_us: u64,
}

/// Make a string safe as a flamegraph frame: collapsed-stack reserves
/// `;` (frame separator) and space (count separator).
fn frame(s: &str) -> String {
    s.replace([';', ' ', '\t', '\n'], "_")
}

/// Integer microseconds, rounded up so any nonzero time stays visible.
fn ceil_us(ns: u64) -> u64 {
    ns.div_ceil(1_000)
}

impl ProfileSnapshot {
    /// Total recorded self-time, nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.self_ns).sum()
    }

    /// Aggregate sites by `(plan, group, op)` — the exported metric/frame
    /// granularity (node ids collapse away, bounding cardinality).
    fn by_op(&self) -> Vec<(OpFrame, OpStat)> {
        let mut agg: HashMap<OpFrame, OpStat> = HashMap::new();
        for (key, stat) in &self.entries {
            agg.entry((Arc::clone(&key.plan), key.group, stat.op.clone()))
                .or_default()
                .merge(stat);
        }
        let mut out: Vec<_> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Collapsed-stack flamegraph export: one `plan;group;op <self_us>`
    /// line per aggregated site, hottest first, at most `max_lines` lines.
    /// Renderable by `flamegraph.pl` / speedscope as-is.
    pub fn collapsed(&self, max_lines: usize) -> String {
        let mut out = String::new();
        for ((plan, group, op), stat) in self.by_op().into_iter().take(max_lines) {
            if stat.self_ns == 0 && stat.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};{};{} {}\n",
                frame(&plan),
                group_frame(group),
                frame(&op),
                ceil_us(stat.self_ns),
            ));
        }
        out
    }

    /// JSON export (bounded to `max_entries` per-site records, hottest
    /// first): per-site stats plus totals, for `/debug/profile`.
    pub fn json(&self, max_entries: usize) -> String {
        let mut out = String::from("{\"entries\":[");
        for (i, (key, stat)) in self.entries.iter().take(max_entries).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"plan\":\"{}\",\"group\":\"{}\",\"node\":{},\"op\":\"{}\",\
                 \"count\":{},\"self_us\":{},\"bytes\":{},\"flops\":{}}}",
                escape(&key.plan),
                group_frame(key.group),
                key.node,
                escape(&stat.op),
                stat.count,
                ceil_us(stat.self_ns),
                stat.bytes,
                stat.flops,
            ));
        }
        out.push_str(&format!(
            "],\"sites\":{},\"total_self_us\":{},\"merges\":{},\"merge_us\":{}}}",
            self.entries.len(),
            ceil_us(self.total_self_ns()),
            self.merges,
            self.merge_us,
        ));
        out
    }

    /// Chrome-trace export: one complete (`ph:"X"`) slice per aggregated
    /// site, laid end-to-end on a synthetic timeline so relative widths
    /// read as self-time shares in `chrome://tracing` / Perfetto.
    pub fn chrome_trace(&self, max_entries: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut cursor = 0u64;
        for (i, ((plan, group, op), stat)) in self.by_op().into_iter().take(max_entries).enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let dur = ceil_us(stat.self_ns);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"profile\",\"ph\":\"X\",\"ts\":{cursor},\
                 \"dur\":{dur},\"pid\":1,\"tid\":1,\"args\":{{\"plan\":\"{}\",\
                 \"group\":\"{}\",\"count\":{},\"flops\":{}}}}}",
                escape(&op),
                escape(&plan),
                group_frame(group),
                stat.count,
                stat.flops,
            ));
            cursor += dur;
        }
        out.push_str("]}");
        out
    }

    /// Fusion groups ranked by cumulative self-time (descending) — the
    /// work-list a codegen pass would consume.
    pub fn hotness(&self) -> Vec<GroupHotness> {
        let mut agg: HashMap<(Arc<str>, u32), GroupHotness> = HashMap::new();
        for (key, stat) in &self.entries {
            let entry = agg
                .entry((Arc::clone(&key.plan), key.group))
                .or_insert_with(|| GroupHotness {
                    plan: Arc::clone(&key.plan),
                    group: key.group,
                    self_ns: 0,
                    count: 0,
                    sites: 0,
                });
            entry.self_ns += stat.self_ns;
            entry.count += stat.count;
            entry.sites += 1;
        }
        let mut out: Vec<GroupHotness> = agg.into_values().collect();
        out.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then_with(|| (Arc::clone(&a.plan), a.group).cmp(&(Arc::clone(&b.plan), b.group)))
        });
        out
    }

    /// Bridge the snapshot into a registry: `tssa_op_self_us{plan,group,op}`
    /// (aggregated over node ids) plus the profiler's own merge cost
    /// (`tssa_obs_profile_merge_us`, `tssa_obs_profile_merges_total`).
    pub fn register_into(&self, registry: &MetricsRegistry) {
        for ((plan, group, op), stat) in self.by_op() {
            registry.set_counter(
                "tssa_op_self_us",
                "Cumulative op wall self-time by plan, fusion group and op kind (µs)",
                &[("plan", &plan), ("group", &group_frame(group)), ("op", &op)],
                ceil_us(stat.self_ns),
            );
        }
        registry.set_counter(
            "tssa_obs_profile_merge_us",
            "Cumulative wall time spent merging profile sinks (µs)",
            &[],
            self.merge_us,
        );
        registry.set_counter(
            "tssa_obs_profile_merges_total",
            "Profile sink merges performed",
            &[],
            self.merges,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(label: &str) -> Arc<str> {
        Arc::from(label)
    }

    #[test]
    fn sink_records_and_snapshot_sorts_by_self_time() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("lstm");
        sink.record(&p, 3, 10, 5_000_000, 64, 128, || "matmul".into());
        sink.record(&p, 3, 10, 3_000_000, 64, 128, || {
            panic!("name closure must not run for a known site")
        });
        sink.record(&p, TOP_LEVEL_GROUP, 2, 1_000_000, 8, 0, || "add".into());
        let snap = profiler.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].1.op, "matmul");
        assert_eq!(snap.entries[0].1.count, 2);
        assert_eq!(snap.entries[0].1.self_ns, 8_000_000);
        assert_eq!(snap.entries[0].1.bytes, 128);
        assert_eq!(snap.entries[0].1.flops, 256);
        assert_eq!(snap.entries[1].1.op, "add");
        assert_eq!(snap.total_self_ns(), 9_000_000);
    }

    #[test]
    fn totals_are_monotone_across_snapshots() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("ssd");
        sink.record(&p, 1, 1, 500, 0, 0, || "mul".into());
        let first = profiler.snapshot().total_self_ns();
        let mid = profiler.snapshot().total_self_ns();
        sink.record(&p, 1, 1, 700, 0, 0, || "mul".into());
        let last = profiler.snapshot().total_self_ns();
        assert_eq!(first, 500);
        assert_eq!(mid, 500, "drained sinks must not reset the table");
        assert_eq!(last, 1_200);
    }

    #[test]
    fn collapsed_lines_parse_as_collapsed_stack() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("yolo v3"); // space must be sanitized in frames
        sink.record(&p, 7, 4, 2_000, 0, 0, || "conv2d".into());
        sink.record(&p, TOP_LEVEL_GROUP, 9, 9_000, 0, 0, || "relu".into());
        let collapsed = profiler.snapshot().collapsed(100);
        assert_eq!(collapsed.lines().count(), 2);
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frames <space> count");
            assert_eq!(stack.split(';').count(), 3, "plan;group;op frames: {line}");
            assert!(stack.split(';').all(|f| !f.is_empty() && !f.contains(' ')));
            count.parse::<u64>().expect("count is an integer");
        }
        assert!(collapsed.starts_with("yolo_v3;top;relu 9\n"), "{collapsed}");
        assert!(collapsed.contains("yolo_v3;g7;conv2d 2\n"));
    }

    #[test]
    fn hotness_ranks_groups_and_register_into_exports_series() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("attention");
        sink.record(&p, 2, 1, 6_000, 0, 10, || "matmul".into());
        sink.record(&p, 2, 2, 1_000, 0, 0, || "softmax".into());
        sink.record(&p, 5, 3, 3_000, 0, 0, || "matmul".into());
        let snap = profiler.snapshot();
        let hot = snap.hotness();
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].group, 2);
        assert_eq!(hot[0].self_ns, 7_000);
        assert_eq!(hot[0].sites, 2);
        assert_eq!(hot[1].group, 5);

        let registry = MetricsRegistry::new();
        snap.register_into(&registry);
        let text = registry.prometheus_text();
        assert!(
            text.contains("tssa_op_self_us{group=\"g2\",op=\"matmul\",plan=\"attention\"} 6"),
            "{text}"
        );
        assert!(text.contains("tssa_obs_profile_merge_us"));
        assert!(text.contains("tssa_obs_profile_merges_total 1"));
    }

    #[test]
    fn json_and_chrome_exports_parse_and_bound_size() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("fcos");
        for node in 0..10 {
            sink.record(&p, 1, node, 1_000, 4, 2, || format!("op\"{node}\""));
        }
        let snap = profiler.snapshot();
        let json = snap.json(3);
        let doc = crate::json::parse(&json).expect("profile json parses");
        let entries = doc
            .get("entries")
            .and_then(crate::json::JsonValue::as_array)
            .expect("entries");
        assert_eq!(entries.len(), 3, "bounded to max_entries");
        assert_eq!(
            doc.get("sites").and_then(crate::json::JsonValue::as_f64),
            Some(10.0)
        );
        let chrome = snap.chrome_trace(50);
        crate::json::parse(&chrome).expect("chrome trace parses");
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn sampled_profiler_keeps_roughly_the_configured_rate() {
        let profiler = Profiler::sampled(Sampler::new(0x5EED, 0.1));
        let kept = (0..10_000).filter(|_| profiler.should_profile()).count();
        assert!(
            (500..2_000).contains(&kept),
            "10% sampling kept {kept}/10000"
        );
        assert_eq!(profiler.runs(), 10_000);
        let always = Profiler::new();
        assert!((0..100).all(|_| always.should_profile()));
        assert!((always.rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn dropped_sinks_still_reach_the_table() {
        let profiler = Profiler::new();
        let sink = profiler.sink();
        let p = plan("seq2seq");
        sink.record(&p, 1, 1, 42_000, 0, 0, || "add".into());
        // A crashed worker drops its handle before any scrape drained it;
        // the profiler's own reference keeps the samples reachable.
        drop(sink);
        assert_eq!(profiler.snapshot().total_self_ns(), 42_000);
    }
}
