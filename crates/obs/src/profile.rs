//! Op-level execution profiler: one [`ProfileSink`] table per plan, with
//! flamegraph / Chrome-trace / JSON exports and a fusion-group hotness
//! ranking.
//!
//! The tracing side of this crate stops at `exec -> batch[i]` spans; this
//! module opens the box below the batch level. Executors attribute wall
//! self-time, invocation counts and FLOP/byte estimates to every op —
//! keyed by `(plan, fusion group, node)` — into the plan's table, which
//! [`Profiler::sink`] binds once per label (a service binds it when a
//! model loads) and every thread running the plan shares. A snapshot (a
//! scrape, a report) copies the tables, and the copy's wall time is itself
//! accounted (`tssa_obs_profile_merge_us`) so the profiler's own overhead
//! is visible in the exposition it feeds.
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
use crate::lock;
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

/// One plan's profile table, shared by every thread that runs the plan:
/// [`Profiler::sink`] returns the same table for the same label. The lock
/// recovers from poison, so a thread that panics mid-record leaves the
/// table recording and readable.
#[derive(Default)]
pub struct ProfileSink {
    table: Mutex<HashMap<(u32, u32), OpStat>>,
}

impl ProfileSink {
    /// Record one execution of op `node` in fusion group `group`. `op_name`
    /// is only invoked the first time this site is seen, so steady-state
    /// recording never allocates a name.
    pub fn record(
        &self,
        group: u32,
        node: u32,
        wall_ns: u64,
        bytes: u64,
        flops: u64,
        op_name: impl FnOnce() -> String,
    ) {
        lock(&self.table)
            .entry((group, node))
            .or_insert_with(|| OpStat {
                op: op_name(),
                ..OpStat::default()
            })
            .observe(wall_ns, bytes, flops);
    }
}

struct ProfilerInner {
    /// One table per plan label.
    plans: Mutex<HashMap<Arc<str>, Arc<ProfileSink>>>,
    sampler: Option<Sampler>,
    runs: AtomicU64,
    merges: AtomicU64,
    merge_us: AtomicU64,
}

/// The plan tables plus the sampling decision. Cheap to clone (shared
/// interior); one per service / tool run.
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
                plans: Mutex::new(HashMap::new()),
                sampler,
                runs: AtomicU64::new(0),
                merges: AtomicU64::new(0),
                merge_us: AtomicU64::new(0),
            }),
        }
    }

    /// The table of plan `plan`, made on first use. Every caller naming
    /// the same label records into the same table, and the profiler keeps
    /// it, so samples outlive every handle to it.
    pub fn sink(&self, plan: &str) -> Arc<ProfileSink> {
        Arc::clone(lock(&self.inner.plans).entry(Arc::from(plan)).or_default())
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

    /// Copy every plan table into a point-in-time snapshot sorted by
    /// self-time (descending). Tables are never reset: successive
    /// snapshots are monotone non-decreasing.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let started = Instant::now();
        let mut entries = Vec::new();
        for (plan, table) in lock(&self.inner.plans).iter() {
            for (&(group, node), stat) in lock(&table.table).iter() {
                let plan = Arc::clone(plan);
                entries.push((OpKey { plan, group, node }, stat.clone()));
            }
        }
        entries.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(&b.0)));
        let copy_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        ProfileSnapshot {
            entries,
            merges: self.inner.merges.fetch_add(1, Ordering::Relaxed) + 1,
            merge_us: self.inner.merge_us.fetch_add(copy_us, Ordering::Relaxed) + copy_us,
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
    /// Snapshots taken so far (including this one).
    pub merges: u64,
    /// Cumulative wall time spent copying tables into snapshots,
    /// microseconds.
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
    /// (aggregated over node ids) plus the profiler's own snapshot cost
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
            "Cumulative wall time spent copying profile tables into snapshots (µs)",
            &[],
            self.merge_us,
        );
        registry.set_counter(
            "tssa_obs_profile_merges_total",
            "Profile snapshots taken",
            &[],
            self.merges,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_and_snapshot_sorts_by_self_time() {
        let profiler = Profiler::new();
        let sink = profiler.sink("lstm");
        sink.record(3, 10, 5_000_000, 64, 128, || "matmul".into());
        sink.record(3, 10, 3_000_000, 64, 128, || {
            panic!("name closure must not run for a known site")
        });
        sink.record(TOP_LEVEL_GROUP, 2, 1_000_000, 8, 0, || "add".into());
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
        let sink = profiler.sink("ssd");
        sink.record(1, 1, 500, 0, 0, || "mul".into());
        let first = profiler.snapshot().total_self_ns();
        let mid = profiler.snapshot().total_self_ns();
        sink.record(1, 1, 700, 0, 0, || "mul".into());
        let last = profiler.snapshot().total_self_ns();
        assert_eq!(first, 500);
        assert_eq!(mid, 500, "a snapshot must not reset the table");
        assert_eq!(last, 1_200);
    }

    #[test]
    fn collapsed_lines_parse_as_collapsed_stack() {
        let profiler = Profiler::new();
        let sink = profiler.sink("yolo v3"); // space must be sanitized in frames
        sink.record(7, 4, 2_000, 0, 0, || "conv2d".into());
        sink.record(TOP_LEVEL_GROUP, 9, 9_000, 0, 0, || "relu".into());
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
        let sink = profiler.sink("attention");
        sink.record(2, 1, 6_000, 0, 10, || "matmul".into());
        sink.record(2, 2, 1_000, 0, 0, || "softmax".into());
        sink.record(5, 3, 3_000, 0, 0, || "matmul".into());
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
        let sink = profiler.sink("fcos");
        for node in 0..10 {
            sink.record(1, node, 1_000, 4, 2, || format!("op\"{node}\""));
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
    fn handles_of_one_plan_share_one_table_that_outlives_them() {
        let profiler = Profiler::new();
        let first = profiler.sink("seq2seq");
        let second = profiler.sink("seq2seq");
        assert!(Arc::ptr_eq(&first, &second));
        first.record(1, 1, 42_000, 0, 0, || "add".into());
        second.record(1, 1, 8_000, 0, 0, || panic!("one table: the site is known"));
        profiler
            .sink("lstm")
            .record(1, 1, 1_000, 0, 0, || "mul".into());
        // A retired worker drops its handle; the profiler keeps the table.
        drop(first);
        let snap = profiler.snapshot();
        assert_eq!(snap.entries.len(), 2, "one site per plan");
        assert_eq!(
            (&*snap.entries[0].0.plan, snap.entries[0].1.count),
            ("seq2seq", 2)
        );
        assert_eq!(snap.total_self_ns(), 51_000);
        assert_eq!(profiler.snapshot().total_self_ns(), 51_000, "no reset");
    }

    #[test]
    fn a_panic_under_the_table_lock_leaves_it_recording_and_readable() {
        let profiler = Profiler::new();
        let table = profiler.sink("yolact");
        let crashing = Arc::clone(&table);
        let crashed = std::thread::spawn(move || {
            crashing.record(2, 7, 900, 0, 0, || panic!("op name lookup failed"));
        })
        .join();
        assert!(crashed.is_err(), "the name closure panicked under the lock");
        table.record(2, 7, 500, 16, 4, || "softmax".into());
        let snap = profiler.snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0].1.op, "softmax");
        assert_eq!(snap.entries[0].1.count, 1);
        assert_eq!(snap.total_self_ns(), 500);
    }
}
