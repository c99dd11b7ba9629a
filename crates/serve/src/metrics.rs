//! Service observability: the handles the service records into and the
//! typed snapshot read back from them.
//!
//! The service's [`MetricsRegistry`] is the only metrics store. `Metrics`
//! registers each request, recovery and batching series once — one name,
//! one help string — and keeps the atomic handle, so recording on the hot
//! path is one relaxed increment and the exposition is always current.
//! [`MetricsSnapshot`] is a typed read of those handles. Values owned by
//! another component (the plan cache's and plan store's counters) or derived
//! at read time (throughput, mean occupancy) are written through to the
//! registry by the same read, so the snapshot and the exposition agree.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tssa_obs::{Counter, Gauge, HistogramMetric, MetricsRegistry};
use tssa_store::StoreStats;

use crate::cache::CacheStats;

/// Live series owned by the service; see [`Metrics::snapshot`].
pub(crate) struct Metrics {
    started: Instant,
    /// The registry every series of the service lives in.
    pub(crate) registry: MetricsRegistry,
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) shed_queue_full: Counter,
    pub(crate) shed_deadline: Counter,
    pub(crate) exec_failures: Counter,
    pub(crate) canceled: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) requeues: Counter,
    pub(crate) worker_respawns: Counter,
    /// Faults fired at service sites only. The exported
    /// `tssa_faults_injected_total` adds the cache's poisoned hits, so it is
    /// written through at read time rather than incremented here.
    faults_injected: AtomicU64,
    pub(crate) latency: HistogramMetric,
    batches: Counter,
    batched_requests: AtomicU64,
    max_batch_seen: AtomicU64,
    /// `tssa_queue_wait_us`; the autoscaler reads the same series back from
    /// the registry.
    pub(crate) queue_wait: HistogramMetric,
    /// `tssa_pool_workers`, set by grow and shrink.
    pub(crate) workers: Gauge,
}

impl Metrics {
    /// Register the service's series in `registry`; `started` anchors
    /// throughput computation.
    pub(crate) fn new(registry: &MetricsRegistry) -> Metrics {
        let counter = |name, help| registry.counter(name, help, &[]);
        Metrics {
            started: Instant::now(),
            registry: registry.clone(),
            submitted: counter(
                "tssa_requests_submitted_total",
                "Requests presented to admission",
            ),
            completed: counter(
                "tssa_requests_completed_total",
                "Requests completed successfully",
            ),
            shed_queue_full: counter(
                "tssa_requests_shed_queue_full_total",
                "Requests shed at admission (queue full)",
            ),
            shed_deadline: counter(
                "tssa_requests_shed_deadline_total",
                "Requests expired before execution",
            ),
            exec_failures: counter(
                "tssa_requests_exec_failures_total",
                "Requests failed in the backend",
            ),
            canceled: counter(
                "tssa_requests_canceled_total",
                "Requests canceled by shutdown or worker loss",
            ),
            timeouts: counter(
                "tssa_requests_timeout_total",
                "Requests abandoned past deadline + grace",
            ),
            requeues: counter(
                "tssa_batch_requeues_total",
                "Batches retried after a worker panic",
            ),
            worker_respawns: counter(
                "tssa_worker_respawns_total",
                "Worker panics recovered in place",
            ),
            faults_injected: AtomicU64::new(0),
            batches: counter("tssa_batches_total", "Batches executed by workers"),
            latency: registry.histogram(
                "tssa_request_latency_us",
                "End-to-end request latency (power-of-two buckets, µs)",
                &[],
            ),
            batched_requests: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
            queue_wait: registry.histogram(
                "tssa_queue_wait_us",
                "Admission-to-execution queue wait (power-of-two buckets, µs)",
                &[],
            ),
            workers: registry.gauge(
                "tssa_pool_workers",
                "Active executor workers (autoscaler grow/shrink adjusts this)",
                &[],
            ),
        }
    }

    pub(crate) fn note_fault(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch_seen
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time read of every series, folding in
    /// the plan cache's and the persistent plan store's counters. What the
    /// registry does not own is written through to it here — the one place
    /// those series get their name and help string.
    pub(crate) fn snapshot(&self, cache: CacheStats, disk: StoreStats) -> MetricsSnapshot {
        let elapsed = self.started.elapsed();
        let completed = self.completed.get();
        let batches = self.batches.get();
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        let snap = MetricsSnapshot {
            submitted: self.submitted.get(),
            completed,
            shed_queue_full: self.shed_queue_full.get(),
            shed_deadline: self.shed_deadline.get(),
            exec_failures: self.exec_failures.get(),
            canceled: self.canceled.get(),
            timeouts: self.timeouts.get(),
            requeues: self.requeues.get(),
            worker_respawns: self.worker_respawns.get(),
            // Cache-site faults (poisoned hits) are counted by the cache
            // itself; fold them in so one counter covers the whole plan.
            faults_injected: self.faults_injected.load(Ordering::Relaxed) + cache.poisoned,
            throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_us: self.latency.quantile(0.50),
            p95_us: self.latency.quantile(0.95),
            p99_us: self.latency.quantile(0.99),
            latency_buckets: self.latency.cumulative_buckets(),
            latency_sum_us: self.latency.sum(),
            latency_count: self.latency.count(),
            batches,
            avg_batch_occupancy: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            max_batch: self.max_batch_seen.load(Ordering::Relaxed),
            cache,
            disk,
            elapsed,
        };
        for (name, help, value) in [
            (
                "tssa_faults_injected_total",
                "Faults injected by the armed fault plan",
                snap.faults_injected,
            ),
            ("tssa_plan_cache_hits_total", "Plan cache hits", cache.hits),
            (
                "tssa_plan_cache_misses_total",
                "Plan cache misses (compilations)",
                cache.misses,
            ),
            (
                "tssa_plan_cache_coalesced_total",
                "Lookups coalesced onto in-flight compilations",
                cache.coalesced,
            ),
            (
                "tssa_plan_cache_evictions_total",
                "Plans evicted to stay within capacity",
                cache.evictions,
            ),
            (
                "tssa_plan_cache_class_hits_total",
                "Cache hits a shape class admitted at a signature other than its example",
                cache.class_hits,
            ),
            (
                "tssa_plan_cache_disk_hits_total",
                "Plans loaded intact from the persistent store (compilation bypassed)",
                disk.disk_hits,
            ),
            (
                "tssa_plan_cache_disk_misses_total",
                "Persistent-store lookups that found no entry",
                disk.disk_misses,
            ),
            (
                "tssa_plan_cache_disk_corrupt_total",
                "Damaged store entries evicted (bad magic/truncated/checksum/parse)",
                disk.corrupt_evicted,
            ),
            (
                "tssa_plan_cache_disk_stale_total",
                "Stale store entries evicted (version or pass-roster mismatch)",
                disk.stale_evicted,
            ),
            (
                "tssa_plan_cache_disk_writes_total",
                "Plans written back to the persistent store",
                disk.writes,
            ),
        ] {
            self.registry.set_counter(name, help, &[], value);
        }
        for (name, help, value) in [
            (
                "tssa_throughput_rps",
                "Completed requests per second since start",
                snap.throughput_rps,
            ),
            (
                "tssa_batch_occupancy_avg",
                "Mean requests coalesced per batch",
                snap.avg_batch_occupancy,
            ),
            (
                "tssa_batch_max",
                "Largest batch executed",
                snap.max_batch as f64,
            ),
            (
                "tssa_plan_cache_entries",
                "Ready plans resident",
                cache.entries as f64,
            ),
        ] {
            self.registry.set_gauge(name, help, &[], value);
        }
        snap
    }
}

/// Point-in-time service metrics; `Display` renders a human report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests presented to admission (accepted or shed).
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed at admission because the queue was full.
    pub shed_queue_full: u64,
    /// Requests timed out before execution.
    pub shed_deadline: u64,
    /// Requests that reached a worker but failed in the backend.
    pub exec_failures: u64,
    /// Requests canceled by shutdown or worker loss.
    pub canceled: u64,
    /// Requests abandoned by their waiter past deadline + grace
    /// ([`crate::ServeError::Timeout`]). Timed-out loads are reported to
    /// the caller synchronously and, like load compile errors, not counted
    /// here.
    pub timeouts: u64,
    /// Batches retried after their worker panicked mid-execution (each
    /// batch is retried at most once).
    pub requeues: u64,
    /// Worker panics recovered in place (the worker retries or cancels the
    /// batch and keeps serving on the same thread).
    pub worker_respawns: u64,
    /// Faults injected by the armed [`crate::FaultPlan`] across every site
    /// (0 in production configurations).
    pub faults_injected: u64,
    /// Completed requests per second since service start.
    pub throughput_rps: f64,
    /// Median end-to-end latency (bucket upper bound, µs).
    pub p50_us: u64,
    /// 95th-percentile latency (bucket upper bound, µs).
    pub p95_us: u64,
    /// 99th-percentile latency (bucket upper bound, µs).
    pub p99_us: u64,
    /// Latency histogram as `(upper bound µs, cumulative count)`, ascending
    /// (trailing empty buckets elided).
    pub latency_buckets: Vec<(u64, u64)>,
    /// Sum of all recorded latencies, µs.
    pub latency_sum_us: u64,
    /// Latency samples recorded (successful completions).
    pub latency_count: u64,
    /// Batches executed by workers.
    pub batches: u64,
    /// Mean requests coalesced per batch.
    pub avg_batch_occupancy: f64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Persistent plan-store counters (all zero when no `--cache-dir` /
    /// [`crate::ServeConfig::with_plan_store`] is configured).
    pub disk: StoreStats,
    /// Time since the service started.
    pub elapsed: Duration,
}

impl MetricsSnapshot {
    /// Requests that left the service with *some* terminal outcome.
    pub fn resolved(&self) -> u64 {
        self.completed
            + self.shed_queue_full
            + self.shed_deadline
            + self.exec_failures
            + self.canceled
            + self.timeouts
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve metrics ({:.2}s):", self.elapsed.as_secs_f64())?;
        writeln!(
            f,
            "  requests   submitted {:>8}  completed {:>8}  ({:.1} req/s)",
            self.submitted, self.completed, self.throughput_rps
        )?;
        writeln!(
            f,
            "  shed       queue-full {:>7}  deadline {:>9}  exec-failed {:>4}  canceled {:>4}  timeout {:>4}",
            self.shed_queue_full, self.shed_deadline, self.exec_failures, self.canceled, self.timeouts
        )?;
        writeln!(
            f,
            "  recovery   requeues {:>9}  respawns {:>7}  faults {:>5}",
            self.requeues, self.worker_respawns, self.faults_injected
        )?;
        writeln!(
            f,
            "  latency    p50 {:>8}us  p95 {:>8}us  p99 {:>8}us",
            self.p50_us, self.p95_us, self.p99_us
        )?;
        writeln!(
            f,
            "  batching   batches {:>8}  avg occupancy {:>5.2}  max {:>3}",
            self.batches, self.avg_batch_occupancy, self.max_batch
        )?;
        writeln!(
            f,
            "  plan cache hits {:>8}  misses {:>6}  coalesced {:>5}  evictions {:>4}  resident {:>3}",
            self.cache.hits, self.cache.misses, self.cache.coalesced, self.cache.evictions, self.cache.entries
        )?;
        writeln!(f, "  shape class hits {:>7}", self.cache.class_hits)?;
        write!(
            f,
            "  disk store hits {:>8}  misses {:>6}  corrupt {:>7}  stale {:>7}  writes {:>5}",
            self.disk.disk_hits,
            self.disk.disk_misses,
            self.disk.corrupt_evicted,
            self.disk.stale_evicted,
            self.disk.writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(m: &Metrics, cache: CacheStats) -> MetricsSnapshot {
        m.snapshot(cache, StoreStats::default())
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let m = Metrics::new(&MetricsRegistry::new());
        m.record_batch(4);
        m.record_batch(2);
        let s = read(&m, CacheStats::default());
        assert_eq!(s.batches, 2);
        assert!((s.avg_batch_occupancy - 3.0).abs() < 1e-9);
        assert_eq!(s.max_batch, 4);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn snapshot_and_exposition_read_the_same_latency_histogram() {
        let registry = MetricsRegistry::new();
        let m = Metrics::new(&registry);
        for _ in 0..3 {
            m.latency.observe_duration_us(Duration::from_micros(100)); // le 128
        }
        let s = read(&m, CacheStats::default());
        assert_eq!((s.p50_us, s.p99_us), (128, 128));
        assert_eq!((s.latency_sum_us, s.latency_count), (300, 3));
        assert_eq!(s.latency_buckets.last(), Some(&(128, 3)));
        let text = registry.prometheus_text();
        assert!(text.contains("# TYPE tssa_request_latency_us histogram"));
        assert!(text.contains("tssa_request_latency_us_bucket{le=\"128\"} 3"));
        assert!(text.contains("tssa_request_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tssa_request_latency_us_sum 300"));
    }

    #[test]
    fn resolved_sums_terminal_outcomes() {
        let m = Metrics::new(&MetricsRegistry::new());
        m.completed.add(3);
        m.shed_queue_full.add(2);
        m.timeouts.inc();
        assert_eq!(read(&m, CacheStats::default()).resolved(), 6);
    }

    #[test]
    fn fault_and_recovery_counters_are_exported() {
        let registry = MetricsRegistry::new();
        let m = Metrics::new(&registry);
        m.requeues.inc();
        m.worker_respawns.inc();
        (0..3).for_each(|_| m.note_fault());
        let cache = CacheStats {
            poisoned: 2,
            ..CacheStats::default()
        };
        let s = read(&m, cache);
        // Cache-site poison fires fold into the single fault counter.
        assert_eq!(s.faults_injected, 5);
        let text = registry.prometheus_text();
        for needle in [
            "tssa_batch_requeues_total 1",
            "tssa_worker_respawns_total 1",
            "tssa_faults_injected_total 5",
            "tssa_requests_timeout_total 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert!(s.to_string().contains("recovery"));
    }
}
