//! Registry-driven worker autoscaling.
//!
//! The autoscaler closes a feedback loop that already half-exists in the
//! stack: the worker that takes a request records its admission-to-execution
//! wait into the `tssa_queue_wait_us` histogram; the pool can now
//! [`grow`](tssa_serve::Service::grow) and
//! [`shrink`](tssa_serve::Service::shrink) safely. The autoscaler reads
//! the *live* histogram — not a snapshot export — by diffing its
//! cumulative buckets each tick, computes the p99 queue wait over just
//! that window, and steps the pool between `min_workers` and
//! `max_workers`.
//!
//! Two dampers keep the loop from flapping:
//!
//! - **Hysteresis**: scaling needs `high_ticks` consecutive ticks over the
//!   high watermark (or `low_ticks` under the low one) — a single noisy
//!   window moves nothing. The watermarks themselves are split
//!   (`high_water_us` > `low_water_us`) so the system is not chasing a
//!   single set point.
//! - **Cooldown**: after any scaling action the controller holds for
//!   `cooldown_ticks`, long enough for the previous action's effect to
//!   show up in the queue-wait signal it is reacting to.
//!
//! The decision logic lives in the pure [`ScaleController`] (unit-testable
//! without threads or clocks); [`Autoscaler`] is the thin thread that
//! feeds it real histogram windows on a timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tssa_serve::Service;

/// Autoscaling policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Never shrink below this many workers.
    pub min_workers: usize,
    /// Never grow above this many workers.
    pub max_workers: usize,
    /// Window p99 queue wait (µs) above which the pool wants to grow.
    pub high_water_us: u64,
    /// Window p99 queue wait (µs) below which the pool wants to shrink.
    pub low_water_us: u64,
    /// Consecutive over-watermark ticks required before growing.
    pub high_ticks: u32,
    /// Consecutive under-watermark ticks required before shrinking.
    pub low_ticks: u32,
    /// Ticks to hold after any scaling action.
    pub cooldown_ticks: u32,
    /// Tick period.
    pub tick: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            min_workers: 1,
            max_workers: 8,
            high_water_us: 2_000,
            low_water_us: 200,
            high_ticks: 2,
            low_ticks: 10,
            cooldown_ticks: 5,
            tick: Duration::from_millis(100),
        }
    }
}

/// What the controller wants done after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    /// Add one worker.
    Grow,
    /// Retire one worker.
    Shrink,
    /// Do nothing this tick.
    Hold,
}

/// The pure scaling policy: feed it one histogram window per tick.
#[derive(Debug)]
pub(crate) struct ScaleController {
    config: AutoscaleConfig,
    /// Cumulative buckets at the previous tick, for windowed deltas.
    prev: Vec<(u64, u64)>,
    high_streak: u32,
    low_streak: u32,
    cooldown: u32,
    /// The last window's p99 (µs), for observability.
    window_p99_us: u64,
}

impl ScaleController {
    /// A controller with no history (first window counts from zero).
    pub(crate) fn new(config: AutoscaleConfig) -> ScaleController {
        ScaleController {
            config,
            prev: Vec::new(),
            high_streak: 0,
            low_streak: 0,
            cooldown: 0,
            window_p99_us: 0,
        }
    }

    /// The p99 queue wait of the most recent window (µs). Zero when the
    /// window was empty.
    pub(crate) fn window_p99_us(&self) -> u64 {
        self.window_p99_us
    }

    /// Observe this tick's cumulative histogram buckets (as returned by
    /// [`tssa_obs::HistogramMetric::cumulative_buckets`]) and the current
    /// active worker count; decide.
    pub(crate) fn observe(&mut self, buckets: &[(u64, u64)], active: usize) -> ScaleDecision {
        self.window_p99_us = window_p99(&self.prev, buckets);
        self.prev = buckets.to_vec();
        if self.cooldown > 0 {
            self.cooldown -= 1;
            // Streaks do not accumulate during cooldown: the signal still
            // reflects the pre-action pool.
            self.high_streak = 0;
            self.low_streak = 0;
            return ScaleDecision::Hold;
        }
        if self.window_p99_us > self.config.high_water_us {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if self.window_p99_us < self.config.low_water_us {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            // Between the watermarks: the dead band. Hold position.
            self.high_streak = 0;
            self.low_streak = 0;
        }
        if self.high_streak >= self.config.high_ticks && active < self.config.max_workers {
            self.high_streak = 0;
            self.cooldown = self.config.cooldown_ticks;
            return ScaleDecision::Grow;
        }
        if self.low_streak >= self.config.low_ticks && active > self.config.min_workers {
            self.low_streak = 0;
            self.cooldown = self.config.cooldown_ticks;
            return ScaleDecision::Shrink;
        }
        ScaleDecision::Hold
    }
}

/// The p99 of the histogram window between two cumulative snapshots.
/// An empty window (no new samples) reads as 0 — idle.
fn window_p99(prev: &[(u64, u64)], now: &[(u64, u64)]) -> u64 {
    let prev_at = |bound: u64| -> u64 {
        prev.iter()
            .find(|(b, _)| *b == bound)
            .map_or(0, |(_, c)| *c)
    };
    // Per-bucket window counts (cumulative-to-cumulative difference of
    // cumulative counts is itself cumulative; diff against prev first).
    let window: Vec<(u64, u64)> = now
        .iter()
        .map(|(bound, cum)| (*bound, cum.saturating_sub(prev_at(*bound))))
        .collect();
    let total = window.last().map_or(0, |(_, c)| *c);
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * 0.99).ceil() as u64;
    for (bound, cum) in &window {
        if *cum >= rank {
            return *bound;
        }
    }
    window.last().map_or(0, |(b, _)| *b)
}

/// The autoscaler thread: drives a [`ScaleController`] off the service's
/// live `tssa_queue_wait_us` histogram and applies its decisions.
pub struct Autoscaler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Autoscaler {
    /// Start autoscaling `service` under `config`. The service's pool
    /// should start within `[min_workers, max_workers]`; the autoscaler
    /// publishes `tssa_autoscaler_*` series into the service's registry.
    pub fn spawn(service: Arc<Service>, config: AutoscaleConfig) -> Autoscaler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        // A host that cannot start this one thread at start-up cannot
        // serve either; the panic is the report.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name("tssa-autoscaler".into())
            .spawn(move || run(&service, config, &thread_stop))
            .expect("spawn autoscaler thread");
        Autoscaler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the loop and join the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Autoscaler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(service: &Arc<Service>, config: AutoscaleConfig, stop: &AtomicBool) {
    let registry = service.registry();
    // The same shared handle the workers record into: reading it here
    // observes live traffic, not a point-in-time export.
    let queue_wait = registry.histogram(
        "tssa_queue_wait_us",
        "Admission-to-execution queue wait (power-of-two buckets, µs)",
        &[],
    );
    let workers_gauge = registry.gauge(
        "tssa_autoscaler_workers",
        "Active workers as seen by the autoscaler",
        &[],
    );
    let p99_gauge = registry.gauge(
        "tssa_autoscaler_window_p99_us",
        "p99 queue wait over the autoscaler's last tick window (µs)",
        &[],
    );
    let ups = registry.counter(
        "tssa_autoscaler_scale_ups_total",
        "Workers added by the autoscaler",
        &[],
    );
    let downs = registry.counter(
        "tssa_autoscaler_scale_downs_total",
        "Workers retired by the autoscaler",
        &[],
    );
    let mut controller = ScaleController::new(config);
    workers_gauge.set(service.worker_count() as f64);
    while !stop.load(Ordering::SeqCst) {
        // Sleep in small slices so stop() returns promptly even with slow
        // ticks.
        let mut slept = Duration::ZERO;
        while slept < config.tick && !stop.load(Ordering::SeqCst) {
            let slice = (config.tick - slept).min(Duration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let active = service.worker_count();
        // Count a decision before acting on it, so a reader who sees the
        // new pool size also sees the counter that explains it.
        match controller.observe(&queue_wait.cumulative_buckets(), active) {
            ScaleDecision::Grow => {
                ups.inc();
                service.grow(1);
            }
            ScaleDecision::Shrink => {
                downs.inc();
                service.shrink(1);
            }
            ScaleDecision::Hold => {}
        }
        p99_gauge.set(controller.window_p99_us() as f64);
        workers_gauge.set(service.worker_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            min_workers: 1,
            max_workers: 4,
            high_water_us: 1_000,
            low_water_us: 100,
            high_ticks: 2,
            low_ticks: 3,
            cooldown_ticks: 2,
            tick: Duration::from_millis(1),
        }
    }

    /// Cumulative buckets with `n` samples all at `bound` µs.
    fn all_at(bound: u64, n: u64) -> Vec<(u64, u64)> {
        vec![(bound / 2, 0), (bound, n)]
    }

    #[test]
    fn grows_only_after_consecutive_high_ticks() {
        let mut c = ScaleController::new(cfg());
        assert_eq!(c.observe(&all_at(4096, 10), 1), ScaleDecision::Hold);
        assert_eq!(c.window_p99_us(), 4096);
        // One calm window resets the streak.
        assert_eq!(c.observe(&all_at(4096, 10), 1), ScaleDecision::Hold);
        assert_eq!(c.window_p99_us(), 0, "no new samples → idle window");
        assert_eq!(c.observe(&all_at(4096, 20), 1), ScaleDecision::Hold);
        assert_eq!(c.observe(&all_at(4096, 30), 1), ScaleDecision::Grow);
    }

    #[test]
    fn cooldown_blocks_back_to_back_actions() {
        let mut c = ScaleController::new(cfg());
        let mut n = 10;
        let mut grow = || {
            n += 10;
            c.observe(&all_at(4096, n), 1)
        };
        assert_eq!(grow(), ScaleDecision::Hold);
        assert_eq!(grow(), ScaleDecision::Grow);
        // Cooldown: two held ticks even though the signal stays hot.
        assert_eq!(grow(), ScaleDecision::Hold);
        assert_eq!(grow(), ScaleDecision::Hold);
        // Then the streak must rebuild from zero.
        assert_eq!(grow(), ScaleDecision::Hold);
        assert_eq!(grow(), ScaleDecision::Grow);
    }

    #[test]
    fn shrinks_after_sustained_idle_but_never_below_min() {
        let mut c = ScaleController::new(cfg());
        let busy = all_at(4096, 50);
        c.observe(&busy, 2);
        // Idle windows: same cumulative counts, no new samples.
        assert_eq!(c.observe(&busy, 2), ScaleDecision::Hold);
        assert_eq!(c.observe(&busy, 2), ScaleDecision::Hold);
        assert_eq!(c.observe(&busy, 2), ScaleDecision::Shrink);
        // Cooldown, then rebuild the idle streak.
        assert_eq!(c.observe(&busy, 1), ScaleDecision::Hold);
        assert_eq!(c.observe(&busy, 1), ScaleDecision::Hold);
        for _ in 0..10 {
            // At min_workers the controller never shrinks again.
            assert_eq!(c.observe(&busy, 1), ScaleDecision::Hold);
        }
    }

    #[test]
    fn dead_band_between_watermarks_holds_position() {
        let mut c = ScaleController::new(cfg());
        let mut n = 0;
        for _ in 0..20 {
            n += 5;
            // 512µs: above low (100), below high (1000).
            assert_eq!(c.observe(&all_at(512, n), 2), ScaleDecision::Hold);
        }
    }

    #[test]
    fn never_grows_past_max_workers() {
        let mut c = ScaleController::new(cfg());
        let mut n = 0;
        for _ in 0..20 {
            n += 10;
            assert_eq!(c.observe(&all_at(8192, n), 4), ScaleDecision::Hold);
        }
    }

    #[test]
    fn window_p99_ranks_within_the_window_only() {
        // Previous totals: 100 fast samples. Window: 10 slow ones.
        let prev = vec![(64, 100), (8192, 100)];
        let now = vec![(64, 100), (8192, 110)];
        assert_eq!(window_p99(&prev, &now), 8192);
        // And with no history, the full histogram is the window.
        assert_eq!(window_p99(&[], &prev), 64);
    }
}
