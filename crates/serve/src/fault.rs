//! Deterministic fault injection for the serving engine.
//!
//! A [`FaultPlan`] is a *schedule*: for each injectable [`FaultKind`] it
//! holds the set of arrival indices (the Nth time execution reaches that
//! fault site) at which the fault fires. Schedules are either scripted
//! explicitly ([`FaultPlan::at`]) or derived from a seed
//! ([`FaultPlan::seeded`] + [`FaultPlan::with_rate`]), so a chaos run is
//! reproducible: the same seed injects the same faults at the same
//! arrivals, no matter how threads interleave.
//!
//! The service consults the plan through the [`Faults`] seam — a cloneable
//! `Option<Arc<FaultPlan>>`. The disabled seam (the default) is a single
//! `None` check per site, so production configurations pay nothing.
//!
//! Fault sites and the recovery machinery each one exercises:
//!
//! | kind | site | exercises |
//! |---|---|---|
//! | [`FaultKind::WorkerPanic`] | worker, mid-batch | recovery in place: retry once, then `Canceled` |
//! | [`FaultKind::CompileStall`] | plan compilation | load deadline → [`crate::ServeError::Timeout`] |
//! | [`FaultKind::CachePoison`] | plan-cache hit | poisoned-entry eviction + recompile |
//! | [`FaultKind::QueueFullBurst`] | admission | typed shed: [`crate::ServeError::QueueFull`] |
//! | [`FaultKind::SlowExec`] | worker, pre-exec | deadline shed, ticket-side timeout |
//! | [`FaultKind::CompilePanic`] | plan compilation | single-flight unwind → typed error, follower wakeup |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Panic payload used by injected worker panics, so test panic hooks can
/// distinguish scheduled chaos from genuine bugs.
pub const INJECTED_PANIC: &str = "tssa-serve injected fault: worker panic";

/// Panic payload used by injected compile panics (shares the
/// `tssa-serve injected fault` prefix with [`INJECTED_PANIC`] so one hook
/// filter silences both).
pub(crate) const INJECTED_COMPILE_PANIC: &str = "tssa-serve injected fault: compile panic";

/// Shared prefix of every injected-fault panic payload.
const INJECTED_PREFIX: &str = "tssa-serve injected fault";

/// Install (once, process-wide) a panic hook that keeps *injected* fault
/// panics — payloads carrying the [`INJECTED_PANIC`] /
/// [`INJECTED_COMPILE_PANIC`] prefix — out of test output, while forwarding
/// every other panic to the previously installed hook. Chaos harnesses call
/// this so scheduled panics do not drown genuine failures.
pub fn silence_injected_panics_for_tests() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_PREFIX));
            if !injected {
                default(info);
            }
        }));
    });
}

/// The faults the serving engine knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The worker thread panics mid-batch (after dequeuing, before
    /// completing its requests).
    WorkerPanic,
    /// Plan compilation stalls for [`FaultPlan::with_stall`].
    CompileStall,
    /// A plan-cache hit returns a poisoned entry; the cache detects it,
    /// evicts, and recompiles.
    CachePoison,
    /// Admission sheds the request as if the queue were full.
    QueueFullBurst,
    /// The executor sleeps for [`FaultPlan::with_slow_exec`] before running.
    SlowExec,
    /// Plan compilation panics mid-flight (leader of a single-flight
    /// compile unwinds; the cache converts the unwind into
    /// [`crate::ServeError::CompilePanic`] and wakes the followers).
    CompilePanic,
}

/// Number of fault kinds (schedule/counter array length).
const KINDS: usize = 6;

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; KINDS] = [
        FaultKind::WorkerPanic,
        FaultKind::CompileStall,
        FaultKind::CachePoison,
        FaultKind::QueueFullBurst,
        FaultKind::SlowExec,
        FaultKind::CompilePanic,
    ];

    /// Stable snake_case name (span markers, metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::CompileStall => "compile_stall",
            FaultKind::CachePoison => "cache_poison",
            FaultKind::QueueFullBurst => "queue_full_burst",
            FaultKind::SlowExec => "slow_exec",
            FaultKind::CompilePanic => "compile_panic",
        }
    }

    /// Position in [`FaultKind::ALL`], which is declaration order (usable
    /// as an array index). Seeded schedules derive from it, so a new kind
    /// goes last.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a fault site must do when its fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Panic with [`INJECTED_PANIC`].
    Panic,
    /// Sleep for the given duration, then proceed.
    Stall(Duration),
    /// Treat the cache entry as corrupt: evict and recompile.
    Poison,
    /// Shed the request as if the queue were full.
    Shed,
}

/// splitmix64: the tiny deterministic generator behind seeded schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded schedule of injectable faults. See the module
/// docs for the fault sites. Build one, then hand it to
/// [`crate::ServeConfig::with_faults`]; keep a [`Faults`] clone
/// ([`FaultPlan::faults`]) to reconcile injected counts afterwards.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per kind: sorted arrival indices at which the fault fires.
    schedule: [Vec<u64>; KINDS],
    /// Per kind: arrivals observed at the fault site.
    hits: [AtomicU64; KINDS],
    /// Per kind: arrivals at which the fault actually fired.
    injected: [AtomicU64; KINDS],
    stall: Duration,
    slow: Duration,
}

impl FaultPlan {
    /// An empty plan (no fault ever fires) carrying `seed` for
    /// [`FaultPlan::with_rate`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            schedule: Default::default(),
            hits: Default::default(),
            injected: Default::default(),
            stall: Duration::from_millis(1),
            slow: Duration::from_millis(1),
        }
    }

    /// An empty scripted plan; add fault occurrences with [`FaultPlan::at`].
    pub fn script() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// Fire `kind` at the `occurrence`-th arrival (0-based) of its site.
    #[must_use]
    pub fn at(mut self, kind: FaultKind, occurrence: u64) -> FaultPlan {
        let slot = &mut self.schedule[kind.index()];
        if let Err(pos) = slot.binary_search(&occurrence) {
            slot.insert(pos, occurrence);
        }
        self
    }

    /// Fire `kind` independently with probability `rate` at each of the
    /// first `horizon` arrivals. The sub-schedule is a pure function of the
    /// plan seed and the kind, so call order does not matter.
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, rate: f64, horizon: u64) -> FaultPlan {
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(kind.index() as u64 + 1);
        let threshold = (rate.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64;
        let mut occurrences = Vec::new();
        for i in 0..horizon {
            if (splitmix64(&mut state) >> 11) < threshold {
                occurrences.push(i);
            }
        }
        self.schedule[kind.index()] = occurrences;
        self
    }

    /// Set the [`FaultKind::CompileStall`] duration.
    #[must_use]
    pub fn with_stall(mut self, d: Duration) -> FaultPlan {
        self.stall = d;
        self
    }

    /// Set the [`FaultKind::SlowExec`] duration.
    #[must_use]
    pub fn with_slow_exec(mut self, d: Duration) -> FaultPlan {
        self.slow = d;
        self
    }

    /// Wrap the finished plan in the [`Faults`] seam.
    pub fn faults(self) -> Faults {
        Faults(Some(Arc::new(self)))
    }

    /// Record one arrival at `kind`'s site; `Some(action)` when the
    /// schedule says this arrival is faulted.
    pub(crate) fn fire(&self, kind: FaultKind) -> Option<FaultAction> {
        let i = kind.index();
        let arrival = self.hits[i].fetch_add(1, Ordering::Relaxed);
        if self.schedule[i].binary_search(&arrival).is_err() {
            return None;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(match kind {
            FaultKind::WorkerPanic => FaultAction::Panic,
            FaultKind::CompileStall => FaultAction::Stall(self.stall),
            FaultKind::CachePoison => FaultAction::Poison,
            FaultKind::QueueFullBurst => FaultAction::Shed,
            FaultKind::SlowExec => FaultAction::Stall(self.slow),
            FaultKind::CompilePanic => FaultAction::Panic,
        })
    }

    /// Arrivals observed at `kind`'s site so far.
    pub fn arrivals(&self, kind: FaultKind) -> u64 {
        self.hits[kind.index()].load(Ordering::Relaxed)
    }

    /// Faults of `kind` actually fired so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Faults fired so far, across all kinds.
    pub fn injected_total(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.injected(k)).sum()
    }

    /// Scheduled occurrences of `kind` (for reconciling against a horizon).
    pub fn scheduled(&self, kind: FaultKind) -> &[u64] {
        &self.schedule[kind.index()]
    }
}

/// The zero-cost-when-disabled seam the service threads through its hot
/// paths. `Faults::default()` (or [`Faults::disabled`]) never fires and
/// costs one branch per site; [`FaultPlan::faults`] arms it.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// The never-firing seam.
    pub fn disabled() -> Faults {
        Faults(None)
    }

    /// Whether a plan is armed.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Consult the plan (no-op returning `None` when disabled).
    #[inline]
    pub(crate) fn fire(&self, kind: FaultKind) -> Option<FaultAction> {
        match &self.0 {
            None => None,
            Some(plan) => plan.fire(kind),
        }
    }

    /// The armed plan, if any (chaos harnesses reconcile against it).
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn scripted_plan_fires_at_exact_occurrences() {
        let faults = FaultPlan::script()
            .at(FaultKind::WorkerPanic, 1)
            .at(FaultKind::WorkerPanic, 3)
            .faults();
        let fired: Vec<bool> = (0..5)
            .map(|_| faults.fire(FaultKind::WorkerPanic).is_some())
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        let plan = faults.plan().unwrap();
        assert_eq!(plan.arrivals(FaultKind::WorkerPanic), 5);
        assert_eq!(plan.injected(FaultKind::WorkerPanic), 2);
        assert_eq!(plan.injected_total(), 2);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_seed_sensitive() {
        let mk = |seed| {
            FaultPlan::seeded(seed)
                .with_rate(FaultKind::SlowExec, 0.5, 64)
                .scheduled(FaultKind::SlowExec)
                .to_vec()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
        let n = mk(7).len();
        assert!((8..56).contains(&n), "rate 0.5 over 64 arrivals, got {n}");
    }

    #[test]
    fn rate_extremes_cover_none_and_all() {
        let never = FaultPlan::seeded(1).with_rate(FaultKind::CachePoison, 0.0, 32);
        assert!(never.scheduled(FaultKind::CachePoison).is_empty());
        let always = FaultPlan::seeded(1).with_rate(FaultKind::CachePoison, 1.0, 32);
        assert_eq!(always.scheduled(FaultKind::CachePoison).len(), 32);
    }

    #[test]
    fn disabled_seam_never_fires() {
        let faults = Faults::disabled();
        assert!(!faults.enabled());
        for kind in FaultKind::ALL {
            assert_eq!(faults.fire(kind), None);
        }
        assert!(faults.plan().is_none());
    }

    #[test]
    fn actions_carry_configured_durations() {
        let faults = FaultPlan::script()
            .at(FaultKind::CompileStall, 0)
            .at(FaultKind::SlowExec, 0)
            .with_stall(Duration::from_millis(7))
            .with_slow_exec(Duration::from_millis(9))
            .faults();
        assert_eq!(
            faults.fire(FaultKind::CompileStall),
            Some(FaultAction::Stall(Duration::from_millis(7)))
        );
        assert_eq!(
            faults.fire(FaultKind::SlowExec),
            Some(FaultAction::Stall(Duration::from_millis(9)))
        );
    }

    #[test]
    fn kind_names_are_stable() {
        for kind in FaultKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(kind
                .name()
                .chars()
                .all(|c| c == '_' || c.is_ascii_lowercase()));
        }
    }
}
