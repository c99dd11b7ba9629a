//! The plan cache: one table of shape classes, bounded by one LRU, with
//! single-flight compilation.
//!
//! Every compiled plan is a [`ClassEntry`] indexed by its coarse class hash
//! ([`coarse_class_hash`](crate::coarse_class_hash): source, pipeline, rank
//! and dtype per argument, every dim erased). The pipeline is a
//! [`PipelineKind`](tssa_pipelines::PipelineKind), which `tssa-pipelines`
//! owns together with everything its name determines. A lookup returns the first
//! resident entry of its coarse hash whose class admits the concrete
//! signature. Compilation is the expensive step of serving a model (the
//! whole pipeline of conversion, optimization passes and fusion runs
//! again), so the cache guarantees two properties:
//!
//! * **single-flight** — one compile per coarse hash at a time. When M
//!   threads request an uncached plan concurrently, one runs the compiler;
//!   the others block on a condition variable and, once it publishes, share
//!   the result if its class admits them (counted as *coalesced*). A
//!   follower the new class does not admit leads its own compile next — so
//!   concurrent cold loads of one class-eligible program at different batch
//!   sizes compile once, while concurrent cold loads of one data-dependent
//!   program at different shapes compile one after another;
//! * **bounded residency** — at most `capacity` plans are resident;
//!   inserting past that evicts the least-recently-used entry (counted in
//!   [`CacheStats::evictions`]). Handles already holding an evicted entry
//!   keep serving it; the next load of its shape recompiles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use tssa_backend::RtValue;
use tssa_tensor::DType;

use crate::class::ClassEntry;
use crate::fault::{FaultKind, Faults};
use crate::ServeError;

/// Shape/dtype signature of one runtime argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgSig {
    /// A tensor of this shape and dtype.
    Tensor {
        /// Full shape, including the batch dimension.
        shape: Vec<usize>,
        /// Element type.
        dtype: DType,
    },
    /// A host integer.
    Int,
    /// A host float.
    Float,
    /// A host boolean.
    Bool,
    /// A host list of signatures.
    List(Vec<ArgSig>),
}

impl ArgSig {
    /// Signature of one runtime value.
    pub fn of(value: &RtValue) -> ArgSig {
        match value {
            RtValue::Tensor(t) => ArgSig::Tensor {
                shape: t.shape().to_vec(),
                dtype: t.dtype(),
            },
            RtValue::Int(_) => ArgSig::Int,
            RtValue::Float(_) => ArgSig::Float,
            RtValue::Bool(_) => ArgSig::Bool,
            RtValue::List(vs) => ArgSig::List(vs.iter().map(ArgSig::of).collect()),
        }
    }
}

/// Signature of an argument list (one [`ArgSig`] per argument).
pub fn signature_of(inputs: &[RtValue]) -> Vec<ArgSig> {
    inputs.iter().map(ArgSig::of).collect()
}

/// Monotonic counters exposed by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served immediately by a resident entry.
    pub hits: u64,
    /// Lookups that ran the compiler (or the disk probe standing in for it).
    pub misses: u64,
    /// Lookups that blocked on another thread's in-flight compilation and
    /// shared its result (single-flight coalescing).
    pub coalesced: u64,
    /// Resident entries discarded to stay within capacity.
    pub evictions: u64,
    /// Resident entries evicted because an injected
    /// [`FaultKind::CachePoison`] marked them corrupt on a hit (each one
    /// recompiles; always 0 without an armed fault plan).
    pub poisoned: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// The subset of [`CacheStats::hits`] served at a concrete signature
    /// other than the entry's example — admitted by its class's
    /// [`ShapeSignature`](tssa_ir::ShapeSignature) alone.
    pub class_hits: u64,
}

struct Resident {
    entry: Arc<ClassEntry>,
    last_used: u64,
}

/// The entries sharing one coarse hash, and whether a thread is compiling
/// into it right now.
#[derive(Default)]
struct Bucket {
    resident: Vec<Resident>,
    compiling: bool,
}

struct Inner {
    buckets: HashMap<u64, Bucket>,
    entries: usize,
    tick: u64,
}

impl Inner {
    /// Drop `coarse`'s bucket once it holds nothing and nobody compiles
    /// into it.
    fn prune(&mut self, coarse: u64) {
        if self
            .buckets
            .get(&coarse)
            .is_some_and(|b| b.resident.is_empty() && !b.compiling)
        {
            self.buckets.remove(&coarse);
        }
    }
}

/// See the module documentation.
pub struct PlanCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
    faults: Faults,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    poisoned: AtomicU64,
    class_hits: AtomicU64,
}

impl PlanCache {
    /// A cache retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::with_faults(capacity, Faults::disabled())
    }

    /// As [`PlanCache::new`], consulting `faults` on every hit: an injected
    /// [`FaultKind::CachePoison`] makes the hit behave as if the entry were
    /// corrupt — it is evicted (counted in [`CacheStats::poisoned`]) and
    /// the caller recompiles.
    pub fn with_faults(capacity: usize, faults: Faults) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                entries: 0,
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            faults,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            class_hits: AtomicU64::new(0),
        }
    }

    /// The table. A lock whose holder panicked stays usable.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the resident entry of coarse hash `coarse` that admits `args`,
    /// or run `compile` to make one — at most one compile per coarse hash at
    /// a time, no matter how many threads race on it.
    ///
    /// # Errors
    ///
    /// Propagates `compile`'s error to the compiling caller; waiting callers
    /// retry compilation themselves (errors are not cached).
    pub(crate) fn get_or_compile<F>(
        &self,
        coarse: u64,
        args: &[ArgSig],
        compile: F,
    ) -> Result<Arc<ClassEntry>, ServeError>
    where
        F: FnOnce() -> Result<ClassEntry, ServeError>,
    {
        let mut waited = false;
        let mut guard = self.lock();
        loop {
            let inner = &mut *guard;
            let bucket = inner.buckets.entry(coarse).or_default();
            if let Some(pos) = bucket.resident.iter().position(|r| r.entry.admits(args)) {
                // A poisoned hit models a corrupt entry: evict it and fall
                // through to the recompile path, exactly as a real
                // corruption detector would recover.
                if self.faults.fire(FaultKind::CachePoison).is_some() {
                    bucket.resident.remove(pos);
                    inner.entries -= 1;
                    self.poisoned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                inner.tick += 1;
                let hit = &mut bucket.resident[pos];
                hit.last_used = inner.tick;
                let entry = Arc::clone(&hit.entry);
                if waited {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if !entry.is_example(args) {
                        self.class_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Ok(entry);
            }
            if !bucket.compiling {
                // This thread compiles. Mark the coarse hash in-flight; the
                // lock drops below so lookups of other programs proceed
                // during compilation.
                bucket.compiling = true;
                break;
            }
            waited = true;
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(guard);

        // Compilation may unwind (an injected CompilePanic or a genuine
        // compiler bug). Catch it here so the leader gets a typed error and
        // every outcome leaves by the one exit below, which retracts the
        // in-flight marker and wakes followers instead of unwinding through
        // their wait.
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile)) {
            Ok(result) => result.map(Arc::new),
            Err(_payload) => Err(ServeError::CompilePanic),
        };
        // Under one lock: clear the marker, then publish the entry (success)
        // or drop the bucket if it is left empty (errors are not cached).
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let bucket = inner.buckets.entry(coarse).or_default();
        bucket.compiling = false;
        if let Ok(entry) = &outcome {
            bucket.resident.push(Resident {
                entry: Arc::clone(entry),
                last_used: inner.tick,
            });
            inner.entries += 1;
            self.evict_over_capacity(inner);
        } else {
            inner.prune(coarse);
        }
        drop(guard);
        self.ready.notify_all();
        outcome
    }

    fn evict_over_capacity(&self, inner: &mut Inner) {
        while inner.entries > self.capacity {
            let victim = inner
                .buckets
                .iter()
                .flat_map(|(&coarse, b)| {
                    b.resident
                        .iter()
                        .enumerate()
                        .map(move |(pos, r)| (r.last_used, coarse, pos))
                })
                .min();
            let Some((_, coarse, pos)) = victim else {
                return;
            };
            if let Some(bucket) = inner.buckets.get_mut(&coarse) {
                bucket.resident.remove(pos);
            }
            inner.entries -= 1;
            inner.prune(coarse);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let entries = self.lock().entries;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            entries,
            class_hits: self.class_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSpec;
    use crate::class::ClassSignature;
    use tssa_ir::{DimClass, ShapeSignature};
    use tssa_pipelines::PipelineKind;
    use tssa_tensor::Tensor;

    fn tensor(shape: &[usize]) -> Vec<ArgSig> {
        vec![ArgSig::Tensor {
            shape: shape.to_vec(),
            dtype: DType::F32,
        }]
    }

    /// A compiled trivial program as an entry of `class`, built for `args`.
    fn entry_of(class: ClassSignature, args: &[ArgSig]) -> Result<ClassEntry, ServeError> {
        let g = tssa_frontend::compile("def f(x: Tensor):\n    y = x + 1.0\n    return y\n")
            .map_err(ServeError::Frontend)?;
        Ok(ClassEntry::new(
            class,
            Arc::new(PipelineKind::Eager.compile(&g)),
            Arc::new(BatchSpec::stacked(1, 1)),
            args.to_vec(),
            0,
            0,
        ))
    }

    /// The exact class of `[2, 4]`: admits that shape only.
    fn exact() -> Result<ClassEntry, ServeError> {
        let args = tensor(&[2, 4]);
        entry_of(
            ClassSignature::exact("src", PipelineKind::Eager, &args),
            &args,
        )
    }

    #[test]
    fn hit_after_miss() {
        let cache = PlanCache::new(4);
        let args = tensor(&[2, 4]);
        cache.get_or_compile(1, &args, exact).unwrap();
        cache
            .get_or_compile(1, &args, || panic!("must not recompile"))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.class_hits, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn a_class_serves_every_admitted_shape_and_counts_class_hits() {
        let cache = PlanCache::new(4);
        let example = tensor(&[2, 4]);
        let poly = ShapeSignature {
            inputs: vec![Some(vec![DimClass::Polymorphic; 2])],
            ..ShapeSignature::default()
        };
        let class = ClassSignature::derive("src", PipelineKind::Eager, &example, &poly).unwrap();
        let first = cache
            .get_or_compile(1, &example, || entry_of(class, &example))
            .unwrap();
        let other = cache
            .get_or_compile(1, &tensor(&[7, 3]), || panic!("admitted"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &other));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.class_hits, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn an_exact_class_admits_only_its_shape() {
        let cache = PlanCache::new(4);
        cache.get_or_compile(1, &tensor(&[2, 4]), exact).unwrap();
        // Same coarse hash, another shape: a second entry, compiled.
        let args = tensor(&[3, 4]);
        cache
            .get_or_compile(1, &args, || {
                entry_of(
                    ClassSignature::exact("src", PipelineKind::Eager, &args),
                    &args,
                )
            })
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 0, 2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let args = tensor(&[2, 4]);
        cache.get_or_compile(1, &args, exact).unwrap();
        cache.get_or_compile(2, &args, exact).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_compile(1, &args, || panic!("cached")).unwrap();
        cache.get_or_compile(3, &args, exact).unwrap();
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        // 1 survived; 2 was evicted and recompiles.
        cache.get_or_compile(1, &args, || panic!("cached")).unwrap();
        cache.get_or_compile(2, &args, exact).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(2);
        let args = tensor(&[2, 4]);
        let err = cache.get_or_compile(9, &args, || Err(ServeError::invalid("boom")));
        assert!(matches!(err, Err(ServeError::InvalidRequest(_))));
        // The marker was retracted; a later call compiles for real.
        cache.get_or_compile(9, &args, exact).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn signature_distinguishes_shape_and_dtype() {
        let a = signature_of(&[RtValue::Tensor(Tensor::zeros(&[2, 3]))]);
        let b = signature_of(&[RtValue::Tensor(Tensor::zeros(&[4, 3]))]);
        assert_ne!(a, b);
        assert_eq!(a, signature_of(&[RtValue::Tensor(Tensor::zeros(&[2, 3]))]));
    }

    #[test]
    fn compile_panic_is_a_typed_error_and_is_not_cached() {
        crate::fault::silence_injected_panics_for_tests();
        let cache = PlanCache::new(2);
        let args = tensor(&[2, 4]);
        let err = cache.get_or_compile(11, &args, || {
            std::panic::panic_any(crate::fault::INJECTED_COMPILE_PANIC)
        });
        assert_eq!(err.unwrap_err(), ServeError::CompilePanic);
        // The in-flight marker was retracted: a later call compiles cleanly.
        cache.get_or_compile(11, &args, exact).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn followers_survive_a_leader_compile_panic() {
        crate::fault::silence_injected_panics_for_tests();
        let cache = Arc::new(PlanCache::new(4));
        let args = tensor(&[2, 4]);
        // Every racing thread's own compile attempt panics; each must come
        // back with the typed error — none may hang on the condition
        // variable waiting for a result that will never be published.
        let outcomes: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let args = args.clone();
                    s.spawn(move || {
                        cache.get_or_compile(12, &args, || {
                            std::panic::panic_any(crate::fault::INJECTED_COMPILE_PANIC)
                        })
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("waiter thread must not itself panic"))
                .collect()
        });
        for outcome in outcomes {
            assert_eq!(outcome.unwrap_err(), ServeError::CompilePanic);
        }
        // Nothing was cached; a clean compile succeeds afterwards.
        cache.get_or_compile(12, &args, exact).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn followers_survive_a_leader_compile_error() {
        let cache = PlanCache::new(4);
        let args = tensor(&[2, 4]);
        let (started, leader_running) = std::sync::mpsc::channel();
        let (leader, follower) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_compile(13, &args, || {
                    started.send(()).unwrap();
                    // Hold the in-flight marker while the follower arrives.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err(ServeError::invalid("boom"))
                })
            });
            leader_running.recv().unwrap();
            let follower = s.spawn(|| cache.get_or_compile(13, &args, exact));
            (leader.join().unwrap(), follower.join().unwrap())
        });
        assert!(matches!(leader, Err(ServeError::InvalidRequest(_))));
        // The error was not shared: the woken follower compiled for itself.
        assert!(follower.is_ok());
        let s = cache.stats();
        assert_eq!((s.misses, s.coalesced, s.entries), (2, 0, 1));
    }

    #[test]
    fn poisoned_hit_evicts_and_recompiles() {
        use crate::fault::{FaultKind, FaultPlan};
        // Poison the first hit (arrival 0 at the cache-poison site).
        let faults = FaultPlan::script().at(FaultKind::CachePoison, 0).faults();
        let cache = PlanCache::with_faults(4, faults.clone());
        let args = tensor(&[2, 4]);
        cache.get_or_compile(1, &args, exact).unwrap();
        // First hit is poisoned: the entry is evicted and recompiled.
        cache.get_or_compile(1, &args, exact).unwrap();
        // Second hit is clean and must not recompile.
        cache
            .get_or_compile(1, &args, || panic!("poison fired twice"))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.poisoned, s.hits, s.entries), (2, 1, 1, 1));
        assert_eq!(faults.plan().unwrap().injected(FaultKind::CachePoison), 1);
    }
}
