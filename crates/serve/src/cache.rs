//! The plan cache: compiled programs keyed by *(source, pipeline, input
//! signature)* with LRU eviction and single-flight compilation.
//!
//! Compilation is the expensive step of serving a model (the whole pipeline
//! of conversion, optimization passes and fusion runs again), so the cache
//! guarantees two properties:
//!
//! * **single-flight** — when M threads request the same uncached plan
//!   concurrently, exactly one runs the compiler; the others block on a
//!   condition variable and share the result (counted as *coalesced*);
//! * **bounded residency** — at most `capacity` ready plans are retained;
//!   inserting past that evicts the least-recently-used ready entry
//!   (in-flight compilations are never evicted).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tssa_backend::RtValue;
use tssa_ir::Graph;
use tssa_obs::TraceScope;
use tssa_pipelines::{
    CompiledProgram, Degraded, DynamoInductor, Eager, Pipeline, TensorSsa, TorchScriptNnc,
    TorchScriptNvfuser,
};
use tssa_tensor::DType;

use crate::class::ClassEntry;
use crate::fault::{FaultKind, Faults};
use crate::ServeError;

/// Which compilation pipeline a plan was (or will be) built with.
///
/// A `Copy + Eq + Hash` mirror of the pipeline structs in `tssa-pipelines`,
/// so it can live inside a [`PlanKey`] and cross thread boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// PyTorch eager baseline.
    Eager,
    /// TorchScript with the NNC fuser.
    TorchScriptNnc,
    /// TorchScript with nvFuser.
    TorchScriptNvfuser,
    /// TorchDynamo + TorchInductor.
    DynamoInductor,
    /// The paper's holistic TensorSSA pipeline.
    TensorSsa,
    /// The degradation fallback: no optimization passes, direct
    /// interpretation. Not part of the paper's comparison
    /// ([`PipelineKind::all`]); the service compiles it alongside a model's
    /// primary plan when latency-triggered degradation is enabled.
    Degraded,
}

impl PipelineKind {
    /// Display name matching [`Pipeline::name`].
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Eager => Eager.name(),
            PipelineKind::TorchScriptNnc => TorchScriptNnc.name(),
            PipelineKind::TorchScriptNvfuser => TorchScriptNvfuser.name(),
            PipelineKind::DynamoInductor => DynamoInductor.name(),
            PipelineKind::TensorSsa => TensorSsa::default().name(),
            PipelineKind::Degraded => Degraded.name(),
        }
    }

    /// Compile `graph` with this pipeline.
    pub fn compile(self, graph: &Graph) -> CompiledProgram {
        self.compile_traced(graph, &TraceScope::disabled())
    }

    /// Compile `graph` with this pipeline, emitting the pipeline's
    /// `compile:<name>` span (with per-pass children) under `scope`.
    pub fn compile_traced(self, graph: &Graph, scope: &TraceScope) -> CompiledProgram {
        match self {
            PipelineKind::Eager => Eager.compile_traced(graph, scope),
            PipelineKind::TorchScriptNnc => TorchScriptNnc.compile_traced(graph, scope),
            PipelineKind::TorchScriptNvfuser => TorchScriptNvfuser.compile_traced(graph, scope),
            PipelineKind::DynamoInductor => DynamoInductor.compile_traced(graph, scope),
            PipelineKind::TensorSsa => TensorSsa::default().compile_traced(graph, scope),
            PipelineKind::Degraded => Degraded.compile_traced(graph, scope),
        }
    }

    /// The pass roster this pipeline would run, in order, without
    /// compiling anything — the identity the persistent plan store
    /// fingerprints for invalidation.
    pub fn roster(self) -> Vec<&'static str> {
        match self {
            PipelineKind::Eager => Eager.roster(),
            PipelineKind::TorchScriptNnc => TorchScriptNnc.roster(),
            PipelineKind::TorchScriptNvfuser => TorchScriptNvfuser.roster(),
            PipelineKind::DynamoInductor => DynamoInductor.roster(),
            PipelineKind::TensorSsa => TensorSsa::default().roster(),
            PipelineKind::Degraded => Degraded.roster(),
        }
    }

    /// FNV-1a fingerprint of [`PipelineKind::roster`]. A plan file whose
    /// header carries a different fingerprint was compiled by a different
    /// optimizer and is treated as stale.
    pub fn roster_fingerprint(self) -> u64 {
        tssa_store::roster_fingerprint(self.roster().iter().copied())
    }

    /// The [`ExecConfig`](tssa_backend::ExecConfig) this pipeline would
    /// stamp on a compiled plan (part of the on-disk content identity).
    pub fn exec_profile(self) -> tssa_backend::ExecConfig {
        match self {
            PipelineKind::Eager => Eager.plan().1,
            PipelineKind::TorchScriptNnc => TorchScriptNnc.plan().1,
            PipelineKind::TorchScriptNvfuser => TorchScriptNvfuser.plan().1,
            PipelineKind::DynamoInductor => DynamoInductor.plan().1,
            PipelineKind::TensorSsa => TensorSsa::default().plan().1,
            PipelineKind::Degraded => Degraded.plan().1,
        }
    }

    /// The paper's five pipelines, in the paper's order (excludes
    /// [`PipelineKind::Degraded`], which is a serving fallback, not an
    /// evaluated configuration).
    pub fn all() -> [PipelineKind; 5] {
        [
            PipelineKind::Eager,
            PipelineKind::TorchScriptNnc,
            PipelineKind::TorchScriptNvfuser,
            PipelineKind::DynamoInductor,
            PipelineKind::TensorSsa,
        ]
    }
}

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

/// FNV-1a hash of the model source, the cheap stand-in for content identity.
pub fn source_hash(source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache key: which program, compiled how, for which input signature.
///
/// The engine specializes plans per input signature (as shape-specializing
/// serving systems do), so resizing the batch dimension compiles — and
/// caches — a fresh plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// FNV-1a hash of the DSL source.
    pub source_hash: u64,
    /// Pipeline used to compile.
    pub pipeline: PipelineKind,
    /// Shape/dtype signature of the inputs the plan is specialized for.
    pub signature: Vec<ArgSig>,
}

impl PlanKey {
    /// Build a key from source text, pipeline and exemplar inputs.
    pub fn new(source: &str, pipeline: PipelineKind, inputs: &[RtValue]) -> PlanKey {
        PlanKey {
            source_hash: source_hash(source),
            pipeline,
            signature: signature_of(inputs),
        }
    }

    /// Content hash naming this plan on disk: FNV-1a over (source hash,
    /// pipeline name, input signature, execution profile).
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(128);
        bytes.extend_from_slice(&self.source_hash.to_le_bytes());
        bytes.extend_from_slice(self.pipeline.name().as_bytes());
        bytes.push(0xFF);
        // ArgSig's derived Debug output is deterministic and covers every
        // shape/dtype field — a stable textual encoding of the signature.
        bytes.extend_from_slice(format!("{:?}", self.signature).as_bytes());
        bytes.push(0xFF);
        let cfg = self.pipeline.exec_profile();
        bytes.extend_from_slice(cfg.device.name.as_bytes());
        for v in [
            cfg.device.launch_overhead_ns,
            cfg.device.bytes_per_ns,
            cfg.device.flops_per_ns,
            cfg.host_dispatch_ns,
            cfg.host_scalar_ns,
            cfg.control_entry_ns,
            cfg.sync_ns,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        tssa_store::fnv64(&bytes)
    }
}

/// Monotonic counters exposed by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served immediately from a ready entry.
    pub hits: u64,
    /// Lookups that ran the compiler.
    pub misses: u64,
    /// Lookups that blocked on another thread's in-flight compilation and
    /// shared its result (single-flight coalescing).
    pub coalesced: u64,
    /// Ready entries discarded to stay within capacity.
    pub evictions: u64,
    /// Ready entries evicted because an injected [`FaultKind::CachePoison`]
    /// marked them corrupt on a hit (each one recompiles; always 0 without
    /// an armed fault plan).
    pub poisoned: u64,
    /// Ready entries currently resident.
    pub entries: usize,
    /// Loads served by an existing shape class (no compile, no disk probe):
    /// the concrete signature differed from the class's example but was
    /// admitted by its [`ShapeSignature`](tssa_ir::ShapeSignature).
    pub class_hits: u64,
    /// Shape classes currently resident.
    pub class_entries: usize,
}

enum Slot {
    /// A thread is compiling this key right now.
    InFlight,
    Ready {
        plan: Arc<CompiledProgram>,
        last_used: u64,
    },
}

struct Inner {
    slots: HashMap<PlanKey, Slot>,
    tick: u64,
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
    /// Shape classes, indexed by coarse (rank + dtype) hash. Each coarse
    /// bucket holds the classes whose admission must be checked in turn —
    /// normally exactly one.
    classes: Mutex<HashMap<u64, Vec<Arc<ClassEntry>>>>,
    class_hits: AtomicU64,
}

/// Removes the in-flight marker if the compiling thread unwinds or errors,
/// so waiters retry instead of blocking forever.
struct InFlightCleanup<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
    armed: bool,
}

impl Drop for InFlightCleanup<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut guard = self.cache.inner.lock();
            guard.slots.remove(self.key);
            drop(guard);
            self.cache.ready.notify_all();
        }
    }
}

impl PlanCache {
    /// A cache retaining at most `capacity` ready plans (minimum 1).
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
                slots: HashMap::new(),
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
            classes: Mutex::new(HashMap::new()),
            class_hits: AtomicU64::new(0),
        }
    }

    /// Fetch the plan for `key`, running `compile` at most once per
    /// residency no matter how many threads race on the same key.
    ///
    /// # Errors
    ///
    /// Propagates `compile`'s error to the compiling caller; waiting callers
    /// retry compilation themselves (errors are not cached).
    pub fn get_or_compile<F>(
        &self,
        key: &PlanKey,
        compile: F,
    ) -> Result<Arc<CompiledProgram>, ServeError>
    where
        F: FnOnce() -> Result<CompiledProgram, ServeError>,
    {
        let mut counted_wait = false;
        let mut guard = self.inner.lock();
        loop {
            let ready_plan = match guard.slots.get(key) {
                Some(Slot::Ready { plan, .. }) => Some(Arc::clone(plan)),
                Some(Slot::InFlight) => {
                    if !counted_wait {
                        counted_wait = true;
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    self.ready.wait(&mut guard);
                    continue;
                }
                None => None,
            };
            match ready_plan {
                Some(plan) => {
                    // A poisoned hit models a corrupt cache entry: evict it
                    // and fall through to the recompile path, exactly as a
                    // real corruption detector would recover.
                    if self.faults.fire(FaultKind::CachePoison).is_some() {
                        guard.slots.remove(key);
                        self.poisoned.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    guard.tick += 1;
                    let now = guard.tick;
                    if let Some(Slot::Ready { last_used, .. }) = guard.slots.get_mut(key) {
                        *last_used = now;
                    }
                    if !counted_wait {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(plan);
                }
                None => break,
            }
        }
        // This thread compiles. Mark the key in-flight and drop the lock so
        // concurrent lookups of *other* keys proceed during compilation.
        guard.slots.insert(key.clone(), Slot::InFlight);
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(guard);

        let mut cleanup = InFlightCleanup {
            cache: self,
            key,
            armed: true,
        };
        // Compilation may unwind (an injected CompilePanic or a genuine
        // compiler bug). Catch it here so the leader gets a typed error and
        // the cleanup guard retracts the in-flight marker normally — waking
        // followers to retry — instead of unwinding through their wait.
        let plan = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile)) {
            Ok(Ok(compiled)) => Arc::new(compiled),
            Ok(Err(e)) => return Err(e),
            Err(_payload) => return Err(ServeError::CompilePanic),
        };
        // Success: publish the plan before the cleanup guard could retract it.
        cleanup.armed = false;
        drop(cleanup);

        let mut guard = self.inner.lock();
        guard.tick += 1;
        let now = guard.tick;
        guard.slots.insert(
            key.clone(),
            Slot::Ready {
                plan: Arc::clone(&plan),
                last_used: now,
            },
        );
        self.evict_over_capacity(&mut guard);
        drop(guard);
        self.ready.notify_all();
        Ok(plan)
    }

    fn evict_over_capacity(&self, guard: &mut parking_lot::MutexGuard<'_, Inner>) {
        loop {
            let ready = guard
                .slots
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = guard
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                    Slot::InFlight => None,
                })
                .min_by_key(|(last_used, _)| *last_used)
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    guard.slots.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Find the resident shape class admitting a concrete signature, if any.
    ///
    /// Consults the fault plan exactly like a concrete hit: an injected
    /// [`FaultKind::CachePoison`] evicts the whole class *and* its origin
    /// concrete slots (counted once in [`CacheStats::poisoned`]), and the
    /// caller recompiles.
    pub fn lookup_class(&self, coarse: u64, args: &[ArgSig]) -> Option<Arc<ClassEntry>> {
        let mut classes = self.classes.lock();
        let bucket = classes.get_mut(&coarse)?;
        let pos = bucket.iter().position(|entry| entry.admits(args))?;
        if self.faults.fire(FaultKind::CachePoison).is_some() {
            let entry = bucket.remove(pos);
            if bucket.is_empty() {
                classes.remove(&coarse);
            }
            drop(classes);
            // Evict the concrete slots that fed the class, so the recompile
            // is a genuine one (a poisoned class must not be resurrected
            // from a stale concrete entry).
            let mut guard = self.inner.lock();
            for key in entry.origin_keys() {
                guard.slots.remove(&key);
            }
            drop(guard);
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let entry = Arc::clone(&bucket[pos]);
        drop(classes);
        self.class_hits.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Insert a freshly derived class. When an equal class key is already
    /// resident (two threads compiled the same class concurrently), the
    /// existing entry wins and is returned, so the census stays
    /// consolidated.
    pub fn insert_class(&self, coarse: u64, entry: ClassEntry) -> Arc<ClassEntry> {
        let mut classes = self.classes.lock();
        let bucket = classes.entry(coarse).or_default();
        if let Some(existing) = bucket.iter().find(|e| e.key() == entry.key()) {
            let existing = Arc::clone(existing);
            drop(classes);
            for key in entry.origin_keys() {
                existing.note_origin(key);
            }
            return existing;
        }
        let entry = Arc::new(entry);
        bucket.push(Arc::clone(&entry));
        entry
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let guard = self.inner.lock();
        let entries = guard
            .slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
            .count();
        drop(guard);
        let class_entries = self.classes.lock().values().map(Vec::len).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            entries,
            class_hits: self.class_hits.load(Ordering::Relaxed),
            class_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_tensor::Tensor;

    fn key(tag: u64) -> PlanKey {
        PlanKey {
            source_hash: tag,
            pipeline: PipelineKind::Eager,
            signature: vec![ArgSig::Int],
        }
    }

    fn trivial_plan() -> Result<CompiledProgram, ServeError> {
        let g = tssa_frontend::compile("def f(x: Tensor):\n    y = x + 1.0\n    return y\n")
            .map_err(ServeError::Frontend)?;
        Ok(PipelineKind::Eager.compile(&g))
    }

    #[test]
    fn hit_after_miss() {
        let cache = PlanCache::new(4);
        let k = key(1);
        cache.get_or_compile(&k, trivial_plan).unwrap();
        cache
            .get_or_compile(&k, || panic!("must not recompile"))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.get_or_compile(&key(1), trivial_plan).unwrap();
        cache.get_or_compile(&key(2), trivial_plan).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_compile(&key(1), || panic!("cached")).unwrap();
        cache.get_or_compile(&key(3), trivial_plan).unwrap();
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        // 1 survived; 2 was evicted and recompiles.
        cache.get_or_compile(&key(1), || panic!("cached")).unwrap();
        cache.get_or_compile(&key(2), trivial_plan).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(2);
        let k = key(9);
        let err = cache.get_or_compile(&k, || Err(ServeError::invalid("boom")));
        assert!(matches!(err, Err(ServeError::InvalidRequest(_))));
        // The slot was retracted; a later call compiles for real.
        cache.get_or_compile(&k, trivial_plan).unwrap();
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
    fn source_hash_is_content_sensitive() {
        assert_ne!(source_hash("a"), source_hash("b"));
        assert_eq!(source_hash("same"), source_hash("same"));
    }

    #[test]
    fn pipeline_kind_names_match_structs() {
        for k in PipelineKind::all() {
            assert!(!k.name().is_empty());
        }
        assert_eq!(PipelineKind::TensorSsa.name(), "TensorSSA");
        assert_eq!(PipelineKind::Degraded.name(), "Degraded");
    }

    #[test]
    fn compile_panic_is_a_typed_error_and_is_not_cached() {
        crate::fault::silence_injected_panics_for_tests();
        let cache = PlanCache::new(2);
        let k = key(11);
        let err = cache.get_or_compile(&k, || {
            std::panic::panic_any(crate::fault::INJECTED_COMPILE_PANIC)
        });
        assert_eq!(err.unwrap_err(), ServeError::CompilePanic);
        // The in-flight marker was retracted: a later call compiles cleanly.
        cache.get_or_compile(&k, trivial_plan).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn followers_survive_a_leader_compile_panic() {
        crate::fault::silence_injected_panics_for_tests();
        let cache = Arc::new(PlanCache::new(4));
        let k = key(12);
        // Every racing thread's own compile attempt panics; each must come
        // back with the typed error — none may hang on the condition
        // variable waiting for a result that will never be published.
        let outcomes: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let k = k.clone();
                    s.spawn(move || {
                        cache.get_or_compile(&k, || {
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
        cache.get_or_compile(&k, trivial_plan).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn poisoned_hit_evicts_and_recompiles() {
        use crate::fault::{FaultKind, FaultPlan};
        // Poison the first hit (arrival 0 at the cache-poison site).
        let faults = FaultPlan::script().at(FaultKind::CachePoison, 0).faults();
        let cache = PlanCache::with_faults(4, faults.clone());
        let k = key(1);
        cache.get_or_compile(&k, trivial_plan).unwrap();
        // First hit is poisoned: the entry is evicted and recompiled.
        cache.get_or_compile(&k, trivial_plan).unwrap();
        // Second hit is clean and must not recompile.
        cache
            .get_or_compile(&k, || panic!("poison fired twice"))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.poisoned, s.hits, s.entries), (2, 1, 1, 1));
        assert_eq!(faults.plan().unwrap().injected(FaultKind::CachePoison), 1);
    }
}
