//! The worker pool. A worker shares the service's [`Core`] and owns only
//! its retire flag and its profile sink. It takes its own batch from the
//! request queue and runs it under `catch_unwind`: a panic mid-batch
//! retries the batch once on the same thread, a second panic fails its
//! requests with `Canceled`, and the worker keeps serving.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use tssa_backend::{ExecStats, RtValue};
use tssa_obs::{HistogramMetric, ProfileSink, Profiler, Span};
use tssa_pipelines::ProfileRecorder;

use crate::fault::{FaultAction, FaultKind, INJECTED_PANIC};
use crate::queue::Request;
use crate::service::Core;
use crate::ticket::Response;
use crate::{ServeError, Service};

/// One worker slot in the pool. Retired slots stay: their statistics
/// belong in the final report, and their threads are joined at shutdown.
pub(crate) struct Worker {
    /// Retire flag set by shrink. The worker checks it only between
    /// batches, so shrinking never abandons accepted work.
    retire: Arc<AtomicBool>,
    /// Returns the slot's execution statistics when the thread exits.
    thread: JoinHandle<ExecStats>,
}

/// Workers whose retire flag is unset.
fn active_workers(pool: &[Worker]) -> usize {
    pool.iter().filter(|w| !w.retire.load(Relaxed)).count()
}

impl Service {
    /// The worker slots. A lock whose holder panicked stays usable.
    fn lock_pool(&self) -> MutexGuard<'_, Vec<Worker>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `n` worker slots. Synchronous: [`Service::worker_count`] and the
    /// `tssa_pool_workers` gauge read the new size when this returns.
    pub fn grow(&self, n: usize) {
        let mut pool = self.lock_pool();
        for _ in 0..n {
            let retire = Arc::new(AtomicBool::new(false));
            // The profiler retains every sink it mints, so undrained
            // samples from retired workers still reach the table.
            let sink = self.core.profiler.as_ref().map(Profiler::sink);
            let (core, flag) = (Arc::clone(&self.core), Arc::clone(&retire));
            let thread = std::thread::spawn(move || worker_loop(&core, &flag, sink.as_ref()));
            pool.push(Worker { retire, thread });
        }
        self.core.metrics.workers.set(active_workers(&pool) as f64);
    }

    /// Retire `n` workers (highest slots first), never going below one
    /// active worker. Synchronous like [`Service::grow`]. Drain-on-shrink:
    /// a retiring worker finishes the batch it holds first, queued requests
    /// stay in the shared queue for the surviving workers, and the retired
    /// slot's statistics remain in the final [`crate::PoolReport`].
    pub fn shrink(&self, n: usize) {
        let pool = self.lock_pool();
        let active = active_workers(&pool);
        let retiring = n.min(active.saturating_sub(1));
        // Under the queue lock, so no idle worker sits between its retire
        // check and its wait when the wake-up below goes out.
        let queue = self.core.queue.lock();
        for worker in pool
            .iter()
            .rev()
            .filter(|w| !w.retire.load(Relaxed))
            .take(retiring)
        {
            worker.retire.store(true, Relaxed);
        }
        drop(queue);
        self.core.queue.ready.notify_all();
        self.core.metrics.workers.set((active - retiring) as f64);
    }

    /// Active (non-retired) workers right now.
    pub fn worker_count(&self) -> usize {
        active_workers(&self.lock_pool())
    }

    /// Lossless shutdown: closing the queue stops admission, and the
    /// workers drain what is queued before they exit. Returns each slot's
    /// statistics, in slot order.
    pub(crate) fn join_pool(&self) -> Vec<ExecStats> {
        self.core.queue.close();
        let workers = std::mem::take(&mut *self.lock_pool());
        workers
            .into_iter()
            .map(|w| w.thread.join().unwrap_or_default())
            .collect()
    }
}

/// A worker's `tssa_batch_occupancy` handles, by plan label.
type Occupancy = HashMap<Arc<str>, HistogramMetric>;

/// A worker thread: take batches until the queue is closed and drained or
/// the slot is retired, and return the slot's execution statistics.
fn worker_loop(core: &Core, retire: &AtomicBool, sink: Option<&Arc<ProfileSink>>) -> ExecStats {
    let mut stats = ExecStats::default();
    // Occupancy handle per plan label, cached so steady-state batches skip
    // the registry lock.
    let mut occupancy = Occupancy::new();
    // Retire check between batches only — never mid-batch, so a shrink
    // drains accepted work instead of dropping it.
    while let Some(batch) = core.queue.take(core.max_batch, retire) {
        serve_batch(core, sink, batch, &mut occupancy, &mut stats);
    }
    stats
}

/// Run one batch to completion on this thread. The worker owns the batch,
/// so a panic mid-run leaves it intact here: the first panic retries it
/// once (`requeued`), a second one fails its requests with `Canceled`.
fn serve_batch(
    core: &Core,
    sink: Option<&Arc<ProfileSink>>,
    mut batch: Vec<Request>,
    occupancy: &mut Occupancy,
    stats: &mut ExecStats,
) {
    let mut retry = false;
    while std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_batch(core, sink, &mut batch, retry, occupancy, stats);
    }))
    .is_err()
    {
        core.metrics.worker_respawns.inc();
        if batch.is_empty() {
            return;
        }
        if retry {
            for request in batch {
                request.finish_with(Err(ServeError::Canceled));
            }
            return;
        }
        retry = true;
        core.metrics.requeues.inc();
        for request in &mut batch {
            if let Some(s) = request.span.as_mut() {
                s.mark("requeued");
            }
        }
    }
}

/// One attempt at a batch: expire stale requests, stack, execute, split and
/// deliver. Requests stay in `batch` until execution is over, so a panic
/// before delivery leaves every live request for the retry.
fn run_batch(
    core: &Core,
    sink: Option<&Arc<ProfileSink>>,
    batch: &mut Vec<Request>,
    retry: bool,
    occupancy: &mut Occupancy,
    stats: &mut ExecStats,
) {
    let now = Instant::now();
    let (expired, live): (Vec<Request>, Vec<Request>) = std::mem::take(batch)
        .into_iter()
        .partition(|r| r.deadline.is_some_and(|d| now >= d));
    *batch = live;
    for request in expired {
        request.expire();
    }
    if batch.is_empty() {
        return;
    }
    let coalesced = batch.len();
    // The first attempt records the batch and each request's wait, so a
    // retried batch counts once.
    if !retry {
        core.metrics.record_batch(coalesced);
        occupancy
            .entry(Arc::clone(&batch[0].model.label))
            .or_insert_with_key(|label| {
                core.metrics.registry.histogram(
                    "tssa_batch_occupancy",
                    "Requests coalesced per executed batch, by plan",
                    &[("plan", label)],
                )
            })
            .observe(coalesced as u64);
        for request in batch.iter() {
            let wait = now.saturating_duration_since(request.completer.submitted());
            // Traced requests pin the observation as the histogram's
            // exemplar: the scrape links back to the request's trace.
            let trace_id = request.span.as_ref().map_or(0, Span::root_id);
            core.metrics
                .queue_wait
                .observe_with_exemplar(wait.as_micros().min(u128::from(u64::MAX)) as u64, trace_id);
        }
    }

    // The queueing phase ends here: close each request's `queue` span and
    // open its `batch` child covering the shared execution.
    let mut batch_spans: Vec<Option<Span>> = batch
        .iter_mut()
        .map(|request| {
            if let Some(queue) = request.queue_span.take() {
                queue.finish();
            }
            request.span.as_ref().map(|span| {
                let mut batch_span = span.child("batch", "serve");
                batch_span.counter("coalesced", coalesced as i64);
                if retry {
                    batch_span.mark("requeue_attempt");
                }
                batch_span
            })
        })
        .collect();
    let head = &batch[0];
    let model = head.model.clone();
    let inputs = if coalesced == 1 {
        Ok(head.inputs.clone())
    } else {
        let arg_lists: Vec<&[RtValue]> = batch.iter().map(|r| r.inputs.as_slice()).collect();
        model.spec.stack(&arg_lists)
    };
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            for request in batch.drain(..) {
                request.finish_with(Err(e.clone()));
            }
            return;
        }
    };

    // Injected faults land here: a slow execution delays the batch; a
    // worker panic unwinds this frame (recording the batch spans) back to
    // `serve_batch`.
    if let Some(FaultAction::Stall(pause)) = core.faults.fire(FaultKind::SlowExec) {
        core.metrics.note_fault();
        for span in batch_spans.iter_mut().flatten() {
            span.mark("fault:slow_exec");
        }
        std::thread::sleep(pause);
    }
    if let Some(FaultAction::Panic) = core.faults.fire(FaultKind::WorkerPanic) {
        core.metrics.note_fault();
        for span in batch_spans.iter_mut().flatten() {
            span.mark("fault:worker_panic");
        }
        std::panic::panic_any(INJECTED_PANIC);
    }

    // The head request's batch span hosts the execution trace (`exec` with a
    // `batch[0]` child); followers' spans still delimit the shared run.
    let exec_scope = batch_spans
        .first()
        .and_then(Option::as_ref)
        .map_or_else(tssa_obs::TraceScope::disabled, Span::scope);
    let result = {
        let mut session = model.plan().session().traced(&exec_scope);
        // Per-op profiling, when this batch drew a keep from the sampler:
        // one sample per executed op into this worker's private sink.
        let profiled = core.profiler.as_ref().is_some_and(Profiler::should_profile);
        if let Some(sink) = sink.filter(|_| profiled) {
            session = session.observed(Arc::new(ProfileRecorder::new(
                Arc::clone(&model.label),
                Arc::clone(sink),
            )));
        }
        session.run(&inputs)
        // The session drops here, recording the `exec` span before the
        // batch spans below close over it.
    };
    for batch_span in batch_spans.drain(..).flatten() {
        batch_span.finish();
    }
    if let Ok((_, run)) = &result {
        stats.merge(run);
    }

    // Execution is over: deliver each terminal result.
    let mut live = std::mem::take(batch);
    match result {
        Ok((outputs, stats)) => {
            if coalesced == 1 {
                if let Some(request) = live.pop() {
                    request.finish_with(Ok(Response {
                        outputs,
                        coalesced: 1,
                        stats,
                    }));
                }
                return;
            }
            let rows: Vec<usize> = live.iter().map(|r| r.rows).collect();
            match model.spec.split(&outputs, &rows) {
                Ok(per_request) => {
                    for (request, outs) in live.into_iter().zip(per_request) {
                        request.finish_with(Ok(Response {
                            outputs: outs,
                            coalesced,
                            stats,
                        }));
                    }
                }
                Err(e) => {
                    for request in live {
                        request.finish_with(Err(e.clone()));
                    }
                }
            }
        }
        Err(e) => {
            for request in live {
                request.finish_with(Err(ServeError::Exec(e.clone())));
            }
        }
    }
}
