//! The one request queue and the requests in it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tssa_backend::RtValue;
use tssa_obs::Span;

use crate::loader::ModelHandle;
use crate::ticket::{Completer, Response};
use crate::ServeError;

/// One admitted request: the model it runs, its inputs, and the
/// completion side of its ticket, which also holds when it was admitted.
pub(crate) struct Request {
    pub(crate) model: ModelHandle,
    pub(crate) inputs: Vec<RtValue>,
    pub(crate) rows: usize,
    pub(crate) deadline: Option<Instant>,
    pub(crate) completer: Completer,
    /// Root `request` span, opened at admission, recorded when the request
    /// reaches a terminal state (the struct drop after completion).
    pub(crate) span: Option<Span>,
    /// `queue` child covering admission-to-execution wait; finished by the
    /// worker just before the batch runs (or dropped on expiry).
    pub(crate) queue_span: Option<Span>,
}

impl Request {
    pub(crate) fn expire(mut self) {
        let waited = self.completer.submitted().elapsed();
        if let Some(span) = self.span.as_mut() {
            span.counter("deadline_exceeded", 1);
        }
        self.finish_with(Err(ServeError::DeadlineExceeded { waited }));
    }

    /// Complete the request, marking its span `timed_out` when the waiter
    /// already gave up and the result is discarded.
    pub(crate) fn finish_with(mut self, result: Result<Response, ServeError>) {
        let mut span = self.span.take();
        if let (Some(s), false) = (span.as_mut(), self.completer.complete(result)) {
            s.mark("timed_out");
        }
    }
}

/// The one request queue. Admission ([`crate::Service::submit_with`])
/// pushes at the back; a free worker takes the oldest request together
/// with the queued requests that can share its execution.
#[derive(Default)]
pub(crate) struct Queue {
    state: Mutex<QueueState>,
    /// Wakes an idle worker: one per push, every worker on shrink and at
    /// shutdown.
    pub(crate) ready: Condvar,
}

#[derive(Default)]
pub(crate) struct QueueState {
    pub(crate) requests: VecDeque<Request>,
    /// Set at shutdown: admission refuses, and workers drain the queue and
    /// exit.
    pub(crate) closed: bool,
}

impl Queue {
    /// The queue's state. A lock whose holder panicked stays usable, so
    /// admission and the workers keep going.
    pub(crate) fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stop admission; the workers drain what is queued, then exit.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Block until there is work, then take the oldest request and, when
    /// its spec batches, up to `max_batch - 1` queued requests that can
    /// share its execution. `None` tells the worker to exit: it was retired,
    /// or the queue is closed and empty.
    pub(crate) fn take(&self, max_batch: usize, retire: &AtomicBool) -> Option<Vec<Request>> {
        let mut state = self.lock();
        // Checked again after every wake-up: once the lock is poisoned a
        // wait returns at once, whether or not there is work.
        while state.requests.is_empty() && !state.closed && !retire.load(Relaxed) {
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if retire.load(Relaxed) {
            drop(state);
            // Belt and braces: `shrink` sets the flag under this lock and
            // then wakes every waiter, so no push's wake-up can end here;
            // passing one on costs nothing if that ever changes.
            self.ready.notify_one();
            return None;
        }
        // Empty only when closed: the worker exits.
        let head = state.requests.pop_front()?;
        let mut batch = vec![head];
        if max_batch == 1 || !batch[0].model.spec.batchable() {
            return Some(batch);
        }
        // Same plan and same contract are pointer checks; whether the
        // inputs fit may compare `Shared` tensors, a few KiB in the served
        // models, so the check runs under the lock.
        let mut at = 0;
        while batch.len() < max_batch && at < state.requests.len() {
            let (head, r) = (&batch[0], &state.requests[at]);
            if Arc::ptr_eq(r.model.plan(), head.model.plan())
                && Arc::ptr_eq(&r.model.spec, &head.model.spec)
                && head.model.spec.compatible(&head.inputs, &r.inputs)
            {
                batch.extend(state.requests.remove(at));
            } else {
                at += 1;
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tssa_backend::RtValue;
    use tssa_tensor::Tensor;

    use crate::{
        silence_injected_panics_for_tests, BatchSpec, ServeConfig, Service, INJECTED_PANIC,
    };

    #[test]
    fn a_thread_that_panics_holding_the_lock_leaves_submit_and_take_working() {
        silence_injected_panics_for_tests();
        let service = Service::new(ServeConfig::default().with_workers(3));
        let example = [RtValue::Tensor(Tensor::ones(&[2, 4]))];
        let model = service
            .loader("def f(x: Tensor):\n    y = x + 1.0\n    return y\n")
            .example(&example)
            .batch(BatchSpec::stacked(1, 1))
            .load()
            .unwrap();
        // Let the workers go idle in `take`, then poison the queue's lock.
        std::thread::sleep(Duration::from_millis(50));
        let queue = &service.core.queue;
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _state = queue.lock();
                std::panic::panic_any(INJECTED_PANIC);
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(queue.state.is_poisoned());
        // Retiring one worker wakes all three on the poisoned lock; the two
        // that stay must wait again on the empty queue, not exit.
        service.shrink(1);
        assert_eq!(service.worker_count(), 2);
        // The deadline bounds the wait should no worker be left to take it.
        let response = service
            .submit_with(&model, example.to_vec(), Some(Duration::from_secs(2)))
            .and_then(|ticket| ticket.wait())
            .unwrap();
        assert_eq!(response.outputs[0].as_tensor().unwrap().shape(), &[2, 4]);
        assert_eq!(service.shutdown().metrics.completed, 1);
    }
}
