//! Tickets: the caller's [`Ticket`] and the worker's [`Completer`], two
//! ends of one terminal-state slot. When a request carries a deadline, its
//! waiter enforces `deadline + timeout_grace` wall-clock: with no terminal
//! result by then, [`Ticket::wait`] returns [`ServeError::Timeout`], and a
//! late completion is discarded (its span marked `timed_out`) instead of
//! counted twice.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tssa_backend::{ExecStats, RtValue};

use crate::metrics::Metrics;
use crate::ServeError;

/// A successful execution result delivered through a [`Ticket`].
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's outputs (already split out of the batch).
    pub outputs: Vec<RtValue>,
    /// How many requests shared the execution (1 = ran alone).
    pub coalesced: usize,
    /// Execution statistics of the (shared) batch run.
    pub stats: ExecStats,
}

/// Terminal-state slot shared between a [`Ticket`] and its [`Completer`].
/// `TimedOut` is sticky: once the waiter gives up, a late completion is
/// discarded rather than delivered (and rather than double-counted).
enum Slot {
    Pending,
    Done(Result<Response, ServeError>),
    TimedOut,
}

struct TicketShared {
    slot: Mutex<Slot>,
    cv: Condvar,
    submitted: Instant,
    /// Wall-clock point past which the waiter stops waiting
    /// (`deadline + timeout_grace`), `None` for unbounded waits.
    timeout_at: Option<Instant>,
    metrics: Arc<Metrics>,
}

impl TicketShared {
    /// The slot. A lock whose holder panicked stays usable, so a waiter
    /// still gets its one terminal result.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliver a terminal result and record its outcome metric, or discard
    /// it; whether the waiter will see it. The metric is recorded under the
    /// slot lock, before the waiter is woken, so a metrics snapshot taken
    /// the instant `wait` returns already reflects this outcome. A result
    /// that arrives past the waiter's bound is late however soon the waiter
    /// would have looked: it is discarded, and the timeout counted here.
    fn deliver(&self, result: Result<Response, ServeError>) -> bool {
        let latency = self.submitted.elapsed();
        let mut guard = self.lock();
        if matches!(*guard, Slot::TimedOut) {
            return false;
        }
        if self.timeout_at.is_some_and(|at| Instant::now() >= at) {
            *guard = Slot::TimedOut;
            self.metrics.timeouts.inc();
            drop(guard);
            self.cv.notify_all();
            return false;
        }
        match &result {
            Ok(_) => {
                self.metrics.completed.inc();
                self.metrics.latency.observe_duration_us(latency);
            }
            Err(ServeError::DeadlineExceeded { .. }) => self.metrics.shed_deadline.inc(),
            Err(ServeError::Exec(_) | ServeError::InvalidRequest(_)) => {
                self.metrics.exec_failures.inc();
            }
            Err(_) => self.metrics.canceled.inc(),
        }
        *guard = Slot::Done(result);
        drop(guard);
        self.cv.notify_all();
        true
    }
}

/// The caller's handle to an in-flight request.
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the request reaches a terminal state.
    ///
    /// When the request was submitted with a deadline, the wait itself is
    /// bounded: after `deadline + timeout_grace` this returns
    /// [`ServeError::Timeout`] even if a worker is still executing the
    /// request (its eventual result is discarded).
    pub fn wait(self) -> Result<Response, ServeError> {
        let shared = &*self.shared;
        let mut guard = shared.lock();
        // Checked again after every wake-up: once the slot is poisoned a
        // wait returns at once, whether or not a result arrived.
        while matches!(*guard, Slot::Pending) {
            let left = shared
                .timeout_at
                .map(|at| at.saturating_duration_since(Instant::now()));
            guard = match left {
                None => shared
                    .cv
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) if left.is_zero() => break,
                Some(left) => {
                    let woken = shared.cv.wait_timeout(guard, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        match std::mem::replace(&mut *guard, Slot::TimedOut) {
            Slot::Done(result) => return result,
            // A late delivery found the bound passed and counted it.
            Slot::TimedOut => {}
            Slot::Pending => shared.metrics.timeouts.inc(),
        }
        Err(ServeError::Timeout {
            waited: shared.submitted.elapsed(),
        })
    }
}

/// Completion side of a ticket. Completing consumes it; dropping it
/// un-completed (a panic while delivering, shutdown race) delivers
/// [`ServeError::Canceled`] so the waiter never hangs.
pub(crate) struct Completer {
    shared: Arc<TicketShared>,
    done: bool,
}

impl Completer {
    pub(crate) fn new(
        metrics: Arc<Metrics>,
        submitted: Instant,
        timeout_at: Option<Instant>,
    ) -> (Ticket, Completer) {
        let shared = Arc::new(TicketShared {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
            submitted,
            timeout_at,
            metrics,
        });
        let completer = Completer {
            shared: Arc::clone(&shared),
            done: false,
        };
        (Ticket { shared }, completer)
    }

    /// When the request was admitted.
    pub(crate) fn submitted(&self) -> Instant {
        self.shared.submitted
    }

    /// Deliver a terminal result; whether the waiter will see it.
    pub(crate) fn complete(mut self, result: Result<Response, ServeError>) -> bool {
        self.done = true;
        self.shared.deliver(result)
    }

    /// Forget the ticket without delivering (used when admission fails and
    /// the caller gets the error synchronously instead).
    pub(crate) fn abandon(mut self) {
        self.done = true;
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.done {
            self.shared.deliver(Err(ServeError::Canceled));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tssa_obs::MetricsRegistry;

    use super::*;
    use crate::{silence_injected_panics_for_tests, INJECTED_PANIC};

    #[test]
    fn a_wake_up_on_a_poisoned_slot_leaves_the_waiter_waiting() {
        silence_injected_panics_for_tests();
        let far = Instant::now() + Duration::from_secs(30);
        for timeout_at in [None, Some(far)] {
            let metrics = Arc::new(Metrics::new(&MetricsRegistry::new()));
            let (ticket, completer) = Completer::new(metrics, Instant::now(), timeout_at);
            let shared = Arc::clone(&ticket.shared);
            let holder = std::thread::scope(|s| {
                s.spawn(|| {
                    let _slot = shared.lock();
                    std::panic::panic_any(INJECTED_PANIC);
                })
                .join()
            });
            assert!(holder.is_err());
            let waiter = std::thread::spawn(move || ticket.wait());
            // A wake-up with no result in the slot, as a spurious one is.
            std::thread::sleep(Duration::from_millis(50));
            shared.cv.notify_all();
            std::thread::sleep(Duration::from_millis(50));
            assert!(completer.complete(Err(ServeError::Canceled)));
            assert!(matches!(waiter.join().unwrap(), Err(ServeError::Canceled)));
        }
    }
}
