//! The typed error surface of the serving layer.
//!
//! Every admission decision the service makes is visible here: a request is
//! either executed or turned away with a variant saying why. Nothing is
//! dropped silently — even a worker dying mid-batch completes the affected
//! tickets with [`ServeError::Canceled`].

use std::error::Error;
use std::fmt;
use std::time::Duration;

use tssa_backend::ExecError;
use tssa_frontend::FrontendError;

/// Error returned by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed without queueing
    /// (load-shedding backpressure).
    QueueFull {
        /// Configured queue depth at the time of the shed.
        depth: usize,
    },
    /// The request's deadline elapsed before execution started.
    DeadlineExceeded {
        /// How long the request sat in the service before being timed out.
        waited: Duration,
    },
    /// The request (or model load) was still executing when its deadline
    /// plus the configured grace elapsed: a stalled compile or a slow
    /// executor. Unlike [`ServeError::DeadlineExceeded`] (shed before
    /// execution), work may still be running when this is returned; its
    /// eventual result is discarded and its span is marked `timed_out`.
    Timeout {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The model source failed to compile in the frontend.
    Frontend(FrontendError),
    /// The backend failed while executing the (possibly batched) program.
    Exec(ExecError),
    /// The request or batch specification was malformed (wrong arity,
    /// non-tensor stacked argument, unsplittable output, ...).
    InvalidRequest(String),
    /// The request was accepted but the service terminated before a worker
    /// could produce a result (worker panic or shutdown race). Guaranteed
    /// terminal: the ticket completes rather than hanging.
    Canceled,
    /// Plan compilation panicked (injected by
    /// [`crate::FaultKind::CompilePanic`] or a genuine compiler bug). The
    /// unwinding thread was the single-flight leader; the in-flight marker
    /// was retracted, nothing was cached, and coalesced followers were woken
    /// to retry — so this is always a typed result, never a hang.
    CompilePanic,
}

impl ServeError {
    pub(crate) fn invalid(message: impl Into<String>) -> ServeError {
        ServeError::InvalidRequest(message.into())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth}); request shed")
            }
            ServeError::DeadlineExceeded { waited } => {
                write!(
                    f,
                    "deadline exceeded after {:.1}ms in queue",
                    waited.as_secs_f64() * 1e3
                )
            }
            ServeError::Timeout { waited } => {
                write!(
                    f,
                    "request timed out after {:.1}ms (work abandoned while executing)",
                    waited.as_secs_f64() * 1e3
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Frontend(e) => write!(f, "frontend: {e}"),
            ServeError::Exec(e) => write!(f, "execution: {e}"),
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Canceled => write!(f, "request canceled before execution"),
            ServeError::CompilePanic => {
                write!(f, "plan compilation panicked; nothing was cached")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Frontend(e) => Some(e),
            ServeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<FrontendError> for ServeError {
    fn from(e: FrontendError) -> Self {
        ServeError::Frontend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let variants = [
            ServeError::QueueFull { depth: 4 },
            ServeError::DeadlineExceeded {
                waited: Duration::from_millis(3),
            },
            ServeError::Timeout {
                waited: Duration::from_millis(9),
            },
            ServeError::ShuttingDown,
            ServeError::invalid("bad arity"),
            ServeError::Canceled,
            ServeError::CompilePanic,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
        let e = ServeError::from(ExecError::ArityMismatch {
            expected: 1,
            found: 2,
        });
        assert!(e.to_string().contains("inputs"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn queue_full_reports_depth() {
        assert!(ServeError::QueueFull { depth: 64 }
            .to_string()
            .contains("64"));
    }
}
