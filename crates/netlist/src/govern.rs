//! Cooperative execution governance: wall-clock deadlines and
//! cancellation tokens.
//!
//! Long-running kernels (the incremental session recompute, the SERTOPT
//! optimizer loops) periodically call
//! [`Deadline::check`] at points where their state is consistent. When
//! the budget is exhausted — the wall clock passed the deadline, or a
//! [`CancelToken`] shared with another thread was cancelled — the check
//! returns a typed [`Interrupted`] carrying the checkpoint's stage name,
//! and the caller unwinds with its last consistent partial result
//! instead of being killed mid-mutation.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use ser_netlist::govern::{CancelToken, Deadline, InterruptReason};
//!
//! // An unbounded deadline never interrupts.
//! assert!(Deadline::none().check("stage").is_ok());
//!
//! // A cancelled token interrupts at the next checkpoint.
//! let token = CancelToken::new();
//! let deadline = Deadline::none().with_token(token.clone());
//! assert!(deadline.check("stage").is_ok());
//! token.cancel();
//! let err = deadline.check("stage").unwrap_err();
//! assert_eq!(err.stage, "stage");
//! assert_eq!(err.reason, InterruptReason::Cancelled);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperative cancellation across threads.
///
/// Cloning shares the flag: any clone's [`CancelToken::cancel`] is seen
/// by every [`Deadline`] holding another clone.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every checkpoint observing this token
    /// interrupts from now on. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A cooperative execution budget: an optional wall-clock deadline plus
/// an optional [`CancelToken`].
///
/// `Deadline` is cheap to clone and check; kernels test it at stage or
/// block boundaries where their partial state is consistent.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    token: Option<CancelToken>,
}

impl Deadline {
    /// An unbounded budget: [`Deadline::check`] always succeeds.
    pub fn none() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    pub fn within(limit: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(limit),
            token: None,
        }
    }

    /// A budget expiring at `instant`.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            at: Some(instant),
            token: None,
        }
    }

    /// Attaches a cancellation token (keeping any wall-clock limit).
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Whether this budget can ever interrupt.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none() && self.token.is_none()
    }

    /// Whether the wall-clock deadline has passed (ignores the token).
    #[inline]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Checkpoint: returns `Err(Interrupted)` naming `stage` when the
    /// budget is exhausted, in priority order cancellation before
    /// deadline. Callers invoke this only where their partial state is
    /// consistent, so an interruption never leaves torn results.
    pub fn check(&self, stage: &'static str) -> Result<(), Interrupted> {
        // Deterministic injection point for deadline-at-every-stage
        // fault-injection runs (see `tests/fault_injection.rs`).
        crate::failpoint!(
            "govern::deadline",
            return Err(Interrupted {
                stage,
                reason: InterruptReason::Injected,
            })
        );
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(Interrupted {
                stage,
                reason: InterruptReason::Cancelled,
            });
        }
        if self.expired() {
            return Err(Interrupted {
                stage,
                reason: InterruptReason::DeadlineExpired,
            });
        }
        Ok(())
    }
}

/// Why a checkpoint interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptReason {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// A fault-injection hook forced the interruption (`fail-points`
    /// builds only).
    Injected,
}

/// Typed interruption: the budget ran out at the named checkpoint.
///
/// Carriers of this error guarantee the partial state they return
/// alongside (or retain) is consistent — optimizers report their
/// best-so-far assignment, sessions reject the mutation untouched or
/// poison themselves until recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// The checkpoint that observed the exhausted budget.
    pub stage: &'static str,
    /// What exhausted it.
    pub reason: InterruptReason,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.reason {
            InterruptReason::DeadlineExpired => "wall-clock deadline expired",
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::Injected => "injected interruption",
        };
        write!(f, "interrupted at `{}`: {why}", self.stage)
    }
}

impl std::error::Error for Interrupted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_interrupts() {
        let d = Deadline::none();
        assert!(d.is_unbounded());
        assert!(!d.expired());
        for _ in 0..3 {
            assert!(d.check("anywhere").is_ok());
        }
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::within(Duration::ZERO);
        assert!(!d.is_unbounded());
        assert!(d.expired());
        let err = d.check("estimate").unwrap_err();
        assert_eq!(err.stage, "estimate");
        assert_eq!(err.reason, InterruptReason::DeadlineExpired);
    }

    #[test]
    fn generous_budget_passes() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.check("estimate").is_ok());
    }

    #[test]
    fn token_cancellation_is_shared_and_wins() {
        let token = CancelToken::new();
        // Expired deadline AND cancelled token: cancellation reported.
        let d = Deadline::within(Duration::ZERO).with_token(token.clone());
        let other_clone = token.clone();
        other_clone.cancel();
        assert!(token.is_cancelled());
        let err = d.check("opt").unwrap_err();
        assert_eq!(err.reason, InterruptReason::Cancelled);
    }

    #[test]
    fn display_is_informative() {
        let e = Interrupted {
            stage: "sqp::iteration",
            reason: InterruptReason::DeadlineExpired,
        };
        let msg = e.to_string();
        assert!(msg.contains("sqp::iteration"), "{msg}");
        assert!(msg.contains("deadline"), "{msg}");
    }

    #[test]
    fn deadline_at_instant() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        let d = Deadline::at(Instant::now() + Duration::from_secs(60));
        assert!(!d.expired());
    }
}
