//! Typed analysis errors and the poisoned-session taxonomy.
//!
//! The fallible entry points
//! ([`SessionBuilder::build`](crate::SessionBuilder::build),
//! `try_apply`, `try_set_cells`, `try_set_charge`,
//! [`try_analyze`](crate::try_analyze)) classify failures in two tiers:
//!
//! * **Rejections** — the input was invalid and nothing was mutated: the
//!   session is bitwise identical to its pre-call state
//!   ([`AnalysisError::MissingCellParams`],
//!   [`AnalysisError::InvalidGateParams`],
//!   [`AnalysisError::NonFiniteInput`],
//!   [`AnalysisError::InvalidConfig`], [`AnalysisError::BadCell`],
//!   [`AnalysisError::FaultInjected`], and
//!   [`AnalysisError::Interrupted`] when the session's
//!   [`Deadline`](ser_netlist::govern::Deadline) is already exhausted at
//!   a mutating entry point — the call is refused *before* any state
//!   changes);
//! * **Poisonings** — a numerical guard tripped *mid-recompute*, so the
//!   session's caches may be partially updated. The session records a
//!   [`PoisonReason`] and every further mutation is refused with
//!   [`AnalysisError::Poisoned`] until
//!   [`AnalysisSession::recover`](crate::AnalysisSession::recover) runs a
//!   full-dirty rebuild. An exhausted budget observed at a *stage
//!   boundary inside* a recompute poisons too
//!   ([`PoisonReason::Interrupted`]): the caches are partially updated
//!   at that point, exactly like a numerical fault.

use std::fmt;

use ser_logicsim::engine::EngineConfigError;
use ser_netlist::govern::Interrupted;

/// Why an [`AnalysisSession`](crate::AnalysisSession) is poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoisonReason {
    /// A numerical guard in a hot kernel saw a NaN, infinity or negative
    /// quantity that must be non-negative.
    NumericalFault {
        /// Which kernel tripped (`"load"`, `"timing"`, `"generated-width"`,
        /// `"width-row"`, `"unreliability"`, `"critical-delay"`).
        stage: &'static str,
        /// The node being recomputed, when attributable.
        node: Option<u32>,
    },
    /// A fail point injected the fault mid-recompute (test builds only).
    Injected(&'static str),
    /// The execution budget ran out at a stage boundary *inside* a
    /// recompute; earlier stages had already mutated the caches.
    Interrupted(Interrupted),
    /// A recovery rebuild failed after the session had already shed its
    /// derived caches; only another recovery can restore the session.
    RecoveryFailed,
}

impl fmt::Display for PoisonReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoisonReason::NumericalFault {
                stage,
                node: Some(n),
            } => {
                write!(f, "non-finite value in the {stage} kernel at node {n}")
            }
            PoisonReason::NumericalFault { stage, node: None } => {
                write!(f, "non-finite value in the {stage} kernel")
            }
            PoisonReason::Injected(name) => write!(f, "fault injected at `{name}`"),
            PoisonReason::Interrupted(i) => write!(f, "recompute {i}"),
            PoisonReason::RecoveryFailed => {
                write!(f, "a recovery rebuild failed with the caches shed")
            }
        }
    }
}

/// Typed error surfaced by the fallible analysis entry points (see the
/// [module docs](self) for the rejection/poisoning split).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A gate has no cell parameters bound.
    MissingCellParams {
        /// The gate's node index.
        node: u32,
    },
    /// A gate's parameters are unusable (non-finite, non-positive size,
    /// or the target node is a primary input).
    InvalidGateParams {
        /// The offending node index.
        node: u32,
        /// What was wrong.
        reason: &'static str,
    },
    /// A library cell variant failed validation (non-finite table entries
    /// or unphysical scalars) — e.g. a hand-inserted or corrupted cell.
    BadCell {
        /// The gate bound to the bad cell.
        node: u32,
    },
    /// A scalar input (charge, probability, …) was non-finite or out of
    /// range.
    NonFiniteInput {
        /// What the scalar was.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The analysis configuration is unusable.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// A fail point rejected the call before any mutation (test builds
    /// only); the session is bitwise intact.
    FaultInjected(&'static str),
    /// The session's execution budget
    /// ([`Deadline`](ser_netlist::govern::Deadline)) was already
    /// exhausted at a mutating entry point; the call was refused before
    /// any mutation, so the session is bitwise intact.
    Interrupted(Interrupted),
    /// The session is poisoned; only
    /// [`recover`](crate::AnalysisSession::recover) is accepted.
    Poisoned(PoisonReason),
    /// The engine environment overlay
    /// ([`EngineConfig::from_env`](ser_logicsim::engine::EngineConfig::from_env))
    /// found a malformed `SER_*` variable while resolving a session
    /// build; nothing was constructed.
    Engine(EngineConfigError),
}

impl From<EngineConfigError> for AnalysisError {
    fn from(e: EngineConfigError) -> Self {
        AnalysisError::Engine(e)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::MissingCellParams { node } => {
                write!(f, "node {node} carries no cell parameters")
            }
            AnalysisError::InvalidGateParams { node, reason } => {
                write!(f, "invalid parameters for node {node}: {reason}")
            }
            AnalysisError::BadCell { node } => {
                write!(f, "library cell bound to node {node} fails validation")
            }
            AnalysisError::NonFiniteInput { what, value } => {
                write!(f, "{what} must be finite and in range, got {value:e}")
            }
            AnalysisError::InvalidConfig { reason } => {
                write!(f, "invalid analysis configuration: {reason}")
            }
            AnalysisError::FaultInjected(name) => {
                write!(f, "fault injected at `{name}` (session unchanged)")
            }
            AnalysisError::Interrupted(i) => {
                write!(f, "{i} (session unchanged)")
            }
            AnalysisError::Poisoned(reason) => {
                write!(f, "session is poisoned ({reason}); recover() first")
            }
            AnalysisError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AnalysisError::Poisoned(PoisonReason::NumericalFault {
            stage: "width-row",
            node: Some(7),
        });
        let s = e.to_string();
        assert!(s.contains("poisoned") && s.contains("width-row") && s.contains('7'));
        assert!(AnalysisError::FaultInjected("aserta::session_recompute")
            .to_string()
            .contains("aserta::session_recompute"));
    }
}
