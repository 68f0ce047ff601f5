//! Typed evaluation errors — the SERTOPT sibling of
//! [`aserta::AnalysisError`].
//!
//! One candidate evaluation runs matching (targets → cells) and then an
//! ASERTA measurement on a session replica. Either stage can fail on
//! untrusted or degenerate input, and under the `fail-points` feature
//! either can be forced to fail or panic. Every failure surfaces as an
//! [`EvalError`] from [`DelayProblem::try_evaluate_phi`] or as one
//! `Err` entry of [`DelayProblem::evaluate_batch`]; the optimizers skip
//! or penalize failed candidates deterministically, so a fault never
//! aborts a search.
//!
//! [`DelayProblem::try_evaluate_phi`]: crate::DelayProblem::try_evaluate_phi
//! [`DelayProblem::evaluate_batch`]: crate::DelayProblem::evaluate_batch

use std::fmt;

/// Why one candidate evaluation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// The ASERTA measurement rejected the candidate or poisoned its
    /// session (the replica rebuilds itself before its next evaluation).
    Analysis(aserta::AnalysisError),
    /// Delay-to-cell matching could not realize the targets.
    Match {
        /// What the matcher objected to.
        reason: &'static str,
    },
    /// A replica panicked mid-evaluation; the panic was caught for that
    /// candidate alone ([`aserta::deal`]) and the replica is rebuilt
    /// from scratch before its next evaluation.
    Panicked {
        /// Where the panic was caught.
        context: &'static str,
    },
    /// A `fail-points` test hook fired (named by its fail point).
    FaultInjected(&'static str),
}

impl From<aserta::AnalysisError> for EvalError {
    fn from(e: aserta::AnalysisError) -> Self {
        EvalError::Analysis(e)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Analysis(e) => write!(f, "analysis failed: {e}"),
            EvalError::Match { reason } => write!(f, "matching failed: {reason}"),
            EvalError::Panicked { context } => {
                write!(f, "evaluation panicked (caught at {context})")
            }
            EvalError::FaultInjected(name) => write!(f, "fault injected at `{name}`"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EvalError::Match {
            reason: "one target delay per node",
        };
        assert!(e.to_string().contains("one target delay per node"));
        let e = EvalError::from(aserta::AnalysisError::NonFiniteInput {
            what: "injected charge",
            value: f64::NAN,
        });
        assert!(e.to_string().contains("injected charge"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EvalError::FaultInjected("sertopt::replica_evaluate");
        assert!(e.to_string().contains("sertopt::replica_evaluate"));
    }
}
