//! ASERTA — Accurate Soft-Error Tolerance Analysis of nanometer circuits.
//!
//! The analysis half of the DATE'05 paper (§3). Given a gate-level
//! circuit, a cell assignment and a characterized library, ASERTA
//! estimates the circuit's *unreliability*:
//!
//! 1. a strike (fixed charge, default 16 fC) is notionally injected at
//!    every gate output; the **generated glitch width** `w_i` comes from
//!    the library's strike tables ([`ser_cells`]);
//! 2. **logical masking** weights the propagation from gate `i` through
//!    each successor `s` towards each primary output `j` with
//!    `π_isj = S_is·P_ij / Σ_k S_ik·P_kj` (Eq. 2), where `S_is` is the
//!    probability that `s`'s side inputs are non-controlling and `P_ij`
//!    the simulated path-sensitization probability ([`ser_logicsim`]);
//! 3. **electrical masking** attenuates widths through each gate with the
//!    paper's ramp model (Eq. 1, [`glitch::attenuate`]), evaluated in one
//!    reverse-topological pass over tables of expected output widths at
//!    10 sample widths ([`electrical`]);
//! 4. **latching-window masking** makes the error probability
//!    proportional to the arriving width, giving
//!    `U_i = Z_i · Σ_j W_ij` (Eq. 3) and `U = Σ_i U_i` (Eq. 4).
//!
//! The crate also provides the Fig. 3 validation harness (correlation
//! against the transistor-level reference), multi-corner sweeps over a
//! warm session ([`corners`]) and a FIT-rate extension over a charge
//! spectrum (the paper's stated future work).
//!
//! # Error handling
//!
//! Every analysis entry point is fallible: [`try_analyze`],
//! [`try_analyze_fresh`], [`AsertaConfig::validate`] and the session's
//! `try_*` calls return a typed [`AnalysisError`] instead of panicking,
//! and mid-recompute numerical faults flip the
//! session into an explicit *poisoned* state recoverable with
//! [`AnalysisSession::recover`] — see [`error`] and the
//! [`session`] module docs. The library code itself is compiled with
//! `clippy::unwrap_used`/`clippy::expect_used` denied; remaining panics
//! are documented invariants.
//!
//! # Example
//!
//! ```no_run
//! use aserta::{try_analyze_fresh, AsertaConfig, CircuitCells};
//! use ser_cells::{CharGrids, Library};
//! use ser_netlist::generate;
//! use ser_spice::Technology;
//!
//! let c17 = generate::c17();
//! let mut lib = Library::new(Technology::ptm70(), CharGrids::standard());
//! let cells = CircuitCells::nominal(&c17);
//! let report = try_analyze_fresh(&c17, &cells, &mut lib, &AsertaConfig::default())?;
//! println!("unreliability U = {:.3e}", report.unreliability);
//! # Ok::<(), aserta::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analysis;
mod binding;
mod config;
pub mod corners;
mod deal;
pub mod electrical;
pub mod error;
pub mod glitch;
pub mod latching;
pub mod logical;
pub mod report;
pub mod ser;
pub mod session;
pub mod snapshot;
pub mod validate;

pub use analysis::{try_analyze, try_analyze_fresh, AsertaReport};
pub use binding::{gate_input_ramp, node_load, timing_view, CircuitCells, LoadModel, TimingView};
pub use config::AsertaConfig;
pub use deal::deal;
pub use electrical::ExpectedWidths;
pub use error::{AnalysisError, PoisonReason};
pub use ser_logicsim::engine::{EngineConfig, EngineConfigError};
pub use ser_netlist::govern::{CancelToken, Deadline, Interrupted};
pub use session::{AnalysisSession, ApplyStats, SessionBuilder};
pub use snapshot::{SessionSnapshot, SessionSnapshotError};

/// The default-engine `P_ij` estimate the unit tests analyze over.
#[cfg(test)]
pub(crate) fn test_pij(
    circuit: &ser_netlist::Circuit,
    n_vectors: usize,
    seed: u64,
) -> ser_logicsim::SensitizationMatrix {
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = n_vectors;
    cfg.seed = seed;
    session::estimate_pij(circuit, &cfg, &EngineConfig::new())
}
