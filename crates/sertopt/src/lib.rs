//! SERTOPT — Soft-Error Tolerance OPTimization of nanometer circuits.
//!
//! The optimization half of the DATE'05 paper (§4). SERTOPT reassigns
//! per-gate delays **without changing any PI→PO path delay** — the
//! zero-delay-overhead guarantee — and realizes each assignment with
//! library cells that vary gate size, channel length, VDD and Vth,
//! minimizing the Eq. 5 cost
//!
//! ```text
//! C = W1·U/U₀ + W2·T/T₀ + W3·E/E₀ + W4·A/A₀
//! ```
//!
//! Delay moves live in the nullspace of the path-topology matrix `T`
//! (one row per PI→PO path). Enumerating paths is exponential, so `T` is
//! never built: the moves are parameterized by the *tension space*
//! ([`nullspace::TensionSpace`]), potentials on merged fan-in net classes
//! whose differences provably change no path delay. On the small circuits
//! where `T` was enumerated, its dimension equals the exact nullity.
//! Delay targets are realized by reverse-topological library
//! matching under the paper's VDD monotonicity constraint
//! ([`matching`]), and the cost is minimized by an SQP-flavoured
//! projected-gradient search ([`optimize::sqp`]) or the paper-blessed
//! alternatives: simulated annealing, a genetic algorithm, and coordinate
//! descent.
//!
//! # Error handling
//!
//! Candidate evaluation is fallible: [`DelayProblem::try_evaluate_phi`]
//! and [`DelayProblem::evaluate_batch`] return typed [`EvalError`]s,
//! replica panics are caught per candidate by the replica deal
//! ([`aserta::deal`], shared with ASERTA's corner sweeps), and every
//! optimizer skips or penalizes failed candidates
//! deterministically — see [`error`]. The library code itself is
//! compiled with `clippy::unwrap_used`/`clippy::expect_used` denied;
//! remaining panics are documented invariants.
//!
//! # Example
//!
//! ```no_run
//! use sertopt::{optimize, AllowedParams, OptimizeRequest, OptimizerConfig};
//! use ser_cells::{CharGrids, Library};
//! use ser_netlist::generate;
//! use ser_spice::Technology;
//!
//! let c432 = generate::iscas85("c432").unwrap();
//! let mut lib = Library::new(Technology::ptm70(), CharGrids::standard());
//! let req = OptimizeRequest::new(OptimizerConfig::default());
//! let outcome = optimize(&c432, &mut lib, &req);
//! println!(
//!     "unreliability −{:.0}% at {:.2}× delay",
//!     100.0 * outcome.unreliability_decrease(),
//!     outcome.delay_ratio()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod allowed;
mod baseline;
pub mod cost;
pub mod error;
pub mod matching;
pub mod nullspace;
pub mod optimize;
mod problem;
mod result;
pub mod sta;

pub use allowed::AllowedParams;
pub use baseline::size_for_speed;
pub use cost::{CostBreakdown, CostWeights, EnergyModel};
pub use error::EvalError;
pub use matching::MatchPlan;
pub use optimize::{optimize, Algorithm, OptimizeRequest, OptimizerConfig};
pub use problem::{Candidate, DelayProblem, EvalStrategy};
pub use result::{Outcome, Termination};
