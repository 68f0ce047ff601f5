//! Bit-parallel zero-delay logic simulation and probability estimation.
//!
//! ASERTA's logical-masking model needs two statistical inputs
//! (paper §3.1):
//!
//! * the **static probability** `p_i` of every node being 1 — the paper
//!   reads these from Synopsys Design Compiler with PI probability 0.5;
//!   [`probability`] computes them analytically (topological propagation
//!   under the independence assumption) or by sampling;
//! * the **sensitization probability** `P_ij` that at least one path from
//!   gate `i` to primary output `j` is sensitized — exact computation is
//!   NP-complete under reconvergent fan-out, so the paper estimates it
//!   with "zero delay simulation of the circuit with 10000 random inputs";
//!   [`sensitize`] implements exactly that, 64 vectors at a time, flipping
//!   each node and resimulating only its fan-out cone.
//!
//! The estimator and the sampled probabilities run on [`kernel`], the
//! one packed gate evaluator: flatten a circuit into a
//! [`CsrView`](ser_netlist::csr::CsrView) once and evaluate 64 vectors
//! per word over it.
//!
//! # Example
//!
//! ```
//! use ser_logicsim::{probability, sensitize, EngineConfig};
//! use ser_netlist::generate;
//!
//! let c17 = generate::c17();
//! let engine = EngineConfig::new();
//! let pij = sensitize::sensitization_probabilities_cfg(
//!     &c17,
//!     1024,
//!     7,
//!     engine.threads(),
//!     engine.cone_chunk(),
//!     &engine.pij(),
//! );
//! // A primary output is trivially sensitized to itself.
//! let po0 = c17.primary_outputs()[0];
//! assert_eq!(pij.p(po0, 0), 1.0);
//!
//! let p = probability::static_probabilities_analytic(&c17, 0.5);
//! assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod kernel;
pub mod probability;
pub mod random;
pub mod sensitize;

pub use engine::{EngineConfig, EngineConfigError};
pub use sensitize::SensitizationMatrix;
