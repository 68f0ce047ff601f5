//! Characterized cell library: the paper's "SPICE look-up tables".
//!
//! ASERTA never runs transistor-level simulation during analysis; it looks
//! everything up in tables characterized once per cell variant — exactly
//! the architecture this crate provides:
//!
//! * [`lut`] — 1-D/2-D lookup tables with multilinear interpolation and
//!   clamped extrapolation ("ASERTA uses linear-interpolation inside the
//!   look-up tables");
//! * [`CharacterizedCell`] — one `(kind, fan-in, size, length, VDD, Vth)`
//!   variant with its delay/output-ramp/glitch-width tables (filled by
//!   driving [`ser_spice`]), plus analytic input capacitance, leakage,
//!   energy and area;
//! * [`Library`] — a collection of variants with exact-match lookup,
//!   per-(kind, fan-in) enumeration for SERTOPT's matching step, lazy
//!   memoized characterization, one parallel bulk path
//!   ([`Library::characterize_all`]) and JSON persistence.
//!
//! # Example
//!
//! ```
//! use ser_cells::{CharGrids, Library};
//! use ser_spice::{GateParams, Technology};
//! use ser_netlist::GateKind;
//!
//! let tech = Technology::ptm70();
//! let mut lib = Library::new(tech.clone(), CharGrids::coarse());
//! let nominal = GateParams::new(GateKind::Nand, 2);
//! let cell = lib.get_or_characterize(&nominal);
//! let d = cell.delay_at(2.0e-15, 20.0e-12);
//! assert!(d > 0.0 && d < 1.0e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod characterize;
mod library;
pub mod lut;

pub use cell::CharacterizedCell;
pub use characterize::{characterize_cell, CharGrids};
pub use library::{Library, LibrarySpec};
