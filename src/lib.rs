//! Umbrella crate for the DATE'05 soft-error reproduction
//! (*Soft-Error Tolerance Analysis and Optimization of Nanometer
//! Circuits*, Dhillon/Diril/Chatterjee).
//!
//! Re-exports the workspace crates under stable names:
//!
//! * [`netlist`] — circuit representation, `.bench` I/O, generators;
//! * [`spice`] — transistor-level transient simulation substrate;
//! * [`cells`] — characterized cell library (lookup tables);
//! * [`logicsim`] — bit-parallel logic simulation and probabilities;
//! * [`aserta`] — soft-error tolerance **analysis** (the paper's §3);
//! * [`sertopt`] — soft-error tolerance **optimization** (the paper's §4);
//! * [`serve`] — the resident analysis daemon (`ser-serve`) and its
//!   typed wire API over warm, pooled analysis sessions.
//!
//! # Example: the paper's pipeline in six lines
//!
//! ```
//! use soft_error::aserta::{try_analyze_fresh, AsertaConfig, CircuitCells};
//! use soft_error::cells::{CharGrids, Library};
//! use soft_error::netlist::generate;
//! use soft_error::spice::Technology;
//!
//! let circuit = generate::c17();
//! let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
//! let cells = CircuitCells::nominal(&circuit);
//! let report = try_analyze_fresh(&circuit, &cells, &mut library, &AsertaConfig::fast())?;
//! assert!(report.unreliability > 0.0);
//! # Ok::<(), soft_error::aserta::AnalysisError>(())
//! ```

pub use aserta;
pub use ser_cells as cells;
pub use ser_logicsim as logicsim;
pub use ser_netlist as netlist;
pub use ser_serve as serve;
pub use ser_spice as spice;
pub use sertopt;
