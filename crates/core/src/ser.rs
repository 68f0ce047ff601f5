//! Soft-error-rate (FIT) estimation over a particle-charge spectrum — the
//! paper's stated "future versions of ASERTA will have look-up tables for
//! different amounts of injected charge", implemented.
//!
//! The abstract unreliability `U` of Eq. 4 is proportional to the SER for
//! a fixed charge. This module makes the constants explicit: a strike
//! rate per unit area, a discretized charge spectrum, and a clock period
//! converting arriving glitch width into a latching probability.

use ser_cells::Library;
use ser_logicsim::SensitizationMatrix;
use ser_netlist::{Circuit, NodeId};
use serde::{Deserialize, Serialize};

use crate::analysis::try_analyze;
use crate::binding::CircuitCells;
use crate::config::AsertaConfig;
use crate::error::AnalysisError;

/// Physical constants for FIT conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SerModel {
    /// Particle strikes per gate-area-unit per second (area units are
    /// [`GateParams::area`](ser_spice::GateParams::area), i.e. unit-inverter
    /// equivalents; sea-level neutron flux folded with sensitive-volume
    /// geometry).
    pub strike_rate_per_area: f64,
    /// Latch aperture and clock period: an arriving glitch of width `w`
    /// latches with probability
    /// [`LatchingWindow::capture_probability`](crate::latching::LatchingWindow::capture_probability).
    pub latching: crate::latching::LatchingWindow,
    /// Discretized charge spectrum: `(charge C, probability)` pairs;
    /// probabilities should sum to 1.
    pub charge_spectrum: Vec<(f64, f64)>,
}

impl Default for SerModel {
    /// A 1 GHz clock and an exponential-ish three-point charge spectrum
    /// centred on the paper's 16 fC.
    fn default() -> Self {
        SerModel {
            strike_rate_per_area: 1.0e-12,
            latching: crate::latching::LatchingWindow::default(),
            charge_spectrum: vec![(8.0e-15, 0.60), (16.0e-15, 0.30), (32.0e-15, 0.10)],
        }
    }
}

/// FIT-rate analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct SerReport {
    /// Circuit soft-error rate in FIT (failures per 10⁹ device-hours).
    pub fit: f64,
    /// Per-node FIT contribution (0 for primary inputs).
    pub per_gate_fit: Vec<f64>,
}

/// Computes the FIT rate by integrating latching probability over the
/// charge spectrum (one ASERTA electrical pass per charge point).
///
/// # Errors
///
/// [`AnalysisError::InvalidConfig`] for an empty charge spectrum, and
/// any error [`try_analyze`] reports at a charge point.
pub fn soft_error_rate(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    pij: &SensitizationMatrix,
    cfg: &AsertaConfig,
    model: &SerModel,
) -> Result<SerReport, AnalysisError> {
    if model.charge_spectrum.is_empty() {
        return Err(AnalysisError::InvalidConfig {
            reason: "charge spectrum needs at least one point",
        });
    }
    let mut per_gate = vec![0.0f64; circuit.node_count()];
    for &(charge, weight) in &model.charge_spectrum {
        let mut cfg_q = cfg.clone();
        cfg_q.charge = charge;
        let report = try_analyze(circuit, cells, library, pij, &cfg_q)?;
        for id in circuit.gates() {
            let w_total = report
                .expected_widths
                .total_expected_width(id, report.generated_widths[id.index()]);
            let p_latch = model.latching.capture_probability(w_total);
            let Some(p) = cells.get(id) else {
                panic!("gates carry parameters")
            };
            let area = p.area();
            per_gate[id.index()] += weight * model.strike_rate_per_area * area * p_latch;
        }
    }
    // failures/s → FIT.
    const FIT_SCALE: f64 = 3600.0 * 1.0e9;
    for v in per_gate.iter_mut() {
        *v *= FIT_SCALE;
    }
    Ok(SerReport {
        fit: per_gate.iter().sum(),
        per_gate_fit: per_gate,
    })
}

/// Per-gate FIT sorted descending — soft spots in physical units.
pub fn rank_by_fit(report: &SerReport, circuit: &Circuit) -> Vec<(NodeId, f64)> {
    let mut v: Vec<(NodeId, f64)> = circuit
        .gates()
        .map(|g| (g, report.per_gate_fit[g.index()]))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pij;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    #[test]
    fn fit_is_positive_and_scales_with_rate() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let cfg = AsertaConfig::fast();
        let pij = test_pij(&c, 512, 1);
        let m1 = SerModel::default();
        let mut m2 = m1.clone();
        m2.strike_rate_per_area *= 10.0;
        let r1 = soft_error_rate(&c, &cells, &mut lib, &pij, &cfg, &m1).unwrap();
        let r2 = soft_error_rate(&c, &cells, &mut lib, &pij, &cfg, &m2).unwrap();
        assert!(r1.fit > 0.0);
        assert!((r2.fit / r1.fit - 10.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_charges_mean_more_fit() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let cfg = AsertaConfig::fast();
        let pij = test_pij(&c, 512, 1);
        let small = SerModel {
            charge_spectrum: vec![(4.0e-15, 1.0)],
            ..SerModel::default()
        };
        let big = SerModel {
            charge_spectrum: vec![(32.0e-15, 1.0)],
            ..SerModel::default()
        };
        let r_small = soft_error_rate(&c, &cells, &mut lib, &pij, &cfg, &small).unwrap();
        let r_big = soft_error_rate(&c, &cells, &mut lib, &pij, &cfg, &big).unwrap();
        assert!(r_big.fit > r_small.fit, "{} vs {}", r_big.fit, r_small.fit);
    }

    #[test]
    fn ranking_is_descending() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let cfg = AsertaConfig::fast();
        let pij = test_pij(&c, 512, 1);
        let r = soft_error_rate(&c, &cells, &mut lib, &pij, &cfg, &SerModel::default()).unwrap();
        let ranked = rank_by_fit(&r, &c);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn empty_charge_spectrum_is_a_typed_error() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let pij = test_pij(&c, 64, 1);
        let model = SerModel {
            charge_spectrum: Vec::new(),
            ..SerModel::default()
        };
        let err =
            soft_error_rate(&c, &cells, &mut lib, &pij, &AsertaConfig::fast(), &model).unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidConfig { .. }), "{err}");
    }
}
