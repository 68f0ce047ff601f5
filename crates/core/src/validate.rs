//! Validation against the transistor-level reference — the paper's Fig. 3
//! experiment: per-node unreliability from ASERTA vs "SPICE" (50 random
//! vectors, strikes at every gate output, analog glitch widths at the
//! POs), correlated over the nodes within a few levels of the primary
//! outputs.
//!
//! The reference ([`ser_spice::circuit_sim`]) models every gate with
//! ASERTA's own logical-effort device model. The correlation therefore
//! tests ASERTA's approximations — the glitch LUTs, the attenuation
//! model and the sampled `P_ij` — and not device-model error, which
//! both sides share.

use ser_cells::Library;
use ser_logicsim::random::random_vectors;
use ser_netlist::{topo, Circuit, NodeId};
use ser_spice::circuit_sim::{reference_unreliability, CircuitElectrical, CircuitSimConfig};
use ser_spice::measure::pearson_correlation;
use ser_spice::{Strike, Technology};

use crate::analysis::try_analyze_fresh;
use crate::binding::CircuitCells;
use crate::config::AsertaConfig;
use crate::error::AnalysisError;

/// The Fig. 3 data: per-node unreliability by both methods, and their
/// Pearson correlation.
#[derive(Debug, Clone)]
pub struct CorrelationReport {
    /// The nodes compared (gates within `max_level` of a PO).
    pub nodes: Vec<NodeId>,
    /// ASERTA per-node unreliability `U_i`, size·seconds.
    pub aserta: Vec<f64>,
    /// Transistor-level per-node unreliability, same units.
    pub reference: Vec<f64>,
    /// Pearson correlation (the paper reports 0.96 on c432, 0.9 average).
    pub correlation: f64,
}

/// Runs both analyses and correlates them.
///
/// * `n_vectors` — random vectors for the reference run (paper: 50);
/// * `max_level` — include gates at most this many levels from a PO
///   (paper plots ≤ 5 for c432).
///
/// The reference shares ASERTA's load model and charge so the two sides
/// measure the same physical experiment.
///
/// # Errors
///
/// [`AnalysisError::InvalidConfig`] when `n_vectors` is 0, before
/// either side runs; otherwise any [`AnalysisError`] of the ASERTA side
/// (see [`try_analyze_fresh`]), and the reference run is not started
/// then.
pub fn correlate_with_reference(
    tech: &Technology,
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    cfg: &AsertaConfig,
    n_vectors: usize,
    max_level: usize,
) -> Result<CorrelationReport, AnalysisError> {
    if n_vectors == 0 {
        return Err(AnalysisError::InvalidConfig {
            reason: "the reference run needs at least one vector",
        });
    }
    // ASERTA side.
    let report = try_analyze_fresh(circuit, cells, library, cfg)?;

    // Reference side.
    let sim_cfg = CircuitSimConfig {
        strike: Strike::new(
            cfg.charge,
            Strike::DEFAULT_TAU_RISE,
            Strike::DEFAULT_TAU_FALL,
        ),
        wire_cap_per_pin: cfg.wire_cap_per_pin,
        po_load: cfg.po_load,
        ..CircuitSimConfig::default()
    };
    let elec = CircuitElectrical::new(tech, circuit, &sim_cfg, |id| {
        let Some(p) = cells.get(id) else {
            panic!("gates carry parameters")
        };
        *p
    });
    let vectors = random_vectors(
        circuit.primary_inputs().len(),
        n_vectors,
        0.5,
        cfg.seed ^ 0x51CE_u64,
    );
    let reference_u = reference_unreliability(tech, circuit, &elec, &vectors, &sim_cfg);

    // Compare over near-PO gates (the paper's plotted slice).
    let levels = topo::levels_to_outputs(circuit);
    let nodes: Vec<NodeId> = circuit
        .gates()
        .filter(|&g| levels[g.index()] <= max_level)
        .collect();
    let aserta: Vec<f64> = nodes
        .iter()
        .map(|n| report.per_gate_unreliability[n.index()])
        .collect();
    let reference: Vec<f64> = nodes.iter().map(|n| reference_u[n.index()]).collect();
    let correlation = pearson_correlation(&aserta, &reference).unwrap_or(0.0);

    Ok(CorrelationReport {
        nodes,
        aserta,
        reference,
        correlation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_cells::CharGrids;
    use ser_netlist::generate;

    #[test]
    fn c17_correlation_is_strongly_positive() {
        let tech = Technology::ptm70();
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(tech.clone(), CharGrids::coarse());
        let mut cfg = AsertaConfig::fast();
        cfg.sensitization_vectors = 2048;
        let r = correlate_with_reference(&tech, &c, &cells, &mut lib, &cfg, 16, 5).unwrap();
        assert_eq!(r.nodes.len(), 6, "all six NANDs are within 5 levels");
        assert!(
            r.correlation > 0.5,
            "correlation {} too low; aserta={:?} ref={:?}",
            r.correlation,
            r.aserta,
            r.reference
        );
    }

    #[test]
    fn zero_reference_vectors_is_invalid_config() {
        let tech = Technology::ptm70();
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(tech.clone(), CharGrids::coarse());
        let err =
            correlate_with_reference(&tech, &c, &cells, &mut lib, &AsertaConfig::fast(), 0, 5)
                .unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidConfig { .. }), "{err}");
    }
}
