//! The top-level ASERTA analysis entry points (paper §3 end-to-end).
//!
//! Since the single-engine consolidation there is no separate "fresh"
//! pipeline: [`try_analyze`] cold-starts an
//! [`AnalysisSession`](crate::AnalysisSession) (construct → full-dirty
//! recompute → extract report), so batch and incremental analyses run
//! the exact same kernels. The workspace `fresh_path_equiv` proptest
//! pins the reports bitwise against the pre-consolidation pipeline.

use ser_cells::Library;
use ser_logicsim::{EngineConfig, SensitizationMatrix};
use ser_netlist::{Circuit, NodeId};

use crate::binding::{CircuitCells, TimingView};
use crate::config::AsertaConfig;
use crate::electrical::ExpectedWidths;
use crate::error::AnalysisError;
use crate::session::AnalysisSession;

/// Everything ASERTA computes for one circuit + cell assignment.
#[derive(Debug, Clone)]
pub struct AsertaReport {
    /// Circuit unreliability `U = Σ_i U_i` (Eq. 4), in size·seconds.
    pub unreliability: f64,
    /// Per-node `U_i = Z_i · Σ_j W_ij` (Eq. 3); zero for primary inputs.
    pub per_gate_unreliability: Vec<f64>,
    /// Per-node generated glitch width `w_i` from the strike tables,
    /// seconds.
    pub generated_widths: Vec<f64>,
    /// The expected-width tables (exposes `W_ij` via
    /// [`ExpectedWidths::expected_width`]).
    pub expected_widths: ExpectedWidths,
    /// Static 1-probabilities used for logical masking.
    pub static_probs: Vec<f64>,
    /// The timing view (loads, ramps, delays) used for electrical
    /// masking.
    pub timing: TimingView,
}

impl AsertaReport {
    /// The `W_ij` matrix row of a gate, at its generated width.
    pub fn po_widths(&self, i: NodeId) -> Vec<f64> {
        (0..self.expected_widths.outputs().len())
            .map(|j| {
                self.expected_widths
                    .expected_width(i, j, self.generated_widths[i.index()])
            })
            .collect()
    }

    /// Gates sorted by decreasing unreliability contribution — the
    /// "soft spots".
    pub fn soft_spots(&self, circuit: &Circuit, top: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = circuit
            .gates()
            .map(|g| (g, self.per_gate_unreliability[g.index()]))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(top);
        v
    }
}

/// Runs the full analysis with a precomputed sensitization matrix,
/// after validating the configuration and cell assignment.
///
/// `P_ij` depends only on the circuit's logic (not on sizing/VDD/Vth), so
/// optimizers compute it once and reuse it across every cost evaluation —
/// this is the entry point they call.
///
/// # Errors
///
/// See [`SessionBuilder::build`](crate::SessionBuilder::build).
pub fn try_analyze(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    pij: &SensitizationMatrix,
    cfg: &AsertaConfig,
) -> Result<AsertaReport, AnalysisError> {
    // Warm the caller's library first (the pre-consolidation pipeline
    // characterized into it as a side effect, and repeated fresh analyses
    // rely on that cache staying hot), then cold-start a session on a
    // clone of the warmed state.
    for id in circuit.gates() {
        let p = cells.get(id).ok_or(AnalysisError::MissingCellParams {
            node: id.index() as u32,
        })?;
        library.get_or_characterize(p);
    }
    let session = AnalysisSession::construct(
        circuit,
        cells.clone(),
        library.clone(),
        cfg.clone(),
        pij.clone(),
        1,
    )?;
    Ok(session.into_report())
}

/// Convenience entry point that also estimates `P_ij` (paper: 10 000
/// random vectors): validates the configuration *before* the
/// Monte-Carlo estimate (whose kernels assert on e.g. zero vectors),
/// estimates `P_ij` with the engine settings of the environment overlay
/// exactly as [`SessionBuilder::build`](crate::SessionBuilder::build)
/// does, then runs [`try_analyze`].
///
/// # Errors
///
/// See [`SessionBuilder::build`](crate::SessionBuilder::build).
pub fn try_analyze_fresh(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    cfg: &AsertaConfig,
) -> Result<AsertaReport, AnalysisError> {
    cfg.validate()?;
    let pij = crate::session::estimate_pij(circuit, cfg, &EngineConfig::from_env()?);
    try_analyze(circuit, cells, library, &pij, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::{GateParams, Technology};

    fn lib() -> Library {
        Library::new(Technology::ptm70(), CharGrids::coarse())
    }

    fn cfg() -> AsertaConfig {
        AsertaConfig::fast()
    }

    #[test]
    fn c17_analysis_is_positive_and_reproducible() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut l = lib();
        let r1 = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        let r2 = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        assert!(r1.unreliability > 0.0);
        assert_eq!(r1.unreliability, r2.unreliability, "deterministic");
        for &pi in c.primary_inputs() {
            assert_eq!(r1.per_gate_unreliability[pi.index()], 0.0);
        }
    }

    #[test]
    fn fresh_analysis_validates_config_before_pij_estimation() {
        // A zero-vector config must surface as a typed error from the
        // fresh entry point, not an assert inside the Monte-Carlo kernel.
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut l = lib();
        let mut bad = cfg();
        bad.sensitization_vectors = 0;
        let err = try_analyze_fresh(&c, &cells, &mut l, &bad).unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidConfig { .. }));
    }

    #[test]
    fn multi_po_gates_dominate_soft_spots_in_c17() {
        // With weak electrical masking (wide 16 fC glitches vs ~20 ps gate
        // delays), gates whose glitches reach *both* POs — 11 and 16 —
        // accumulate roughly twice the expected width of single-PO gates,
        // so they top the soft-spot ranking.
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut l = lib();
        let r = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        let spots = r.soft_spots(&c, 2);
        let dual_po = [c.find("11").unwrap(), c.find("16").unwrap()];
        assert!(
            spots.iter().all(|(id, _)| dual_po.contains(id)),
            "dual-PO gates must top the ranking: {spots:?}"
        );
        // PO drivers still carry nonzero unreliability (their strikes are
        // latched unfiltered).
        for &po in c.primary_outputs() {
            assert!(r.per_gate_unreliability[po.index()] > 0.0);
        }
    }

    #[test]
    fn upsizing_po_drivers_cuts_their_generated_width() {
        let c = generate::c17();
        let mut cells = CircuitCells::nominal(&c);
        let mut l = lib();
        let r_before = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        for &po in c.primary_outputs() {
            let node = c.node(po);
            cells.set(
                po,
                GateParams::new(node.kind, node.fanin.len()).with_size(6.0),
            );
        }
        let r_after = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        for &po in c.primary_outputs() {
            assert!(
                r_after.generated_widths[po.index()] < r_before.generated_widths[po.index()],
                "upsized PO driver must generate a narrower glitch"
            );
        }
    }

    #[test]
    fn report_po_widths_row_matches_total() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut l = lib();
        let r = try_analyze_fresh(&c, &cells, &mut l, &cfg()).unwrap();
        for g in c.gates() {
            let row_sum: f64 = r.po_widths(g).iter().sum();
            let z = cells.get(g).unwrap().size;
            assert!(
                (z * row_sum - r.per_gate_unreliability[g.index()]).abs() < 1e-18,
                "gate {g}"
            );
        }
    }

    #[test]
    fn xor_ecc_circuit_has_high_observability_unreliability() {
        // c499-like: no logical masking in XOR trees → strikes observable.
        let ecc = generate::sec32("c499");
        let cells = CircuitCells::nominal(&ecc);
        let mut l = lib();
        let mut fast = cfg();
        fast.sensitization_vectors = 512;
        let r = try_analyze_fresh(&ecc, &cells, &mut l, &fast).unwrap();
        assert!(r.unreliability > 0.0);
    }
}
