//! The Eq. 5 cost function:
//! `C = W1·U/U₀ + W2·T/T₀ + W3·E/E₀ + W4·A/A₀`.

use aserta::{try_analyze, AnalysisError, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_logicsim::SensitizationMatrix;
use ser_netlist::Circuit;
use serde::{Deserialize, Serialize};

/// The four weights of Eq. 5. "A designer can easily change the
/// optimization constraints by changing the ratio of the weights."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// `W1` — unreliability.
    pub unreliability: f64,
    /// `W2` — circuit delay (guards library-quantization drift; the
    /// nullspace moves preserve path delays by construction).
    pub delay: f64,
    /// `W3` — total energy (dynamic + static).
    pub energy: f64,
    /// `W4` — area.
    pub area: f64,
}

impl Default for CostWeights {
    /// Unreliability-driven defaults in the spirit of Table 1: delay is
    /// strongly guarded, energy/area mildly so.
    fn default() -> Self {
        CostWeights {
            unreliability: 1.0,
            delay: 1.0,
            energy: 0.10,
            area: 0.05,
        }
    }
}

/// Energy model constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Clock period, seconds (static energy per cycle = leakage power ×
    /// period; dynamic per cycle = activity × C·V²).
    pub clock_period: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            clock_period: 1.0e-9,
        }
    }
}

/// Absolute metrics of one assignment plus its normalized cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// ASERTA unreliability `U` (Eq. 4).
    pub unreliability: f64,
    /// Critical-path delay `T`, seconds.
    pub delay: f64,
    /// Per-cycle energy `E`, joules (dynamic + static).
    pub energy: f64,
    /// Abstract area `A`.
    pub area: f64,
    /// The Eq. 5 cost against the baseline used at evaluation time.
    pub cost: f64,
}

/// Evaluates the absolute metrics of an assignment (one ASERTA run plus
/// energy/area accounting); `baseline = None` yields `cost = NaN` until
/// normalized.
///
/// # Errors
///
/// Any [`AnalysisError`] the ASERTA run ([`try_analyze`]) reports.
#[allow(clippy::too_many_arguments)] // mirrors Eq. 5's parameter list
pub fn evaluate(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    pij: &SensitizationMatrix,
    aserta_cfg: &AsertaConfig,
    energy_model: &EnergyModel,
    weights: &CostWeights,
    baseline: Option<&CostBreakdown>,
) -> Result<CostBreakdown, AnalysisError> {
    let report = try_analyze(circuit, cells, library, pij, aserta_cfg)?;
    let delay = report.timing.critical_path_delay(circuit);

    let mut energy = 0.0;
    for id in circuit.gates() {
        energy += gate_energy(
            cells,
            library,
            id,
            report.static_probs[id.index()],
            report.timing.loads[id.index()],
            energy_model,
        );
    }
    let area = cells.total_area();

    let mut breakdown = CostBreakdown {
        unreliability: report.unreliability,
        delay,
        energy,
        area,
        cost: f64::NAN,
    };
    if let Some(base) = baseline {
        breakdown.cost = weights.cost(&breakdown, base);
    }
    Ok(breakdown)
}

impl CostWeights {
    /// The Eq. 5 normalized cost of `m` against `base`.
    pub fn cost(&self, m: &CostBreakdown, base: &CostBreakdown) -> f64 {
        self.unreliability * safe_ratio(m.unreliability, base.unreliability)
            + self.delay * safe_ratio(m.delay, base.delay)
            + self.energy * safe_ratio(m.energy, base.energy)
            + self.area * safe_ratio(m.area, base.area)
    }
}

/// Per-cycle energy of one gate (activity-weighted dynamic plus static
/// leakage over the clock period) — the unit the incremental per-gate
/// energy cache refreshes, summed by [`evaluate`] in gate order so both
/// paths agree bitwise.
pub fn gate_energy(
    cells: &CircuitCells,
    library: &mut Library,
    id: ser_netlist::NodeId,
    static_prob: f64,
    load: f64,
    energy_model: &EnergyModel,
) -> f64 {
    let Some(p) = cells.get(id) else {
        panic!("gate_energy: node {id} carries no cell parameters")
    };
    let cell = library.get_or_characterize(p);
    let activity = 2.0 * static_prob * (1.0 - static_prob);
    activity * cell.dynamic_energy(load) + cell.static_energy(energy_model.clock_period)
}

#[inline]
fn safe_ratio(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        x / base
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aserta::CircuitCells;
    use ser_cells::CharGrids;
    use ser_logicsim::sensitize::sensitization_probabilities_cfg;
    use ser_logicsim::EngineConfig;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn default_pij(c: &Circuit, n_vectors: usize, seed: u64) -> SensitizationMatrix {
        let e = EngineConfig::new();
        sensitization_probabilities_cfg(c, n_vectors, seed, e.threads(), e.cone_chunk(), &e.pij())
    }

    #[test]
    fn baseline_cost_is_weight_sum() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let pij = default_pij(&c, 512, 1);
        let cfg = AsertaConfig::fast();
        let w = CostWeights::default();
        let em = EnergyModel::default();
        let base = evaluate(&c, &cells, &mut lib, &pij, &cfg, &em, &w, None).unwrap();
        let again = evaluate(&c, &cells, &mut lib, &pij, &cfg, &em, &w, Some(&base)).unwrap();
        let expect = w.unreliability + w.delay + w.energy + w.area;
        assert!((again.cost - expect).abs() < 1e-9, "{}", again.cost);
    }

    #[test]
    fn metrics_are_positive() {
        let c = generate::c17();
        let cells = CircuitCells::nominal(&c);
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let pij = default_pij(&c, 512, 1);
        let m = evaluate(
            &c,
            &cells,
            &mut lib,
            &pij,
            &AsertaConfig::fast(),
            &EnergyModel::default(),
            &CostWeights::default(),
            None,
        )
        .unwrap();
        assert!(m.unreliability > 0.0);
        assert!(m.delay > 0.0);
        assert!(m.energy > 0.0);
        assert!(m.area > 0.0);
        assert!(m.cost.is_nan());
    }

    #[test]
    fn lower_vth_raises_energy() {
        let c = generate::c17();
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let pij = default_pij(&c, 512, 1);
        let cfg = AsertaConfig::fast();
        let em = EnergyModel::default();
        let w = CostWeights::default();
        let nominal = CircuitCells::nominal(&c);
        let leaky = CircuitCells::from_fn(&c, |id| {
            let n = c.node(id);
            ser_spice::GateParams::new(n.kind, n.fanin.len()).with_vth(0.1)
        });
        let e_nom = evaluate(&c, &nominal, &mut lib, &pij, &cfg, &em, &w, None)
            .unwrap()
            .energy;
        let e_leaky = evaluate(&c, &leaky, &mut lib, &pij, &cfg, &em, &w, None)
            .unwrap()
            .energy;
        assert!(e_leaky > e_nom, "{e_leaky:e} vs {e_nom:e}");
    }
}
