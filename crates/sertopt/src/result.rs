//! The packaged result of one SERTOPT run — everything a Table 1 row
//! needs.

use aserta::{CircuitCells, Interrupted};

use crate::cost::CostBreakdown;

/// How the search loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Termination {
    /// The search ran its full course (iteration budget exhausted or the
    /// step converged below its floor).
    #[default]
    Completed,
    /// The execution budget ([`Deadline`](aserta::Deadline)) interrupted
    /// the search at the recorded checkpoint; the [`Outcome`] carries the
    /// best assignment found up to that point, re-validated by the same
    /// never-regress guard as a completed run.
    Interrupted(Interrupted),
}

impl Termination {
    /// Whether the search was cut short by its execution budget.
    pub fn was_interrupted(&self) -> bool {
        matches!(self, Termination::Interrupted(_))
    }
}

/// Outcome of [`optimize`](crate::optimize()).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The circuit's name.
    pub circuit_name: String,
    /// The speed-sized baseline assignment.
    pub baseline_cells: CircuitCells,
    /// The optimized assignment.
    pub optimized_cells: CircuitCells,
    /// Baseline metrics.
    pub baseline: CostBreakdown,
    /// Optimized metrics.
    pub optimized: CostBreakdown,
    /// Best-cost trace over the search.
    pub history: Vec<f64>,
    /// Cost evaluations spent.
    pub evaluations: usize,
    /// The winning tension-space point.
    pub best_phi: Vec<f64>,
    /// Whether the search completed or its execution budget cut it
    /// short (in which case the fields above are the best-so-far state).
    pub termination: Termination,
}

impl Outcome {
    /// Fractional unreliability decrease `(U₀ − U)/U₀` — Table 1's
    /// headline column (0.47 = 47%).
    pub fn unreliability_decrease(&self) -> f64 {
        if self.baseline.unreliability <= 0.0 {
            return 0.0;
        }
        (self.baseline.unreliability - self.optimized.unreliability) / self.baseline.unreliability
    }

    /// Optimized/baseline area ratio (Table 1 column 4).
    pub fn area_ratio(&self) -> f64 {
        ratio(self.optimized.area, self.baseline.area)
    }

    /// Optimized/baseline energy ratio (column 5).
    pub fn energy_ratio(&self) -> f64 {
        ratio(self.optimized.energy, self.baseline.energy)
    }

    /// Optimized/baseline delay ratio (column 6; ≈1 by the nullspace
    /// construction, up to library quantization).
    pub fn delay_ratio(&self) -> f64 {
        ratio(self.optimized.delay, self.baseline.delay)
    }
}

fn ratio(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        x / base
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(u0: f64, u1: f64) -> Outcome {
        let base = CostBreakdown {
            unreliability: u0,
            delay: 1.0e-9,
            energy: 2.0e-12,
            area: 100.0,
            cost: 2.0,
        };
        let opt = CostBreakdown {
            unreliability: u1,
            delay: 1.05e-9,
            energy: 3.0e-12,
            area: 150.0,
            cost: 1.5,
        };
        Outcome {
            circuit_name: "c432".into(),
            baseline_cells: CircuitCells::nominal(&ser_netlist::generate::c17()),
            optimized_cells: CircuitCells::nominal(&ser_netlist::generate::c17()),
            baseline: base,
            optimized: opt,
            history: vec![2.0, 1.5],
            evaluations: 10,
            best_phi: vec![],
            termination: Termination::default(),
        }
    }

    #[test]
    fn ratios() {
        let o = dummy(10.0, 6.0);
        assert!((o.unreliability_decrease() - 0.4).abs() < 1e-12);
        assert!((o.area_ratio() - 1.5).abs() < 1e-12);
        assert!((o.energy_ratio() - 1.5).abs() < 1e-12);
        assert!((o.delay_ratio() - 1.05).abs() < 1e-12);
    }
}
