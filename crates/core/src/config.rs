use ser_spice::units::{FC, NS, PS};
use serde::{Deserialize, Serialize};

use crate::error::AnalysisError;

/// ASERTA analysis settings, defaulting to the paper's choices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsertaConfig {
    /// Random vectors for the `P_ij` sensitization estimate (paper:
    /// 10 000).
    pub sensitization_vectors: usize,
    /// RNG seed for all stochastic estimates.
    pub seed: u64,
    /// Injected strike charge, coulombs (paper: a fixed 16 fC).
    pub charge: f64,
    /// Number of sample glitch widths in the expected-width tables
    /// (paper: 10).
    pub sample_widths: usize,
    /// The "very wide" top sample width, seconds. Must exceed twice the
    /// slowest gate delay so Lemma 1 holds exactly.
    pub wide_width: f64,
    /// Static probability of each primary input being 1 (paper: 0.5, fed
    /// to Design Compiler).
    pub pi_probability: f64,
    /// Transition time assumed for primary-input drivers, seconds.
    pub pi_ramp: f64,
    /// Wire capacitance per fan-out pin, farads.
    pub wire_cap_per_pin: f64,
    /// Latch capacitance loading each primary output, farads.
    pub po_load: f64,
}

impl Default for AsertaConfig {
    fn default() -> Self {
        AsertaConfig {
            sensitization_vectors: 10_000,
            seed: 0xA5E27A,
            charge: 16.0 * FC,
            sample_widths: 10,
            wide_width: 2.56 * NS,
            pi_probability: 0.5,
            pi_ramp: 20.0 * PS,
            wire_cap_per_pin: 0.05e-15,
            po_load: 2.0e-15,
        }
    }
}

impl AsertaConfig {
    /// The sample-width grid: 0, then a geometric ladder ending exactly at
    /// [`AsertaConfig::wide_width`] (so the Lemma-1 wide sample is a grid
    /// point).
    ///
    /// # Panics
    ///
    /// Panics if `sample_widths < 2` or `wide_width <= 0`.
    pub fn sample_width_grid(&self) -> Vec<f64> {
        assert!(self.sample_widths >= 2, "need at least two sample widths");
        assert!(self.wide_width > 0.0, "wide width must be positive");
        let k = self.sample_widths;
        let mut grid = Vec::with_capacity(k);
        grid.push(0.0);
        // wide / 2^(k-2), …, wide / 2, wide
        for step in (0..k - 1).rev() {
            grid.push(self.wide_width / (1u64 << step) as f64);
        }
        grid
    }

    /// A faster profile for tests: fewer vectors, coarser tables.
    pub fn fast() -> Self {
        AsertaConfig {
            sensitization_vectors: 1024,
            ..AsertaConfig::default()
        }
    }

    /// Rejects configuration scalars the analysis kernels cannot digest.
    /// Every session build and fresh analysis runs this before any
    /// Monte-Carlo estimate; callers holding a config from outside the
    /// program can run it first to report a bad field without building
    /// anything.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidConfig`] naming the first unusable field.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        let bad = |reason: &'static str| AnalysisError::InvalidConfig { reason };
        if !(self.charge.is_finite() && self.charge > 0.0) {
            return Err(bad("charge must be finite and positive"));
        }
        if self.sensitization_vectors == 0 {
            return Err(bad("sensitization_vectors must be at least 1"));
        }
        if self.sample_widths < 2 {
            return Err(bad("sample_widths must be at least 2"));
        }
        if !(self.wide_width.is_finite() && self.wide_width > 0.0) {
            return Err(bad("wide_width must be finite and positive"));
        }
        if !(self.pi_probability.is_finite() && (0.0..=1.0).contains(&self.pi_probability)) {
            return Err(bad("pi_probability must lie in [0, 1]"));
        }
        if !(self.pi_ramp.is_finite() && self.pi_ramp > 0.0) {
            return Err(bad("pi_ramp must be finite and positive"));
        }
        if !(self.wire_cap_per_pin.is_finite() && self.wire_cap_per_pin >= 0.0) {
            return Err(bad("wire_cap_per_pin must be finite and non-negative"));
        }
        if !(self.po_load.is_finite() && self.po_load >= 0.0) {
            return Err(bad("po_load must be finite and non-negative"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_sorted_starts_at_zero_ends_wide() {
        let cfg = AsertaConfig::default();
        let g = cfg.sample_width_grid();
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), cfg.wide_width);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn grid_has_fine_resolution_at_small_widths() {
        let cfg = AsertaConfig::default();
        let g = cfg.sample_width_grid();
        // Second point must be well under typical gate delays' 2x.
        assert!(g[1] < 25.0 * PS, "{}", g[1] / PS);
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = AsertaConfig::default();
        assert_eq!(cfg.sensitization_vectors, 10_000);
        assert_eq!(cfg.sample_widths, 10);
        assert!((cfg.charge - 16.0 * FC).abs() < 1e-20);
        assert_eq!(cfg.pi_probability, 0.5);
    }
}
