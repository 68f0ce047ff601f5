//! Property-based tests of the paper's mathematical claims, across
//! randomly generated circuits.

use proptest::prelude::*;
use soft_error::aserta::electrical::ExpectedWidths;
use soft_error::aserta::glitch::attenuate;
use soft_error::logicsim::sensitize::sensitization_probabilities_cfg;
use soft_error::logicsim::{EngineConfig, SensitizationMatrix};
use soft_error::netlist::generate::{layered, LayeredSpec};
use soft_error::netlist::{paths, Circuit};
use soft_error::sertopt::nullspace::{max_path_delay_change, TensionSpace};

/// `P_ij` on the default engine settings.
fn default_pij(circuit: &Circuit, n_vectors: usize, seed: u64) -> SensitizationMatrix {
    let e = EngineConfig::new();
    sensitization_probabilities_cfg(
        circuit,
        n_vectors,
        seed,
        e.threads(),
        e.cone_chunk(),
        &e.pij(),
    )
}

fn arbitrary_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..8, 1usize..4, 8usize..60, 0u64..1000).prop_map(|(pi, po, gates, seed)| {
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        layered(&spec)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1, machine-checked on random DAGs: a very wide glitch at
    /// gate i arrives at PO j with expected width exactly ww·P_ij —
    /// *except* where observability exists only through joint flips of
    /// reconvergent branches (all single-successor P_sj = 0 while
    /// P_ij > 0), the π_isj approximation the paper itself concedes.
    /// There ASERTA under-approximates, so the general guarantee is
    /// one-sided: WS ≤ ww·P_ij, with equality off the anomaly cones.
    #[test]
    fn lemma1_holds_on_random_circuits(circuit in arbitrary_circuit()) {
        use soft_error::aserta::logical::successor_sensitizations;
        use soft_error::netlist::cone::fanout_cone_mask;

        let pij = default_pij(&circuit, 512, 11);
        let probs = vec![0.5; circuit.node_count()];
        let delays = vec![17e-12; circuit.node_count()];
        let grid = vec![0.0, 20e-12, 40e-12, 80e-12, 160e-12, 320e-12, 640e-12, 2560e-12];
        let ww = *grid.last().unwrap();
        let ew = ExpectedWidths::compute(&circuit, &probs, &pij, &delays, grid);

        // Mark the paper's acknowledged π anomaly: P_ij > 0 but every
        // successor's own P_sj is zero (joint-branch observability).
        let n_pos = ew.outputs().len();
        let mut anomalous = vec![false; circuit.node_count() * n_pos];
        for n in circuit.node_ids() {
            let succ = successor_sensitizations(&circuit, &probs, n);
            for j in 0..n_pos {
                if pij.p(n, j) > 0.0 && ew.outputs()[j] != n {
                    let denom: f64 = succ.iter().map(|&(s, w)| w * pij.p(s, j)).sum();
                    if denom <= 0.0 {
                        anomalous[n.index() * n_pos + j] = true;
                    }
                }
            }
        }

        for i in circuit.gates() {
            let cone = fanout_cone_mask(&circuit, i);
            for j in 0..n_pos {
                let got = ew.expected_width(i, j, ww);
                let want = ww * pij.p(i, j);
                // One-sided bound always.
                prop_assert!(
                    got <= want + ww * 1e-9 + 1e-18,
                    "node {i} col {j}: WS {got:e} exceeds ww·P {want:e}"
                );
                // Exactness when no anomaly lies in the cone for this PO.
                let tainted = circuit
                    .node_ids()
                    .any(|n| cone[n.index()] && anomalous[n.index() * n_pos + j]);
                if !tainted {
                    prop_assert!(
                        (got - want).abs() <= ww * 1e-9 + 1e-18,
                        "node {i} col {j}: {got:e} vs {want:e} (no anomaly in cone)"
                    );
                }
            }
        }
    }

    /// Tension-space moves change no PI→PO path delay (the T·Δ = 0
    /// guarantee behind SERTOPT's zero delay overhead): on sampled paths,
    /// and on every path of a circuit with at most 5,000 of them.
    #[test]
    fn tension_moves_preserve_path_delays(
        circuit in arbitrary_circuit(),
        scale in 1.0e-12..50.0e-12f64,
        seed in 0u64..1000,
    ) {
        let ts = TensionSpace::build(&circuit);
        use rand::{SeedableRng, RngExt};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let phi: Vec<f64> = (0..ts.dim()).map(|_| rng.random_range(-scale..scale)).collect();
        let delta = ts.delta(&circuit, &phi);
        let worst = max_path_delay_change(&circuit, &delta, 500, seed ^ 0xF00);
        prop_assert!(worst < 1e-12 * 1e-3, "worst path change {worst:e}");
        // Exact oracle for T·Δ = 0 wherever every path can be listed.
        if let Some(all) = paths::enumerate(&circuit, 5_000) {
            for path in &all {
                let sum: f64 = path.iter().map(|id| delta[id.index()]).sum();
                prop_assert!(sum.abs() < 1e-12 * 1e-3, "path {path:?} changes by {sum:e}");
            }
        }
    }

    /// Eq. 1 never widens a glitch beyond its input width and never
    /// outputs a negative width.
    #[test]
    fn attenuation_is_contractive(w in 0.0..1.0e-9f64, d in 0.0..0.2e-9f64) {
        let out = attenuate(w, d);
        prop_assert!(out >= 0.0);
        prop_assert!(out <= w + 1e-21);
    }

    /// Eq. 1 is monotone in input width for fixed delay.
    #[test]
    fn attenuation_is_monotone(
        w1 in 0.0..1.0e-9f64,
        dw in 0.0..0.5e-9f64,
        d in 0.0..0.2e-9f64,
    ) {
        prop_assert!(attenuate(w1 + dw, d) >= attenuate(w1, d) - 1e-21);
    }

    /// P_ij estimates are proper probabilities, 1 on the PO diagonal and
    /// 0 for structurally unreachable outputs.
    #[test]
    fn sensitization_matrix_is_well_formed(circuit in arbitrary_circuit()) {
        let pij = default_pij(&circuit, 256, 3);
        let outputs = pij.outputs().to_vec();
        for i in circuit.node_ids() {
            let reach = soft_error::netlist::cone::reachable_outputs(&circuit, i);
            for (j, po) in outputs.iter().enumerate() {
                let p = pij.p(i, j);
                prop_assert!((0.0..=1.0).contains(&p));
                if !reach.contains(po) {
                    prop_assert_eq!(p, 0.0, "unreachable PO must have P=0");
                }
            }
        }
        for (j, po) in outputs.iter().enumerate() {
            prop_assert_eq!(pij.p(*po, j), 1.0);
        }
    }
}
