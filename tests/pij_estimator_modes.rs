//! Validation of the `P_ij` estimator modes against a brute-force truth
//! table, on circuits with ≤ 8 primary inputs (so every input
//! assignment can be enumerated):
//!
//! * the fixed-budget sampled estimator agrees with the truth within
//!   its own sampling noise;
//! * adaptive early-exit never increases the estimate's error over the
//!   fixed-budget run on the same seed beyond the advertised stop
//!   tolerance: rows that ran to the full budget are bitwise identical
//!   to the fixed run, rows that stopped early stay within the
//!   convergence half-width they stopped at;
//! * on c17, adaptive sampling stops early under an oversized budget
//!   and still lands within tolerance of the truth.

use proptest::prelude::*;
use soft_error::logicsim::sensitize::{
    sensitization_probabilities_cfg, sensitization_probabilities_with_stats_cfg, PijConfig,
};
use soft_error::netlist::generate::{self, layered, LayeredSpec};
use soft_error::netlist::{Circuit, GateKind};

/// Random circuits small enough to brute-force: 2–8 inputs.
fn small_support_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..9, 1usize..4, 8usize..50, 0u64..5000).prop_map(|(pi, po, gates, seed)| {
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        layered(&spec)
    })
}

/// Scalar packed gate evaluation — an independent in-test reference,
/// not the production kernel.
fn ref_gate(kind: GateKind, pins: &[u64]) -> u64 {
    match kind {
        GateKind::Input => unreachable!("inputs carry no function"),
        GateKind::And => pins.iter().fold(!0u64, |acc, &w| acc & w),
        GateKind::Nand => !pins.iter().fold(!0u64, |acc, &w| acc & w),
        GateKind::Or => pins.iter().fold(0u64, |acc, &w| acc | w),
        GateKind::Nor => !pins.iter().fold(0u64, |acc, &w| acc | w),
        GateKind::Xor => pins.iter().fold(0u64, |acc, &w| acc ^ w),
        GateKind::Xnor => !pins.iter().fold(0u64, |acc, &w| acc ^ w),
        GateKind::Not => !pins[0],
        GateKind::Buf => pins[0],
    }
}

/// Brute-force `P_ij` ground truth: every one of the `2^n_pi ≤ 256`
/// input assignments is evaluated (packed 64 per word) fault-free and
/// once per struck node, counting PO diffs exactly.
fn exhaustive_pij(circuit: &Circuit) -> Vec<f64> {
    let n_pi = circuit.primary_inputs().len();
    assert!(n_pi <= 8, "truth table must stay enumerable");
    let outputs = circuit.primary_outputs().to_vec();
    let n_pos = outputs.len();
    let n_nodes = circuit.node_count();
    let total = 1u64 << n_pi;
    let n_words = total.div_ceil(64) as usize;
    let mask = if total >= 64 {
        !0u64
    } else {
        (1u64 << total) - 1
    };

    let eval = |flip: Option<usize>, w: usize| -> Vec<u64> {
        let mut vals = vec![0u64; n_nodes];
        for (t, pi) in circuit.primary_inputs().iter().enumerate() {
            let mut word = 0u64;
            for v in 0..64u64 {
                let assignment = (w as u64) * 64 + v;
                if (assignment >> t) & 1 == 1 {
                    word |= 1 << v;
                }
            }
            vals[pi.index()] = word;
        }
        for &id in circuit.topological_order() {
            let node = circuit.node(id);
            if !node.is_input() {
                let pins: Vec<u64> = node.fanin.iter().map(|f| vals[f.index()]).collect();
                vals[id.index()] = ref_gate(node.kind, &pins);
            }
            if flip == Some(id.index()) {
                vals[id.index()] = !vals[id.index()];
            }
        }
        vals
    };

    let mut counts = vec![0u64; n_nodes * n_pos];
    for w in 0..n_words {
        let base = eval(None, w);
        for i in 0..n_nodes {
            let faulty = eval(Some(i), w);
            for (j, &po) in outputs.iter().enumerate() {
                let diff = (faulty[po.index()] ^ base[po.index()]) & mask;
                counts[i * n_pos + j] += u64::from(diff.count_ones());
            }
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / total as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fixed-budget sampling agrees with the brute-force truth table
    /// within its own binomial noise.
    #[test]
    fn fixed_budget_agrees_with_truth(
        circuit in small_support_circuit(),
        seed in 0u64..1 << 40,
    ) {
        let n_vectors = 4096;
        let chunk = 16;
        let sampled = sensitization_probabilities_cfg(
            &circuit, n_vectors, seed, 1, chunk, &PijConfig::fixed(),
        );
        let truth = exhaustive_pij(&circuit);
        let n_pos = circuit.primary_outputs().len();
        // 6.5σ over the fixed run's own binomial noise at n = 4096.
        let noise = 6.5 * (0.25 / n_vectors as f64).sqrt();
        for id in circuit.node_ids() {
            for j in 0..n_pos {
                let t = truth[id.index() * n_pos + j];
                prop_assert!(
                    (sampled.p(id, j) - t).abs() <= noise,
                    "node {} col {}: sampled {} vs truth {}",
                    id, j, sampled.p(id, j), t
                );
            }
        }
    }

    /// Adaptive early-exit never increases the error over the
    /// fixed-budget run on the same seed: every row is either bitwise
    /// equal to the fixed run (no early stop) or within the advertised
    /// convergence tolerance of the brute-force truth.
    #[test]
    fn adaptive_early_exit_never_increases_error(
        circuit in small_support_circuit(),
        seed in 0u64..1 << 40,
    ) {
        let n_vectors = 64 * 64 * 2; // two convergence blocks
        let chunk = 16;
        let tolerance = 0.1;
        let fixed = sensitization_probabilities_cfg(
            &circuit, n_vectors, seed, 1, chunk, &PijConfig::fixed(),
        );
        let adaptive_cfg = PijConfig { tolerance };
        let adaptive = sensitization_probabilities_cfg(
            &circuit, n_vectors, seed, 1, chunk, &adaptive_cfg,
        );
        let truth = exhaustive_pij(&circuit);
        let n_pos = circuit.primary_outputs().len();
        // The convergence floor the estimator uses, with 3× slack over
        // its 95% half-width (the stop decision is taken on the union
        // counter; per-column probabilities are no larger).
        let floor = 1.96 * (0.25 / n_vectors as f64).sqrt();
        for id in circuit.node_ids() {
            let stopped_early = adaptive.row(id) != fixed.row(id)
                || adaptive.observability(id) != fixed.observability(id);
            let bound = (tolerance * adaptive.observability(id)).max(floor) * 3.0;
            for j in 0..n_pos {
                let t = truth[id.index() * n_pos + j];
                let err_adaptive = (adaptive.p(id, j) - t).abs();
                if stopped_early {
                    prop_assert!(
                        err_adaptive <= bound,
                        "node {} col {}: adaptive {} vs truth {} (bound {})",
                        id, j, adaptive.p(id, j), t, bound
                    );
                } else {
                    prop_assert_eq!(
                        adaptive.p(id, j), fixed.p(id, j),
                        "node {} col {}", id, j
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_sampling_stops_early_within_tolerance() {
    // The adaptive run must converge before exhausting a deliberately
    // oversized budget, and land within the advertised tolerance of the
    // brute-force truth.
    let c = generate::c17();
    let oracle = exhaustive_pij(&c);
    let n_pos = c.primary_outputs().len();
    // A 10% relative tolerance so mid-probability cones (p ≈ 0.5, the
    // slowest to converge) settle before the budget runs out — the
    // default 2% needs nearly the full fixed budget there, which is
    // exactly the accuracy-preserving intent.
    let adaptive = PijConfig { tolerance: 0.1 };
    let budget = 64 * 64 * 4; // four convergence blocks
    let (m, stats) = sensitization_probabilities_with_stats_cfg(&c, budget, 7, 1, 8, &adaptive);
    assert!(stats.adaptive_stops > 0, "no root converged: {stats:?}");
    assert!(
        m.vectors_used() < budget,
        "no early exit: {} of {budget}",
        m.vectors_used()
    );
    // The estimator's convergence floor (95% half-width at the budget).
    let floor = 1.96 * (0.25 / budget as f64).sqrt();
    for id in c.node_ids() {
        for j in 0..n_pos {
            let t = oracle[id.index() * n_pos + j];
            let tol = (adaptive.tolerance * t).max(floor) * 2.0;
            assert!(
                (m.p(id, j) - t).abs() <= tol,
                "node {id} col {j}: {} vs truth {t}",
                m.p(id, j)
            );
        }
    }
}
