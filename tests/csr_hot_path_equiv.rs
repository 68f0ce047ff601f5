//! Property-based equivalence of the CSR/parallel hot-path kernels
//! against **independent in-test scalar references** (the seed
//! implementations, captured here verbatim, so the production kernels
//! are never their own oracle), on random layered circuits:
//!
//! * `kernel::eval_word` (CSR) must match the scalar reference bit for
//!   bit;
//! * `sensitization_probabilities_cfg` must reproduce the pre-CSR per-node
//!   cone-resimulation estimate exactly, for any worker-thread count;
//! * `ExpectedWidths` must match the pre-hoist implementation (brackets
//!   recomputed per PO column) within 1e-15.

use proptest::prelude::*;
use soft_error::aserta::electrical::ExpectedWidths;
use soft_error::aserta::glitch::attenuate;
use soft_error::aserta::logical::{pi_weights, successor_sensitizations};
use soft_error::logicsim::engine::DEFAULT_CONE_CHUNK;
use soft_error::logicsim::random::random_word;
use soft_error::logicsim::sensitize::{
    sensitization_probabilities_cfg, PijConfig, SensitizationMatrix,
};
use soft_error::logicsim::{kernel, probability};
use soft_error::netlist::cone::fanout_cone;
use soft_error::netlist::csr::CsrView;
use soft_error::netlist::generate::{layered, LayeredSpec};
use soft_error::netlist::{Circuit, GateKind, NodeId};

fn arbitrary_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..9, 1usize..5, 8usize..70, 0u64..5000).prop_map(|(pi, po, gates, seed)| {
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        layered(&spec)
    })
}

/// Scalar packed gate evaluation (the seed `GateKind::eval_packed`).
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

/// The seed scalar `eval_word`: a topological walk over the pointer
/// circuit.
fn ref_eval_word(circuit: &Circuit, pi_words: &[u64]) -> Vec<u64> {
    let mut words = vec![0u64; circuit.node_count()];
    for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
        words[pi.index()] = pi_words[k];
    }
    for &id in circuit.topological_order() {
        let node = circuit.node(id);
        if node.is_input() {
            continue;
        }
        let pins: Vec<u64> = node.fanin.iter().map(|f| words[f.index()]).collect();
        words[id.index()] = ref_gate(node.kind, &pins);
    }
    words
}

/// The seed scalar forced-cone re-evaluation.
fn ref_replay_forced_cone(
    circuit: &Circuit,
    cone: &[NodeId],
    root: NodeId,
    forced: u64,
    scratch: &mut [u64],
) {
    scratch[root.index()] = forced;
    for &id in cone {
        if id == root {
            continue;
        }
        let node = circuit.node(id);
        let pins: Vec<u64> = node.fanin.iter().map(|f| scratch[f.index()]).collect();
        scratch[id.index()] = ref_gate(node.kind, &pins);
    }
}

/// The seed implementation of `P_ij` estimation: word-major loop, per-node
/// fan-out cone resimulation through the scalar kernels, all PO columns
/// counted densely.
fn reference_pij(circuit: &Circuit, n_vectors: usize, seed: u64) -> Vec<f64> {
    let outputs = circuit.primary_outputs().to_vec();
    let n_pos = outputs.len();
    let n_nodes = circuit.node_count();
    let n_words = n_vectors.div_ceil(64);
    let n_pi = circuit.primary_inputs().len();
    let cones: Vec<Vec<NodeId>> = circuit
        .node_ids()
        .map(|id| fanout_cone(circuit, id))
        .collect();

    let mut counts = vec![0u64; n_nodes * n_pos];
    let mut scratch = vec![0u64; n_nodes];
    for w in 0..n_words {
        let pi_words = random_word(n_pi, 0.5, seed.wrapping_add(w as u64));
        let base = ref_eval_word(circuit, &pi_words);
        scratch.copy_from_slice(&base);
        for id in circuit.node_ids() {
            let cone = &cones[id.index()];
            ref_replay_forced_cone(circuit, cone, id, !base[id.index()], &mut scratch);
            let row = &mut counts[id.index() * n_pos..(id.index() + 1) * n_pos];
            for (j, &po) in outputs.iter().enumerate() {
                let diff = scratch[po.index()] ^ base[po.index()];
                row[j] += u64::from(diff.count_ones());
            }
            for &c in cone {
                scratch[c.index()] = base[c.index()];
            }
        }
    }
    let total = (n_words * 64) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

/// The pre-hoist `ExpectedWidths` pass: interpolation brackets recomputed
/// per PO column, every column visited.
fn reference_expected_widths(
    circuit: &Circuit,
    probs: &[f64],
    pij: &SensitizationMatrix,
    delays: &[f64],
    grid: &[f64],
) -> Vec<f64> {
    fn interp_width(
        ws: &[f64],
        node_base: usize,
        n_pos: usize,
        j: usize,
        grid: &[f64],
        w: f64,
    ) -> f64 {
        let k_n = grid.len();
        if w <= grid[0] {
            return ws[node_base + j];
        }
        if w >= grid[k_n - 1] {
            return ws[node_base + (k_n - 1) * n_pos + j];
        }
        let mut lo = 0usize;
        let mut hi = k_n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if grid[mid] <= w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let frac = (w - grid[lo]) / (grid[lo + 1] - grid[lo]);
        let a = ws[node_base + lo * n_pos + j];
        let b = ws[node_base + (lo + 1) * n_pos + j];
        a * (1.0 - frac) + b * frac
    }

    let outputs = pij.outputs().to_vec();
    let n_pos = outputs.len();
    let k_n = grid.len();
    let n = circuit.node_count();
    let mut ws = vec![0.0f64; n * k_n * n_pos];
    let mut po_col = vec![usize::MAX; n];
    for (j, &po) in outputs.iter().enumerate() {
        po_col[po.index()] = j;
    }
    for &id in circuit.topological_order().iter().rev() {
        let base = id.index() * k_n * n_pos;
        let self_col = po_col[id.index()];
        if self_col != usize::MAX {
            for k in 0..k_n {
                ws[base + k * n_pos + self_col] = grid[k];
            }
        }
        let successors = successor_sensitizations(circuit, probs, id);
        if successors.is_empty() {
            continue;
        }
        for j in 0..n_pos {
            let p_ij = pij.p(id, j);
            if p_ij <= 0.0 {
                continue;
            }
            let pis = pi_weights(&successors, p_ij, |s| pij.p(s, j));
            if pis.iter().all(|&x| x == 0.0) {
                continue;
            }
            for k in 0..k_n {
                let mut sum = 0.0;
                for (&(s, _), &pi_w) in successors.iter().zip(&pis) {
                    if pi_w == 0.0 {
                        continue;
                    }
                    let wos = attenuate(grid[k], delays[s.index()]);
                    let we = interp_width(&ws, s.index() * k_n * n_pos, n_pos, j, grid, wos);
                    sum += pi_w * we;
                }
                ws[base + k * n_pos + j] += sum;
            }
        }
    }
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR word evaluation agrees bit for bit with the scalar reference.
    #[test]
    fn csr_eval_word_matches_scalar(circuit in arbitrary_circuit(), seed in 0u64..1 << 40) {
        let csr = CsrView::build(&circuit);
        let pi_words = random_word(circuit.primary_inputs().len(), 0.5, seed);
        let want = ref_eval_word(&circuit, &pi_words);
        let mut got = vec![0u64; circuit.node_count()];
        kernel::eval_word(&csr, &pi_words, &mut got);
        prop_assert_eq!(&got, &want);
    }

    /// The blocked/parallel estimator in fixed-budget mode
    /// ([`PijConfig::fixed`]: tolerance 0) reproduces
    /// the seed estimate exactly, and every thread count yields
    /// bitwise-identical matrices.
    #[test]
    fn pij_counts_match_seed_for_any_thread_count(
        circuit in arbitrary_circuit(),
        seed in 0u64..1 << 40,
    ) {
        let n_vectors = 192; // 3 words: exercises uneven thread splits
        let want = reference_pij(&circuit, n_vectors, seed);
        let n_pos = circuit.primary_outputs().len();
        let chunk = circuit.node_count().max(1);
        let m1 = sensitization_probabilities_cfg(
            &circuit, n_vectors, seed, 1, chunk, &PijConfig::fixed(),
        );
        for id in circuit.node_ids() {
            for j in 0..n_pos {
                prop_assert_eq!(m1.p(id, j), want[id.index() * n_pos + j], "node {} col {}", id, j);
            }
        }
        for threads in [2usize, 7] {
            let m = sensitization_probabilities_cfg(
                &circuit, n_vectors, seed, threads, chunk, &PijConfig::fixed(),
            );
            prop_assert_eq!(&m1, &m, "threads {}", threads);
        }
    }

    /// The bracket-hoisted, reachability-pruned width pass matches the
    /// pre-hoist implementation within 1e-15 at every table entry.
    #[test]
    fn expected_widths_match_pre_hoist(circuit in arbitrary_circuit(), seed in 0u64..1 << 40) {
        let pij = sensitization_probabilities_cfg(
            &circuit, 256, seed, 1, DEFAULT_CONE_CHUNK, &PijConfig::default(),
        );
        let probs = probability::static_probabilities_analytic(&circuit, 0.5);
        let delays: Vec<f64> = (0..circuit.node_count())
            .map(|i| (5 + (i * 7) % 20) as f64 * 1e-12)
            .collect();
        let grid = vec![0.0, 10e-12, 20e-12, 40e-12, 80e-12, 320e-12, 1280e-12, 2560e-12];
        let want = reference_expected_widths(&circuit, &probs, &pij, &delays, &grid);
        let got = ExpectedWidths::compute(&circuit, &probs, &pij, &delays, grid.clone());
        let n_pos = circuit.primary_outputs().len();
        let k_n = grid.len();
        for id in circuit.node_ids() {
            for j in 0..n_pos {
                for k in 0..k_n {
                    let w = want[(id.index() * k_n + k) * n_pos + j];
                    let g = got.at_sample(id, j, k);
                    prop_assert!(
                        (g - w).abs() <= 1e-15,
                        "node {} col {} k {}: {:e} vs {:e}",
                        id, j, k, g, w
                    );
                }
            }
        }
    }
}
