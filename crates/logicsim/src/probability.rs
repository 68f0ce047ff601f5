//! Static (signal) probabilities: the probability of each node being 1.
//!
//! The analytic propagation is the Design Compiler substitute called out
//! in DESIGN.md: exact for fan-out-free circuits, an independence
//! approximation under reconvergence (where the sampled estimate is the
//! asymptotically exact alternative).

use ser_netlist::csr::CsrView;
use ser_netlist::{Circuit, GateKind};

use crate::kernel;
use crate::random::random_word;

/// Analytic propagation with all primary inputs at probability `pi_prob`
/// and fan-ins treated as independent.
///
/// # Panics
///
/// Panics if `pi_prob` is outside `[0, 1]`.
pub fn static_probabilities_analytic(circuit: &Circuit, pi_prob: f64) -> Vec<f64> {
    assert!(
        (0.0..=1.0).contains(&pi_prob),
        "probability must lie in [0, 1]"
    );
    let mut p = vec![0.0f64; circuit.node_count()];
    for &id in circuit.topological_order() {
        let node = circuit.node(id);
        let prob = match node.kind {
            GateKind::Input => pi_prob,
            GateKind::And => node.fanin.iter().map(|f| p[f.index()]).product(),
            GateKind::Nand => 1.0 - node.fanin.iter().map(|f| p[f.index()]).product::<f64>(),
            GateKind::Or => {
                1.0 - node
                    .fanin
                    .iter()
                    .map(|f| 1.0 - p[f.index()])
                    .product::<f64>()
            }
            GateKind::Nor => node
                .fanin
                .iter()
                .map(|f| 1.0 - p[f.index()])
                .product::<f64>(),
            GateKind::Xor => node
                .fanin
                .iter()
                .fold(0.0, |acc, f| xor_prob(acc, p[f.index()])),
            GateKind::Xnor => {
                1.0 - node
                    .fanin
                    .iter()
                    .fold(0.0, |acc, f| xor_prob(acc, p[f.index()]))
            }
            GateKind::Not => 1.0 - p[node.fanin[0].index()],
            GateKind::Buf => p[node.fanin[0].index()],
        };
        p[id.index()] = prob;
    }
    p
}

#[inline]
fn xor_prob(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// Monte-Carlo estimate over `n_vectors` random vectors (rounded up to a
/// multiple of 64), PI probability 0.5, deterministic in `seed`. Exact in
/// the limit even under reconvergent fan-out. Runs on the CSR kernels
/// (the circuit is flattened once, not per word).
pub fn static_probabilities_sampled(circuit: &Circuit, n_vectors: usize, seed: u64) -> Vec<f64> {
    assert!(n_vectors > 0, "need at least one vector");
    let n_words = n_vectors.div_ceil(64);
    let n_pi = circuit.primary_inputs().len();
    let csr = CsrView::build(circuit);
    let mut words = vec![0u64; circuit.node_count()];
    let mut ones = vec![0u64; circuit.node_count()];
    for w in 0..n_words {
        let pi_words = random_word(n_pi, 0.5, seed.wrapping_add(w as u64));
        kernel::eval_word(&csr, &pi_words, &mut words);
        for (acc, word) in ones.iter_mut().zip(&words) {
            *acc += word.count_ones() as u64;
        }
    }
    let total = (n_words * 64) as f64;
    ones.into_iter().map(|c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::{generate, CircuitBuilder};

    #[test]
    fn analytic_two_input_gates() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let and = b.gate(GateKind::And, "and", &[a, c]).unwrap();
        let or = b.gate(GateKind::Or, "or", &[a, c]).unwrap();
        let xor = b.gate(GateKind::Xor, "xor", &[a, c]).unwrap();
        b.mark_output(and);
        b.mark_output(or);
        b.mark_output(xor);
        let circ = b.finish().unwrap();
        let p = static_probabilities_analytic(&circ, 0.5);
        assert!((p[and.index()] - 0.25).abs() < 1e-12);
        assert!((p[or.index()] - 0.75).abs() < 1e-12);
        assert!((p[xor.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analytic_respects_pi_probability() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let inv = b.gate(GateKind::Not, "inv", &[a]).unwrap();
        b.mark_output(inv);
        let circ = b.finish().unwrap();
        let p = static_probabilities_analytic(&circ, 0.9);
        assert!((p[a.index()] - 0.9).abs() < 1e-12);
        assert!((p[inv.index()] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sampled_matches_analytic_without_reconvergence() {
        // A fan-out-free tree: analytic is exact, sampling converges to it.
        let mut b = CircuitBuilder::new("tree");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let g0 = b.gate(GateKind::Nand, "g0", &[i0, i1]).unwrap();
        let g1 = b.gate(GateKind::Nor, "g1", &[i2, i3]).unwrap();
        let y = b.gate(GateKind::Xor, "y", &[g0, g1]).unwrap();
        b.mark_output(y);
        let circ = b.finish().unwrap();
        let pa = static_probabilities_analytic(&circ, 0.5);
        let ps = static_probabilities_sampled(&circ, 64 * 256, 9);
        for id in circ.node_ids() {
            assert!(
                (pa[id.index()] - ps[id.index()]).abs() < 0.03,
                "node {id}: {} vs {}",
                pa[id.index()],
                ps[id.index()]
            );
        }
    }

    #[test]
    fn exhaustive_check_on_c17() {
        // With 5 inputs, sample probabilities over all 32 vectors exactly.
        let c = generate::c17();
        let n = c.primary_inputs().len();
        let mut words = vec![0u64; n];
        for v in 0..32u64 {
            for (k, w) in words.iter_mut().enumerate() {
                if v >> k & 1 == 1 {
                    *w |= 1 << v;
                }
            }
        }
        let mut packed = vec![0u64; c.node_count()];
        kernel::eval_word(&CsrView::build(&c), &words, &mut packed);
        let exact: Vec<f64> = packed
            .iter()
            .map(|w| (w & 0xFFFF_FFFF).count_ones() as f64 / 32.0)
            .collect();
        let sampled = static_probabilities_sampled(&c, 64 * 512, 1);
        for id in c.node_ids() {
            assert!(
                (exact[id.index()] - sampled[id.index()]).abs() < 0.02,
                "node {id}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "probability must lie")]
    fn analytic_rejects_bad_probability() {
        let c = generate::c17();
        let _ = static_probabilities_analytic(&c, 1.5);
    }
}
