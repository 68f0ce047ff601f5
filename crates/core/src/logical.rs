//! Logical masking: side-input sensitization probabilities `S_is` and the
//! propagation weights `π_isj` of the paper's Eq. 2.

use ser_netlist::{Circuit, GateKind, NodeId};

/// `S_is`: probability that gate `s` is sensitized to its fan-in `i`,
/// i.e. that every *other* fan-in of `s` carries a non-controlling value.
///
/// AND/NAND require 1s elsewhere (`Π p`), OR/NOR require 0s
/// (`Π (1−p)`); XOR/XNOR/NOT/BUF propagate unconditionally. If `i` feeds
/// several pins of `s`, all of them are excluded from the side product.
///
/// # Example
///
/// ```
/// use aserta::logical::side_sensitization;
/// use ser_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("a");
/// let c = b.input("b");
/// let y = b.gate(GateKind::And, "y", &[a, c]).unwrap();
/// b.mark_output(y);
/// let circuit = b.finish().unwrap();
/// let probs = vec![0.5, 0.25, 0.125];
/// // Side input of `a` at AND gate y is `b` with p(1) = 0.25.
/// assert_eq!(side_sensitization(&circuit, &probs, a, y), 0.25);
/// ```
pub fn side_sensitization(circuit: &Circuit, probs: &[f64], i: NodeId, s: NodeId) -> f64 {
    let node = circuit.node(s);
    match node.kind {
        GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => 1.0,
        GateKind::And | GateKind::Nand => node
            .fanin
            .iter()
            .filter(|&&f| f != i)
            .map(|f| probs[f.index()])
            .product(),
        GateKind::Or | GateKind::Nor => node
            .fanin
            .iter()
            .filter(|&&f| f != i)
            .map(|f| 1.0 - probs[f.index()])
            .product(),
        GateKind::Input => 0.0,
    }
}

/// The deduplicated successors of `i` with their `S_is` weights.
pub fn successor_sensitizations(circuit: &Circuit, probs: &[f64], i: NodeId) -> Vec<(NodeId, f64)> {
    let mut out: Vec<(NodeId, f64)> = Vec::new();
    successor_sensitizations_into(circuit, probs, i, &mut out);
    out
}

/// [`successor_sensitizations`] into a caller-owned buffer (cleared
/// first) — the weight-cache builder calls this once per node, so
/// reusing one buffer avoids an allocation per node on large circuits.
pub fn successor_sensitizations_into(
    circuit: &Circuit,
    probs: &[f64],
    i: NodeId,
    out: &mut Vec<(NodeId, f64)>,
) {
    out.clear();
    for &s in circuit.fanout(i) {
        if out.iter().any(|&(seen, _)| seen == s) {
            continue; // multi-pin connection: one successor entry
        }
        out.push((s, side_sensitization(circuit, probs, i, s)));
    }
}

/// The Eq. 2 weights `π_isj = S_is·P_ij / Σ_k S_ik·P_kj` for one gate `i`
/// and one PO column `j`, in the same order as
/// [`successor_sensitizations`]. Zero denominators (no sensitizable route
/// through any successor) yield zero weights.
///
/// The normalization gives the Lemma-1 property
/// `Σ_s π_isj · P_sj = P_ij`, which the electrical-masking pass relies
/// on.
pub fn pi_weights(
    successors: &[(NodeId, f64)],
    p_ij: f64,
    p_sj: impl Fn(NodeId) -> f64,
) -> Vec<f64> {
    let p_sj: Vec<f64> = successors.iter().map(|&(s, _)| p_sj(s)).collect();
    let mut out = Vec::new();
    pi_weights_into(successors, p_ij, &p_sj, &mut out);
    out
}

/// [`pi_weights`] into a caller-owned buffer (cleared first), with the
/// successors' `P_sj` given position-aligned with `successors` — called
/// once per `(node, reachable PO)` pair during weight-cache
/// construction, so the buffer reuse matters at 100k gates.
///
/// # Panics
///
/// Panics if `p_sj` and `successors` differ in length.
pub fn pi_weights_into(successors: &[(NodeId, f64)], p_ij: f64, p_sj: &[f64], out: &mut Vec<f64>) {
    assert_eq!(p_sj.len(), successors.len(), "one P_sj per successor");
    out.clear();
    let denom: f64 = successors
        .iter()
        .zip(p_sj)
        .map(|(&(_, s_is), &p)| s_is * p)
        .sum();
    if denom <= 0.0 || p_ij <= 0.0 {
        out.resize(successors.len(), 0.0);
        return;
    }
    out.extend(successors.iter().map(|&(_, s_is)| s_is * p_ij / denom));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::CircuitBuilder;

    /// y = NAND(i, b, c); z = NOR(i, d); x = XOR(i, e)
    fn rig() -> (Circuit, [NodeId; 8]) {
        let mut bb = CircuitBuilder::new("t");
        let i = bb.input("i");
        let b = bb.input("b");
        let c = bb.input("c");
        let d = bb.input("d");
        let e = bb.input("e");
        let y = bb.gate(GateKind::Nand, "y", &[i, b, c]).unwrap();
        let z = bb.gate(GateKind::Nor, "z", &[i, d]).unwrap();
        let x = bb.gate(GateKind::Xor, "x", &[i, e]).unwrap();
        bb.mark_output(y);
        bb.mark_output(z);
        bb.mark_output(x);
        (bb.finish().unwrap(), [i, b, c, d, e, y, z, x])
    }

    #[test]
    fn nand_needs_ones_nor_needs_zeros_xor_always() {
        let (circ, [i, b, c, d, _, y, z, x]) = rig();
        let mut probs = vec![0.0; circ.node_count()];
        probs[b.index()] = 0.8;
        probs[c.index()] = 0.5;
        probs[d.index()] = 0.3;
        assert!((side_sensitization(&circ, &probs, i, y) - 0.4).abs() < 1e-12);
        assert!((side_sensitization(&circ, &probs, i, z) - 0.7).abs() < 1e-12);
        assert_eq!(side_sensitization(&circ, &probs, i, x), 1.0);
    }

    #[test]
    fn multi_pin_feed_excludes_all_pins() {
        let mut bb = CircuitBuilder::new("t");
        let a = bb.input("a");
        let b = bb.input("b");
        let y = bb.gate(GateKind::And, "y", &[a, a, b]).unwrap();
        bb.mark_output(y);
        let circ = bb.finish().unwrap();
        let mut probs = vec![0.0; circ.node_count()];
        probs[a.index()] = 0.9;
        probs[b.index()] = 0.5;
        // Only b counts as a side input.
        assert_eq!(side_sensitization(&circ, &probs, a, y), 0.5);
        // And y appears once in the successor list.
        let succ = successor_sensitizations(&circ, &probs, a);
        assert_eq!(succ.len(), 1);
    }

    #[test]
    fn pi_weights_satisfy_lemma_property() {
        let (circ, [i, ..]) = rig();
        let mut probs = vec![0.5; circ.node_count()];
        probs[i.index()] = 0.5;
        let succ = successor_sensitizations(&circ, &probs, i);
        // Fake P values.
        let p_sj = |s: NodeId| 0.25 + 0.1 * (s.index() as f64 % 3.0);
        let p_ij = 0.4;
        let pis = pi_weights(&succ, p_ij, p_sj);
        let sum: f64 = succ
            .iter()
            .zip(&pis)
            .map(|(&(s, _), &pi)| pi * p_sj(s))
            .sum();
        assert!((sum - p_ij).abs() < 1e-12, "Σ π·P = {sum}, want {p_ij}");
    }

    #[test]
    fn zero_denominator_gives_zero_weights() {
        let (circ, [i, ..]) = rig();
        let probs = vec![0.5; circ.node_count()];
        let succ = successor_sensitizations(&circ, &probs, i);
        let pis = pi_weights(&succ, 0.4, |_| 0.0);
        assert!(pis.iter().all(|&p| p == 0.0));
    }
}
