//! Fan-out cones and reconvergence detection.
//!
//! The per-call queries here share a single forward scan
//! ([`ConeScan`]); batch workloads that need *every* node's cone should
//! use [`crate::csr::ConeArena`], which materializes them all at once
//! into one arena.

use crate::circuit::Circuit;
use crate::id::NodeId;

/// The product of one forward cone scan from a root: the membership mask
/// and the topologically ordered cone, computed together so callers
/// needing several views pay for a single pass.
#[derive(Debug, Clone)]
pub struct ConeScan {
    mask: Vec<bool>,
    cone: Vec<NodeId>,
}

/// The single marking pass shared by every cone query: forward over the
/// topological order, invoking `on_member` for each cone node in order.
fn mark_cone(circuit: &Circuit, root: NodeId, mut on_member: impl FnMut(NodeId)) -> Vec<bool> {
    let mut mask = vec![false; circuit.node_count()];
    mask[root.index()] = true;
    for &id in circuit.topological_order() {
        if mask[id.index()] {
            on_member(id);
            for &s in circuit.fanout(id) {
                mask[s.index()] = true;
            }
        }
    }
    mask
}

impl ConeScan {
    /// Runs the scan: one forward pass over the topological order.
    pub fn of(circuit: &Circuit, root: NodeId) -> Self {
        let mut cone = Vec::new();
        let mask = mark_cone(circuit, root, |id| cone.push(id));
        ConeScan { mask, cone }
    }

    /// The inclusive fan-out cone, topologically ordered.
    #[inline]
    pub fn cone(&self) -> &[NodeId] {
        &self.cone
    }

    /// Membership mask over all nodes.
    #[inline]
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Consumes the scan, returning the cone vector.
    #[inline]
    pub fn into_cone(self) -> Vec<NodeId> {
        self.cone
    }

    /// Primary outputs inside the cone, in PO declaration order.
    pub fn reachable_outputs(&self, circuit: &Circuit) -> Vec<NodeId> {
        circuit
            .primary_outputs()
            .iter()
            .copied()
            .filter(|po| self.mask[po.index()])
            .collect()
    }
}

/// The transitive fan-out cone of `root` (inclusive), returned in
/// topological order. This is the set of nodes whose value can change when
/// `root` glitches — the only region a strike simulation needs to touch.
///
/// # Example
///
/// ```
/// use ser_netlist::{generate, cone};
///
/// let c17 = generate::c17();
/// let g10 = c17.find("10").unwrap();
/// let cone = cone::fanout_cone(&c17, g10);
/// assert!(cone.contains(&g10));
/// ```
pub fn fanout_cone(circuit: &Circuit, root: NodeId) -> Vec<NodeId> {
    ConeScan::of(circuit, root).into_cone()
}

/// Marks, for every node, whether `root` lies in its fan-in cone
/// (i.e. whether the node is in `root`'s fan-out cone). Cheaper than
/// materializing the cone when only membership tests are needed.
pub fn fanout_cone_mask(circuit: &Circuit, root: NodeId) -> Vec<bool> {
    mark_cone(circuit, root, |_| ())
}

/// Primary outputs reachable from `root`, in PO declaration order.
pub fn reachable_outputs(circuit: &Circuit, root: NodeId) -> Vec<NodeId> {
    let mask = mark_cone(circuit, root, |_| ());
    circuit
        .primary_outputs()
        .iter()
        .copied()
        .filter(|po| mask[po.index()])
        .collect()
}

/// Returns `true` if `root` has *reconvergent fan-out*: two vertex-disjoint
/// paths from `root` that meet again. Reconvergence is what makes exact
/// sensitization-probability computation NP-complete (the paper's ref.
/// \[9\]) and why ASERTA falls back to random simulation.
///
/// Detection: a node in the fan-out cone reconverges if at least two of
/// its fan-ins are themselves in the cone, or are reached through distinct
/// immediate successors of `root`.
pub fn has_reconvergent_fanout(circuit: &Circuit, root: NodeId) -> bool {
    // Tag every cone node with the first immediate successor ("branch")
    // through which it was reached; a node reached via two different
    // branches, or with two cone fan-ins, witnesses reconvergence.
    const UNTAGGED: usize = usize::MAX;
    let mut tag = vec![UNTAGGED; circuit.node_count()];
    let branches = circuit.fanout(root);
    if branches.len() < 2 {
        return false;
    }
    for (b, &s) in branches.iter().enumerate() {
        if tag[s.index()] != UNTAGGED && tag[s.index()] != b {
            return true; // root feeds the same gate on two pins… still reconvergent at that gate
        }
        tag[s.index()] = b;
    }
    for &id in circuit.topological_order() {
        if id == root || tag[id.index()] == UNTAGGED {
            continue;
        }
        for &s in circuit.fanout(id) {
            if s == root {
                continue;
            }
            let t = tag[s.index()];
            if t == UNTAGGED {
                tag[s.index()] = tag[id.index()];
            } else if t != tag[id.index()] {
                return true;
            }
        }
    }
    false
}

/// Counts the nodes with reconvergent fan-out in the whole circuit.
pub fn reconvergent_node_count(circuit: &Circuit) -> usize {
    circuit
        .node_ids()
        .filter(|&id| has_reconvergent_fanout(circuit, id))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::GateKind;
    use crate::generate;

    #[test]
    fn cone_of_po_is_itself() {
        let c = generate::c17();
        let po = c.primary_outputs()[0];
        assert_eq!(fanout_cone(&c, po), vec![po]);
    }

    #[test]
    fn cone_of_pi_reaches_some_po() {
        let c = generate::c17();
        for &pi in c.primary_inputs() {
            let outs = reachable_outputs(&c, pi);
            assert!(!outs.is_empty(), "{pi} reaches no PO");
        }
    }

    #[test]
    fn mask_agrees_with_cone() {
        let c = generate::c17();
        for id in c.node_ids() {
            let mask = fanout_cone_mask(&c, id);
            let cone = fanout_cone(&c, id);
            for m in c.node_ids() {
                assert_eq!(mask[m.index()], cone.contains(&m));
            }
        }
    }

    #[test]
    fn reconvergence_detected() {
        // root branches to two gates that reconverge at y.
        let mut b = CircuitBuilder::new("reconv");
        let a = b.input("a");
        let r = b.gate(GateKind::Buf, "r", &[a]).unwrap();
        let p = b.gate(GateKind::Not, "p", &[r]).unwrap();
        let q = b.gate(GateKind::Buf, "q", &[r]).unwrap();
        let y = b.gate(GateKind::And, "y", &[p, q]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        assert!(has_reconvergent_fanout(&c, r));
        assert!(!has_reconvergent_fanout(&c, p));
    }

    #[test]
    fn chain_has_no_reconvergence() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", &[g1]).unwrap();
        b.mark_output(g2);
        let c = b.finish().unwrap();
        for id in c.node_ids() {
            assert!(!has_reconvergent_fanout(&c, id));
        }
    }

    #[test]
    fn c17_has_reconvergent_nodes() {
        // Net 11 (NAND of 3,6) famously fans out to gates 16 and 19 whose
        // cones reconverge at c17's outputs only via distinct POs — but net
        // 3 reconverges inside: 3 feeds 10 and 11, meeting at 22 via 10/16.
        let c = generate::c17();
        let n3 = c.find("3").unwrap();
        assert!(has_reconvergent_fanout(&c, n3));
        assert!(reconvergent_node_count(&c) >= 1);
    }
}
