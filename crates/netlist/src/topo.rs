//! Topological utilities: levelization and depth measures.
//!
//! All functions work on the cached topological order of a [`Circuit`],
//! so each runs in `O(V + E)`.

use crate::circuit::Circuit;

/// Logic level of every node counted **from the primary inputs**: inputs
/// are level 0, every gate is one more than its deepest fan-in.
///
/// # Example
///
/// ```
/// use ser_netlist::{generate, topo};
///
/// let c17 = generate::c17();
/// let lv = topo::levels_from_inputs(&c17);
/// let depth = lv.iter().max().copied().unwrap();
/// assert_eq!(depth, 3); // c17 is three NAND levels deep
/// ```
pub fn levels_from_inputs(circuit: &Circuit) -> Vec<usize> {
    let mut level = vec![0usize; circuit.node_count()];
    for &id in circuit.topological_order() {
        let node = circuit.node(id);
        level[id.index()] = node
            .fanin
            .iter()
            .map(|f| level[f.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    level
}

/// Logic level of every node counted **towards the primary outputs**: a
/// primary output is level 0; every other node is the minimum distance (in
/// gates) to any primary output it reaches. Nodes that reach no primary
/// output get `usize::MAX`.
///
/// This is the measure the paper uses for Fig. 3 ("nodes that were at most
/// five levels deep from the POs").
pub fn levels_to_outputs(circuit: &Circuit) -> Vec<usize> {
    let mut level = vec![usize::MAX; circuit.node_count()];
    for &po in circuit.primary_outputs() {
        level[po.index()] = 0;
    }
    for &id in circuit.topological_order().iter().rev() {
        let mut best = level[id.index()];
        for &s in circuit.fanout(id) {
            let ls = level[s.index()];
            if ls != usize::MAX {
                best = best.min(ls + 1);
            }
        }
        level[id.index()] = best;
    }
    level
}

/// Circuit depth: the maximum level from inputs over all nodes.
pub fn depth(circuit: &Circuit) -> usize {
    levels_from_inputs(circuit).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::GateKind;
    use crate::generate;
    use crate::id::NodeId;

    /// a -> g -> h(PO), b -> g ; b -> k(PO)
    fn diamondish() -> (Circuit, [NodeId; 5]) {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.gate(GateKind::And, "g", &[a, bb]).unwrap();
        let h = b.gate(GateKind::Not, "h", &[g]).unwrap();
        let k = b.gate(GateKind::Not, "k", &[bb]).unwrap();
        b.mark_output(h);
        b.mark_output(k);
        (b.finish().unwrap(), [a, bb, g, h, k])
    }

    #[test]
    fn levels_from_inputs_basic() {
        let (c, [a, bb, g, h, k]) = diamondish();
        let lv = levels_from_inputs(&c);
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[bb.index()], 0);
        assert_eq!(lv[g.index()], 1);
        assert_eq!(lv[h.index()], 2);
        assert_eq!(lv[k.index()], 1);
    }

    #[test]
    fn levels_to_outputs_basic() {
        let (c, [a, bb, g, h, k]) = diamondish();
        let lv = levels_to_outputs(&c);
        assert_eq!(lv[h.index()], 0);
        assert_eq!(lv[k.index()], 0);
        assert_eq!(lv[g.index()], 1);
        assert_eq!(lv[a.index()], 2);
        assert_eq!(lv[bb.index()], 1); // via k
    }

    #[test]
    fn c17_depth() {
        assert_eq!(depth(&generate::c17()), 3);
    }
}
