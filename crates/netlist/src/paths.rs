//! PI→PO path counting and enumeration.
//!
//! SERTOPT's topology matrix `T` has one row per PI→PO path; for realistic
//! circuits the path count is astronomically large, which is why the crate
//! offers both exact enumeration (for small circuits and tests) and
//! counting (always cheap, `O(V + E)` with big-float accumulators).

use crate::circuit::Circuit;
use crate::id::NodeId;

/// Number of PI→PO paths **through** every node, as `f64` (exact until
/// 2^53, then a faithful approximation — ISCAS'85 counts fit comfortably
/// in `f64` range).
///
/// `paths_through[i] = paths_from_pi_to(i) × paths_from(i)_to_po`.
pub fn paths_through(circuit: &Circuit) -> Vec<f64> {
    let from_pi = paths_from_inputs(circuit);
    let to_po = paths_to_outputs(circuit);
    from_pi.iter().zip(&to_po).map(|(&a, &b)| a * b).collect()
}

/// Number of paths from any primary input to each node (a PI counts 1 for
/// itself).
pub fn paths_from_inputs(circuit: &Circuit) -> Vec<f64> {
    let mut count = vec![0.0f64; circuit.node_count()];
    for &id in circuit.topological_order() {
        let node = circuit.node(id);
        count[id.index()] = if node.is_input() {
            1.0
        } else {
            node.fanin.iter().map(|f| count[f.index()]).sum()
        };
    }
    count
}

/// Number of paths from each node to any primary output (a PO counts 1 for
/// itself, *plus* any paths continuing through its fan-out).
pub fn paths_to_outputs(circuit: &Circuit) -> Vec<f64> {
    let mut count = vec![0.0f64; circuit.node_count()];
    for &id in circuit.topological_order().iter().rev() {
        let mut c = if circuit.is_primary_output(id) {
            1.0
        } else {
            0.0
        };
        // `fanout` lists one entry per pin, so each entry is one path unit.
        for &s in circuit.fanout(id) {
            c += count[s.index()];
        }
        count[id.index()] = c;
    }
    count
}

/// Total number of PI→PO paths in the circuit.
pub fn total_paths(circuit: &Circuit) -> f64 {
    let to_po = paths_to_outputs(circuit);
    circuit
        .primary_inputs()
        .iter()
        .map(|pi| to_po[pi.index()])
        .sum()
}

/// One complete PI→PO path: the node sequence, inputs first.
pub type Path = Vec<NodeId>;

/// Enumerates every PI→PO path, aborting with `None` once more than
/// `limit` paths exist. Paths are produced in DFS order, deterministic for
/// a given circuit.
///
/// No analysis calls this: it is the every-path reference for small
/// circuits. The path-count property checks [`total_paths`] against
/// it, and the tension-space property checks that a timing-preserving
/// width change leaves every enumerated path's delay unchanged.
///
/// # Example
///
/// ```
/// use ser_netlist::{generate, paths};
///
/// let c17 = generate::c17();
/// let all = paths::enumerate(&c17, 1_000).expect("c17 is tiny");
/// assert_eq!(all.len() as f64, paths::total_paths(&c17));
/// ```
pub fn enumerate(circuit: &Circuit, limit: usize) -> Option<Vec<Path>> {
    let mut result = Vec::new();
    let mut stack: Path = Vec::new();
    for &pi in circuit.primary_inputs() {
        stack.push(pi);
        if !dfs(circuit, pi, &mut stack, &mut result, limit) {
            return None;
        }
        stack.pop();
    }
    Some(result)
}

fn dfs(
    circuit: &Circuit,
    at: NodeId,
    stack: &mut Path,
    result: &mut Vec<Path>,
    limit: usize,
) -> bool {
    if circuit.is_primary_output(at) {
        if result.len() >= limit {
            return false;
        }
        result.push(stack.clone());
        // POs that keep driving logic continue below.
    }
    // `fanout` lists one entry per pin, giving one path per pin.
    for &s in circuit.fanout(at) {
        stack.push(s);
        if !dfs(circuit, s, stack, result, limit) {
            return false;
        }
        stack.pop();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::GateKind;
    use crate::generate;

    #[test]
    fn c17_has_eleven_paths() {
        // Known structural fact about c17.
        let c = generate::c17();
        assert_eq!(total_paths(&c), 11.0);
        assert_eq!(enumerate(&c, 100).unwrap().len(), 11);
    }

    #[test]
    fn enumeration_matches_count_on_diamond() {
        let mut b = CircuitBuilder::new("diamond");
        let a = b.input("a");
        let p = b.gate(GateKind::Not, "p", &[a]).unwrap();
        let q = b.gate(GateKind::Buf, "q", &[a]).unwrap();
        let y = b.gate(GateKind::And, "y", &[p, q]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        assert_eq!(total_paths(&c), 2.0);
        let paths = enumerate(&c, 10).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.first(), Some(&a));
            assert_eq!(p.last(), Some(&y));
        }
    }

    #[test]
    fn limit_aborts() {
        let c = generate::c17();
        assert!(enumerate(&c, 3).is_none());
    }

    #[test]
    fn paths_through_consistency() {
        let c = generate::c17();
        let through = paths_through(&c);
        // Paths through any PO equal paths ending there… POs in c17 don't
        // feed logic, so paths_through = paths_from_inputs at POs.
        let from_pi = paths_from_inputs(&c);
        for &po in c.primary_outputs() {
            assert_eq!(through[po.index()], from_pi[po.index()]);
        }
        // Sum over POs = total paths.
        let sum: f64 = c
            .primary_outputs()
            .iter()
            .map(|po| through[po.index()])
            .sum();
        assert_eq!(sum, total_paths(&c));
    }

    #[test]
    fn po_feeding_logic_counts_both() {
        let mut b = CircuitBuilder::new("po_feed");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", &[a]).unwrap();
        let h = b.gate(GateKind::Not, "h", &[g]).unwrap();
        b.mark_output(g);
        b.mark_output(h);
        let c = b.finish().unwrap();
        // Paths: a->g and a->g->h.
        assert_eq!(total_paths(&c), 2.0);
        let paths = enumerate(&c, 10).unwrap();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn multi_pin_edges_count_per_pin() {
        // y = AND(x, x): two pins from the same net → two paths.
        let mut b = CircuitBuilder::new("multipin");
        let a = b.input("a");
        let y = b.gate(GateKind::And, "y", &[a, a]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        assert_eq!(total_paths(&c), 2.0);
        assert_eq!(enumerate(&c, 10).unwrap().len(), 2);
    }
}
