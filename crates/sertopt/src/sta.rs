//! Static timing analysis: arrival/required times, slacks and the
//! critical delay over a per-node delay vector.

use ser_netlist::Circuit;

/// STA result over one delay assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Latest arrival time at each node's output.
    pub arrival: Vec<f64>,
    /// Required time at each node's output for the circuit to meet
    /// `clock`.
    pub required: Vec<f64>,
    /// Slack per node (`required − arrival`).
    pub slack: Vec<f64>,
    /// The critical (longest) PI→PO path delay.
    pub critical_delay: f64,
}

/// Runs STA. `delays[i]` is node `i`'s propagation delay (0 for primary
/// inputs); `clock` sets required times (use the critical delay itself
/// for zero-slack normalization).
pub fn analyze(circuit: &Circuit, delays: &[f64], clock: f64) -> Timing {
    let n = circuit.node_count();
    assert_eq!(delays.len(), n, "one delay per node");
    let mut arrival = vec![0.0f64; n];
    for &id in circuit.topological_order() {
        let node = circuit.node(id);
        let arr_in = node
            .fanin
            .iter()
            .map(|f| arrival[f.index()])
            .fold(0.0, f64::max);
        arrival[id.index()] = arr_in + delays[id.index()];
    }
    let critical_delay = circuit
        .primary_outputs()
        .iter()
        .map(|po| arrival[po.index()])
        .fold(0.0, f64::max);

    let mut required = vec![f64::INFINITY; n];
    for &po in circuit.primary_outputs() {
        required[po.index()] = clock;
    }
    for &id in circuit.topological_order().iter().rev() {
        let r_here = required[id.index()];
        for &f in &circuit.node(id).fanin {
            let r_pred = r_here - delays[id.index()];
            if r_pred < required[f.index()] {
                required[f.index()] = r_pred;
            }
        }
    }
    let slack: Vec<f64> = (0..n).map(|i| required[i] - arrival[i]).collect();

    Timing {
        arrival,
        required,
        slack,
        critical_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::{CircuitBuilder, GateKind};

    #[test]
    fn chain_arrival_accumulates() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", &[g1]).unwrap();
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let mut delays = vec![0.0; c.node_count()];
        delays[g1.index()] = 3.0;
        delays[g2.index()] = 5.0;
        let t = analyze(&c, &delays, 8.0);
        assert_eq!(t.arrival[g2.index()], 8.0);
        assert_eq!(t.critical_delay, 8.0);
        // Zero slack everywhere on the critical chain at clock = delay.
        assert!(t.slack.iter().all(|&s| s.abs() < 1e-12 || s.is_infinite()));
    }

    #[test]
    fn slack_appears_on_short_paths() {
        // Two parallel paths of different length into one AND.
        let mut b = CircuitBuilder::new("par");
        let a = b.input("a");
        let long1 = b.gate(GateKind::Not, "l1", &[a]).unwrap();
        let long2 = b.gate(GateKind::Not, "l2", &[long1]).unwrap();
        let short = b.gate(GateKind::Buf, "s", &[a]).unwrap();
        let y = b.gate(GateKind::And, "y", &[long2, short]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        let mut delays = vec![0.0; c.node_count()];
        for g in [long1, long2, short, y] {
            delays[g.index()] = 1.0;
        }
        let t = analyze(&c, &delays, 3.0);
        assert_eq!(t.critical_delay, 3.0);
        assert!((t.slack[short.index()] - 1.0).abs() < 1e-12);
        assert!(t.slack[long1.index()].abs() < 1e-12);
    }
}
