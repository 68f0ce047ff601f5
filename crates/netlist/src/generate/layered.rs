//! Random layered-DAG circuit generator with ISCAS-like structure.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use crate::gate::GateKind;
use crate::id::NodeId;

/// Relative frequency of each gate kind emitted by [`layered`].
///
/// The default mix mirrors the NAND-heavy ISCAS'85 profile.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMix {
    /// `(kind, weight)` pairs; weights need not sum to 1.
    pub weights: Vec<(GateKind, f64)>,
}

impl Default for GateMix {
    fn default() -> Self {
        GateMix {
            weights: vec![
                (GateKind::Nand, 0.30),
                (GateKind::And, 0.16),
                (GateKind::Nor, 0.12),
                (GateKind::Or, 0.12),
                (GateKind::Not, 0.16),
                (GateKind::Xor, 0.05),
                (GateKind::Xnor, 0.03),
                (GateKind::Buf, 0.06),
            ],
        }
    }
}

impl GateMix {
    /// A mix without inverters/buffers, used for layers that must accept
    /// extra pins (e.g. the primary-output layer).
    pub fn multi_input_only(&self) -> GateMix {
        GateMix {
            weights: self
                .weights
                .iter()
                .filter(|(k, _)| !matches!(k, GateKind::Not | GateKind::Buf))
                .cloned()
                .collect(),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> GateKind {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.random::<f64>() * total;
        for &(kind, w) in &self.weights {
            if x < w {
                return kind;
            }
            x -= w;
        }
        self.weights.last().expect("non-empty mix").0
    }
}

/// Parameters for [`layered`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredSpec {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// Number of primary outputs (each is a dedicated gate in the last
    /// layer).
    pub n_outputs: usize,
    /// Total gate count, output gates included. Honoured exactly.
    pub n_gates: usize,
    /// Target logic depth (number of gate layers). Clamped so every layer
    /// holds at least one gate.
    pub depth: usize,
    /// RNG seed; equal specs generate equal circuits.
    pub seed: u64,
    /// Gate-kind mix.
    pub mix: GateMix,
    /// Maximum fan-in for generated gates (≥ 2).
    pub max_fanin: usize,
}

impl LayeredSpec {
    /// A reasonable spec with default mix, depth scaled as `3·ln(gates)`,
    /// and max fan-in 4.
    pub fn new(name: impl Into<String>, n_inputs: usize, n_outputs: usize, n_gates: usize) -> Self {
        let depth = ((n_gates as f64).ln() * 3.0).round().clamp(3.0, 48.0) as usize;
        LayeredSpec {
            name: name.into(),
            n_inputs,
            n_outputs,
            n_gates,
            depth,
            seed: 0x5EED_0BAD_CAFE,
            mix: GateMix::default(),
            max_fanin: 4,
        }
    }
}

/// Generates a random layered combinational circuit.
///
/// Structure: primary inputs form layer 0; gates fill `depth` layers with
/// a mid-heavy size profile; each gate draws its first fan-in from the
/// previous layer (so layers advance depth) and the rest from earlier
/// layers with geometric bias towards nearby ones (locality plus
/// occasional long-range edges — the recipe for reconvergent fan-out).
/// Dangling nodes are folded in as extra pins of downstream multi-input
/// gates, so (almost) every net is *wired* to an output. That is a
/// structural property, not a logical one: deep stacks of random
/// AND/OR gates drive many signal probabilities to 0 or 1, so a large
/// share of the nets is never logically observable (the ROADMAP item on
/// making the ISCAS'85 stand-ins behave like real logic).
///
/// # Panics
///
/// Panics if `n_inputs == 0`, `n_outputs == 0`, `max_fanin < 2`, or
/// `n_gates < n_outputs`.
pub fn layered(spec: &LayeredSpec) -> Circuit {
    assert!(spec.n_inputs > 0, "need at least one primary input");
    assert!(spec.n_outputs > 0, "need at least one primary output");
    assert!(spec.max_fanin >= 2, "max_fanin must be at least 2");
    assert!(
        spec.n_gates >= spec.n_outputs,
        "gate budget smaller than the output count"
    );

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let internal = spec.n_gates - spec.n_outputs;
    // Layers 1..=depth-1 are internal; layer `depth` is the PO layer.
    // Clamp depth so every internal layer has at least one gate.
    let depth = if internal == 0 {
        1
    } else {
        spec.depth.max(2).min(internal + 1)
    };
    let n_internal_layers = depth.saturating_sub(1);

    // Mid-heavy triangular layer-size profile.
    let mut layer_sizes = vec![0usize; n_internal_layers];
    if n_internal_layers > 0 {
        let weights: Vec<f64> = (0..n_internal_layers)
            .map(|l| 1.0 + (l.min(n_internal_layers - 1 - l) as f64).sqrt())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut assigned = 0usize;
        for (l, w) in weights.iter().enumerate() {
            let share = ((w / total) * internal as f64).floor() as usize;
            layer_sizes[l] = share.max(1);
            assigned += layer_sizes[l];
        }
        // Fix rounding drift deterministically.
        let mut l = 0usize;
        while assigned < internal {
            layer_sizes[l % n_internal_layers] += 1;
            assigned += 1;
            l += 1;
        }
        while assigned > internal {
            let idx = layer_sizes
                .iter()
                .enumerate()
                .filter(|(_, &s)| s > 1)
                .map(|(i, _)| i)
                .next_back()
                .expect("cannot shrink below one gate per layer");
            layer_sizes[idx] -= 1;
            assigned -= 1;
        }
    }

    let mut b = CircuitBuilder::new(spec.name.clone());
    let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(depth + 1);
    let pis: Vec<NodeId> = (0..spec.n_inputs)
        .map(|i| b.input(format!("{}", i + 1)))
        .collect();
    layers.push(pis);

    let mut next_name = spec.n_inputs + 1;
    let multi_mix = spec.mix.multi_input_only();

    for (li, &size) in layer_sizes.iter().enumerate() {
        let layer_no = li + 1;
        let mut this_layer = Vec::with_capacity(size);
        for _ in 0..size {
            let kind = spec.mix.sample(&mut rng);
            let id = emit_gate(
                &mut b,
                &mut rng,
                kind,
                &layers,
                layer_no,
                spec.max_fanin,
                &mut next_name,
            );
            this_layer.push(id);
        }
        layers.push(this_layer);
    }

    // Primary-output layer: always multi-input kinds so dangling nodes can
    // be folded in below.
    let po_layer_no = layers.len();
    let mut po_layer = Vec::with_capacity(spec.n_outputs);
    for _ in 0..spec.n_outputs {
        let kind = multi_mix.sample(&mut rng);
        let id = emit_gate(
            &mut b,
            &mut rng,
            kind,
            &layers,
            po_layer_no,
            spec.max_fanin,
            &mut next_name,
        );
        po_layer.push(id);
    }
    for &po in &po_layer {
        b.mark_output(po);
    }
    layers.push(po_layer);

    // Fold dangling nodes (no fan-out, not PO) into downstream gates by
    // rebuilding node fan-ins. We work on raw parts for this step.
    let circuit = b
        .finish()
        .expect("layered construction is structurally valid");
    fold_dangling(circuit, &layers, &mut rng)
}

/// Emits one gate whose first pin comes from the immediately preceding
/// layer and whose remaining pins come from earlier layers with geometric
/// locality bias.
fn emit_gate(
    b: &mut CircuitBuilder,
    rng: &mut StdRng,
    kind: GateKind,
    layers: &[Vec<NodeId>],
    layer_no: usize,
    max_fanin: usize,
    next_name: &mut usize,
) -> NodeId {
    let n_pins = match kind {
        GateKind::Not | GateKind::Buf => 1,
        _ => {
            // Mostly 2, sometimes 3..max.
            let r = rng.random::<f64>();
            if r < 0.62 {
                2
            } else if r < 0.88 {
                3.min(max_fanin)
            } else {
                max_fanin
            }
        }
    };
    let mut pins: Vec<NodeId> = Vec::with_capacity(n_pins);
    let prev = &layers[layer_no - 1];
    pins.push(prev[rng.random_range(0..prev.len())]);
    while pins.len() < n_pins {
        // Geometric hop back through layers.
        let mut l = layer_no - 1;
        while l > 0 && rng.random::<f64>() < 0.45 {
            l -= 1;
        }
        let cand = layers[l][rng.random_range(0..layers[l].len())];
        if !pins.contains(&cand) {
            pins.push(cand);
        } else if rng.random::<f64>() < 0.1 {
            break; // accept a smaller fan-in occasionally rather than spin
        }
    }
    let name = format!("{}", *next_name);
    *next_name += 1;
    b.gate(kind, name, &pins)
        .expect("pins reference already-emitted nodes")
}

/// Appends every dangling (fan-out-free, non-PO) node as an extra pin of a
/// multi-input gate in a strictly later layer. Falls back to leaving the
/// node dangling when no host exists (never happens with the PO layer
/// restricted to multi-input kinds, unless fan-ins saturate).
fn fold_dangling(circuit: Circuit, layers: &[Vec<NodeId>], rng: &mut StdRng) -> Circuit {
    let mut layer_of = vec![0usize; circuit.node_count()];
    for (l, ids) in layers.iter().enumerate() {
        for &id in ids {
            layer_of[id.index()] = l;
        }
    }
    let name = circuit.name().to_owned();
    let pos = circuit.primary_outputs().to_vec();
    let dangling: Vec<NodeId> = circuit
        .node_ids()
        .filter(|&id| circuit.fanout(id).is_empty() && !circuit.is_primary_output(id))
        .collect();
    let mut nodes = circuit.nodes().to_vec();
    let n_layers = layers.len();
    for d in dangling {
        let dl = layer_of[d.index()];
        // Try a handful of random later-layer hosts.
        let mut placed = false;
        for _ in 0..64 {
            let hl = rng.random_range((dl + 1).max(1)..n_layers);
            let host = layers[hl][rng.random_range(0..layers[hl].len())];
            let hnode = &mut nodes[host.index()];
            let appendable = !matches!(hnode.kind, GateKind::Not | GateKind::Buf | GateKind::Input);
            if appendable && !hnode.fanin.contains(&d) {
                hnode.fanin.push(d);
                placed = true;
                break;
            }
        }
        if !placed {
            // Deterministic sweep as a last resort.
            'sweep: for layer in layers.iter().take(n_layers).skip((dl + 1).max(1)) {
                for &host in layer {
                    let hnode = &mut nodes[host.index()];
                    let appendable =
                        !matches!(hnode.kind, GateKind::Not | GateKind::Buf | GateKind::Input);
                    if appendable && !hnode.fanin.contains(&d) {
                        hnode.fanin.push(d);
                        break 'sweep;
                    }
                }
            }
        }
    }
    Circuit::from_parts(name, nodes, pos).expect("folding preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn honours_exact_counts() {
        let spec = LayeredSpec::new("t", 12, 5, 80);
        let c = layered(&spec);
        assert_eq!(c.primary_inputs().len(), 12);
        assert_eq!(c.primary_outputs().len(), 5);
        assert_eq!(c.gate_count(), 80);
    }

    #[test]
    fn deterministic_for_equal_specs() {
        let spec = LayeredSpec::new("t", 10, 4, 60);
        assert_eq!(layered(&spec), layered(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LayeredSpec::new("t", 10, 4, 60);
        let mut b = a.clone();
        a.seed = 1;
        b.seed = 2;
        assert_ne!(layered(&a), layered(&b));
    }

    #[test]
    fn no_dangling_nodes_in_practice() {
        let spec = LayeredSpec::new("t", 16, 6, 120);
        let c = layered(&spec);
        let dangling = c
            .node_ids()
            .filter(|&id| c.fanout(id).is_empty() && !c.is_primary_output(id))
            .count();
        assert_eq!(dangling, 0);
    }

    #[test]
    fn depth_is_near_target() {
        let mut spec = LayeredSpec::new("t", 16, 6, 200);
        spec.depth = 15;
        let c = layered(&spec);
        let d = topo::depth(&c);
        assert!((13..=17).contains(&d), "depth {d} far from target 15");
    }

    #[test]
    fn tiny_budget_works() {
        let spec = LayeredSpec::new("t", 2, 1, 1);
        let c = layered(&spec);
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn mix_without_inverters_in_po_layer() {
        let spec = LayeredSpec::new("t", 8, 10, 40);
        let c = layered(&spec);
        for &po in c.primary_outputs() {
            let k = c.node(po).kind;
            assert!(!matches!(k, GateKind::Not | GateKind::Buf), "PO kind {k}");
        }
    }
}
