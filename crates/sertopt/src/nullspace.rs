//! The nullspace of the topology matrix: delay moves that change no
//! PI→PO path delay.
//!
//! The path-topology matrix `T` of the paper's §4 has one row per PI→PO
//! path and one column per gate, so SERTOPT's moves must satisfy
//! `T·Δ = 0`. Paths are exponential in number, so `T` is never built.
//! [`TensionSpace`] is the scalable `O(V+E)` parameterization used for
//! optimization instead: a potential `φ` on merged fan-in net classes
//! (all fan-ins of one gate share a class; classes touching a PI or PO
//! are pinned to 0) induces `Δd_gate = φ(out) − φ(in)`, which telescopes
//! to zero along every PI→PO path. It is a sound (conservative) subspace
//! of the nullspace; on the small circuits where `T` was enumerated its
//! dimension equals the exact nullity (README, "Answered ablations").

use ser_netlist::Circuit;

/// The scalable nullspace parameterization (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TensionSpace {
    /// Per node: compact class id.
    class_of_node: Vec<usize>,
    /// Per class: `Some(free coordinate)` or `None` if pinned to 0.
    free_index: Vec<Option<usize>>,
    n_free: usize,
}

impl TensionSpace {
    /// Builds the class structure for a circuit.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.node_count();
        // Union-find.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for id in circuit.gates() {
            let fanin = &circuit.node(id).fanin;
            let first = find(&mut parent, fanin[0].index());
            for f in &fanin[1..] {
                let r = find(&mut parent, f.index());
                parent[r] = first;
            }
        }
        // Compact class ids.
        let mut class_of_root = vec![usize::MAX; n];
        let mut class_of_node = vec![0usize; n];
        let mut n_classes = 0usize;
        for (i, class) in class_of_node.iter_mut().enumerate() {
            let r = find(&mut parent, i);
            if class_of_root[r] == usize::MAX {
                class_of_root[r] = n_classes;
                n_classes += 1;
            }
            *class = class_of_root[r];
        }
        // Pin classes containing PIs or POs.
        let mut pinned = vec![false; n_classes];
        for &pi in circuit.primary_inputs() {
            pinned[class_of_node[pi.index()]] = true;
        }
        for &po in circuit.primary_outputs() {
            pinned[class_of_node[po.index()]] = true;
        }
        let mut free_index = vec![None; n_classes];
        let mut n_free = 0usize;
        for (c, item) in free_index.iter_mut().enumerate() {
            if !pinned[c] {
                *item = Some(n_free);
                n_free += 1;
            }
        }
        TensionSpace {
            class_of_node,
            free_index,
            n_free,
        }
    }

    /// Dimension of the parameterized subspace (number of free classes).
    pub fn dim(&self) -> usize {
        self.n_free
    }

    /// The per-node delay deltas induced by a potential vector `phi`
    /// (length [`TensionSpace::dim`]); primary inputs get 0.
    ///
    /// # Panics
    ///
    /// Panics if `phi.len() != self.dim()`.
    pub fn delta(&self, circuit: &Circuit, phi: &[f64]) -> Vec<f64> {
        assert_eq!(phi.len(), self.n_free, "one potential per free class");
        let phi_of = |class: usize| -> f64 {
            match self.free_index[class] {
                Some(k) => phi[k],
                None => 0.0,
            }
        };
        let mut delta = vec![0.0f64; self.class_of_node.len()];
        for id in circuit.gates() {
            let out_class = self.class_of_node[id.index()];
            let in_class = self.class_of_node[circuit.node(id).fanin[0].index()];
            delta[id.index()] = phi_of(out_class) - phi_of(in_class);
        }
        delta
    }
}

/// Checks that `delta` changes no path delay by sampling `n_samples`
/// random PI→PO paths (deterministic in `seed`); returns the worst
/// absolute path-delay change observed.
pub fn max_path_delay_change(circuit: &Circuit, delta: &[f64], n_samples: usize, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pis = circuit.primary_inputs();
    let mut worst = 0.0f64;
    for _ in 0..n_samples {
        // Random forward walk from a random PI; restart on dead ends
        // until a PO is reached (all our circuits have no dead ends from
        // PIs, but dangling nodes exist in principle).
        let mut at = pis[rng.random_range(0..pis.len())];
        let mut sum = 0.0f64;
        let mut steps = 0;
        loop {
            if circuit.is_primary_output(at)
                && (circuit.fanout(at).is_empty() || rng.random_bool(0.5))
            {
                worst = worst.max(sum.abs());
                break;
            }
            let fo = circuit.fanout(at);
            if fo.is_empty() {
                break; // dangling: not a PI→PO path, discard sample
            }
            at = fo[rng.random_range(0..fo.len())];
            sum += delta[at.index()];
            steps += 1;
            if steps > circuit.node_count() {
                unreachable!("acyclic circuits terminate");
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use ser_netlist::generate;

    #[test]
    fn c17_tension_dim_matches_exact() {
        // c17's exact nullity (Gaussian elimination over its 11 paths) is 1.
        let c = generate::c17();
        let ts = TensionSpace::build(&c);
        assert_eq!(ts.dim(), 1);
    }

    #[test]
    fn tension_preserves_paths_on_all_benchmarks() {
        for name in ["c432", "c499", "c880"] {
            let c = generate::iscas85(name).unwrap();
            let ts = TensionSpace::build(&c);
            assert!(ts.dim() > 0, "{name} has no zero-overhead freedom?");
            let mut rng = StdRng::seed_from_u64(99);
            let phi: Vec<f64> = (0..ts.dim())
                .map(|_| rng.random_range(-10.0..10.0))
                .collect();
            let delta = ts.delta(&c, &phi);
            let worst = max_path_delay_change(&c, &delta, 2000, 7);
            assert!(worst < 1e-9, "{name}: worst change {worst}");
        }
    }

    #[test]
    fn zero_phi_means_zero_delta() {
        let c = generate::c17();
        let ts = TensionSpace::build(&c);
        let delta = ts.delta(&c, &vec![0.0; ts.dim()]);
        assert!(delta.iter().all(|&d| d == 0.0));
    }
}
