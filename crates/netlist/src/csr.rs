//! Flat CSR (compressed-sparse-row) views of a [`Circuit`] for hot-path
//! kernels.
//!
//! The pointer-rich [`Circuit`] representation (one heap `Vec` of fan-ins
//! and a `String` name per node) is convenient to build and query but
//! hostile to tight simulation loops: every gate evaluation chases two
//! pointers and the nodes it touches are scattered across the heap.
//! [`CsrView`] flattens the structure the kernels actually need — gate
//! kinds, fan-in/fan-out adjacency and the topological order — into a
//! handful of contiguous `u32` arrays, and [`ConeArena`] materializes
//! fan-out cones (plus their reachable-primary-output column lists) into
//! one shared arena so per-strike resimulation touches exactly the nodes
//! that can change. For circuits too large to hold the whole cone
//! closure, [`po_region_order`] sorts the roots by PO region so a
//! caller can cut the order into chunks and build one [`ConeArena`] per
//! chunk with [`ConeArena::build_for`], bounding peak memory to the
//! chunk being built.
//!
//! # Example
//!
//! ```
//! use ser_netlist::csr::{ConeArena, CsrView};
//! use ser_netlist::generate;
//!
//! let c17 = generate::c17();
//! let csr = CsrView::build(&c17);
//! let arena = ConeArena::build(&csr);
//! let g10 = c17.find("10").unwrap();
//! // The cone is topologically sorted and starts at its root.
//! assert_eq!(arena.cone(g10.index())[0], g10.index() as u32);
//! // Gate 10 reaches only the first primary output (net 22).
//! assert_eq!(arena.reachable_cols(g10.index()), &[0]);
//! ```

use crate::circuit::Circuit;
use crate::gate::GateKind;

/// Sentinel marking "not a primary output" in [`CsrView::po_col_of`].
pub const NO_PO: u32 = u32::MAX;

/// A flat, cache-friendly view of a circuit's structure.
///
/// All node references are dense `u32` indices (the same indices as
/// [`NodeId::index`](crate::NodeId::index)); adjacency is stored as
/// offset + index arrays in the classic CSR layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrView {
    kinds: Vec<GateKind>,
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
    topo: Vec<u32>,
    rank: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    po_col: Vec<u32>,
}

impl CsrView {
    /// Flattens `circuit` into CSR arrays. `O(V + E)`.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.node_count();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin = Vec::with_capacity(circuit.edge_count());
        fanin_off.push(0);
        for node in circuit.nodes() {
            kinds.push(node.kind);
            fanin.extend(node.fanin.iter().map(|f| f.index() as u32));
            fanin_off.push(fanin.len() as u32);
        }

        let mut fanout_off = Vec::with_capacity(n + 1);
        let mut fanout = Vec::with_capacity(fanin.len());
        fanout_off.push(0);
        for i in 0..n {
            fanout.extend(
                circuit
                    .fanout(crate::NodeId::new(i))
                    .iter()
                    .map(|s| s.index() as u32),
            );
            fanout_off.push(fanout.len() as u32);
        }

        let topo: Vec<u32> = circuit
            .topological_order()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        let mut rank = vec![0u32; n];
        for (r, &i) in topo.iter().enumerate() {
            rank[i as usize] = r as u32;
        }

        let inputs: Vec<u32> = circuit
            .primary_inputs()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        let outputs: Vec<u32> = circuit
            .primary_outputs()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        let mut po_col = vec![NO_PO; n];
        for (j, &po) in outputs.iter().enumerate() {
            po_col[po as usize] = j as u32;
        }

        CsrView {
            kinds,
            fanin_off,
            fanin,
            fanout_off,
            fanout,
            topo,
            rank,
            inputs,
            outputs,
            po_col,
        }
    }

    /// Total node count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Gate kind of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    /// Fan-in node indices of node `i`, in pin order.
    #[inline]
    pub fn fanin_of(&self, i: usize) -> &[u32] {
        &self.fanin[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Fan-out node indices of node `i` (one entry per pin fed).
    #[inline]
    pub fn fanout_of(&self, i: usize) -> &[u32] {
        &self.fanout[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// The topological order as one flat slice of node indices.
    #[inline]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Topological rank of node `i` (its position in [`CsrView::topo`]).
    #[inline]
    pub fn rank_of(&self, i: usize) -> u32 {
        self.rank[i]
    }

    /// Primary-input node indices, in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary-output node indices, in declaration order (defining the PO
    /// column space).
    #[inline]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// PO column of node `i`, or [`NO_PO`] if it is not a primary output.
    #[inline]
    pub fn po_col_of(&self, i: usize) -> u32 {
        self.po_col[i]
    }
}

/// Every node's fan-out cone and reachable-PO column list, packed into one
/// CSR arena.
///
/// Cones are inclusive (the root is the first entry) and topologically
/// sorted, so a strike simulation can force the root and sweep the tail.
/// Reachable-PO lists hold *column indices* into [`CsrView::outputs`], in
/// ascending order. Building the arena is sparsity-aware: each cone costs
/// `O(|cone| · log |cone|)` (a sparse DFS plus a rank sort), not a full
/// `O(V)` pass per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeArena {
    cone_off: Vec<usize>,
    cones: Vec<u32>,
    po_off: Vec<usize>,
    po_cols: Vec<u32>,
}

impl ConeArena {
    /// Materializes all cones of `csr` into one arena, in node order —
    /// slot `i` is node `i`'s cone, so slot and node index coincide.
    pub fn build(csr: &CsrView) -> Self {
        let all: Vec<u32> = (0..csr.node_count() as u32).collect();
        Self::build_for(csr, &all)
    }

    /// Materializes the cones of `roots` only, **slot-indexed**: slot `t`
    /// of the arena holds the cone and reachable-PO list of `roots[t]`.
    /// The `P_ij` estimator builds one per worker share of a chunk
    /// visit, so it pays for exactly the cones that share replays.
    ///
    /// The builder deduplicates shared sub-cones across roots: requested
    /// roots are processed in descending topological rank, and a root
    /// whose fan-out successors are all already built assembles its cone
    /// by merging theirs (a rank-ordered k-way merge, or a straight
    /// prepend-copy for single-fan-out nodes) instead of re-traversing
    /// the shared fan-out graph. Roots with unbuilt successors fall back
    /// to a sparse DFS that still splices in any finished cone it
    /// reaches. The produced arena is bitwise identical to the one the
    /// naive per-root DFS builds.
    pub fn build_for(csr: &CsrView, roots: &[u32]) -> Self {
        Self::build_for_with_stats(csr, roots).0
    }

    /// [`ConeArena::build_for`] plus [`ConeBuildStats`] describing how
    /// much traversal the deduplicating builder actually performed.
    pub fn build_for_with_stats(csr: &CsrView, roots: &[u32]) -> (Self, ConeBuildStats) {
        const NONE: u32 = u32::MAX;
        let n = csr.node_count();
        let mut stats = ConeBuildStats::default();

        // Build in descending topological rank so every requested root
        // downstream of another is finished before its predecessors ask
        // for it. `tmp` holds cones in processing order; the request
        // (slot) order is restored by the assembly pass below.
        let mut order: Vec<u32> = (0..roots.len() as u32).collect();
        order.sort_unstable_by_key(|&t| std::cmp::Reverse(csr.rank_of(roots[t as usize] as usize)));

        let mut memo = vec![NONE; n]; // node -> finished tmp-cone index
        let mut tmp_of_slot = vec![0u32; roots.len()];
        let mut tmp_off: Vec<usize> = Vec::with_capacity(roots.len() + 1);
        tmp_off.push(0);
        let mut tmp: Vec<u32> = Vec::new();

        // DFS fallback state: stamp[v] == cone index marks v as reached,
        // so the array never needs clearing between roots.
        let mut stamp = vec![NONE; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut heads: Vec<(usize, usize)> = Vec::new();

        for &t in &order {
            let root = roots[t as usize];
            if memo[root as usize] != NONE {
                // Duplicate root in the request: alias the finished cone.
                tmp_of_slot[t as usize] = memo[root as usize];
                continue;
            }
            let idx = (tmp_off.len() - 1) as u32;
            let start = tmp.len();
            let fanout = csr.fanout_of(root as usize);
            let all_built = !fanout.is_empty() && fanout.iter().all(|&s| memo[s as usize] != NONE);
            if fanout.is_empty() {
                tmp.push(root);
            } else if all_built && fanout.len() == 1 {
                // rank(root) precedes every entry of the successor cone,
                // so a straight prepend-copy stays rank-sorted.
                let m = memo[fanout[0] as usize] as usize;
                let (s, e) = (tmp_off[m], tmp_off[m + 1]);
                tmp.push(root);
                tmp.extend_from_within(s..e);
                stats.spliced_entries += e - s;
                stats.merged_roots += 1;
            } else if all_built {
                // Rank-ordered k-way merge of the successor cones. Ranks
                // are a permutation, so equal heads mean the same node;
                // advancing every list whose head matches deduplicates.
                heads.clear();
                for &s in fanout {
                    let m = memo[s as usize] as usize;
                    heads.push((tmp_off[m], tmp_off[m + 1]));
                    stats.spliced_entries += tmp_off[m + 1] - tmp_off[m];
                }
                tmp.push(root);
                loop {
                    let mut best: Option<(u32, u32)> = None;
                    for &(p, e) in &heads {
                        if p < e {
                            let v = tmp[p];
                            let r = csr.rank_of(v as usize);
                            if best.is_none_or(|(br, _)| r < br) {
                                best = Some((r, v));
                            }
                        }
                    }
                    let Some((_, v)) = best else { break };
                    tmp.push(v);
                    for h in heads.iter_mut() {
                        if h.0 < h.1 && tmp[h.0] == v {
                            h.0 += 1;
                        }
                    }
                }
                stats.merged_roots += 1;
            } else {
                // Sparse DFS, splicing in any finished cone it reaches.
                stats.dfs_roots += 1;
                stamp[root as usize] = idx;
                tmp.push(root);
                stack.push(root);
                while let Some(u) = stack.pop() {
                    for &v in csr.fanout_of(u as usize) {
                        stats.dfs_edges += 1;
                        if stamp[v as usize] == idx {
                            continue;
                        }
                        let m = memo[v as usize];
                        if m != NONE {
                            let (s, e) = (tmp_off[m as usize], tmp_off[m as usize + 1]);
                            for p in s..e {
                                let w = tmp[p];
                                if stamp[w as usize] != idx {
                                    stamp[w as usize] = idx;
                                    tmp.push(w);
                                }
                            }
                            stats.spliced_entries += e - s;
                        } else {
                            stamp[v as usize] = idx;
                            tmp.push(v);
                            stack.push(v);
                        }
                    }
                }
                tmp[start..].sort_unstable_by_key(|&v| csr.rank_of(v as usize));
            }
            tmp_off.push(tmp.len());
            memo[root as usize] = idx;
            tmp_of_slot[t as usize] = idx;
        }

        // Assemble in request (slot) order.
        let total: usize = tmp_of_slot
            .iter()
            .map(|&m| tmp_off[m as usize + 1] - tmp_off[m as usize])
            .sum();
        let mut cone_off = Vec::with_capacity(roots.len() + 1);
        let mut po_off = Vec::with_capacity(roots.len() + 1);
        let mut cones: Vec<u32> = Vec::with_capacity(total);
        let mut po_cols: Vec<u32> = Vec::new();
        cone_off.push(0);
        po_off.push(0);
        for &m in &tmp_of_slot {
            let (s, e) = (tmp_off[m as usize], tmp_off[m as usize + 1]);
            cones.extend_from_slice(&tmp[s..e]);
            let ps = *po_off.last().expect("offsets start populated");
            for &v in &tmp[s..e] {
                let col = csr.po_col_of(v as usize);
                if col != NO_PO {
                    po_cols.push(col);
                }
            }
            po_cols[ps..].sort_unstable();
            cone_off.push(cones.len());
            po_off.push(po_cols.len());
        }

        (
            ConeArena {
                cone_off,
                cones,
                po_off,
                po_cols,
            },
            stats,
        )
    }

    /// Logical heap footprint of the arena's backing arrays, in bytes —
    /// what the `P_ij` estimator's `peak_bytes` accounting adds up.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.cones.len() * 4
            + self.po_cols.len() * 4
            + (self.cone_off.len() + self.po_off.len()) * 8
    }

    /// The inclusive, topologically sorted fan-out cone in slot `i` (for
    /// [`ConeArena::build`], the slot of node `i`); its first entry is
    /// the root itself.
    #[inline]
    pub fn cone(&self, i: usize) -> &[u32] {
        &self.cones[self.cone_off[i]..self.cone_off[i + 1]]
    }

    /// PO columns reachable from the root in slot `i`, ascending.
    #[inline]
    pub fn reachable_cols(&self, i: usize) -> &[u32] {
        &self.po_cols[self.po_off[i]..self.po_off[i + 1]]
    }

    /// Total cone entries across all nodes.
    #[inline]
    pub fn total_cone_len(&self) -> usize {
        self.cones.len()
    }
}

/// Work counters from one [`ConeArena::build_for_with_stats`] call.
///
/// The deduplicating builder's regression guard: on fan-out-heavy
/// (diamond) circuits a full build should report `dfs_edges == 0` —
/// every cone is assembled from its successors' finished cones instead
/// of re-traversing the shared fan-out graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConeBuildStats {
    /// Fan-out edges walked by the sparse-DFS fallback.
    pub dfs_edges: usize,
    /// Roots built by the DFS fallback (some successor not yet built).
    pub dfs_roots: usize,
    /// Roots assembled purely from finished successor cones.
    pub merged_roots: usize,
    /// Cone entries read from finished cones during merges and splices.
    pub spliced_entries: usize,
}

/// `roots` deduplicated and sorted by PO region: by the smallest
/// primary-output column each root reaches (roots that reach none
/// last), then by topological rank.
///
/// Cutting this order into consecutive chunks keeps roots that share
/// fan-out in the same chunk, so [`ConeArena::build_for`] over one
/// chunk collapses their shared sub-cones. Each chunk's arena holds
/// only its own cones: peak memory scales with the chunk, not with the
/// whole-circuit closure that [`ConeArena::build`] materializes.
///
/// # Example
///
/// ```
/// use ser_netlist::csr::{po_region_order, ConeArena, CsrView};
/// use ser_netlist::generate;
///
/// let c = generate::sec32("t");
/// let csr = CsrView::build(&c);
/// let full = ConeArena::build(&csr);
/// let all: Vec<u32> = (0..csr.node_count() as u32).collect();
/// for chunk in po_region_order(&csr, &all).chunks(64) {
///     let arena = ConeArena::build_for(&csr, chunk);
///     for (slot, &root) in chunk.iter().enumerate() {
///         assert_eq!(arena.cone(slot), full.cone(root as usize));
///     }
/// }
/// ```
pub fn po_region_order(csr: &CsrView, roots: &[u32]) -> Vec<u32> {
    // PO-region key: the smallest output column a node reaches (NO_PO
    // for dead nodes), by one reverse-topological pass.
    let mut region = vec![NO_PO; csr.node_count()];
    for &i in csr.topo().iter().rev() {
        let mut key = csr.po_col_of(i as usize);
        for &s in csr.fanout_of(i as usize) {
            key = key.min(region[s as usize]);
        }
        region[i as usize] = key;
    }

    // Ranks are a permutation, so equal keys mean the same node and the
    // sort leaves duplicates adjacent.
    let mut ordered = roots.to_vec();
    ordered.sort_unstable_by_key(|&r| (region[r as usize], csr.rank_of(r as usize)));
    ordered.dedup();
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone;
    use crate::generate;

    #[test]
    fn csr_matches_circuit_adjacency() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        assert_eq!(csr.node_count(), c.node_count());
        for id in c.node_ids() {
            let i = id.index();
            assert_eq!(csr.kind(i), c.node(id).kind);
            let fanin: Vec<u32> = c.node(id).fanin.iter().map(|f| f.index() as u32).collect();
            assert_eq!(csr.fanin_of(i), &fanin[..]);
            let fanout: Vec<u32> = c.fanout(id).iter().map(|s| s.index() as u32).collect();
            assert_eq!(csr.fanout_of(i), &fanout[..]);
        }
        let topo: Vec<u32> = c
            .topological_order()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        assert_eq!(csr.topo(), &topo[..]);
        for (r, &i) in topo.iter().enumerate() {
            assert_eq!(csr.rank_of(i as usize), r as u32);
        }
    }

    #[test]
    fn arena_cones_match_per_call_cones() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let arena = ConeArena::build(&csr);
        for id in c.node_ids() {
            let want: Vec<u32> = cone::fanout_cone(&c, id)
                .iter()
                .map(|x| x.index() as u32)
                .collect();
            assert_eq!(arena.cone(id.index()), &want[..], "cone of {id}");
        }
    }

    #[test]
    fn arena_reachable_cols_match_reachable_outputs() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let arena = ConeArena::build(&csr);
        for id in c.node_ids() {
            let mut want: Vec<u32> = cone::reachable_outputs(&c, id)
                .iter()
                .map(|po| {
                    c.primary_outputs()
                        .iter()
                        .position(|p| p == po)
                        .expect("PO present") as u32
                })
                .collect();
            want.sort_unstable();
            assert_eq!(arena.reachable_cols(id.index()), &want[..], "cols of {id}");
        }
    }

    #[test]
    fn po_columns_follow_declaration_order() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        for (j, &po) in c.primary_outputs().iter().enumerate() {
            assert_eq!(csr.po_col_of(po.index()), j as u32);
            assert_eq!(csr.outputs()[j], po.index() as u32);
        }
        let non_po = c.primary_inputs()[0];
        assert_eq!(csr.po_col_of(non_po.index()), NO_PO);
    }

    #[test]
    fn cone_of_po_is_singleton() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        let arena = ConeArena::build(&csr);
        for (j, &po) in c.primary_outputs().iter().enumerate() {
            assert_eq!(arena.cone(po.index()), &[po.index() as u32]);
            assert_eq!(arena.reachable_cols(po.index()), &[j as u32]);
        }
    }

    #[test]
    fn subset_arena_matches_full_arena_slots() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let full = ConeArena::build(&csr);
        let roots: Vec<u32> = (0..c.node_count() as u32).filter(|r| r % 3 == 1).collect();
        let sub = ConeArena::build_for(&csr, &roots);
        for (slot, &root) in roots.iter().enumerate() {
            assert_eq!(sub.cone(slot), full.cone(root as usize), "cone of {root}");
            assert_eq!(
                sub.reachable_cols(slot),
                full.reachable_cols(root as usize),
                "cols of {root}"
            );
        }
        let expect: usize = roots
            .iter()
            .map(|&r| full.cone(r as usize).len())
            .sum::<usize>();
        assert_eq!(sub.total_cone_len(), expect);
    }

    /// Independent naive per-root DFS builder — the pre-dedup reference.
    fn naive_build_for(csr: &CsrView, roots: &[u32]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let n = csr.node_count();
        let mut cones = Vec::new();
        let mut cols = Vec::new();
        for &root in roots {
            let mut seen = vec![false; n];
            let mut stack = vec![root];
            let mut cone = vec![root];
            seen[root as usize] = true;
            while let Some(u) = stack.pop() {
                for &v in csr.fanout_of(u as usize) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        cone.push(v);
                        stack.push(v);
                    }
                }
            }
            cone.sort_unstable_by_key(|&v| csr.rank_of(v as usize));
            let mut c: Vec<u32> = cone
                .iter()
                .map(|&v| csr.po_col_of(v as usize))
                .filter(|&c| c != NO_PO)
                .collect();
            c.sort_unstable();
            cones.push(cone);
            cols.push(c);
        }
        (cones, cols)
    }

    /// A diamond ladder: each stage forks into two parallel gates that
    /// reconverge, so every node's cone overlaps its siblings' almost
    /// entirely — the worst case for the old per-root re-traversal.
    fn diamond_ladder(stages: usize) -> Circuit {
        use crate::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("diamonds");
        let mut cur = b.input("a");
        let aux = b.input("b");
        for s in 0..stages {
            let l = b
                .gate(GateKind::Nand, format!("l{s}"), &[cur, aux])
                .unwrap();
            let r = b.gate(GateKind::Nor, format!("r{s}"), &[cur, aux]).unwrap();
            cur = b.gate(GateKind::And, format!("j{s}"), &[l, r]).unwrap();
        }
        b.mark_output(cur);
        b.finish().unwrap()
    }

    #[test]
    fn deduped_full_build_matches_naive_on_diamond_ladder() {
        let c = diamond_ladder(40);
        let csr = CsrView::build(&c);
        let roots: Vec<u32> = (0..c.node_count() as u32).collect();
        let (arena, stats) = ConeArena::build_for_with_stats(&csr, &roots);
        let (want_cones, want_cols) = naive_build_for(&csr, &roots);
        for (i, (wc, wk)) in want_cones.iter().zip(&want_cols).enumerate() {
            assert_eq!(arena.cone(i), &wc[..], "cone of {i}");
            assert_eq!(arena.reachable_cols(i), &wk[..], "cols of {i}");
        }
        // Regression guard: with every node requested, each cone is
        // assembled from its successors' finished cones — the shared
        // diamond fan-out must never be re-traversed per root.
        assert_eq!(stats.dfs_edges, 0, "no DFS re-traversal: {stats:?}");
        assert_eq!(stats.dfs_roots, 0);
        assert!(stats.merged_roots > 0);
        // Merge work is bounded by reading each successor cone once per
        // predecessor edge — not by re-walking the cone subgraph edge
        // set per root (which on this ladder is ~2 edges per entry).
        let per_edge_bound: usize = roots
            .iter()
            .flat_map(|&r| csr.fanout_of(r as usize))
            .map(|&s| arena.cone(s as usize).len())
            .sum();
        assert!(
            stats.spliced_entries <= per_edge_bound,
            "{} > {per_edge_bound}",
            stats.spliced_entries
        );
    }

    #[test]
    fn deduped_subset_build_matches_naive() {
        // Subsets exercise the DFS + splice fallback (some successors
        // are not requested roots), including duplicate roots.
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let roots: Vec<u32> = (0..c.node_count() as u32)
            .filter(|r| r % 5 == 2)
            .chain([7, 7])
            .collect();
        let arena = ConeArena::build_for(&csr, &roots);
        let (want_cones, want_cols) = naive_build_for(&csr, &roots);
        for (slot, (wc, wk)) in want_cones.iter().zip(&want_cols).enumerate() {
            assert_eq!(arena.cone(slot), &wc[..], "slot {slot}");
            assert_eq!(arena.reachable_cols(slot), &wk[..], "slot {slot}");
        }
    }

    #[test]
    fn chunked_arena_matches_full_across_chunk_sizes() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let full = ConeArena::build(&csr);
        let all: Vec<u32> = (0..c.node_count() as u32).collect();
        let order = po_region_order(&csr, &all);
        for chunk_size in [1, 7, 64, 1 << 20] {
            let mut seen = 0;
            for chunk in order.chunks(chunk_size) {
                let arena = ConeArena::build_for(&csr, chunk);
                for (slot, &root) in chunk.iter().enumerate() {
                    let i = root as usize;
                    assert_eq!(arena.cone(slot), full.cone(i), "cone of {i}");
                    assert_eq!(
                        arena.reachable_cols(slot),
                        full.reachable_cols(i),
                        "cols of {i}"
                    );
                }
                seen += chunk.len();
            }
            assert_eq!(seen, c.node_count(), "chunks cover every node once");
        }
    }

    #[test]
    fn chunked_plan_for_subset_matches_build_for() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let roots: Vec<u32> = (0..c.node_count() as u32).filter(|r| r % 3 == 0).collect();
        let reference = ConeArena::build_for(&csr, &roots);
        let slot_of = |r: u32| roots.iter().position(|&x| x == r).expect("requested root");
        for chunk in po_region_order(&csr, &roots).chunks(11) {
            let arena = ConeArena::build_for(&csr, chunk);
            for (slot, &r) in chunk.iter().enumerate() {
                assert_eq!(arena.cone(slot), reference.cone(slot_of(r)));
                assert_eq!(
                    arena.reachable_cols(slot),
                    reference.reachable_cols(slot_of(r))
                );
            }
        }
    }

    #[test]
    fn po_region_order_is_a_deduplicated_permutation() {
        let c = generate::sec32("t");
        let csr = CsrView::build(&c);
        let roots: Vec<u32> = (0..c.node_count() as u32)
            .filter(|r| r % 4 == 1)
            .chain([5, 5, 9, 1])
            .rev()
            .collect();
        let order = po_region_order(&csr, &roots);
        let mut want = roots.clone();
        want.sort_unstable();
        want.dedup();
        let mut got = order.clone();
        got.sort_unstable();
        assert_eq!(got, want, "each requested root exactly once");
        // Sorted by (smallest reachable PO column, topological rank).
        let full = ConeArena::build(&csr);
        let key = |r: u32| {
            let region = full
                .reachable_cols(r as usize)
                .first()
                .copied()
                .unwrap_or(NO_PO);
            (region, csr.rank_of(r as usize))
        };
        assert!(order.windows(2).all(|w| key(w[0]) < key(w[1])));
    }

    #[test]
    fn arena_totals_are_consistent() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        let arena = ConeArena::build(&csr);
        let sum: usize = c.node_ids().map(|id| arena.cone(id.index()).len()).sum();
        assert_eq!(arena.total_cone_len(), sum);
    }
}
