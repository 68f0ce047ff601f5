//! Electrical masking: the expected output glitch width `WS_ijk` of every
//! gate `i` towards each primary output `j` at each of the `K` sample
//! input widths (paper §3.2, steps i–iv), combining Eq. 1 attenuation
//! with the Eq. 2 logical weights.
//!
//! There is exactly **one** implementation of the width arithmetic: the
//! per-row kernel (`RowKernel::recompute_row`, crate-internal), which
//! re-derives one node's `[k][j]` table from the cached Eq. 2 weights
//! (`WeightCache`), its successors' tables and the hoisted
//! interpolation brackets. Batch construction
//! ([`ExpectedWidths::compute`]) is a full-dirty application of that
//! kernel in reverse topological order, and the incremental
//! [`AnalysisSession`](crate::AnalysisSession) applies it to exactly the
//! rows a delta invalidates — so the two paths are bitwise
//! interchangeable by construction (the workspace `fresh_path_equiv`
//! proptest pins the batch result against the pre-refactor pipeline).
//!
//! Fidelity note (the paper's own concession): `π_isj` treats branch
//! propagation independently, so observability that exists *only* through
//! joint flips of reconvergent branches (every single-successor `P_sj` is
//! 0 while `P_ij > 0`) is not representable — the expected width
//! under-approximates there. Lemma 1 therefore holds exactly off those
//! anomaly cones and as the upper bound `WS ≤ ww·P_ij` in general; the
//! workspace property test `lemma1_holds_on_random_circuits` checks both
//! sides.

use ser_logicsim::SensitizationMatrix;
use ser_netlist::{Circuit, NodeId};

use crate::glitch::attenuate;
use crate::logical::{pi_weights_into, successor_sensitizations_into};

/// The computed expected-width tables.
///
/// Storage is *sparse over structurally reachable PO columns*: node `i`
/// stores `grid.len()` samples for exactly the columns in
/// `pij.reachable_columns(i)` (every other `W_ijk` is structurally
/// zero, `P_ij = 0`). Layout is node-major, then sample-width, then
/// reachable-column position: node `i`'s row starts at
/// `reach_off[i]·K` and entry `(k, t)` lives at `base + k·len_i + t`.
/// On deep circuits with few POs this is the difference between
/// `O(V·K·|PO|)` and `O(K·Σ|reach(i)|)` bytes — the dense table alone
/// would dwarf every other analysis artifact at 100k gates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedWidths {
    outputs: Vec<NodeId>,
    grid: Vec<f64>,
    /// CSR offsets into `reach_cols` (length `n_nodes + 1`).
    reach_off: Vec<u32>,
    /// Reachable PO columns per node, ascending (mirrors the
    /// sensitization matrix's structural reachability).
    reach_cols: Vec<u32>,
    ws: Vec<f64>,
}

impl ExpectedWidths {
    /// Drops the table storage. Recovery sheds the derived caches before
    /// a full rebuild so its peak memory stays near one session's.
    pub(crate) fn shed(&mut self) {
        self.outputs = Vec::new();
        self.grid = Vec::new();
        self.reach_off = Vec::new();
        self.reach_cols = Vec::new();
        self.ws = Vec::new();
    }

    /// Builds the tables: a full-dirty application of the shared row
    /// kernel in reverse topological order.
    ///
    /// * `probs` — static 1-probabilities per node;
    /// * `pij` — sensitization matrix (defines the PO column order);
    /// * `delays` — per-node propagation delays (library lookups);
    /// * `grid` — the `K` sample widths, sorted ascending, `grid[0] = 0`,
    ///   top entry "very wide" (see
    ///   [`AsertaConfig::sample_width_grid`](crate::AsertaConfig::sample_width_grid)).
    ///
    /// Complexity `O((V+E)·K·|PO|)`.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is unsorted or does not start at 0.
    pub fn compute(
        circuit: &Circuit,
        probs: &[f64],
        pij: &SensitizationMatrix,
        delays: &[f64],
        grid: Vec<f64>,
    ) -> Self {
        full_width_state(circuit, probs, pij, delays, grid).0
    }

    /// All-zero tables over the sensitization matrix's structural
    /// reachability — the starting point of the full-dirty pass (and of
    /// a cold [`AnalysisSession`]).
    ///
    /// # Panics
    ///
    /// Panics if `grid` is unsorted or does not start at 0.
    ///
    /// [`AnalysisSession`]: crate::AnalysisSession
    pub(crate) fn zeroed(pij: &SensitizationMatrix, grid: Vec<f64>, n_nodes: usize) -> Self {
        assert!(
            grid.windows(2).all(|w| w[1] > w[0]),
            "sample grid must be strictly increasing"
        );
        assert_eq!(grid.first(), Some(&0.0), "sample grid must start at 0");
        let mut reach_off = Vec::with_capacity(n_nodes + 1);
        let mut reach_cols: Vec<u32> = Vec::new();
        reach_off.push(0u32);
        for i in 0..n_nodes {
            reach_cols.extend_from_slice(pij.reachable_columns(NodeId::new(i)));
            reach_off.push(reach_cols.len() as u32);
        }
        let ws = vec![0.0f64; grid.len() * reach_cols.len()];
        ExpectedWidths {
            outputs: pij.outputs().to_vec(),
            grid,
            reach_off,
            reach_cols,
            ws,
        }
    }

    /// The PO column order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The sample-width grid.
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// The sparse row geometry of node `i`: `(base, cols)` where `base`
    /// indexes `ws` at sample 0 and `cols` lists the reachable PO
    /// columns (row stride per sample = `cols.len()`).
    #[inline]
    fn row_of(&self, i: usize) -> (usize, &[u32]) {
        let lo = self.reach_off[i] as usize;
        let hi = self.reach_off[i + 1] as usize;
        (lo * self.grid.len(), &self.reach_cols[lo..hi])
    }

    /// `WS_ijk`: expected width at PO column `j` for sample width index
    /// `k` at gate `i` (structurally zero off the reachability list).
    pub fn at_sample(&self, i: NodeId, j: usize, k: usize) -> f64 {
        let (base, cols) = self.row_of(i.index());
        match cols.binary_search(&(j as u32)) {
            Ok(t) => self.ws[base + k * cols.len() + t],
            Err(_) => 0.0,
        }
    }

    /// Step (iv): the expected width `W_ij` at PO column `j` for an
    /// arbitrary generated width `w_gen` at gate `i`, interpolating the
    /// sample tables.
    pub fn expected_width(&self, i: NodeId, j: usize, w_gen: f64) -> f64 {
        let (base, cols) = self.row_of(i.index());
        match cols.binary_search(&(j as u32)) {
            Ok(t) => interp_col(&self.ws, base, cols.len(), t, &self.grid, w_gen),
            Err(_) => 0.0,
        }
    }

    /// `Σ_j W_ij` for a generated width — the latching-window-masked
    /// total the unreliability formula consumes. Unreachable columns
    /// contribute exactly `+0.0`, so summing the reachable ones in
    /// column order is bitwise identical to the dense sum.
    pub fn total_expected_width(&self, i: NodeId, w_gen: f64) -> f64 {
        let (base, cols) = self.row_of(i.index());
        (0..cols.len())
            .map(|t| interp_col(&self.ws, base, cols.len(), t, &self.grid, w_gen))
            .sum()
    }

    /// The raw sparse `[k][t]` storage — equivalence assertions compare
    /// whole tables at once (both sides are built over the same `P_ij`,
    /// hence the same layout), and the session sizes its footprint by it.
    #[inline]
    pub(crate) fn ws(&self) -> &[f64] {
        &self.ws
    }
}

/// One hoisted interpolation bracket: the sample indices and blend
/// weights of the two grid samples framing an attenuated width. Indices
/// are plain `k` values — each consumer multiplies by its own row
/// stride (the sparse tables give every node a different one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bracket {
    pub(crate) k_lo: usize,
    pub(crate) k_hi: usize,
    pub(crate) w_lo: f64,
    pub(crate) w_hi: f64,
}

/// The bracket of one attenuated width `w` in `grid`: the two framing
/// sample indices and their blend weights, clamped at both ends. This
/// is the single source of truth shared by the batch pass and the
/// incremental engine's per-node bracket refresh, and it reproduces
/// [`interp_col`]'s arithmetic exactly (same clamping, same blend
/// expression).
pub(crate) fn bracket_for(grid: &[f64], w: f64) -> Bracket {
    let top = grid.len() - 1;
    if w <= grid[0] {
        Bracket {
            k_lo: 0,
            k_hi: 0,
            w_lo: 1.0,
            w_hi: 0.0,
        }
    } else if w >= grid[top] {
        Bracket {
            k_lo: top,
            k_hi: top,
            w_lo: 0.0,
            w_hi: 1.0,
        }
    } else {
        let mut lo = 0usize;
        let mut hi = top;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if grid[mid] <= w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let frac = (w - grid[lo]) / (grid[lo + 1] - grid[lo]);
        Bracket {
            k_lo: lo,
            k_hi: lo + 1,
            w_lo: 1.0 - frac,
            w_hi: frac,
        }
    }
}

/// Brackets for every `(node, sample-width)` pair: the attenuation of
/// `grid[k]` through node `s` and its linear-interpolation coefficients,
/// computed once instead of per PO column.
#[derive(Debug, Clone)]
pub(crate) struct InterpBrackets {
    per_node: Vec<Bracket>,
    k_n: usize,
}

impl InterpBrackets {
    /// Drops the bracket storage (see [`ExpectedWidths::shed`]).
    pub(crate) fn shed(&mut self) {
        self.per_node = Vec::new();
        self.k_n = 0;
    }

    pub(crate) fn new(grid: &[f64], delays: &[f64]) -> Self {
        let k_n = grid.len();
        let mut per_node = Vec::with_capacity(delays.len() * k_n);
        for &delay in delays {
            for &g in grid {
                per_node.push(bracket_for(grid, attenuate(g, delay)));
            }
        }
        InterpBrackets { per_node, k_n }
    }

    /// Recomputes the brackets of one node after its delay changed.
    pub(crate) fn refresh_node(&mut self, node: usize, grid: &[f64], delay: f64) {
        for (k, &g) in grid.iter().enumerate() {
            self.per_node[node * self.k_n + k] = bracket_for(grid, attenuate(g, delay));
        }
    }

    #[inline]
    pub(crate) fn at(&self, node: usize, k: usize) -> Bracket {
        self.per_node[node * self.k_n + k]
    }
}

/// The Eq. 2 logical-masking weights `π_isj`, cached per
/// `(node, reachable PO, successor)`. Both inputs (`S_is` from the static
/// probabilities and `P_ij` from the sensitization matrix) depend only on
/// the circuit's logic, so the cache survives every delay/size/cell
/// delta — it is built once per circuit and shared by the batch pass and
/// the incremental session.
#[derive(Debug, Clone)]
pub(crate) struct WeightCache {
    /// Successor node indices per node (deduplicated, CSR layout).
    succ_off: Vec<u32>,
    succ_nodes: Vec<u32>,
    /// Per-node offset into the per-(node, reachable-col) block table.
    slot_off: Vec<usize>,
    /// Per-slot offsets into `pis`; an empty block marks a column the
    /// row kernel skips (`P_ij = 0` or all-zero weights).
    blk_off: Vec<u32>,
    pis: Vec<f64>,
    /// Parallel to `pis`: the position of the block's column in the
    /// *successor's* reachable-column list, or `u32::MAX` when the
    /// successor does not reach it (its `WS` there is exactly 0.0, so
    /// the kernel skips the term). This is what lets the row kernel
    /// index the sparse width rows without a per-term binary search.
    succ_pos: Vec<u32>,
    /// PO column of each node (`u32::MAX` = not a primary output) —
    /// logic-only like everything else here, so the row kernel's step
    /// (ii) is a table lookup instead of an output-list scan.
    po_col: Vec<u32>,
}

impl WeightCache {
    /// Drops the cached weights (see [`ExpectedWidths::shed`]). The
    /// `π_isj` table is the largest derived artifact of a session, so
    /// shedding it is most of recovery's memory headroom.
    pub(crate) fn shed(&mut self) {
        self.succ_off = Vec::new();
        self.succ_nodes = Vec::new();
        self.slot_off = Vec::new();
        self.blk_off = Vec::new();
        self.pis = Vec::new();
        self.succ_pos = Vec::new();
        self.po_col = Vec::new();
    }

    pub(crate) fn build(circuit: &Circuit, probs: &[f64], pij: &SensitizationMatrix) -> Self {
        let n = circuit.node_count();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ_nodes: Vec<u32> = Vec::new();
        let mut slot_off = Vec::with_capacity(n + 1);
        let mut blk_off: Vec<u32> = Vec::new();
        let mut pis: Vec<f64> = Vec::new();
        let mut succ_pos: Vec<u32> = Vec::new();
        let mut po_col = vec![u32::MAX; n];
        for (j, &po) in pij.outputs().iter().enumerate() {
            po_col[po.index()] = j as u32;
        }
        succ_off.push(0u32);
        slot_off.push(0usize);
        blk_off.push(0u32);
        let mut successors: Vec<(NodeId, f64)> = Vec::new();
        let mut w_buf: Vec<f64> = Vec::new();
        let mut pos_buf: Vec<u32> = Vec::new();
        let mut p_sj: Vec<f64> = Vec::new();
        for i in 0..n {
            let id = NodeId::new(i);
            successor_sensitizations_into(circuit, probs, id, &mut successors);
            succ_nodes.extend(successors.iter().map(|&(s, _)| s.index() as u32));
            succ_off.push(succ_nodes.len() as u32);
            for (&col, &p_ij) in pij.reachable_columns(id).iter().zip(pij.row(id)) {
                if p_ij > 0.0 && !successors.is_empty() {
                    // Each successor's position of `col` on its own
                    // reachable list indexes both its stored `P_sj` and
                    // (via `succ_pos`) its sparse width row.
                    pos_buf.clear();
                    p_sj.clear();
                    for &(s, _) in &successors {
                        let pos = pij.reachable_columns(s).binary_search(&col).ok();
                        pos_buf.push(pos.map_or(u32::MAX, |t| t as u32));
                        p_sj.push(pos.map_or(0.0, |t| pij.row(s)[t]));
                    }
                    pi_weights_into(&successors, p_ij, &p_sj, &mut w_buf);
                    if !w_buf.iter().all(|&x| x == 0.0) {
                        pis.extend_from_slice(&w_buf);
                        succ_pos.extend_from_slice(&pos_buf);
                    }
                }
                blk_off.push(pis.len() as u32);
            }
            slot_off.push(blk_off.len() - 1);
        }
        WeightCache {
            succ_off,
            succ_nodes,
            slot_off,
            blk_off,
            pis,
            succ_pos,
            po_col,
        }
    }

    #[inline]
    fn successors(&self, i: usize) -> &[u32] {
        &self.succ_nodes[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// The weight block and successor-position block of node `i`'s
    /// `t`-th reachable column (empty when the row kernel would skip
    /// that column).
    #[inline]
    fn block(&self, i: usize, t: usize) -> (&[f64], &[u32]) {
        let slot = self.slot_off[i] + t;
        let lo = self.blk_off[slot] as usize;
        let hi = self.blk_off[slot + 1] as usize;
        (&self.pis[lo..hi], &self.succ_pos[lo..hi])
    }
}

/// The single width-row kernel: everything needed to re-derive one
/// node's `[k][j]` expected-width table from the cached weights, its
/// successors' tables and the hoisted brackets. The batch pass applies
/// it to every node (reverse topological); the incremental session to
/// exactly the dirty rows.
pub(crate) struct RowKernel<'a> {
    pub(crate) weights: &'a WeightCache,
    pub(crate) brackets: &'a InterpBrackets,
    pub(crate) grid: &'a [f64],
}

impl RowKernel<'_> {
    /// **The** width arithmetic: derives node `i`'s sparse `[k][t]` row
    /// into `row_buf` (resized to the row's exact length) from the
    /// cached weights, the successors' rows in `widths` and the hoisted
    /// brackets.
    fn derive_row(&self, i: usize, widths: &ExpectedWidths, row_buf: &mut Vec<f64>) {
        let k_n = self.grid.len();
        let (_, cols) = widths.row_of(i);
        let len_i = cols.len();
        row_buf.clear();
        row_buf.resize(k_n * len_i, 0.0);

        // Step (ii): a primary output latches its own glitch verbatim.
        // A PO's cone contains itself, so its column is always on its
        // own reachability list.
        let self_col = self.weights.po_col[i];
        if self_col != u32::MAX {
            // Invariant: the column is present — a cone contains its root.
            if let Ok(t) = cols.binary_search(&self_col) {
                for k in 0..k_n {
                    row_buf[k * len_i + t] = self.grid[k];
                }
            } else {
                debug_assert!(false, "a primary output reaches its own column");
            }
        }

        // Step (iii): propagate through successors via the cached π
        // weights (applies to PO nodes that also feed logic — a strict
        // generalization of the paper, reducing to it when POs are
        // sinks). Columns outside the reachability list are structurally
        // zero (`P_ij = 0`) and never visited; a successor that does not
        // reach the column holds an exact 0.0 there, so skipping its
        // term drops only `+0.0` additions (all summands are
        // non-negative — bitwise neutral).
        let successors = self.weights.successors(i);
        if !successors.is_empty() {
            for t in 0..len_i {
                let (blk, pos) = self.weights.block(i, t);
                if blk.is_empty() {
                    continue;
                }
                for k in 0..k_n {
                    let mut sum = 0.0;
                    for ((&s, &pi_w), &ps) in successors.iter().zip(blk).zip(pos) {
                        if pi_w == 0.0 || ps == u32::MAX {
                            continue;
                        }
                        let b = self.brackets.at(s as usize, k);
                        let (s_base, s_cols) = widths.row_of(s as usize);
                        let s_len = s_cols.len();
                        let we = widths.ws[s_base + b.k_lo * s_len + ps as usize] * b.w_lo
                            + widths.ws[s_base + b.k_hi * s_len + ps as usize] * b.w_hi;
                        sum += pi_w * we;
                    }
                    row_buf[k * len_i + t] += sum;
                }
            }
        }
    }

    /// Re-derives node `i`'s sparse row in `widths`, using `row_buf` as
    /// scratch (resized to the row length). Returns whether the row
    /// changed at any bit — the incremental engine's entry point
    /// (change detection gates its dirty propagation).
    pub(crate) fn recompute_row(
        &self,
        i: usize,
        widths: &mut ExpectedWidths,
        row_buf: &mut Vec<f64>,
    ) -> bool {
        self.derive_row(i, widths, row_buf);
        let (base, _) = widths.row_of(i);
        let dst = &mut widths.ws[base..base + row_buf.len()];
        if dst == &row_buf[..] {
            false
        } else {
            dst.copy_from_slice(row_buf);
            true
        }
    }

    /// [`RowKernel::recompute_row`] without the change detection — the
    /// full-dirty (batch / cold-start) passes know every row is being
    /// written, so the bitwise compare would be pure overhead.
    pub(crate) fn fill_row(&self, i: usize, widths: &mut ExpectedWidths, row_buf: &mut Vec<f64>) {
        self.derive_row(i, widths, row_buf);
        let (base, _) = widths.row_of(i);
        widths.ws[base..base + row_buf.len()].copy_from_slice(row_buf);
    }
}

/// **The** full-dirty pass: builds the weight cache and hoisted
/// brackets, then derives every node's row with the shared kernel in
/// reverse topological order. Batch construction
/// ([`ExpectedWidths::compute`]) keeps only the tables; a cold
/// [`AnalysisSession`](crate::AnalysisSession) keeps all three pieces as
/// its live caches — one orchestration, two consumers.
pub(crate) fn full_width_state(
    circuit: &Circuit,
    probs: &[f64],
    pij: &SensitizationMatrix,
    delays: &[f64],
    grid: Vec<f64>,
) -> (ExpectedWidths, WeightCache, InterpBrackets) {
    let mut out = ExpectedWidths::zeroed(pij, grid, circuit.node_count());
    let weights = WeightCache::build(circuit, probs, pij);
    let brackets = InterpBrackets::new(&out.grid, delays);
    let mut row_buf: Vec<f64> = Vec::new();
    {
        // The kernel borrows the grid by value-clone: `fill_row` needs
        // `&mut out` while the K-element grid is immutable context.
        let grid = out.grid.clone();
        let kernel = RowKernel {
            weights: &weights,
            brackets: &brackets,
            grid: &grid,
        };
        for &id in circuit.topological_order().iter().rev() {
            kernel.fill_row(id.index(), &mut out, &mut row_buf);
        }
    }
    (out, weights, brackets)
}

/// Interpolates one sparse column (`stride` entries per sample, column
/// position `t`) along k at width `w` (clamped).
#[inline]
pub(crate) fn interp_col(
    ws: &[f64],
    node_base: usize,
    stride: usize,
    t: usize,
    grid: &[f64],
    w: f64,
) -> f64 {
    let k_n = grid.len();
    if w <= grid[0] {
        return ws[node_base + t];
    }
    if w >= grid[k_n - 1] {
        return ws[node_base + (k_n - 1) * stride + t];
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
    let a = ws[node_base + lo * stride + t];
    let b = ws[node_base + (lo + 1) * stride + t];
    a * (1.0 - frac) + b * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pij;
    use ser_netlist::{generate, CircuitBuilder, GateKind};

    fn grid() -> Vec<f64> {
        vec![
            0.0, 10e-12, 20e-12, 40e-12, 80e-12, 160e-12, 320e-12, 640e-12, 1280e-12, 2560e-12,
        ]
    }

    #[test]
    fn po_row_is_identity() {
        let c = generate::c17();
        let pij = test_pij(&c, 1024, 1);
        let probs = vec![0.5; c.node_count()];
        let delays = vec![15e-12; c.node_count()];
        let ew = ExpectedWidths::compute(&c, &probs, &pij, &delays, grid());
        for (j, &po) in ew.outputs().to_vec().iter().enumerate() {
            for (k, &w) in ew.grid().to_vec().iter().enumerate() {
                assert_eq!(ew.at_sample(po, j, k), w);
            }
        }
    }

    #[test]
    fn lemma1_wide_glitch_reaches_po_with_p_ij() {
        // The machine-checked Lemma 1: for the top (very wide) sample,
        // W_ij = ww · P_ij exactly.
        let c = generate::c17();
        let pij = test_pij(&c, 4096, 7);
        let probs = ser_logicsim::probability::static_probabilities_sampled(&c, 4096, 7);
        let delays = vec![18e-12; c.node_count()];
        let g = grid();
        let ww = *g.last().unwrap();
        let ew = ExpectedWidths::compute(&c, &probs, &pij, &delays, g);
        for i in c.gates() {
            for j in 0..ew.outputs().len() {
                let got = ew.expected_width(i, j, ww);
                let want = ww * pij.p(i, j);
                assert!(
                    (got - want).abs() <= ww * 0.02 + 1e-15,
                    "node {i} col {j}: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn narrow_glitch_dies_before_reaching_po() {
        // Chain of 3 inverters with delay 20 ps: a 15 ps glitch at the
        // head is filtered (15 < d), so nothing arrives.
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", &[g1]).unwrap();
        let g3 = b.gate(GateKind::Not, "g3", &[g2]).unwrap();
        b.mark_output(g3);
        let c = b.finish().unwrap();
        let pij = test_pij(&c, 128, 1);
        let probs = vec![0.5; c.node_count()];
        let delays = vec![20e-12; c.node_count()];
        let ew = ExpectedWidths::compute(&c, &probs, &pij, &delays, grid());
        assert_eq!(ew.expected_width(g1, 0, 15e-12), 0.0);
        // A wide glitch sails through.
        assert!((ew.expected_width(g1, 0, 2560e-12) - 2560e-12).abs() < 1e-15);
        // The PO driver's own glitch is latched verbatim.
        assert!((ew.expected_width(g3, 0, 15e-12) - 15e-12).abs() < 1e-15);
    }

    #[test]
    fn attenuation_compounds_along_the_chain() {
        // Same chain; a 30 ps glitch at g1 passes g2 (2(30−20) = 20 ps),
        // then dies at g3 (20 ≤ d). From g2 it reaches the PO as
        // 2(30−20) = 20 ps.
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", &[g1]).unwrap();
        let g3 = b.gate(GateKind::Not, "g3", &[g2]).unwrap();
        b.mark_output(g3);
        let c = b.finish().unwrap();
        let pij = test_pij(&c, 128, 1);
        let probs = vec![0.5; c.node_count()];
        let delays = vec![20e-12; c.node_count()];
        // Grid dense around the interesting widths for exactness.
        let g = vec![0.0, 10e-12, 20e-12, 30e-12, 40e-12, 2560e-12];
        let ew = ExpectedWidths::compute(&c, &probs, &pij, &delays, g);
        let w_from_g2 = ew.expected_width(g2, 0, 30e-12);
        assert!((w_from_g2 - 20e-12).abs() < 1e-15, "{w_from_g2:e}");
        let w_from_g1 = ew.expected_width(g1, 0, 30e-12);
        assert!(
            w_from_g1.abs() < 1e-15,
            "20 ps remnant dies at g3 (float seam only): {w_from_g1:e}"
        );
    }

    #[test]
    fn logical_masking_scales_expected_width() {
        // y = AND(i, b): with p(b)=0.5 the expected width halves.
        let mut bb = CircuitBuilder::new("and");
        let i = bb.input("i");
        let b2 = bb.input("b");
        let g = bb.gate(GateKind::Buf, "g", &[i]).unwrap();
        let y = bb.gate(GateKind::And, "y", &[g, b2]).unwrap();
        bb.mark_output(y);
        let c = bb.finish().unwrap();
        let pij = test_pij(&c, 64 * 512, 3);
        let probs = ser_logicsim::probability::static_probabilities_analytic(&c, 0.5);
        let delays = vec![5e-12; c.node_count()];
        let ew = ExpectedWidths::compute(&c, &probs, &pij, &delays, grid());
        let wide = 2560e-12;
        let w = ew.expected_width(g, 0, wide);
        assert!((w - 0.5 * wide).abs() < 0.03 * wide, "{w:e}");
    }
}
