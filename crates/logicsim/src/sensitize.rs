//! Sensitization probabilities `P_ij`: the probability that at least one
//! path from node `i` to primary output `j` is sensitized.
//!
//! Exact computation is NP-complete for circuits with reconvergent
//! fan-out (the paper's ref. \[9\]); following the paper (and its ref.
//! \[5\]), `P_ij` is estimated by zero-delay simulation with random
//! vectors: for each vector, node `i` is flipped, the fan-out cone is
//! re-evaluated, and `P_ij` accumulates whether PO `j` changed — 64
//! vectors per pass thanks to bit-parallel words.
//!
//! # Entry points
//!
//! Two functions cover every use; both run the one streamed driver to
//! completion over every node:
//!
//! * [`sensitization_probabilities_cfg`] — the full matrix;
//! * [`sensitization_probabilities_with_stats_cfg`] — the same plus the
//!   run's [`EstimateStats`] memory/work profile.
//!
//! The estimator and the snapshot decoder
//! ([`SensitizationMatrix::from_raw_parts`]) are the only sources of a
//! matrix, so every row of one is built at the same vector budget.
//! Neither function reads the environment: callers resolve the `SER_*`
//! knobs once with [`EngineConfig::from_env`](crate::engine::EngineConfig::from_env)
//! and pass the threads, chunk size and [`PijConfig`] down.
//!
//! # Storage
//!
//! A [`SensitizationMatrix`] holds `P_ij` only where it can be nonzero:
//! one value per `(node, reachable PO)` pair, in reachability-CSR order
//! ([`SensitizationMatrix::row`] is aligned with
//! [`SensitizationMatrix::reachable_columns`]). Wide circuits reach few
//! of their POs from any one node — an SRAM periphery with hundreds of
//! outputs fills well under 1% of the `node × PO` array — so no
//! structure in this module is sized by that product. The estimator
//! appends each node's row in ascending node order, and a snapshot
//! persists the same slices.
//!
//! # Hot-path architecture
//!
//! The estimator runs over the flat CSR view ([`CsrView`]) with fan-out
//! cones and reachable-PO column lists materialized in [`ConeArena`]s,
//! so each strike resimulates exactly the nodes that can change and
//! counts differences only at the POs it can reach. The cone-replay
//! interpreter processes four packed words per step through the row
//! primitives in [`crate::kernel`].
//!
//! Cones are **streamed in chunks** rather than held all at once: the
//! roots are sorted by PO region ([`po_region_order`]) and the order is
//! cut into chunks of `chunk_size` roots. For each 64-word block the
//! estimator visits each chunk's *live* roots — those still sampling —
//! and deals them into one strided share per worker thread (live root
//! `j` to share `j % shares`, which spreads the rank-sorted big and
//! small cones evenly). Each worker builds a [`ConeArena`] over its
//! share, compiles and replays the share's cone programs and drops the
//! arena; the calling thread then adds the hits to the per-root
//! counters before touching the next chunk. Every root is live in
//! block 0, so block 0 builds each chunk whole; later blocks rebuild
//! only the cones of the roots the adaptive stop rule has not finished
//! (and of none that reaches no PO), and skip a chunk with no such
//! root. Peak arena memory is therefore bounded by one chunk split
//! across the workers — not the whole-circuit cone closure, which on
//! 100k-gate circuits runs to gigabytes. Each worker's value rows,
//! programs and compile scratch are reused across chunks, so the inner
//! loop performs no per-node allocation.
//!
//! **Determinism contract:** results are bitwise identical for every
//! thread count and chunk size. Word `w` always draws its stimulus from
//! `seed.wrapping_add(w)` regardless of which thread runs it, each
//! `(root, word)` hit lands in an integer counter owned by exactly one
//! worker, and counts are merged by integer summation (associative and
//! commutative) before a single final division.
//!
//! # Estimator modes ([`PijConfig`])
//!
//! One speedup sits on top of the streamed driver, governed by the
//! resolved [`PijConfig`] (knob: `SER_PIJ_TOL`; see [`crate::engine`]):
//! **adaptive sampling** (`tolerance > 0`). Vectors still run in
//! 64-word blocks, but each root tracks its any-PO observability
//! counter and stops early at a block boundary once the Wilson-score
//! half-width of that proportion falls under
//! `max(tolerance × estimate, floor)`, where `floor` is the half-width
//! the full requested budget would reach — so the default tolerance can
//! only stop once a cone is at least as tight as the fixed budget's own
//! resolution. A run stops outright when every root has converged.
//! `tolerance = 0` disables all early stopping and reproduces the
//! historical fixed-budget stream bitwise.
//!
//! Adaptive results remain bitwise identical across thread counts and
//! chunk sizes; they differ from the fixed budget (deliberately) in
//! *sample counts*, which is why the tolerance is part of a result's
//! identity — see
//! [`SensitizationMatrix::vectors_used`] and the serve-pool session
//! keys.

use ser_netlist::csr::{po_region_order, ConeArena, CsrView};
use ser_netlist::{Circuit, GateKind, NodeId};

pub use crate::engine::PijConfig;
use crate::kernel;
use crate::kernel::AlignedWords;
use crate::random::random_word;

/// Sparse `node × PO` matrix of sensitization probabilities, plus the
/// directly measured any-PO observability.
///
/// Storage is the reachability CSR: node `i` reaches the PO columns
/// `reach_cols[reach_off[i]..reach_off[i + 1]]` (ascending), and
/// `p[reach_off[i] + t]` is `P_ij` for its `t`-th reachable column.
/// Every other `P_ij` is structurally zero and not stored, so the matrix
/// costs `O(Σ|reach(i)|)` rather than `O(V·|PO|)` — the same layout the
/// snapshot's `PIJM` section persists.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitizationMatrix {
    outputs: Vec<NodeId>,
    /// Values of every `(node, reachable column)` pair, aligned with
    /// `reach_cols`.
    p: Vec<f64>,
    /// Directly measured union probability per node.
    obs: Vec<f64>,
    /// Reachable-PO columns per node, CSR layout.
    reach_off: Vec<usize>,
    reach_cols: Vec<u32>,
    vectors_used: usize,
}

impl SensitizationMatrix {
    /// The primary outputs, defining the column order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of random vectors behind the estimate.
    pub fn vectors_used(&self) -> usize {
        self.vectors_used
    }

    /// `P_ij` for a node and PO **column index** (see
    /// [`SensitizationMatrix::outputs`]); 0.0 off the node's
    /// [reachable columns](SensitizationMatrix::reachable_columns).
    ///
    /// # Panics
    ///
    /// Panics if the node or column is out of range.
    #[inline]
    pub fn p(&self, node: NodeId, po_col: usize) -> f64 {
        assert!(po_col < self.outputs.len(), "PO column out of range");
        let col = po_col as u32;
        self.reachable_columns(node)
            .binary_search(&col)
            .map_or(0.0, |t| self.row(node)[t])
    }

    /// The stored row of a node: one value per entry of
    /// [`SensitizationMatrix::reachable_columns`], in the same order.
    #[inline]
    pub fn row(&self, node: NodeId) -> &[f64] {
        &self.p[self.reach_off[node.index()]..self.reach_off[node.index() + 1]]
    }

    /// Probability that a flip of `node` is observed at *any* output.
    ///
    /// Measured directly during simulation (the union of per-PO
    /// difference words is counted alongside the marginals), not derived
    /// from the per-PO rows — so it is the true union estimate, which the
    /// row maximum only lower-bounds.
    pub fn observability(&self, node: NodeId) -> f64 {
        self.obs[node.index()]
    }

    /// PO **column indices** reachable from `node`, ascending. `P_ij` is
    /// structurally zero for every column not listed — consumers can skip
    /// them outright.
    #[inline]
    pub fn reachable_columns(&self, node: NodeId) -> &[u32] {
        &self.reach_cols[self.reach_off[node.index()]..self.reach_off[node.index() + 1]]
    }

    /// Total `(node, reachable PO)` pair count across the matrix — the
    /// number of stored probabilities.
    pub fn reachable_pairs(&self) -> usize {
        self.reach_cols.len()
    }

    /// Number of nodes the matrix covers (the row space).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.obs.len()
    }

    /// Bytes of the stored matrix: 12 per reachable pair (value plus
    /// column) and 16 per node (offset plus observability).
    pub fn stored_bytes(&self) -> usize {
        12 * self.reach_cols.len() + 16 * self.obs.len() + 8
    }

    /// The probabilities of every `(node, reachable column)` pair, in
    /// reachability-CSR order — the whole stored payload.
    #[inline]
    pub fn reachable_probabilities(&self) -> &[f64] {
        &self.p
    }

    /// The measured any-PO union observability per node (see
    /// [`SensitizationMatrix::observability`]), as one flat slice.
    #[inline]
    pub fn observabilities(&self) -> &[f64] {
        &self.obs
    }

    /// The per-node reachable-column offsets (`node_count + 1` entries)
    /// behind [`SensitizationMatrix::reachable_columns`].
    #[inline]
    pub fn reach_offsets(&self) -> &[usize] {
        &self.reach_off
    }

    /// The concatenated reachable-column lists behind
    /// [`SensitizationMatrix::reachable_columns`].
    #[inline]
    pub fn reach_columns_flat(&self) -> &[u32] {
        &self.reach_cols
    }

    /// Reassembles a matrix from the raw parts exposed by the accessors
    /// above, re-validating every structural invariant — the funnel a
    /// snapshot decoder must pass so a damaged file can never produce a
    /// silently-wrong matrix.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant: length
    /// mismatches, a non-monotonic reachability CSR, column indices out
    /// of range or not strictly ascending per row, probabilities outside
    /// `[0, 1]` or non-finite, or a zero vector count.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        outputs: Vec<NodeId>,
        n_nodes: usize,
        p: Vec<f64>,
        obs: Vec<f64>,
        reach_off: Vec<usize>,
        reach_cols: Vec<u32>,
        vectors_used: usize,
    ) -> Result<Self, String> {
        let n_pos = outputs.len();
        if vectors_used == 0 {
            return Err("vectors_used must be positive".into());
        }
        if p.len() != reach_cols.len() {
            return Err(format!(
                "probability storage holds {} entries, expected {}",
                p.len(),
                reach_cols.len()
            ));
        }
        if obs.len() != n_nodes {
            return Err(format!(
                "observability storage holds {} entries, expected {n_nodes}",
                obs.len()
            ));
        }
        if reach_off.len() != n_nodes + 1 || reach_off.first() != Some(&0) {
            return Err("reachability offsets malformed".into());
        }
        if reach_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("reachability offsets not monotonic".into());
        }
        if *reach_off.last().unwrap_or(&0) != reach_cols.len() {
            return Err("reachability offsets do not cover the column list".into());
        }
        if p.iter().chain(&obs).any(|&x| !(0.0..=1.0).contains(&x)) {
            return Err("probability outside [0, 1]".into());
        }
        for (i, w) in reach_off.windows(2).enumerate() {
            let cols = &reach_cols[w[0]..w[1]];
            if cols.iter().any(|&c| c as usize >= n_pos) {
                return Err(format!("node {i} reaches a column out of range"));
            }
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("node {i} columns not strictly ascending"));
            }
        }
        Ok(SensitizationMatrix {
            outputs,
            p,
            obs,
            reach_off,
            reach_cols,
            vectors_used,
        })
    }
}

/// Memory/work profile of one streamed estimation run — the probe the
/// scaling benchmark reads. Deliberately *not* part of
/// [`SensitizationMatrix`], whose equality is the bitwise-determinism
/// oracle and must not depend on chunking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimateStats {
    /// Number of cone chunks the run streamed through.
    pub chunks: usize,
    /// High-water mark of arena plus compiled-program bytes across the
    /// run (including the arena builder's transient assembly buffer),
    /// summed over the workers' shares of one chunk visit.
    pub peak_bytes: usize,
    /// Σ|cone| over the estimated roots: each root's cone counted once,
    /// as block 0 builds it. Later blocks' rebuilds of still-sampling
    /// roots are not counted, so this is the size of the cone work, not
    /// the entries replayed.
    pub cone_entries: usize,
    /// Always 0. The exact small-cone enumerator that filled it is
    /// gone; the field stays because the benchmark reports it as its
    /// `logicsim.exact_roots` layer.
    pub exact_roots: usize,
    /// Roots the adaptive sampler stopped before the full vector
    /// budget (0 unless [`PijConfig::tolerance`] is positive).
    pub adaptive_stops: usize,
}

/// Estimates the full matrix with `n_vectors` random vectors (rounded up
/// to a multiple of 64), PI probability 0.5, deterministic in `seed`.
/// Results are bitwise identical for every `threads` and `chunk_size`
/// value (see the module docs); `pij` selects the estimator modes.
///
/// The paper uses 10 000 vectors; 64-way packing makes that ~157 passes
/// over each fan-out cone.
///
/// # Panics
///
/// Panics if `n_vectors`, `threads` or `chunk_size` is 0.
pub fn sensitization_probabilities_cfg(
    circuit: &Circuit,
    n_vectors: usize,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    pij: &PijConfig,
) -> SensitizationMatrix {
    sensitization_probabilities_with_stats_cfg(circuit, n_vectors, seed, threads, chunk_size, pij).0
}

/// [`sensitization_probabilities_cfg`] plus the [`EstimateStats`]
/// memory/work profile of the run.
///
/// # Panics
///
/// Panics if `n_vectors`, `threads` or `chunk_size` is 0.
pub fn sensitization_probabilities_with_stats_cfg(
    circuit: &Circuit,
    n_vectors: usize,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    pij: &PijConfig,
) -> (SensitizationMatrix, EstimateStats) {
    assert!(n_vectors > 0, "need at least one vector");
    assert!(threads > 0, "need at least one worker thread");
    assert!(chunk_size > 0, "chunk size must be positive");

    // Cones are materialized one chunk at a time, so the setup cost is
    // one O(V+E) flattening pass plus the root sort.
    let csr = CsrView::build(circuit);
    let all: Vec<u32> = (0..circuit.node_count() as u32).collect();
    let order = po_region_order(&csr, &all);
    let run = estimate_chunks(
        &csr,
        order,
        chunk_size,
        seed,
        threads,
        n_vectors.div_ceil(64),
        pij,
    );
    // Every node's row, appended to the reachability CSR in ascending
    // node order.
    let n_nodes = circuit.node_count();
    let mut p: Vec<f64> = Vec::with_capacity(run.cols.len());
    let mut reach_cols: Vec<u32> = Vec::with_capacity(run.cols.len());
    let mut obs: Vec<f64> = Vec::with_capacity(n_nodes);
    let mut reach_off: Vec<usize> = Vec::with_capacity(n_nodes + 1);
    reach_off.push(0);
    run.for_each_row(|cols, counts, obs_count, samples| {
        let total = samples as f64;
        reach_cols.extend_from_slice(cols);
        p.extend(counts.iter().map(|&c| c as f64 / total));
        reach_off.push(reach_cols.len());
        obs.push(obs_count as f64 / total);
    });
    let matrix = SensitizationMatrix {
        outputs: circuit.primary_outputs().to_vec(),
        p,
        obs,
        reach_off,
        reach_cols,
        vectors_used: run.words_done * 64,
    };
    (matrix, run.stats)
}

/// Outcome of one estimation run: its profile and the final hit
/// counters, one entry per root in PO-region order. The counters
/// outlive the chunk arenas, cone programs and base rows, so the rows
/// are assembled after those are freed.
struct Run {
    stats: EstimateStats,
    /// Words simulated: the full request, or fewer when every root
    /// converged early.
    words_done: usize,
    roots: Vec<u32>,
    /// Per-root offsets into `cols` and `counts`.
    col_off: Vec<usize>,
    /// Each root's reachable PO columns, ascending.
    cols: Vec<u32>,
    /// Difference hits per reachable column, aligned with `cols`.
    counts: Vec<u64>,
    /// Any-PO union hits per root.
    obs: Vec<u64>,
    /// Input assignments behind each root's counters: the full budget,
    /// or the early-stop prefix of an adaptively converged root.
    samples: Vec<u64>,
}

impl Run {
    /// Calls `f(reachable_cols, counts_per_col, union_count, samples)`
    /// once per estimated root, in ascending node order.
    fn for_each_row(&self, mut f: impl FnMut(&[u32], &[u64], u64, u64)) {
        let mut order: Vec<usize> = (0..self.roots.len()).collect();
        order.sort_unstable_by_key(|&g| self.roots[g]);
        for g in order {
            let range = self.col_off[g]..self.col_off[g + 1];
            f(
                &self.cols[range.clone()],
                &self.counts[range],
                self.obs[g],
                self.samples[g],
            );
        }
    }
}

/// The streamed estimation driver: for each [`BLOCK`]-word block, the
/// fault-free circuit is evaluated **once** into node-major rows; then
/// each `chunk_size`-root chunk of `order` with a *live* root — one
/// still sampling — deals its live roots into `min(threads, live)`
/// strided [`Share`]s, each worker builds, compiles and replays its own
/// share, and the calling thread adds the hits to the per-root totals
/// in live-list order before the next chunk is touched. A share of one
/// runs inline, without spawning.
///
/// Hoisting the base evaluation out of the chunk loop is what makes
/// small chunks affordable: the full-circuit work is `O(V)` per word
/// regardless of the chunk count, so the chunk size trades only peak
/// arena memory against per-block recompilation, not simulation time.
///
/// Every root is live in block 0; after it, a root leaves the live set
/// for good once it reaches no PO or the adaptive stop rule (a positive
/// `pij` tolerance, checked at block boundaries) finishes it. A live
/// subset's arenas and programs are never larger than its whole
/// chunk's, so block 0 sets the peak. Each root's counters are filled
/// by exactly one worker and added to its totals by integer summation,
/// so no total depends on which roots shared a build.
///
/// The returned [`Run`] holds every root's final counters, in `order`.
/// Beyond the tracked arenas (plus the builder's transient assembly
/// copy) and programs, the run holds the block's base rows (`node_count
/// × block` words), the per-root counters, and each root's reachable
/// columns (captured on block 0, so the counters can be finalized after
/// the arenas are gone).
fn estimate_chunks(
    csr: &CsrView,
    order: Vec<u32>,
    chunk_size: usize,
    seed: u64,
    threads: usize,
    n_words: usize,
    pij: &PijConfig,
) -> Run {
    let n_roots = order.len();
    let mut shares: Vec<Share> = (0..threads).map(|_| Share::default()).collect();
    let mut base = AlignedWords::default();
    // Per-root state, indexed by position in `order`.
    // Each root's reachable columns are captured on block 0, and its
    // hit counters are aligned with them.
    let mut cols_flat: Vec<u32> = Vec::new();
    let mut col_off: Vec<usize> = Vec::with_capacity(n_roots + 1);
    col_off.push(0);
    let mut counts: Vec<u64> = Vec::new();
    let mut obs_counts: Vec<u64> = vec![0; n_roots];
    // A done root's counters are final and its sample count fixed (0 =
    // still sampling, finalized at the end).
    let mut done: Vec<bool> = vec![false; n_roots];
    let mut samples: Vec<u64> = vec![0; n_roots];
    // Positions in `order` of the live roots of the chunk being visited.
    let mut live_at: Vec<usize> = Vec::new();
    let mut arena_peak = 0usize;
    let mut stats = EstimateStats {
        chunks: n_roots.div_ceil(chunk_size),
        ..EstimateStats::default()
    };

    let total_vectors = (n_words * 64) as u64;
    // A root may stop early only once it is at least as tight as the
    // full requested budget's own worst-case resolution.
    let floor = CONV_Z * (0.25 / total_vectors as f64).sqrt();
    let adaptive = pij.tolerance > 0.0;
    let n_blocks = n_words.div_ceil(BLOCK);
    let mut words_done = 0usize;
    for b in 0..n_blocks {
        if b > 0 && done.iter().all(|&d| d) {
            // Every root is converged or reaches no PO: the remaining
            // budget cannot change any counter.
            break;
        }
        let w0 = b * BLOCK;
        let wc = BLOCK.min(n_words - w0);
        eval_base_block(csr, seed, w0, wc, &mut base);
        let base_rows = base.words();

        for start in (0..n_roots).step_by(chunk_size) {
            live_at.clear();
            live_at.extend((start..n_roots.min(start + chunk_size)).filter(|&g| !done[g]));
            if live_at.is_empty() {
                continue;
            }
            let active = &mut shares[..threads.min(live_at.len())];
            let n_shares = active.len();
            for share in active.iter_mut() {
                share.roots.clear();
            }
            for (j, &g) in live_at.iter().enumerate() {
                active[j % n_shares].roots.push(order[g]);
            }
            if let [only] = active {
                only.run(csr, base_rows, wc);
            } else {
                std::thread::scope(|scope| {
                    for share in active.iter_mut() {
                        scope.spawn(move || share.run(csr, base_rows, wc));
                    }
                });
            }

            arena_peak = arena_peak.max(active.iter().map(|s| s.arena_bytes).sum());
            let prog_bytes: usize = active.iter().map(|s| s.progs.bytes()).sum();
            stats.peak_bytes = stats.peak_bytes.max(arena_peak + prog_bytes);
            if b == 0 {
                stats.cone_entries += active.iter().map(|s| s.cone_entries).sum::<usize>();
            }
            for (j, &g) in live_at.iter().enumerate() {
                let (share, ri) = (&active[j % n_shares], j / n_shares);
                let slots = share.progs.po_off[ri]..share.progs.po_off[ri + 1];
                if b == 0 {
                    // Block 0 visits the roots in `order`, so `g` is the
                    // next row of the column CSR.
                    let reach = share.progs.po_slots_of(ri);
                    cols_flat.extend(reach.iter().map(|s| csr.po_col_of(s.po as usize)));
                    col_off.push(cols_flat.len());
                    counts.resize(cols_flat.len(), 0);
                    // No reachable PO: every counter is structurally
                    // zero, nothing to replay after this block.
                    done[g] = reach.is_empty();
                }
                let totals = &mut counts[col_off[g]..col_off[g + 1]];
                debug_assert_eq!(slots.len(), totals.len(), "support is fixed");
                for (total, &h) in totals.iter_mut().zip(&share.hits[slots]) {
                    *total += h;
                }
                obs_counts[g] += share.union_hits[ri];
            }
        }
        words_done += wc;

        // Convergence sweep at the block boundary: each root's decision
        // depends only on its own counter and the global word prefix,
        // so it is identical for every thread count and chunk size.
        if adaptive && words_done < n_words {
            let n_samp = (words_done * 64) as u64;
            for g in 0..n_roots {
                if done[g] {
                    continue;
                }
                let p_hat = obs_counts[g] as f64 / n_samp as f64;
                let hw = wilson_half_width(obs_counts[g], n_samp);
                if hw <= (pij.tolerance * p_hat).max(floor) {
                    done[g] = true;
                    samples[g] = n_samp;
                    stats.adaptive_stops += 1;
                }
            }
        }
    }

    // Roots still sampling at the end ran the whole completed budget.
    for s in &mut samples {
        if *s == 0 {
            *s = (words_done * 64) as u64;
        }
    }
    // Free the workers' buffers and the base rows, then move the
    // grown counters into exact-size copies, before the caller lays out
    // its long-lived outputs: left in place, the freed holes fragment a
    // single malloc arena and the next large allocations land above
    // them, raising the process's peak RSS.
    drop(shares);
    drop(base);
    Run {
        stats,
        words_done,
        roots: order,
        col_off: col_off.to_vec(),
        cols: cols_flat.to_vec(),
        counts: counts.to_vec(),
        obs: obs_counts,
        samples,
    }
}

/// One worker's part of a chunk visit: the live roots dealt to it, and
/// the buffers it builds, compiles and replays them with — reused
/// across chunks and blocks, so a multi-chunk run performs no per-chunk
/// reallocation beyond the first.
#[derive(Default)]
struct Share {
    /// Node ids of the share's roots, in the arena's slot order.
    roots: Vec<u32>,
    progs: ConePrograms,
    compile_scratch: CompileScratch,
    /// Cone-local value rows of the replay (cache-line aligned for the
    /// wide kernels).
    vals: AlignedWords,
    /// The last replay's hits, aligned with the programs' PO slots.
    hits: Vec<u64>,
    /// The last replay's any-PO union hits, one per root.
    union_hits: Vec<u64>,
    /// The last build's tracked arena bytes and cone entries.
    arena_bytes: usize,
    cone_entries: usize,
}

impl Share {
    /// Builds the share's cone arena, compiles its programs, drops the
    /// arena, and replays every root against one block's base rows
    /// (stride `wc`) into fresh hit counters.
    fn run(&mut self, csr: &CsrView, base: &[u64], wc: usize) {
        let arena = ConeArena::build_for(csr, &self.roots);
        // The builder's processing-order buffer coexists with the
        // assembled arena: one extra copy at the high-water mark.
        self.arena_bytes = 2 * arena.bytes();
        self.cone_entries = arena.total_cone_len();
        self.progs
            .recompile(csr, &arena, &self.roots, &mut self.compile_scratch);
        drop(arena);
        self.hits.clear();
        self.hits.resize(self.progs.po_slots.len(), 0);
        self.union_hits.clear();
        self.union_hits.resize(self.roots.len(), 0);
        self.vals.ensure(self.progs.max_cone.max(1) * wc);
        replay_roots(
            &self.progs,
            base,
            wc,
            self.vals.words_mut(),
            &mut self.hits,
            &mut self.union_hits,
        );
    }
}

/// `z` of the adaptive convergence test: 95% two-sided confidence —
/// the standard level for a convergence criterion, and the one the
/// stop tolerance is advertised at.
const CONV_Z: f64 = 1.96;

/// Wilson-score half-width of a binomial proportion with `hits`
/// successes in `n` trials at [`CONV_Z`]. Unlike the plain Wald
/// interval this stays honest at `p̂` near 0 or 1 — exactly where
/// observability estimates live — so a zero-hit cone is *not* declared
/// converged after one block.
fn wilson_half_width(hits: u64, n: u64) -> f64 {
    let nf = n as f64;
    let x = hits as f64;
    CONV_Z / (nf + CONV_Z * CONV_Z) * (x * (nf - x) / nf + CONV_Z * CONV_Z / 4.0).sqrt()
}

/// Evaluates the fault-free circuit for global words `w0 .. w0 + wc`
/// directly into node-major rows (`base[node * wc + lane]`) shared
/// read-only by every worker replaying the block. Stimulus words are
/// scattered into the PI rows first, then one topological pass
/// evaluates each gate over its whole `wc`-lane row with the kernel's
/// row primitives (the ones [`replay_roots`] runs) — contiguous runs
/// the compiler vectorizes, with no transpose step.
fn eval_base_block(csr: &CsrView, seed: u64, w0: usize, wc: usize, base: &mut AlignedWords) {
    let n_pi = csr.inputs().len();
    base.ensure(csr.node_count() * wc);
    let words = base.words_mut();
    for wl in 0..wc {
        let pi_words = random_word(n_pi, 0.5, seed.wrapping_add((w0 + wl) as u64));
        for (k, &pi) in csr.inputs().iter().enumerate() {
            words[pi as usize * wc + wl] = pi_words[k];
        }
    }
    // Fan-in rows alias `words`, so each gate is evaluated into a stack
    // row and copied into place.
    let mut out = [0u64; BLOCK];
    for &id in csr.topo() {
        let i = id as usize;
        let kind = csr.kind(i);
        if kind.is_input() {
            continue;
        }
        let dst = &mut out[..wc];
        let row = |f: u32| -> &[u64] { &words[f as usize * wc..][..wc] };
        kernel::gate_row::<LANES>(kind, dst, csr.fanin_of(i), row);
        words[i * wc..][..wc].copy_from_slice(dst);
    }
}

/// Words evaluated together in one block: cone programs stay hot in L1
/// across the whole block and every row operation runs over contiguous
/// `u64` lanes the compiler can vectorize.
const BLOCK: usize = 64;

/// `u64` words per step of the cone-replay interpreter's row kernels.
/// Four keeps the unrolled row loops in registers on every
/// x86-64/aarch64 target without spilling.
const LANES: usize = 4;

/// Tag bit marking a cone-local operand (index into the cone's value
/// rows) as opposed to an untouched node read from the base evaluation.
const LOCAL: u32 = 1 << 31;

/// One gate of a compiled cone program; its destination is implicit (the
/// `e`-th op writes cone-local row `e + 1`, matching the topological cone
/// order).
#[derive(Debug, Clone, Copy)]
struct ProgOp {
    kind: GateKind,
    n_in: u32,
    /// Offset into [`ConePrograms::operands`].
    off: u32,
}

/// A reachable PO of a cone: its cone-local value row and global node
/// index.
#[derive(Debug, Clone, Copy)]
struct PoSlot {
    local: u32,
    po: u32,
}

/// The fan-out cones of a set of *root* nodes compiled into flat
/// strike-resimulation programs over cone-local value rows. Each
/// estimator worker compiles its share of one chunk visit's live roots
/// at a time: every root in block 0, then only those still sampling.
///
/// Side inputs (fan-ins outside the cone) are untagged global node
/// indices resolved against the base evaluation, so no scratch state
/// needs restoring between strikes — the value rows are simply
/// overwritten by the next cone.
///
/// All per-root arrays (`op_off`, `po_off`, …) are indexed by *position
/// in the root list*, not by node index.
///
/// The struct is a reusable buffer: each worker's [`Share`] keeps one
/// instance and [`recompile`](ConePrograms::recompile)s it per chunk
/// visit, so no program storage is reallocated between chunks. A
/// worker replays exactly the programs it compiled.
#[derive(Default)]
struct ConePrograms {
    roots: Vec<u32>,
    op_off: Vec<usize>,
    ops: Vec<ProgOp>,
    operands: Vec<u32>,
    po_off: Vec<usize>,
    po_slots: Vec<PoSlot>,
    max_cone: usize,
}

/// Reusable compile-time scratch for [`ConePrograms::recompile`]: the
/// stamped cone-membership map, carried across chunks with a monotonic
/// epoch so it never needs clearing.
#[derive(Default)]
struct CompileScratch {
    stamp: Vec<u32>,
    pos: Vec<u32>,
    epoch: u32,
}

impl CompileScratch {
    /// Sizes the maps for `n` nodes and reserves `n_roots` fresh stamp
    /// values, returning the first.
    fn begin(&mut self, n: usize, n_roots: usize) -> u32 {
        if self.stamp.len() < n {
            self.stamp.resize(n, u32::MAX);
            self.pos.resize(n, 0);
        }
        let span = u32::try_from(n_roots).expect("chunk root count fits in u32");
        if self.epoch >= u32::MAX - span {
            self.stamp.fill(u32::MAX);
            self.epoch = 0;
        }
        let base = self.epoch;
        self.epoch += span;
        base
    }
}

impl ConePrograms {
    fn recompile(
        &mut self,
        csr: &CsrView,
        arena: &ConeArena,
        roots: &[u32],
        scratch: &mut CompileScratch,
    ) {
        let n = csr.node_count();
        assert!(
            n < LOCAL as usize,
            "node count exceeds the operand tag space"
        );
        self.roots.clear();
        self.roots.extend_from_slice(roots);
        self.op_off.clear();
        self.ops.clear();
        self.operands.clear();
        self.po_off.clear();
        self.po_slots.clear();
        self.op_off.push(0);
        self.po_off.push(0);

        // Stamped cone-membership map: pos[v] is v's value row while
        // stamp[v] == this root's epoch stamp.
        let base = scratch.begin(n, roots.len());
        let stamp = &mut scratch.stamp;
        let pos = &mut scratch.pos;
        self.max_cone = 0;
        for ri in 0..roots.len() {
            let mark = base + ri as u32;
            let cone = arena.cone(ri);
            self.max_cone = self.max_cone.max(cone.len());
            for (p, &v) in cone.iter().enumerate() {
                stamp[v as usize] = mark;
                pos[v as usize] = p as u32;
            }
            for &v in &cone[1..] {
                let fanin = csr.fanin_of(v as usize);
                self.ops.push(ProgOp {
                    kind: csr.kind(v as usize),
                    n_in: fanin.len() as u32,
                    off: self.operands.len() as u32,
                });
                for &f in fanin {
                    self.operands.push(if stamp[f as usize] == mark {
                        LOCAL | pos[f as usize]
                    } else {
                        f
                    });
                }
            }
            for &col in arena.reachable_cols(ri) {
                let po = csr.outputs()[col as usize];
                debug_assert_eq!(stamp[po as usize], mark, "reachable PO is in the cone");
                self.po_slots.push(PoSlot {
                    local: pos[po as usize],
                    po,
                });
            }
            self.op_off.push(self.ops.len());
            self.po_off.push(self.po_slots.len());
        }
    }

    /// Logical heap footprint of the compiled programs, in bytes.
    fn bytes(&self) -> usize {
        self.roots.len() * 4
            + self.ops.len() * std::mem::size_of::<ProgOp>()
            + self.operands.len() * 4
            + self.po_slots.len() * std::mem::size_of::<PoSlot>()
            + (self.op_off.len() + self.po_off.len()) * 8
    }

    #[inline]
    fn ops_of(&self, ri: usize) -> &[ProgOp] {
        &self.ops[self.op_off[ri]..self.op_off[ri + 1]]
    }

    #[inline]
    fn po_slots_of(&self, ri: usize) -> &[PoSlot] {
        &self.po_slots[self.po_off[ri]..self.po_off[ri + 1]]
    }
}

/// Replays the strike of every compiled root against one block's base
/// rows (stride `wc`, see [`eval_base_block`]), accumulating flat
/// reachable-PO hit counts (aligned with the programs' PO slots) and
/// per-root any-PO union counts, [`LANES`] words per interpreter step.
/// A root that reaches no PO is skipped: it has nothing to count.
fn replay_roots(
    progs: &ConePrograms,
    base: &[u64],
    wc: usize,
    vals: &mut [u64],
    counts: &mut [u64],
    obs_counts: &mut [u64],
) {
    let mut union_buf = [0u64; BLOCK];

    for (ri, &root) in progs.roots.iter().enumerate() {
        let slots = progs.po_slots_of(ri);
        if slots.is_empty() {
            continue;
        }
        let i = root as usize;
        // Row 0: the struck node, flipped in every lane.
        kernel::unary_row::<LANES>(&mut vals[..wc], &base[i * wc..][..wc], true);
        for (e, op) in progs.ops_of(ri).iter().enumerate() {
            let (prev, rest) = vals.split_at_mut((e + 1) * wc);
            let dst = &mut rest[..wc];
            let row = |t: u32| -> &[u64] {
                if t & LOCAL != 0 {
                    &prev[((t & !LOCAL) as usize) * wc..][..wc]
                } else {
                    &base[(t as usize) * wc..][..wc]
                }
            };
            let args = &progs.operands[op.off as usize..(op.off + op.n_in) as usize];
            kernel::gate_row::<LANES>(op.kind, dst, args, row);
        }

        union_buf[..wc].fill(0);
        let start = progs.po_off[ri];
        for (t, slot) in slots.iter().enumerate() {
            let vrow = &vals[(slot.local as usize) * wc..][..wc];
            let prow = &base[(slot.po as usize) * wc..][..wc];
            counts[start + t] +=
                kernel::diff_count_union_row::<LANES>(vrow, prow, &mut union_buf[..wc]);
        }
        obs_counts[ri] += union_buf[..wc]
            .iter()
            .map(|&u| u64::from(u.count_ones()))
            .sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DEFAULT_CONE_CHUNK;
    use ser_netlist::{generate, CircuitBuilder, GateKind};

    /// The default estimator at an explicit thread count and chunk size.
    fn estimate_at(
        c: &Circuit,
        n_vectors: usize,
        seed: u64,
        threads: usize,
        chunk_size: usize,
    ) -> SensitizationMatrix {
        sensitization_probabilities_cfg(
            c,
            n_vectors,
            seed,
            threads,
            chunk_size,
            &PijConfig::default(),
        )
    }

    fn default_estimate(c: &Circuit, n_vectors: usize, seed: u64) -> SensitizationMatrix {
        estimate_at(c, n_vectors, seed, 2, DEFAULT_CONE_CHUNK)
    }

    #[test]
    fn po_is_self_sensitized() {
        let c = generate::c17();
        let m = default_estimate(&c, 256, 5);
        for (j, &po) in m.outputs().iter().enumerate() {
            assert_eq!(m.p(po, j), 1.0, "P_jj must be 1");
        }
    }

    #[test]
    fn unreachable_output_has_zero_probability() {
        let c = generate::c17();
        let m = default_estimate(&c, 256, 5);
        // Gate 10 feeds only output 22 (never 23).
        let g10 = c.find("10").unwrap();
        let col23 = m
            .outputs()
            .iter()
            .position(|&po| c.node(po).name == "23")
            .unwrap();
        assert_eq!(m.p(g10, col23), 0.0);
        assert!(!m.reachable_columns(g10).contains(&(col23 as u32)));
    }

    #[test]
    fn inverter_chain_is_always_sensitized() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", &[g1]).unwrap();
        b.mark_output(g2);
        let c = b.finish().unwrap();
        let m = default_estimate(&c, 128, 1);
        for id in c.node_ids() {
            assert_eq!(m.p(id, 0), 1.0, "node {id}");
        }
    }

    #[test]
    fn and_gate_side_probability() {
        // y = AND(a, b): a flip of `a` reaches y iff b = 1 → P = 0.5.
        let mut bb = CircuitBuilder::new("and");
        let a = bb.input("a");
        let b2 = bb.input("b");
        let y = bb.gate(GateKind::And, "y", &[a, b2]).unwrap();
        bb.mark_output(y);
        let c = bb.finish().unwrap();
        let m = default_estimate(&c, 64 * 256, 123);
        assert!((m.p(a, 0) - 0.5).abs() < 0.03, "{}", m.p(a, 0));
    }

    #[test]
    fn xor_tree_is_fully_observable() {
        // XOR trees never mask: every node flip reaches the output.
        let mut b = CircuitBuilder::new("xt");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let x0 = b.gate(GateKind::Xor, "x0", &[i0, i1]).unwrap();
        let x1 = b.gate(GateKind::Xor, "x1", &[i2, i3]).unwrap();
        let y = b.gate(GateKind::Xor, "y", &[x0, x1]).unwrap();
        b.mark_output(y);
        let c = b.finish().unwrap();
        let m = default_estimate(&c, 128, 3);
        for id in c.node_ids() {
            assert_eq!(m.p(id, 0), 1.0, "node {id}");
        }
    }

    #[test]
    fn estimates_are_stable_across_seeds() {
        let c = generate::c17();
        let m1 = default_estimate(&c, 64 * 128, 10);
        let m2 = default_estimate(&c, 64 * 128, 20);
        for id in c.node_ids() {
            for j in 0..m1.outputs().len() {
                assert!(
                    (m1.p(id, j) - m2.p(id, j)).abs() < 0.05,
                    "node {id} col {j}"
                );
            }
        }
    }

    #[test]
    fn observability_bounds_row() {
        let c = generate::c17();
        let m = default_estimate(&c, 256, 5);
        for id in c.node_ids() {
            let o = m.observability(id);
            for j in 0..m.outputs().len() {
                assert!(m.p(id, j) <= o + 1e-12);
            }
        }
    }

    #[test]
    fn measured_union_can_exceed_row_max() {
        // y0 = AND(a, b), y1 = AND(a, c): a flip of `a` reaches y0 iff
        // b=1, y1 iff c=1; union = P(b=1 or c=1) = 0.75 > 0.5 = max.
        let mut bb = CircuitBuilder::new("u");
        let a = bb.input("a");
        let b = bb.input("b");
        let c = bb.input("c");
        let y0 = bb.gate(GateKind::And, "y0", &[a, b]).unwrap();
        let y1 = bb.gate(GateKind::And, "y1", &[a, c]).unwrap();
        bb.mark_output(y0);
        bb.mark_output(y1);
        let circ = bb.finish().unwrap();
        let m = default_estimate(&circ, 64 * 512, 9);
        let row_max = m.row(a).iter().copied().fold(0.0, f64::max);
        assert!((row_max - 0.5).abs() < 0.03, "{row_max}");
        assert!(
            (m.observability(a) - 0.75).abs() < 0.03,
            "{}",
            m.observability(a)
        );
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let c = generate::sec32("t");
        let m1 = estimate_at(&c, 512, 77, 1, DEFAULT_CONE_CHUNK);
        let m2 = estimate_at(&c, 512, 77, 2, DEFAULT_CONE_CHUNK);
        let m5 = estimate_at(&c, 512, 77, 5, DEFAULT_CONE_CHUNK);
        assert_eq!(m1, m2);
        assert_eq!(m1, m5);
    }

    #[test]
    fn chunk_sizes_agree_bitwise() {
        // The streamed estimator is bitwise chunk-size invariant — a
        // chunk per root, odd chunk sizes, and one chunk covering the
        // whole circuit all reproduce the same matrix (including the
        // reachability CSR, whose node order must survive the PO-region
        // chunk ordering).
        let c = generate::sec32("t");
        let whole = estimate_at(&c, 512, 77, 2, c.node_count());
        for chunk_size in [1, 13, 100] {
            for threads in [1, 3] {
                let m = estimate_at(&c, 512, 77, threads, chunk_size);
                assert_eq!(m, whole, "chunk {chunk_size}, {threads} threads");
            }
        }
    }

    #[test]
    fn estimate_stats_profile_the_run() {
        let c = generate::sec32("t");
        let (m, stats) =
            sensitization_probabilities_with_stats_cfg(&c, 512, 77, 1, 32, &PijConfig::default());
        assert_eq!(stats.chunks, c.node_count().div_ceil(32));
        assert!(stats.peak_bytes > 0);
        assert!(stats.cone_entries > c.node_count());
        // Streaming in chunks must hold strictly less than the
        // monolithic closure plus its compiled programs would.
        let csr = CsrView::build(&c);
        let full = ConeArena::build(&csr);
        let roots: Vec<u32> = (0..c.node_count() as u32).collect();
        let mut full_progs = ConePrograms::default();
        full_progs.recompile(&csr, &full, &roots, &mut CompileScratch::default());
        let monolithic = full.bytes() + full_progs.bytes();
        assert!(
            stats.peak_bytes < monolithic,
            "{} vs monolithic {monolithic}",
            stats.peak_bytes
        );
        // And the stats probe returns the same matrix.
        assert_eq!(m, estimate_at(&c, 512, 77, 1, 32));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let c = generate::c17();
        sensitization_probabilities_cfg(&c, 64, 1, 1, 0, &PijConfig::default());
    }

    #[test]
    fn reachable_columns_define_the_support() {
        let c = generate::sec32("t");
        let m = default_estimate(&c, 256, 3);
        for id in c.node_ids() {
            assert_eq!(m.row(id).len(), m.reachable_columns(id).len());
            for j in 0..m.outputs().len() {
                match m.reachable_columns(id).binary_search(&(j as u32)) {
                    Ok(t) => assert_eq!(m.p(id, j), m.row(id)[t], "node {id} col {j}"),
                    Err(_) => assert_eq!(m.p(id, j), 0.0, "node {id} col {j}"),
                }
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_is_bitwise() {
        let c = generate::sec32("t");
        let m = default_estimate(&c, 512, 77);
        let reach_p = m.reachable_probabilities().to_vec();
        assert_eq!(reach_p.len(), m.reachable_pairs());
        let rebuilt = SensitizationMatrix::from_raw_parts(
            m.outputs().to_vec(),
            m.node_count(),
            reach_p,
            m.observabilities().to_vec(),
            m.reach_offsets().to_vec(),
            m.reach_columns_flat().to_vec(),
            m.vectors_used(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        let bits = |m: &SensitizationMatrix| -> Vec<u64> {
            m.reachable_probabilities()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(&rebuilt), bits(&m));
    }

    /// A corruption applied to (reach_p, reach_off, reach_cols, vectors_used).
    type DamageFn = dyn Fn(&mut Vec<f64>, &mut Vec<usize>, &mut Vec<u32>, &mut usize);

    #[test]
    fn raw_parts_reject_structural_damage() {
        let c = generate::c17();
        let m = default_estimate(&c, 128, 5);
        let parts = |f: &DamageFn| {
            let mut p = m.reachable_probabilities().to_vec();
            let mut off = m.reach_offsets().to_vec();
            let mut cols = m.reach_columns_flat().to_vec();
            let mut vecs = m.vectors_used();
            f(&mut p, &mut off, &mut cols, &mut vecs);
            SensitizationMatrix::from_raw_parts(
                m.outputs().to_vec(),
                m.node_count(),
                p,
                m.observabilities().to_vec(),
                off,
                cols,
                vecs,
            )
        };
        assert!(parts(&|p, _, _, _| p.truncate(3)).is_err(), "short p");
        assert!(parts(&|p, _, _, _| p[0] = 1.5).is_err(), "p out of range");
        assert!(parts(&|p, _, _, _| p[0] = f64::NAN).is_err(), "NaN p");
        assert!(parts(&|_, off, _, _| off[1] = usize::MAX).is_err(), "off");
        assert!(parts(&|_, _, cols, _| cols[0] = 999).is_err(), "col range");
        assert!(parts(&|_, _, _, v| *v = 0).is_err(), "zero vectors");
        assert!(
            parts(&|p, _, cols, _| {
                cols.push(0);
                p.push(0.0);
            })
            .is_err(),
            "offsets must cover the column list"
        );
    }
}
