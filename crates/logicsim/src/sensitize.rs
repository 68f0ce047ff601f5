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
//! Four functions cover every use, all backed by one private driver:
//!
//! * [`sensitization_probabilities_cfg`] — the full matrix;
//! * [`sensitization_probabilities_with_stats_cfg`] — the same plus the
//!   run's [`EstimateStats`] memory/work profile;
//! * [`sensitization_probabilities_governed_cfg`] — the full matrix
//!   under a [`Deadline`] and the resolved [`EngineConfig`]'s soft
//!   memory budget;
//! * [`resimulate_rows_cfg`] — selected rows only, bitwise equal to the
//!   full estimate's rows.
//!
//! None of them reads the environment: callers resolve the `SER_*`
//! knobs once with [`EngineConfig::from_env`] and pass the threads,
//! chunk size and [`PijConfig`] down.
//!
//! # Hot-path architecture
//!
//! The estimator runs over the flat CSR view ([`CsrView`]) with fan-out
//! cones and reachable-PO column lists materialized in [`ConeArena`]s,
//! so each strike resimulates exactly the nodes that can change and
//! counts differences only at the POs it can reach. Roots are split
//! across the worker threads in contiguous spans balanced by cone
//! program size, and the cone-replay interpreter processes four packed
//! words per step through the row primitives in [`crate::kernel`].
//!
//! Cones are **streamed in chunks** rather than held all at once: a
//! [`ChunkedConeArena`] plans a PO-region partition of the roots
//! (`chunk_size` roots per chunk), and the estimator builds each
//! chunk's arena on first touch, compiles and replays its cone
//! programs, scatters the counts, and releases the chunk before
//! touching the next. Peak arena memory is therefore bounded by one
//! chunk — not the whole-circuit cone closure, which on 100k-gate
//! circuits runs to gigabytes. Per-thread simulation buffers and the
//! program-compile scratch live in a pool that is reused across chunks,
//! so the inner loop performs no per-node allocation.
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
//! Two composable speedups sit on top of the streamed driver, governed
//! by the resolved [`PijConfig`] (knobs: `SER_PIJ_TOL`,
//! `SER_EXACT_SUPPORT`; see [`crate::engine`]):
//!
//! * **Adaptive sampling** (`tolerance > 0`): vectors still run in
//!   64-word blocks, but each root tracks its any-PO observability
//!   counter and stops early at a block boundary once the
//!   Wilson-score half-width of that proportion falls under
//!   `max(tolerance × estimate, floor)`, where `floor` is the
//!   half-width the full requested budget would reach — so the default
//!   tolerance can only stop once a cone is at least as tight as the
//!   fixed budget's own resolution. A run stops outright when every
//!   root has converged. `tolerance = 0` disables all early stopping
//!   and reproduces the historical fixed-budget stream bitwise.
//! * **Exact small cones** (`exact_support > 0`): a root whose strike
//!   cone is observed through at most `exact_support` primary inputs
//!   (the transitive fan-in support of the cone) and whose `2^support`
//!   assignments do not exceed the requested vector budget is
//!   *enumerated* instead of sampled — every assignment weighted
//!   equally (PI probability 0.5), zero variance, and never more work
//!   than the sampling it replaces.
//!
//! Adaptive and exact results remain bitwise identical across thread
//! counts and chunk sizes; they differ from the fixed budget
//! (deliberately) in *sample counts*, which is why the tolerance and
//! support threshold are part of a result's identity — see
//! [`SensitizationMatrix::vectors_used`] and the serve-pool session
//! keys.

use ser_netlist::csr::{ChunkedConeArena, ConeArena, CsrView};
use ser_netlist::govern::{Deadline, DegradationEvent, Interrupted};
use ser_netlist::{Circuit, GateKind, NodeId};

use crate::engine::EngineConfig;
pub use crate::engine::PijConfig;
use crate::kernel;
use crate::kernel::AlignedWords;
use crate::random::random_word;

/// Dense `node × PO` matrix of sensitization probabilities, plus the
/// directly measured any-PO observability and the reachability lists the
/// estimate was computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitizationMatrix {
    outputs: Vec<NodeId>,
    n_nodes: usize,
    /// node-major storage: `p[node * outputs.len() + j]`.
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
    /// [`SensitizationMatrix::outputs`]).
    ///
    /// # Panics
    ///
    /// Panics if the node or column is out of range.
    #[inline]
    pub fn p(&self, node: NodeId, po_col: usize) -> f64 {
        assert!(po_col < self.outputs.len(), "PO column out of range");
        self.p[node.index() * self.outputs.len() + po_col]
    }

    /// The whole row of a node (one entry per PO).
    #[inline]
    pub fn row(&self, node: NodeId) -> &[f64] {
        let n = self.outputs.len();
        &self.p[node.index() * n..(node.index() + 1) * n]
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
    /// size of the reachability CSR, useful for footprint accounting.
    pub fn reachable_pairs(&self) -> usize {
        self.reach_cols.len()
    }

    /// Number of nodes the matrix covers (the row space).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The full node-major probability storage
    /// (`p[node * outputs.len() + col]`), zero off the reachability CSR.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.p
    }

    /// The probabilities of every `(node, reachable column)` pair, in
    /// reachability-CSR order — the sparse payload a snapshot encoder
    /// persists bitwise (every other entry is structurally zero).
    pub fn reachable_probabilities(&self) -> impl Iterator<Item = f64> + '_ {
        let n_pos = self.outputs.len();
        (0..self.n_nodes).flat_map(move |i| {
            self.reachable_columns(NodeId::new(i))
                .iter()
                .map(move |&c| self.p[i * n_pos + c as usize])
        })
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
    /// above (`p` in [`SensitizationMatrix::reachable_probabilities`]
    /// order, scattered into dense rows), re-validating every structural
    /// invariant — the funnel a snapshot decoder must pass so a damaged
    /// file can never produce a silently-wrong matrix.
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
        let mut rows = vec![0.0; n_nodes.checked_mul(n_pos).ok_or("matrix size overflows")?];
        for i in 0..n_nodes {
            let (lo, hi) = (reach_off[i], reach_off[i + 1]);
            let cols = &reach_cols[lo..hi];
            if cols.iter().any(|&c| c as usize >= n_pos) {
                return Err(format!("node {i} reaches a column out of range"));
            }
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("node {i} columns not strictly ascending"));
            }
            for (&c, &pij) in cols.iter().zip(&p[lo..hi]) {
                rows[i * n_pos + c as usize] = pij;
            }
        }
        Ok(SensitizationMatrix {
            outputs,
            n_nodes,
            p: rows,
            obs,
            reach_off,
            reach_cols,
            vectors_used,
        })
    }

    /// Patches the rows covered by a selective re-simulation
    /// ([`resimulate_rows_cfg`]) into the matrix, replacing the per-PO
    /// probabilities and the measured union observability of exactly the
    /// re-simulated nodes. Reachability is structural and stays as built.
    ///
    /// # Panics
    ///
    /// Panics if the update was computed for a different circuit shape
    /// (PO count or node range mismatch).
    pub fn apply_update(&mut self, update: &PijRowUpdate) {
        assert_eq!(
            update.n_pos,
            self.outputs.len(),
            "update and matrix must share the PO column space"
        );
        let n_pos = self.outputs.len();
        for (t, &node) in update.nodes.iter().enumerate() {
            let i = node as usize;
            assert!(i < self.n_nodes, "update node out of range");
            self.p[i * n_pos..(i + 1) * n_pos]
                .copy_from_slice(&update.p[t * n_pos..(t + 1) * n_pos]);
            self.obs[i] = update.obs[t];
        }
    }
}

/// Dense replacement rows for a subset of nodes, produced by
/// [`resimulate_rows_cfg`] and consumed by
/// [`SensitizationMatrix::apply_update`].
#[derive(Debug, Clone, PartialEq)]
pub struct PijRowUpdate {
    nodes: Vec<u32>,
    n_pos: usize,
    /// `p[t * n_pos + j]` for the `t`-th node in `nodes`.
    p: Vec<f64>,
    obs: Vec<f64>,
    vectors_used: usize,
}

impl PijRowUpdate {
    /// The re-simulated node indices, in request order.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The replacement row of the `t`-th node.
    pub fn row(&self, t: usize) -> &[f64] {
        &self.p[t * self.n_pos..(t + 1) * self.n_pos]
    }

    /// The replacement any-PO union observability of the `t`-th node.
    pub fn observability(&self, t: usize) -> f64 {
        self.obs[t]
    }

    /// Number of random vectors behind the update.
    pub fn vectors_used(&self) -> usize {
        self.vectors_used
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
    /// run (including the arena builder's transient assembly buffer).
    pub peak_bytes: usize,
    /// Total cone entries replayed (the Σ|cone| work term).
    pub cone_entries: usize,
    /// Roots resolved by the exact small-cone enumerator instead of
    /// sampling (0 unless [`PijConfig::exact_support`] is enabled).
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
    let est = estimate(
        circuit, None, n_vectors, seed, threads, chunk_size, pij, None,
    );
    (est.matrix, est.stats)
}

/// Outcome of a *governed* estimation run: the matrix built from every
/// word block that completed before the budget ran out, plus the
/// degradation record.
///
/// When `interrupted` is `None` the run finished in full and `matrix`
/// is bitwise identical to the ungoverned estimate at the same
/// parameters. When it is `Some`, the run stopped at a word-block
/// boundary and `matrix` is a consistent, smaller-sample result —
/// never a torn one. In the fixed-budget estimator mode
/// ([`PijConfig::fixed`], or `tolerance = 0` with the exact enumerator
/// off) that truncated matrix is additionally bitwise identical to a
/// *fresh* ungoverned estimate over exactly `vectors_completed`
/// vectors at the same seed; with adaptive stopping or exact
/// enumeration enabled the per-root sample counts depend on the
/// requested budget, so the truncation is consistent but not
/// budget-renamable.
#[derive(Debug, Clone)]
pub struct GovernedEstimate {
    /// The estimated matrix (over `vectors_completed` vectors).
    pub matrix: SensitizationMatrix,
    /// Random vectors actually simulated (a multiple of 64; equals the
    /// rounded-up request unless the run was interrupted).
    pub vectors_completed: usize,
    /// Memory/work profile of the run.
    pub stats: EstimateStats,
    /// Memory-governor degradations applied to stay under the soft
    /// budget, in the order they occurred. Empty when nothing degraded.
    pub events: Vec<DegradationEvent>,
    /// `Some` when a deadline/cancellation stopped the run early (at a
    /// word-block boundary); the matrix still holds every completed
    /// block.
    pub interrupted: Option<Interrupted>,
}

/// [`sensitization_probabilities_cfg`] under a wall-clock/cancellation
/// budget, with threads, chunk size, estimator modes and the soft
/// memory budget all taken from the resolved `engine` config.
///
/// The soft memory budget ([`EngineConfig::mem_soft_limit`]) is never
/// a failure: before the run, the cone chunk size is halved (and the
/// chunks replanned) until one chunk's build fits, and during the run
/// resident chunks are shed LRU-first; both degradations are recorded
/// as [`DegradationEvent`]s. The deadline (or its cancel token) is
/// checked at every 64-word block boundary — the points where the hit
/// counters hold a consistent prefix of the vector stream.
///
/// # Errors
///
/// Returns the [`Interrupted`] budget verdict only when **zero** word
/// blocks completed — there is no partial result to hand back. Any
/// later interruption returns `Ok` with
/// [`GovernedEstimate::interrupted`] set.
///
/// # Panics
///
/// Panics if `n_vectors` is 0.
pub fn sensitization_probabilities_governed_cfg(
    circuit: &Circuit,
    n_vectors: usize,
    seed: u64,
    engine: &EngineConfig,
    deadline: &Deadline,
) -> Result<GovernedEstimate, Interrupted> {
    let governor = Governor {
        deadline,
        mem_soft_limit: engine.mem_soft_limit(),
    };
    let est = estimate(
        circuit,
        None,
        n_vectors,
        seed,
        engine.threads(),
        engine.cone_chunk(),
        &engine.pij(),
        Some(&governor),
    );
    if est.vectors_completed == 0 {
        return Err(est
            .interrupted
            .expect("a run that did no work must have been interrupted"));
    }
    Ok(est)
}

/// Selectively re-simulates the strike cones of `nodes` only, with the
/// same word-blocked kernels, vector stream and counting rules as
/// [`sensitization_probabilities_cfg`] — the rows it returns are
/// **bitwise identical** to the corresponding rows of the full estimate
/// at the same `(n_vectors, seed, pij)`, at a cost proportional to the
/// listed cones instead of the whole circuit. Sessions that cache a
/// matrix must therefore refill it with the [`PijConfig`] it was built
/// with.
///
/// This is the cache-refill primitive of the incremental engine: when a
/// consumer invalidates (or wants to re-estimate at higher accuracy) the
/// `P_ij` rows of a few nodes, only those cones are replayed.
///
/// # Panics
///
/// Panics if `n_vectors`, `threads` or `chunk_size` is 0.
pub fn resimulate_rows_cfg(
    circuit: &Circuit,
    nodes: &[NodeId],
    n_vectors: usize,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    pij: &PijConfig,
) -> PijRowUpdate {
    let roots: Vec<u32> = nodes.iter().map(|id| id.index() as u32).collect();
    let est = estimate(
        circuit,
        Some(&roots),
        n_vectors,
        seed,
        threads,
        chunk_size,
        pij,
        None,
    );
    PijRowUpdate {
        nodes: roots,
        n_pos: circuit.primary_outputs().len(),
        p: est.matrix.p,
        obs: est.matrix.obs,
        vectors_used: n_vectors.div_ceil(64) * 64,
    }
}

/// Execution governor of an estimation run: the deadline checked at
/// every word-block boundary and the optional soft memory budget.
struct Governor<'a> {
    deadline: &'a Deadline,
    mem_soft_limit: Option<usize>,
}

/// The one estimation driver behind every public entry point: builds
/// the CSR view and the chunk plan (under the governor's memory budget,
/// if any), streams the word blocks through [`estimate_chunks`],
/// scatters the per-root counts into dense rows and assembles the
/// reachability CSR.
///
/// `roots` selects the rows: `None` estimates every node (row `i` is
/// node `i`); `Some(list)` re-simulates only the listed cones, and row
/// `t` answers request slot `t` (duplicates repeat the row of their
/// first slot). Without a governor no deadline is ever checked.
#[allow(clippy::too_many_arguments)]
fn estimate(
    circuit: &Circuit,
    roots: Option<&[u32]>,
    n_vectors: usize,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    pij: &PijConfig,
    govern: Option<&Governor<'_>>,
) -> GovernedEstimate {
    assert!(n_vectors > 0, "need at least one vector");
    assert!(threads > 0, "need at least one worker thread");
    let n_pos = circuit.primary_outputs().len();
    let n_nodes = circuit.node_count();

    // Only the planned cones are materialized (and only one chunk of
    // them at a time), so the setup cost is one O(V+E) flattening pass
    // plus work proportional to the planned cones.
    let csr = CsrView::build(circuit);
    let mut events = Vec::new();
    let limit = govern.and_then(|g| g.mem_soft_limit);
    let mut plan = plan_under_budget(&csr, roots, chunk_size, limit, &mut events);

    // The chunk plan visits roots deduplicated, in PO-region order; each
    // root's counts land in its row (its first request slot when
    // selective). The (row, col) pairs rebuild the row-ordered
    // reachability CSR after the chunk arenas are gone.
    let mut row_of: Vec<u32> = (0..n_nodes as u32).collect();
    if let Some(roots) = roots {
        for (t, &r) in roots.iter().enumerate().rev() {
            row_of[r as usize] = t as u32;
        }
    }
    let n_rows = roots.map_or(n_nodes, <[u32]>::len);
    let mut p = vec![0.0f64; n_rows * n_pos];
    let mut obs = vec![0.0f64; n_rows];
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let (stats, words_done, interrupted) = estimate_chunks(
        &csr,
        &mut plan,
        seed,
        threads,
        n_vectors.div_ceil(64),
        pij,
        govern,
        |root, cols, counts, obs_count, samples| {
            let total = samples as f64;
            let row = row_of[root as usize];
            let r = row as usize;
            for (t, &col) in cols.iter().enumerate() {
                p[r * n_pos + col as usize] = counts[t] as f64 / total;
                pairs.push((row, col));
            }
            obs[r] = obs_count as f64 / total;
        },
    );
    if plan.evictions() > 0 {
        events.push(DegradationEvent::ConesShed {
            evictions: plan.evictions(),
        });
    }
    if let Some(roots) = roots {
        for (t, &r) in roots.iter().enumerate() {
            let first = row_of[r as usize] as usize;
            if first != t {
                p.copy_within(first * n_pos..(first + 1) * n_pos, t * n_pos);
                obs[t] = obs[first];
            }
        }
    }

    pairs.sort_unstable();
    let mut reach_off = vec![0usize; n_rows + 1];
    for &(r, _) in &pairs {
        reach_off[r as usize + 1] += 1;
    }
    for r in 0..n_rows {
        reach_off[r + 1] += reach_off[r];
    }
    let reach_cols: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();

    GovernedEstimate {
        matrix: SensitizationMatrix {
            outputs: circuit.primary_outputs().to_vec(),
            n_nodes: n_rows,
            p,
            obs,
            reach_off,
            reach_cols,
            vectors_used: words_done * 64,
        },
        vectors_completed: words_done * 64,
        stats,
        events,
        interrupted,
    }
}

/// Plans the chunked cone arena over `roots` (every node when `None`)
/// under an optional soft byte budget: halve the chunk size (and
/// replan) while building the first chunk overshoots the limit, then
/// install the limit as the plan's LRU residency budget. The probe
/// inspects the first chunk only — the limit stays *soft* for
/// pathological cones — and every shrink is recorded as a
/// [`DegradationEvent::ChunkShrunk`].
fn plan_under_budget(
    csr: &CsrView,
    roots: Option<&[u32]>,
    chunk_size: usize,
    limit: Option<usize>,
    events: &mut Vec<DegradationEvent>,
) -> ChunkedConeArena {
    let plan_at = |size| match roots {
        None => ChunkedConeArena::plan(csr, size),
        Some(roots) => ChunkedConeArena::plan_for(csr, roots, size),
    };
    let Some(limit) = limit else {
        return plan_at(chunk_size);
    };
    let mut size = chunk_size;
    loop {
        let mut plan = plan_at(size);
        if plan.chunk_count() > 0 {
            plan.ensure(csr, 0);
            let probe = plan.peak_bytes();
            plan.release(0);
            if probe > limit && size > 1 {
                size = (size / 2).max(1);
                continue;
            }
        }
        if size != chunk_size {
            events.push(DegradationEvent::ChunkShrunk {
                from: chunk_size,
                to: size,
                limit_bytes: limit,
            });
        }
        return plan.with_budget(limit);
    }
}

/// The streamed estimation driver: for each [`BLOCK`]-word block, the
/// fault-free circuit is evaluated **once** and transposed to node-major
/// rows; every planned chunk then streams through — arena built on first
/// touch, cone programs recompiled into the pooled buffers, strikes
/// replayed with the chunk's roots split across the worker pool — and is
/// released before the next chunk is touched.
///
/// Hoisting the base evaluation out of the chunk loop is what makes
/// small chunks affordable: the full-circuit work is `O(V)` per word
/// regardless of the chunk count, so the chunk size trades only peak
/// arena memory against per-block recompilation, not simulation time.
///
/// `sink(root_node, reachable_cols, counts_per_col, union_count,
/// samples)` is invoked exactly once per planned root, after the last
/// completed block; `samples` is the number of input assignments behind
/// that root's counters — `n_words * 64` in the fixed mode, the
/// early-stop prefix for an adaptively converged root, `2^support` for
/// an exactly enumerated one. Peak tracked memory is one chunk's arena
/// plus programs; on top of that live the block's base rows
/// (`node_count × block` words), one set of integer hit counters per
/// planned root, and a copy of each root's reachable-column list
/// (captured on the first block so the counters can be finalized even
/// after the chunk arenas are gone).
///
/// When `govern` is `Some`, the deadline/cancel token is checked at
/// every word-block boundary — the only points where every counter
/// holds a consistent prefix of the vector stream — and an expiry stops
/// the loop there, finalizing whatever blocks completed.
///
/// When the governor carries a soft memory budget (installed on `plan`
/// as its LRU byte budget), chunk arenas stay resident across blocks
/// and the budget decides what to shed, trading the per-block rebuild
/// for governed memory; otherwise each chunk is released as soon as its
/// block slice is replayed.
///
/// Estimator modes (`pij`): a positive tolerance arms the per-root
/// Wilson convergence check at block boundaries; a positive
/// exact-support threshold routes qualifying roots through
/// [`exact_roots_pass`] on block 0. Roots that are done (exact, converged, or with no
/// reachable PO) are skipped by the replay workers, and chunks whose
/// roots are all done are skipped entirely — including their arena
/// rebuild.
#[allow(clippy::too_many_arguments)]
fn estimate_chunks(
    csr: &CsrView,
    plan: &mut ChunkedConeArena,
    seed: u64,
    threads: usize,
    n_words: usize,
    pij: &PijConfig,
    govern: Option<&Governor<'_>>,
    mut sink: impl FnMut(u32, &[u32], &[u64], u64, u64),
) -> (EstimateStats, usize, Option<Interrupted>) {
    let n_chunks = plan.chunk_count();
    let mut pool: Vec<SimScratch> = (0..threads.max(1)).map(|_| SimScratch::default()).collect();
    let mut compile_scratch = CompileScratch::default();
    let mut progs = ConePrograms::default();
    let mut base = AlignedWords::default();
    // Hit counters for every planned root, chunk-major in plan order;
    // they persist across blocks (the arena chunks need not).
    let mut counts: Vec<u64> = Vec::new();
    let mut obs_counts: Vec<u64> = Vec::new();
    let mut count_off: Vec<usize> = vec![0];
    let mut root_off: Vec<usize> = vec![0];
    // Per-root reachable columns, flat in the same chunk-major order as
    // `counts`; captured once on block 0.
    let mut cols_flat: Vec<u32> = Vec::new();
    let mut root_po_off: Vec<usize> = vec![0];
    // Per-root completion state: a done root's counters are final and
    // its sample count fixed (0 = still sampling, finalized at the end).
    let mut done: Vec<bool> = Vec::new();
    let mut samples: Vec<u64> = Vec::new();
    let mut active: Vec<usize> = Vec::with_capacity(n_chunks);
    let mut stats = EstimateStats {
        chunks: n_chunks,
        ..EstimateStats::default()
    };

    let keep_resident = govern.is_some_and(|g| g.mem_soft_limit.is_some());
    let total_vectors = (n_words * 64) as u64;
    // A root may stop early only once it is at least as tight as the
    // full requested budget's own worst-case resolution.
    let floor = CONV_Z * (0.25 / total_vectors as f64).sqrt();
    let adaptive = pij.tolerance > 0.0;
    let n_blocks = n_words.div_ceil(BLOCK);
    let mut words_done = 0usize;
    let mut interrupted = None;
    for b in 0..n_blocks {
        if b > 0 && active.iter().all(|&a| a == 0) {
            // Every root is exact or converged: the remaining budget
            // cannot change any counter.
            break;
        }
        if let Some(g) = govern {
            if let Err(stop) = g.deadline.check("sensitize::block") {
                interrupted = Some(stop);
                break;
            }
        }
        let w0 = b * BLOCK;
        let wc = BLOCK.min(n_words - w0);
        eval_base_block(csr, seed, w0, wc, &mut base);

        for k in 0..n_chunks {
            if b > 0 && active[k] == 0 {
                continue;
            }
            plan.ensure(csr, k);
            let arena = plan.chunk_arena(k).expect("chunk built above");
            let chunk_roots = plan.chunk_roots(k);
            progs.recompile(csr, arena, chunk_roots, &mut compile_scratch);
            if b == 0 {
                stats.cone_entries += arena.total_cone_len();
                count_off.push(count_off[k] + progs.total_reachable());
                root_off.push(root_off[k] + progs.root_count());
                counts.resize(count_off[k + 1], 0);
                obs_counts.resize(root_off[k + 1], 0);
                done.resize(root_off[k + 1], false);
                samples.resize(root_off[k + 1], 0);
                for slot in 0..chunk_roots.len() {
                    cols_flat.extend_from_slice(arena.reachable_cols(slot));
                    root_po_off.push(cols_flat.len());
                    // No reachable PO: every counter is structurally
                    // zero, nothing to replay.
                    if arena.reachable_cols(slot).is_empty() {
                        done[root_off[k] + slot] = true;
                    }
                }
                if pij.exact_support > 0 {
                    stats.exact_roots += exact_roots_pass(
                        csr,
                        &progs,
                        arena,
                        pij.exact_support,
                        total_vectors,
                        &mut pool,
                        &mut counts[count_off[k]..count_off[k + 1]],
                        &mut obs_counts[root_off[k]..root_off[k + 1]],
                        &mut done[root_off[k]..root_off[k + 1]],
                        &mut samples[root_off[k]..root_off[k + 1]],
                    );
                }
                active.push(
                    done[root_off[k]..root_off[k + 1]]
                        .iter()
                        .filter(|&&d| !d)
                        .count(),
                );
            }
            stats.peak_bytes = stats.peak_bytes.max(plan.peak_bytes() + progs.bytes());

            replay_block(
                &progs,
                base.words(),
                wc,
                &done[root_off[k]..root_off[k + 1]],
                &mut pool,
                &mut counts[count_off[k]..count_off[k + 1]],
                &mut obs_counts[root_off[k]..root_off[k + 1]],
            );

            if !keep_resident {
                plan.release(k);
            }
        }
        words_done += wc;

        // Convergence sweep at the block boundary: each root's decision
        // depends only on its own counter and the global word prefix,
        // so it is identical for every thread count and chunk size —
        // and for any co-scheduled root set (selective re-simulation
        // reproduces full-run rows bitwise).
        if adaptive && words_done < n_words {
            let n_samp = (words_done * 64) as u64;
            for k in 0..n_chunks {
                if active[k] == 0 {
                    continue;
                }
                for g in root_off[k]..root_off[k + 1] {
                    if done[g] {
                        continue;
                    }
                    let p_hat = obs_counts[g] as f64 / n_samp as f64;
                    let hw = wilson_half_width(obs_counts[g], n_samp);
                    if hw <= (pij.tolerance * p_hat).max(floor) {
                        done[g] = true;
                        samples[g] = n_samp;
                        active[k] -= 1;
                        stats.adaptive_stops += 1;
                    }
                }
            }
        }
    }

    if words_done > 0 {
        for (g, &root) in plan.planned_roots().iter().enumerate() {
            let range = root_po_off[g]..root_po_off[g + 1];
            let samp = if samples[g] > 0 {
                samples[g]
            } else {
                (words_done * 64) as u64
            };
            sink(
                root,
                &cols_flat[range.clone()],
                &counts[range],
                obs_counts[g],
                samp,
            );
        }
    }
    (stats, words_done, interrupted)
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
/// evaluates each gate over its whole `wc`-lane row — contiguous runs
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
    for &id in csr.topo() {
        let i = id as usize;
        let kind = csr.kind(i);
        if kind.is_input() {
            continue;
        }
        let fanin = csr.fanin_of(i);
        let d0 = i * wc;
        match *fanin {
            [a] => {
                let s0 = a as usize * wc;
                if kind.is_inverting() {
                    for l in 0..wc {
                        words[d0 + l] = !words[s0 + l];
                    }
                } else {
                    for l in 0..wc {
                        words[d0 + l] = words[s0 + l];
                    }
                }
            }
            [a, b] => {
                let s0 = a as usize * wc;
                let s1 = b as usize * wc;
                macro_rules! lanes {
                    ($f:expr) => {
                        for l in 0..wc {
                            words[d0 + l] = $f(words[s0 + l], words[s1 + l]);
                        }
                    };
                }
                match kind {
                    GateKind::And => lanes!(|x, y| x & y),
                    GateKind::Nand => lanes!(|x: u64, y: u64| !(x & y)),
                    GateKind::Or => lanes!(|x, y| x | y),
                    GateKind::Nor => lanes!(|x: u64, y: u64| !(x | y)),
                    GateKind::Xor => lanes!(|x, y| x ^ y),
                    GateKind::Xnor => lanes!(|x: u64, y: u64| !(x ^ y)),
                    GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
                }
            }
            _ => {
                let s0 = fanin[0] as usize * wc;
                for l in 0..wc {
                    words[d0 + l] = words[s0 + l];
                }
                for &f in &fanin[1..] {
                    let sf = f as usize * wc;
                    macro_rules! lanes {
                        ($f:expr) => {
                            for l in 0..wc {
                                words[d0 + l] = $f(words[d0 + l], words[sf + l]);
                            }
                        };
                    }
                    match kind {
                        GateKind::And | GateKind::Nand => lanes!(|x, y| x & y),
                        GateKind::Or | GateKind::Nor => lanes!(|x, y| x | y),
                        GateKind::Xor | GateKind::Xnor => lanes!(|x, y| x ^ y),
                        GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
                    }
                }
                if kind.is_inverting() {
                    for l in 0..wc {
                        words[d0 + l] = !words[d0 + l];
                    }
                }
            }
        }
    }
}

/// Replays one block's strikes for every root of the compiled chunk,
/// splitting the roots into contiguous spans balanced by program size,
/// one worker per span. Each `(root, word)` hit increments exactly one
/// integer counter owned by exactly one worker, so the totals are
/// bitwise identical for every thread count. Done roots weigh (almost)
/// nothing in the balance and are skipped by the workers.
fn replay_block(
    progs: &ConePrograms,
    base: &[u64],
    wc: usize,
    done: &[bool],
    pool: &mut [SimScratch],
    counts: &mut [u64],
    obs_counts: &mut [u64],
) {
    let n_roots = progs.root_count();
    if n_roots == 0 || done.iter().all(|&d| d) {
        return;
    }
    let workers = pool.len().min(n_roots).max(1);
    if workers == 1 {
        pool[0].prepare(progs.max_cone, wc);
        replay_roots(
            progs,
            base,
            wc,
            0..n_roots,
            done,
            pool[0].vals.words_mut(),
            counts,
            obs_counts,
        );
        return;
    }

    // Greedy spans weighted by op count (+1 per root so trivial cones
    // still advance; done roots weigh 1); the target guarantees at most
    // `workers` spans.
    let total_w: usize = (0..n_roots)
        .map(|ri| {
            if done[ri] {
                1
            } else {
                progs.op_off[ri + 1] - progs.op_off[ri] + 1
            }
        })
        .sum();
    let target = total_w / workers + 1;
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (ri, &root_done) in done.iter().enumerate().take(n_roots) {
        acc += if root_done {
            1
        } else {
            progs.op_off[ri + 1] - progs.op_off[ri] + 1
        };
        if acc >= target {
            spans.push(start..ri + 1);
            start = ri + 1;
            acc = 0;
        }
    }
    if start < n_roots {
        spans.push(start..n_roots);
    }
    debug_assert!(spans.len() <= workers, "span balancing overflowed the pool");

    std::thread::scope(|scope| {
        let mut counts_rest = counts;
        let mut obs_rest = obs_counts;
        let mut count_consumed = 0usize;
        let mut root_consumed = 0usize;
        for (span, scratch) in spans.into_iter().zip(pool.iter_mut()) {
            scratch.prepare(progs.max_cone, wc);
            let (c_span, c_rest) =
                counts_rest.split_at_mut(progs.po_off[span.end] - count_consumed);
            let (o_span, o_rest) = obs_rest.split_at_mut(span.end - root_consumed);
            count_consumed = progs.po_off[span.end];
            root_consumed = span.end;
            counts_rest = c_rest;
            obs_rest = o_rest;
            let vals = scratch.vals.words_mut();
            let progs = &*progs;
            scope.spawn(move || replay_roots(progs, base, wc, span, done, vals, c_span, o_span));
        }
    });
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
/// strike-resimulation programs over cone-local value rows. The full
/// estimator compiles every node; selective re-simulation compiles only
/// the requested subset.
///
/// Side inputs (fan-ins outside the cone) are untagged global node
/// indices resolved against the base evaluation, so no scratch state
/// needs restoring between strikes — the value rows are simply
/// overwritten by the next cone.
///
/// All per-root arrays (`op_off`, `po_off`, …) are indexed by *position
/// in the root list*, not by node index.
///
/// The struct is a reusable buffer: the streamed estimator keeps one
/// instance and [`recompile`](ConePrograms::recompile)s it per chunk, so
/// no program storage is reallocated between chunks.
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
    fn root_count(&self) -> usize {
        self.roots.len()
    }

    #[inline]
    fn total_reachable(&self) -> usize {
        self.po_slots.len()
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

/// Per-worker scratch pooled across chunks and blocks by the streamed
/// estimator: the cone-local value rows of the sampling replay
/// (cache-line aligned for the wide kernels) and the exact enumerator's
/// closure/evaluation state. Grow-only, so a multi-chunk run performs
/// no per-chunk reallocation beyond the first.
#[derive(Default)]
struct SimScratch {
    vals: AlignedWords,
    exact: ExactScratch,
}

impl SimScratch {
    fn prepare(&mut self, max_cone: usize, wc: usize) {
        self.vals.ensure(max_cone.max(1) * wc);
    }
}

/// Replays the strike of every root in `roots` against one block's base
/// rows (stride `wc`, see [`eval_base_block`]), accumulating flat
/// reachable-PO hit counts and per-root any-PO union counts, [`LANES`]
/// words per interpreter step. The `counts`/`obs_counts` slices cover exactly
/// this span's po-slots and roots (offset by the span start), so
/// concurrent spans never share a counter; `done` is chunk-relative and
/// read-only (done roots are skipped).
#[allow(clippy::too_many_arguments)]
fn replay_roots(
    progs: &ConePrograms,
    base: &[u64],
    wc: usize,
    roots: std::ops::Range<usize>,
    done: &[bool],
    vals: &mut [u64],
    counts: &mut [u64],
    obs_counts: &mut [u64],
) {
    let count_base = progs.po_off[roots.start];
    let obs_base = roots.start;
    let mut union_buf = [0u64; BLOCK];

    for ri in roots {
        if done[ri] {
            continue;
        }
        let i = progs.roots[ri] as usize;
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
            match *args {
                [a] => kernel::unary_row::<LANES>(dst, row(a), op.kind.is_inverting()),
                [a, b] => kernel::binary_row::<LANES>(op.kind, dst, row(a), row(b)),
                [a, ref more @ ..] => {
                    dst.copy_from_slice(row(a));
                    for &m in more {
                        kernel::accumulate_row::<LANES>(op.kind, dst, row(m));
                    }
                    if op.kind.is_inverting() {
                        kernel::invert_row::<LANES>(dst);
                    }
                }
                [] => unreachable!("gates have at least one fan-in"),
            }
        }

        let slots = progs.po_slots_of(ri);
        if slots.is_empty() {
            continue;
        }
        union_buf[..wc].fill(0);
        let start = progs.po_off[ri] - count_base;
        for (t, slot) in slots.iter().enumerate() {
            let vrow = &vals[(slot.local as usize) * wc..][..wc];
            let prow = &base[(slot.po as usize) * wc..][..wc];
            counts[start + t] +=
                kernel::diff_count_union_row::<LANES>(vrow, prow, &mut union_buf[..wc]);
        }
        obs_counts[ri - obs_base] += union_buf[..wc]
            .iter()
            .map(|&u| u64::from(u.count_ones()))
            .sum::<u64>();
    }
}

// ------------------------------------------------------- exact cones

/// Hard cap on the fan-in-closure size the exact qualifier will walk
/// before giving up on a root — bounds the per-root qualification cost
/// on deep circuits where the support check alone would crawl a large
/// region just to find the 21st primary input.
const EXACT_CLOSURE_CAP: usize = 1 << 13;

/// Bit patterns giving primary input `t < 6` its truth-table value for
/// the 64 assignments packed in one word: bit `v` of `PAT[t]` is bit
/// `t` of the assignment index `v`.
const EXACT_PAT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Reusable per-worker state of the exact small-cone enumerator: the
/// stamped visited map and work stack of the closure walk, the
/// collected primary inputs and rank-ordered closure gates, and the
/// node-indexed base values plus cone-local rows of the truth-table
/// evaluation.
#[derive(Default)]
struct ExactScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    pis: Vec<u32>,
    gates: Vec<u32>,
    node_vals: Vec<u64>,
    local: Vec<u64>,
}

impl ExactScratch {
    /// Sizes the maps for `n` nodes and returns a fresh stamp value.
    fn begin(&mut self, n: usize) -> u32 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.node_vals.len() < n {
            self.node_vals.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Runs the exact enumerator over one compiled chunk: every root whose
/// strike cone qualifies (see [`try_exact_root`]) gets its counters
/// filled exactly, its `done` flag set and its sample count fixed to
/// `2^support`. Roots are split into contiguous spans across the
/// worker pool; per-root writes touch disjoint counter spans, so the
/// result is bitwise identical for every thread count. Returns the
/// number of roots enumerated.
#[allow(clippy::too_many_arguments)]
fn exact_roots_pass(
    csr: &CsrView,
    progs: &ConePrograms,
    arena: &ConeArena,
    max_support: usize,
    budget_vectors: u64,
    pool: &mut [SimScratch],
    counts: &mut [u64],
    obs_counts: &mut [u64],
    done: &mut [bool],
    samples: &mut [u64],
) -> usize {
    let n_roots = progs.root_count();
    if n_roots == 0 {
        return 0;
    }
    let before = done.iter().filter(|&&d| d).count();
    let workers = pool.len().min(n_roots).max(1);
    if workers == 1 {
        exact_roots_span(
            csr,
            progs,
            arena,
            max_support,
            budget_vectors,
            0..n_roots,
            &mut pool[0].exact,
            counts,
            obs_counts,
            done,
            samples,
        );
    } else {
        let per = n_roots.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut counts_rest = &mut *counts;
            let mut obs_rest = &mut *obs_counts;
            let mut done_rest = &mut *done;
            let mut samples_rest = &mut *samples;
            let mut count_consumed = 0usize;
            let mut root_consumed = 0usize;
            for (w, scratch) in pool.iter_mut().enumerate().take(workers) {
                let span = (w * per).min(n_roots)..((w + 1) * per).min(n_roots);
                if span.is_empty() {
                    break;
                }
                let (c_span, c_rest) =
                    counts_rest.split_at_mut(progs.po_off[span.end] - count_consumed);
                let (o_span, o_rest) = obs_rest.split_at_mut(span.end - root_consumed);
                let (d_span, d_rest) = done_rest.split_at_mut(span.end - root_consumed);
                let (s_span, s_rest) = samples_rest.split_at_mut(span.end - root_consumed);
                count_consumed = progs.po_off[span.end];
                root_consumed = span.end;
                counts_rest = c_rest;
                obs_rest = o_rest;
                done_rest = d_rest;
                samples_rest = s_rest;
                let exact = &mut scratch.exact;
                scope.spawn(move || {
                    exact_roots_span(
                        csr,
                        progs,
                        arena,
                        max_support,
                        budget_vectors,
                        span,
                        exact,
                        c_span,
                        o_span,
                        d_span,
                        s_span,
                    )
                });
            }
        });
    }
    done.iter().filter(|&&d| d).count() - before
}

/// [`exact_roots_pass`] worker body over one contiguous root span; all
/// counter slices are span-relative.
#[allow(clippy::too_many_arguments)]
fn exact_roots_span(
    csr: &CsrView,
    progs: &ConePrograms,
    arena: &ConeArena,
    max_support: usize,
    budget_vectors: u64,
    roots: std::ops::Range<usize>,
    scratch: &mut ExactScratch,
    counts: &mut [u64],
    obs_counts: &mut [u64],
    done: &mut [bool],
    samples: &mut [u64],
) {
    let count_base = progs.po_off[roots.start];
    let root_base = roots.start;
    for ri in roots {
        if done[ri - root_base] {
            continue;
        }
        let start = progs.po_off[ri] - count_base;
        let end = progs.po_off[ri + 1] - count_base;
        if let Some((obs, samp)) = try_exact_root(
            csr,
            progs,
            ri,
            arena.cone(ri),
            max_support,
            budget_vectors,
            scratch,
            &mut counts[start..end],
        ) {
            obs_counts[ri - root_base] = obs;
            samples[ri - root_base] = samp;
            done[ri - root_base] = true;
        }
    }
}

/// Attempts to resolve one root exactly: walks the transitive fan-in
/// closure of its strike cone, and if the primary-input support `s`
/// stays within `max_support` (and the enumeration is no more work
/// than the sampling it replaces), evaluates all `2^s` input
/// assignments — 64 per word via truth-table patterns — writing exact
/// hit counts. Returns `(union_count, 2^s)` on success, `None` when
/// the root must be sampled.
///
/// The support walk and the per-word evaluation order are functions of
/// the cone alone (inputs sorted by node index, closure gates by
/// topological rank), so the exact counters are identical no matter
/// which chunk, thread or run computes them.
#[allow(clippy::too_many_arguments)]
fn try_exact_root(
    csr: &CsrView,
    progs: &ConePrograms,
    ri: usize,
    cone: &[u32],
    max_support: usize,
    budget_vectors: u64,
    scratch: &mut ExactScratch,
    counts: &mut [u64],
) -> Option<(u64, u64)> {
    let mark = scratch.begin(csr.node_count());
    scratch.stack.clear();
    scratch.pis.clear();
    scratch.gates.clear();
    let mut visited = 0usize;
    for &v in cone {
        if scratch.stamp[v as usize] != mark {
            scratch.stamp[v as usize] = mark;
            scratch.stack.push(v);
            visited += 1;
        }
    }
    while let Some(v) = scratch.stack.pop() {
        if csr.kind(v as usize).is_input() {
            scratch.pis.push(v);
            if scratch.pis.len() > max_support {
                return None;
            }
        } else {
            scratch.gates.push(v);
            for &f in csr.fanin_of(v as usize) {
                if scratch.stamp[f as usize] != mark {
                    scratch.stamp[f as usize] = mark;
                    visited += 1;
                    if visited > EXACT_CLOSURE_CAP {
                        return None;
                    }
                    scratch.stack.push(f);
                }
            }
        }
    }
    let s = scratch.pis.len();
    if s >= 63 {
        return None;
    }
    let ops = progs.ops_of(ri);
    let slots = progs.po_slots_of(ri);
    let n_ew: u64 = if s >= 6 { 1u64 << (s - 6) } else { 1 };
    // Profitability guard: enumeration (closure gates + cone replay per
    // truth-table word) must not exceed the sampling work it replaces,
    // so exact mode is a strict win keyed on the *requested* budget.
    let exact_work = n_ew.saturating_mul((scratch.gates.len() + ops.len() + slots.len()) as u64);
    let sampled_work = (budget_vectors / 64)
        .max(1)
        .saturating_mul((ops.len() + slots.len() + 1) as u64);
    if exact_work > sampled_work {
        return None;
    }

    // Canonical orders make the enumeration run-invariant.
    scratch.pis.sort_unstable();
    scratch
        .gates
        .sort_unstable_by_key(|&g| csr.rank_of(g as usize));

    if scratch.local.len() < cone.len() {
        scratch.local.resize(cone.len(), 0);
    }
    let mask: u64 = if s >= 6 {
        !0
    } else {
        (1u64 << (1u32 << s)) - 1
    };
    let root = cone[0] as usize;
    let mut obs = 0u64;
    for w in 0..n_ew {
        for (t, &pi) in scratch.pis.iter().enumerate() {
            scratch.node_vals[pi as usize] = if t < 6 {
                EXACT_PAT[t]
            } else if (w >> (t - 6)) & 1 == 1 {
                !0
            } else {
                0
            };
        }
        for &g in &scratch.gates {
            let gi = g as usize;
            let v = kernel::eval_gate(csr.kind(gi), csr.fanin_of(gi), &scratch.node_vals);
            scratch.node_vals[gi] = v;
        }
        scratch.local[0] = !scratch.node_vals[root];
        for (e, op) in ops.iter().enumerate() {
            let args = &progs.operands[op.off as usize..(op.off + op.n_in) as usize];
            let v = eval_tagged_scalar(op.kind, args, &scratch.local, &scratch.node_vals);
            scratch.local[e + 1] = v;
        }
        let mut union = 0u64;
        for (t, slot) in slots.iter().enumerate() {
            let diff =
                (scratch.local[slot.local as usize] ^ scratch.node_vals[slot.po as usize]) & mask;
            counts[t] += u64::from(diff.count_ones());
            union |= diff;
        }
        obs += u64::from(union.count_ones());
    }
    Some((obs, 1u64 << s))
}

/// Scalar (one-word) evaluation of a compiled cone op whose operands
/// carry the [`LOCAL`] tag — the exact enumerator's counterpart of the
/// row interpreter in [`replay_roots`].
#[inline(always)]
fn eval_tagged_scalar(kind: GateKind, args: &[u32], local: &[u64], node_vals: &[u64]) -> u64 {
    let rv = |t: u32| -> u64 {
        if t & LOCAL != 0 {
            local[(t & !LOCAL) as usize]
        } else {
            node_vals[t as usize]
        }
    };
    match *args {
        [a] => {
            let x = rv(a);
            if kind.is_inverting() {
                !x
            } else {
                x
            }
        }
        [a, b] => {
            let x = rv(a);
            let y = rv(b);
            match kind {
                GateKind::And => x & y,
                GateKind::Nand => !(x & y),
                GateKind::Or => x | y,
                GateKind::Nor => !(x | y),
                GateKind::Xor => x ^ y,
                GateKind::Xnor => !(x ^ y),
                GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
            }
        }
        [a, ref more @ ..] => {
            let mut acc = rv(a);
            for &m in more {
                let x = rv(m);
                acc = match kind {
                    GateKind::And | GateKind::Nand => acc & x,
                    GateKind::Or | GateKind::Nor => acc | x,
                    GateKind::Xor | GateKind::Xnor => acc ^ x,
                    GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
                };
            }
            if kind.is_inverting() {
                !acc
            } else {
                acc
            }
        }
        [] => unreachable!("gates have at least one fan-in"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DEFAULT_CONE_CHUNK;
    use ser_netlist::govern::{CancelToken, InterruptReason};
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

    /// Default-config re-simulation at an explicit thread count and
    /// chunk size.
    fn resim_at(
        c: &Circuit,
        nodes: &[NodeId],
        n_vectors: usize,
        seed: u64,
        threads: usize,
        chunk_size: usize,
    ) -> PijRowUpdate {
        resimulate_rows_cfg(
            c,
            nodes,
            n_vectors,
            seed,
            threads,
            chunk_size,
            &PijConfig::default(),
        )
    }

    fn default_resim(c: &Circuit, nodes: &[NodeId], n_vectors: usize, seed: u64) -> PijRowUpdate {
        resim_at(c, nodes, n_vectors, seed, 2, DEFAULT_CONE_CHUNK)
    }

    /// A governed engine config at an explicit thread count, chunk size
    /// and soft memory budget.
    fn governed_engine(threads: usize, chunk_size: usize, limit: Option<usize>) -> EngineConfig {
        let engine = EngineConfig::new()
            .with_threads(threads)
            .with_cone_chunk(chunk_size);
        match limit {
            Some(bytes) => engine.with_mem_soft_limit(bytes),
            None => engine,
        }
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
    fn resim_chunk_sizes_agree_bitwise() {
        let c = generate::sec32("t");
        let subset: Vec<_> = c.node_ids().filter(|id| id.index() % 4 == 1).collect();
        let whole = resim_at(&c, &subset, 512, 77, 1, c.node_count());
        for chunk_size in [1, 7] {
            let up = resim_at(&c, &subset, 512, 77, 2, chunk_size);
            assert_eq!(up, whole, "chunk {chunk_size}");
        }
    }

    #[test]
    fn resim_handles_duplicate_nodes() {
        let c = generate::c17();
        let g = c.gates().next().unwrap();
        let h = c.gates().nth(2).unwrap();
        let up = resim_at(&c, &[g, h, g], 256, 5, 1, 2);
        assert_eq!(
            up.nodes(),
            &[g.index() as u32, h.index() as u32, g.index() as u32]
        );
        assert_eq!(up.row(0), up.row(2), "duplicate rows repeat");
        assert_eq!(up.observability(0), up.observability(2));
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
    fn exact_mode_resolves_small_cones_exactly() {
        // y = AND(a, b) has a 2-input support: the exact enumerator
        // covers all four assignments, so P(a→y) is 0.5 *exactly* even
        // at a budget far too small for sampling to settle.
        let mut bb = CircuitBuilder::new("and");
        let a = bb.input("a");
        let b2 = bb.input("b");
        let y = bb.gate(GateKind::And, "y", &[a, b2]).unwrap();
        bb.mark_output(y);
        let c = bb.finish().unwrap();
        let (m, stats) =
            sensitization_probabilities_with_stats_cfg(&c, 128, 1, 1, 8, &PijConfig::default());
        assert_eq!(m.p(a, 0), 0.5);
        assert_eq!(m.p(b2, 0), 0.5);
        assert_eq!(m.p(y, 0), 1.0);
        assert_eq!(stats.exact_roots, c.node_count());
        assert_eq!(stats.adaptive_stops, 0);
    }

    #[test]
    fn exact_union_counter_is_exact() {
        // Same circuit as `measured_union_can_exceed_row_max`: under
        // exact mode the any-PO union lands on 0.75 with zero variance.
        let mut bb = CircuitBuilder::new("u");
        let a = bb.input("a");
        let b = bb.input("b");
        let c = bb.input("c");
        let y0 = bb.gate(GateKind::And, "y0", &[a, b]).unwrap();
        let y1 = bb.gate(GateKind::And, "y1", &[a, c]).unwrap();
        bb.mark_output(y0);
        bb.mark_output(y1);
        let circ = bb.finish().unwrap();
        let m = sensitization_probabilities_cfg(&circ, 256, 9, 1, 4, &PijConfig::default());
        assert_eq!(m.p(a, 0), 0.5);
        assert_eq!(m.p(a, 1), 0.5);
        assert_eq!(m.observability(a), 0.75);
    }

    #[test]
    fn adaptive_sampling_stops_early_within_tolerance() {
        // c17's cones all resolve exactly under the default config, so
        // the exact run is an oracle. The adaptive-only run (exact mode
        // off) must converge before exhausting a deliberately oversized
        // budget, and land within the advertised tolerance of the
        // oracle.
        let c = generate::c17();
        let (oracle, ostats) =
            sensitization_probabilities_with_stats_cfg(&c, 256, 7, 1, 8, &PijConfig::default());
        assert_eq!(ostats.exact_roots, c.node_count());
        // A 10% relative tolerance so mid-probability cones (p ≈ 0.5,
        // the slowest to converge) settle before the budget runs out —
        // the default 2% needs nearly the full fixed budget there,
        // which is exactly the accuracy-preserving intent.
        let adaptive = PijConfig {
            exact_support: 0,
            tolerance: 0.1,
        };
        let budget = 64 * 64 * 4; // four convergence blocks
        let (m, stats) = sensitization_probabilities_with_stats_cfg(&c, budget, 7, 1, 8, &adaptive);
        assert_eq!(stats.exact_roots, 0);
        assert!(stats.adaptive_stops > 0, "no root converged: {stats:?}");
        assert!(
            m.vectors_used() < budget,
            "no early exit: {} of {budget}",
            m.vectors_used()
        );
        let floor = CONV_Z * (0.25 / budget as f64).sqrt();
        for id in c.node_ids() {
            for j in 0..m.outputs().len() {
                let tol = (adaptive.tolerance * oracle.p(id, j)).max(floor) * 2.0;
                assert!(
                    (m.p(id, j) - oracle.p(id, j)).abs() <= tol,
                    "node {id} col {j}: {} vs exact {}",
                    m.p(id, j),
                    oracle.p(id, j)
                );
            }
        }
    }

    #[test]
    fn default_config_enumerates_small_circuits_seed_free() {
        // Under the default config every c17 root is exact, so two
        // different seeds must agree perfectly.
        let c = generate::c17();
        let m1 = default_estimate(&c, 256, 1);
        let m2 = default_estimate(&c, 256, 2);
        for id in c.node_ids() {
            for j in 0..m1.outputs().len() {
                assert_eq!(m1.p(id, j), m2.p(id, j), "node {id} col {j}");
            }
        }
    }

    #[test]
    fn selective_resim_matches_full_rows_bitwise() {
        let c = generate::sec32("t");
        let m = estimate_at(&c, 512, 77, 1, DEFAULT_CONE_CHUNK);
        // A scattered subset: every third node, in shuffled-ish order.
        let subset: Vec<_> = c.node_ids().filter(|id| id.index() % 3 == 1).collect();
        for threads in [1usize, 3] {
            let up = resim_at(&c, &subset, 512, 77, threads, DEFAULT_CONE_CHUNK);
            assert_eq!(up.nodes().len(), subset.len());
            for (t, &id) in subset.iter().enumerate() {
                assert_eq!(up.row(t), m.row(id), "row of {id} ({threads} threads)");
                assert_eq!(
                    up.observability(t),
                    m.observability(id),
                    "obs of {id} ({threads} threads)"
                );
            }
        }
    }

    #[test]
    fn apply_update_patches_only_listed_rows() {
        let c = generate::c17();
        let m256 = default_estimate(&c, 256, 5);
        let m512 = default_estimate(&c, 512, 5);
        let subset: Vec<_> = c.gates().take(3).collect();
        let up = default_resim(&c, &subset, 512, 5);
        let mut patched = m256.clone();
        patched.apply_update(&up);
        for id in c.node_ids() {
            if subset.contains(&id) {
                assert_eq!(patched.row(id), m512.row(id), "patched row of {id}");
                assert_eq!(patched.observability(id), m512.observability(id));
            } else {
                assert_eq!(patched.row(id), m256.row(id), "untouched row of {id}");
            }
        }
        // Patching with a same-(vectors, seed) update is a no-op.
        let noop = default_resim(&c, &subset, 256, 5);
        let mut same = m256.clone();
        same.apply_update(&noop);
        assert_eq!(same, m256);
    }

    #[test]
    fn empty_resim_is_trivial() {
        let c = generate::c17();
        let up = default_resim(&c, &[], 128, 1);
        assert!(up.nodes().is_empty());
        assert_eq!(up.vectors_used(), 128);
    }

    #[test]
    fn reachable_columns_define_the_support() {
        let c = generate::sec32("t");
        let m = default_estimate(&c, 256, 3);
        for id in c.node_ids() {
            for j in 0..m.outputs().len() {
                if !m.reachable_columns(id).contains(&(j as u32)) {
                    assert_eq!(m.p(id, j), 0.0, "node {id} col {j}");
                }
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_is_bitwise() {
        let c = generate::sec32("t");
        let m = default_estimate(&c, 512, 77);
        let reach_p: Vec<f64> = m.reachable_probabilities().collect();
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
            m.probabilities().iter().map(|x| x.to_bits()).collect()
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
            let mut p: Vec<f64> = m.reachable_probabilities().collect();
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

    #[test]
    fn governed_full_run_matches_ungoverned_bitwise() {
        let c = generate::sec32("t");
        let plain = estimate_at(&c, 512, 77, 2, 13);
        let gov = sensitization_probabilities_governed_cfg(
            &c,
            512,
            77,
            &governed_engine(2, 13, None),
            &Deadline::none(),
        )
        .unwrap();
        assert!(gov.interrupted.is_none());
        assert!(gov.events.is_empty());
        assert_eq!(gov.vectors_completed, 512);
        assert_eq!(gov.matrix, plain);
    }

    #[test]
    fn expired_deadline_interrupts_before_any_work() {
        let c = generate::c17();
        let deadline = Deadline::within(std::time::Duration::ZERO);
        let err = sensitization_probabilities_governed_cfg(
            &c,
            512,
            7,
            &governed_engine(1, 16, None),
            &deadline,
        )
        .unwrap_err();
        assert_eq!(err.stage, "sensitize::block");
        assert_eq!(err.reason, InterruptReason::DeadlineExpired);
    }

    #[test]
    fn cancelled_token_interrupts_with_typed_reason() {
        let c = generate::c17();
        let token = CancelToken::new();
        token.cancel();
        let deadline = Deadline::none().with_token(token);
        let err = sensitization_probabilities_governed_cfg(
            &c,
            512,
            7,
            &governed_engine(1, 16, None),
            &deadline,
        )
        .unwrap_err();
        assert_eq!(err.reason, InterruptReason::Cancelled);
    }

    #[test]
    fn memory_governor_shrinks_chunks_and_stays_bitwise() {
        let c = generate::sec32("t");
        // A one-byte budget forces the preflight all the way down to
        // one-root chunks and arms LRU shedding; the matrix must still
        // be bitwise identical (chunk-size invariance).
        let plain = estimate_at(&c, 512, 77, 2, 64);
        let gov = sensitization_probabilities_governed_cfg(
            &c,
            512,
            77,
            &governed_engine(2, 64, Some(1)),
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(gov.matrix, plain);
        assert!(
            gov.events
                .iter()
                .any(|e| matches!(e, DegradationEvent::ChunkShrunk { to: 1, .. })),
            "events: {:?}",
            gov.events
        );
        assert!(
            gov.events
                .iter()
                .any(|e| matches!(e, DegradationEvent::ConesShed { .. })),
            "events: {:?}",
            gov.events
        );
    }

    #[test]
    fn generous_memory_budget_degrades_nothing() {
        let c = generate::c17();
        let gov = sensitization_probabilities_governed_cfg(
            &c,
            256,
            5,
            &governed_engine(1, 16, Some(1 << 30)),
            &Deadline::none(),
        )
        .unwrap();
        assert!(gov.events.is_empty(), "events: {:?}", gov.events);
        assert_eq!(gov.matrix, estimate_at(&c, 256, 5, 1, 16));
    }
}
