//! The incremental analysis engine: a persistent [`AnalysisSession`]
//! that keeps every ASERTA artifact alive between evaluations and
//! re-derives only what a batch of per-gate deltas actually invalidates.
//!
//! The SERTOPT inner loop re-evaluates circuit unreliability after every
//! candidate move, and consecutive candidates differ in a handful of
//! gates. A fresh [`analyze`](crate::analyze) pays the full
//! `O((V+E)·K·|PO|)` width pass (plus timing and library work) per move;
//! the session instead scopes each recomputation with dirty-set closures
//! over the flat CSR view:
//!
//! * a **cell change** at gate `g` dirties the loads of `g`'s fan-ins and
//!   `g`'s own delay/ramp; ramp changes flow through the *fan-out
//!   closure*, stopping as soon as recomputed values are bitwise
//!   unchanged;
//! * a **delay change** at `g` dirties the hoisted interpolation brackets
//!   of `g` and the expected-width rows of `g`'s *strict ancestors* —
//!   rows are re-derived in reverse topological order from the cached
//!   successor tables, again stopping where recomputed rows are bitwise
//!   unchanged;
//! * the Eq. 2 weights `π_isj` and static probabilities depend only on
//!   the circuit's logic, so they are computed once and served from a
//!   per-cone weight cache; `P_ij` likewise persists, with
//!   [`AnalysisSession::resample_pij_rows`] re-simulating selected cones
//!   (via [`ser_logicsim::sensitize::resimulate_rows_cfg`]) when the caller
//!   wants sharper estimates for specific nodes.
//!
//! **Fidelity contract:** after any sequence of
//! [`AnalysisSession::set_cells`] / [`AnalysisSession::apply`] calls, the
//! session state is *bitwise identical* to a fresh
//! [`analyze`](crate::analyze) of the mutated assignment — every skipped
//! recomputation is guarded by a bitwise comparison of its inputs. The
//! workspace property test `session_equiv` pins this.
//!
//! **Fault tolerance:** every mutating entry point has a fallible `try_*`
//! form returning [`AnalysisError`]. Untrusted inputs (configuration
//! scalars, cell parameters, charges) are validated *before* any
//! mutation, so a rejection leaves the session bitwise intact. Numerical
//! guards in the hot kernels (loads, timing lookups, generated widths,
//! expected-width rows, the unreliability resum) catch NaN/Inf/negative
//! intermediates mid-recompute; since the caches are then partially
//! updated, the session flips to a *poisoned* state
//! ([`AnalysisSession::is_poisoned`]) that refuses further mutations with
//! [`AnalysisError::Poisoned`] until [`AnalysisSession::recover`] /
//! [`AnalysisSession::recover_with`] runs a full-dirty rebuild. Read
//! accessors keep working on a poisoned session. The legacy panicking
//! API is preserved as thin wrappers over the `try_*` forms.
//!
//! # Example
//!
//! ```no_run
//! use aserta::{AnalysisSession, AsertaConfig, CircuitCells};
//! use ser_cells::{CharGrids, Library};
//! use ser_netlist::generate;
//! use ser_spice::Technology;
//!
//! let c17 = generate::c17();
//! let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
//! let mut session =
//!     AnalysisSession::builder(&c17, CircuitCells::nominal(&c17), lib, AsertaConfig::fast())
//!         .build()
//!         .unwrap();
//! let g = c17.find("10").unwrap();
//! let mut p = *session.cells().get(g).unwrap();
//! p.size = 4.0;
//! let stats = session.apply(&[(g, p)]);
//! println!(
//!     "U = {:.3e} after touching {} rows",
//!     session.unreliability(),
//!     stats.rows_recomputed
//! );
//! ```

use std::collections::HashSet;
use std::path::Path;

use ser_cells::{CharacterizedCell, Library};
use ser_logicsim::engine::EngineConfig;
use ser_logicsim::probability::static_probabilities_analytic;
use ser_logicsim::sensitize::{
    resimulate_rows_cfg, sensitization_probabilities_cfg, sensitization_probabilities_governed_cfg,
};
use ser_logicsim::SensitizationMatrix;
use ser_netlist::csr::CsrView;
use ser_netlist::dirty::{close_over_fanout, strict_ancestors, SparseSet};
use ser_netlist::govern::{Deadline, DegradationEvent};
use ser_netlist::{Circuit, NodeId};
use ser_spice::GateParams;

use crate::analysis::AsertaReport;
use crate::binding::{timing_view, CircuitCells, LoadModel, TimingView};
use crate::config::AsertaConfig;
use crate::electrical::{ExpectedWidths, InterpBrackets, RowKernel, WeightCache};
use crate::error::{AnalysisError, PoisonReason};
use crate::glitch::AttenuationModel;
use crate::snapshot::{SessionSnapshot, SessionSnapshotError};

/// What one [`AnalysisSession::set_cells`] /
/// [`AnalysisSession::apply`] call actually recomputed — the observable
/// face of the dirty-set machinery, useful for asserting locality and
/// for downstream incremental caches (e.g. per-gate energy).
#[derive(Debug, Clone, Default)]
pub struct ApplyStats {
    /// Gates whose cell parameters differed from the current assignment.
    pub gates_changed: usize,
    /// Nodes whose capacitive load changed.
    pub loads_changed: usize,
    /// Nodes whose propagation delay changed.
    pub delays_changed: usize,
    /// Expected-width rows re-derived (dirty candidates actually hit).
    pub rows_recomputed: usize,
    /// Re-derived rows that changed at least one bit.
    pub rows_changed: usize,
    /// Gates whose cell parameters *or* load changed — exactly the set a
    /// per-gate energy/area cache must refresh.
    pub energy_dirty: Vec<u32>,
}

/// Reusable per-apply scratch state (kept allocated between moves).
#[derive(Debug, Clone)]
struct Scratch {
    load_cand: SparseSet,
    load_changed: SparseSet,
    timing_affected: SparseSet,
    delay_changed: SparseSet,
    row_cand: SparseSet,
    row_changed: SparseSet,
    u_dirty: SparseSet,
    row_buf: Vec<f64>,
    arrival: Vec<f64>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            load_cand: SparseSet::new(n),
            load_changed: SparseSet::new(n),
            timing_affected: SparseSet::new(n),
            delay_changed: SparseSet::new(n),
            row_cand: SparseSet::new(n),
            row_changed: SparseSet::new(n),
            u_dirty: SparseSet::new(n),
            // Sized lazily by the row kernel (sparse rows have
            // per-node lengths).
            row_buf: Vec::new(),
            arrival: vec![0.0; n],
        }
    }
}

/// A persistent, incrementally-updated ASERTA analysis of one circuit.
///
/// See the [module docs](self) for the dirty-set architecture and the
/// bitwise fidelity contract. The session owns its [`Library`] (the
/// variants it lacks are characterized at construction on the engine's
/// threads, later deltas' variants lazily on first use), so it is
/// `Clone` + `Send`:
/// optimizers replicate one session per worker thread and evaluate
/// independent candidates in parallel.
#[derive(Debug, Clone)]
pub struct AnalysisSession<'c> {
    circuit: &'c Circuit,
    cfg: AsertaConfig,
    library: Library,
    cells: CircuitCells,
    csr: CsrView,
    pij: SensitizationMatrix,
    static_probs: Vec<f64>,
    grid: Vec<f64>,
    weights: WeightCache,
    timing: TimingView,
    critical_delay: f64,
    generated: Vec<f64>,
    widths: ExpectedWidths,
    brackets: InterpBrackets,
    per_gate_u: Vec<f64>,
    unreliability: f64,
    poison: Option<PoisonReason>,
    deadline: Deadline,
    engine: EngineConfig,
    degradations: Vec<DegradationEvent>,
    scratch: Scratch,
}

/// The single construction path for [`AnalysisSession`] — obtained via
/// [`AnalysisSession::builder`], finished with
/// [`SessionBuilder::build`].
///
/// The builder is the one fallible construction surface:
///
/// * [`SessionBuilder::pij`] supplies a precomputed sensitization
///   matrix (to share one estimate across sessions); without it the
///   builder runs the Monte-Carlo estimate itself;
/// * [`SessionBuilder::deadline`] installs a cooperative execution
///   budget; when the builder estimates `P_ij` the estimate runs
///   *governed* under it (truncations and memory-governor events are
///   recorded as [`DegradationEvent`]s);
/// * [`SessionBuilder::engine`] pins execution-resource knobs
///   (threads, chunking, soft memory budget); unset fields fall
///   through to the strict environment overlay
///   ([`EngineConfig::from_env`]) and then the built-in defaults —
///   explicit > env > default. Results are bitwise identical for every
///   engine setting.
#[derive(Debug)]
#[must_use = "a SessionBuilder does nothing until `.build()`"]
pub struct SessionBuilder<'c> {
    circuit: &'c Circuit,
    cells: CircuitCells,
    library: Library,
    cfg: AsertaConfig,
    pij: Option<SensitizationMatrix>,
    deadline: Option<Deadline>,
    engine: EngineConfig,
}

impl<'c> SessionBuilder<'c> {
    /// Supplies a precomputed sensitization matrix; the builder skips
    /// its own estimate. The matrix must cover exactly the circuit's
    /// primary outputs.
    pub fn pij(mut self, pij: SensitizationMatrix) -> Self {
        self.pij = Some(pij);
        self
    }

    /// Installs a cooperative execution budget. A builder-run `P_ij`
    /// estimate runs governed under it (see [`AnalysisSession::builder`]);
    /// the deadline stays installed on the session, so later mutations
    /// keep honoring it ([`AnalysisSession::set_deadline`]).
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pins execution-resource knobs for this build. Unset fields fall
    /// through to the strict environment overlay and the built-in
    /// defaults (explicit > env > default).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Builds the session: resolves the engine overlay, estimates
    /// `P_ij` unless one was supplied, characterizes the cell variants
    /// the library lacks on the engine's threads, runs one full analysis
    /// and materializes every cache the incremental path serves from.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Engine`] when the environment overlay finds a
    ///   malformed `SER_*` variable (nothing is constructed);
    /// * [`AnalysisError::InvalidConfig`] for unusable configuration
    ///   scalars, or a supplied sensitization matrix that does not
    ///   cover exactly the circuit's primary outputs;
    /// * [`AnalysisError::MissingCellParams`] when a gate carries no
    ///   parameters;
    /// * [`AnalysisError::InvalidGateParams`] for non-finite or
    ///   unphysical parameters;
    /// * [`AnalysisError::BadCell`] when a gate's characterized library
    ///   cell fails validation (non-finite lookup tables or scalars);
    /// * [`AnalysisError::Interrupted`] when a deadline expires before
    ///   even one estimate block completes (there is no partial state
    ///   worth keeping).
    pub fn build(self) -> Result<AnalysisSession<'c>, AnalysisError> {
        validate_config(&self.cfg)?;
        let engine = self.engine.overlay(&EngineConfig::from_env()?);
        let (pij, events) = match (self.pij, &self.deadline) {
            (Some(pij), _) => (pij, Vec::new()),
            (None, None) => (estimate_pij(self.circuit, &self.cfg, &engine), Vec::new()),
            (None, Some(deadline)) => {
                let est = sensitization_probabilities_governed_cfg(
                    self.circuit,
                    self.cfg.sensitization_vectors,
                    self.cfg.seed,
                    &engine,
                    deadline,
                )
                .map_err(AnalysisError::Interrupted)?;
                let mut events = est.events;
                if est.interrupted.is_some()
                    && est.vectors_completed < self.cfg.sensitization_vectors
                {
                    events.push(DegradationEvent::EstimateTruncated {
                        completed: est.vectors_completed,
                        requested: self.cfg.sensitization_vectors,
                    });
                }
                (est.matrix, events)
            }
        };
        let mut session = AnalysisSession::construct(
            self.circuit,
            self.cells,
            self.library,
            self.cfg,
            pij,
            engine.threads(),
        )?;
        session.engine = engine;
        if let Some(deadline) = self.deadline {
            session.deadline = deadline;
        }
        session.degradations = events;
        Ok(session)
    }
}

/// The ungoverned `P_ij` estimate of a session build: `cfg`'s vector
/// count and seed, with threads, chunk size and estimator modes from
/// the resolved `engine`.
pub(crate) fn estimate_pij(
    circuit: &Circuit,
    cfg: &AsertaConfig,
    engine: &EngineConfig,
) -> SensitizationMatrix {
    sensitization_probabilities_cfg(
        circuit,
        cfg.sensitization_vectors,
        cfg.seed,
        engine.threads(),
        engine.cone_chunk(),
        &engine.pij(),
    )
}

impl<'c> AnalysisSession<'c> {
    /// Starts the single construction path: a [`SessionBuilder`] over
    /// the circuit, cell assignment, library and analysis
    /// configuration. See [`SessionBuilder`] for the optional pieces
    /// (precomputed `P_ij`, deadline, engine knobs).
    pub fn builder(
        circuit: &'c Circuit,
        cells: CircuitCells,
        library: Library,
        cfg: AsertaConfig,
    ) -> SessionBuilder<'c> {
        SessionBuilder {
            circuit,
            cells,
            library,
            cfg,
            pij: None,
            deadline: None,
            engine: EngineConfig::new(),
        }
    }

    /// The untrusted-input boundary of session construction: validates
    /// everything, characterizes the variants the library lacks on
    /// `threads` threads, runs the full analysis, materializes the
    /// caches. The engine field is stamped by the caller
    /// (builder/restore) after construction.
    pub(crate) fn construct(
        circuit: &'c Circuit,
        cells: CircuitCells,
        mut library: Library,
        cfg: AsertaConfig,
        pij: SensitizationMatrix,
        threads: usize,
    ) -> Result<Self, AnalysisError> {
        validate_config(&cfg)?;
        if pij.outputs() != circuit.primary_outputs() {
            return Err(AnalysisError::InvalidConfig {
                reason: "sensitization matrix does not cover the circuit's primary outputs",
            });
        }
        // On one thread the validation loop's lazy characterization is
        // the same work in the same order, so the pre-pass only pays off
        // with more.
        if threads > 1 {
            library.characterize_all(&missing_variants(circuit, &cells, &library), threads);
        }
        for id in circuit.gates() {
            let node = id.index() as u32;
            let p = cells
                .get(id)
                .ok_or(AnalysisError::MissingCellParams { node })?;
            validate_gate_params(node, p)?;
            if !library.get_or_characterize(p).validate() {
                return Err(AnalysisError::BadCell { node });
            }
        }

        let n = circuit.node_count();
        let loads_model = LoadModel {
            wire_cap_per_pin: cfg.wire_cap_per_pin,
            po_load: cfg.po_load,
        };
        let timing = timing_view(circuit, &cells, &mut library, loads_model, cfg.pi_ramp);
        let static_probs = static_probabilities_analytic(circuit, cfg.pi_probability);

        let mut generated = vec![0.0f64; n];
        for id in circuit.gates() {
            let Some(p) = cells.get(id) else {
                panic!("invariant: gates carry parameters (validated above)")
            };
            let cell = library.get_or_characterize(p);
            generated[id.index()] = cell.glitch_width_at(timing.loads[id.index()], cfg.charge);
        }

        // Width tables by the shared full-dirty pass: every row derived
        // by the same kernel the incremental path applies to dirty rows
        // only; the session keeps the weight cache and brackets alive as
        // its caches.
        let grid = cfg.sample_width_grid();
        let (widths, weights, brackets) = crate::electrical::full_width_state(
            circuit,
            &static_probs,
            &pij,
            &timing.delays,
            grid.clone(),
            AttenuationModel::PaperEq1,
        );

        let mut per_gate_u = vec![0.0f64; n];
        for id in circuit.gates() {
            let Some(p) = cells.get(id) else {
                panic!("invariant: gates carry parameters (validated above)")
            };
            per_gate_u[id.index()] =
                p.size * widths.total_expected_width(id, generated[id.index()]);
        }
        let critical_delay = timing.critical_path_delay(circuit);

        let mut session = AnalysisSession {
            circuit,
            cfg,
            library,
            cells,
            csr: CsrView::build(circuit),
            pij,
            static_probs,
            grid,
            weights,
            timing,
            critical_delay,
            generated,
            widths,
            brackets,
            per_gate_u,
            unreliability: 0.0,
            poison: None,
            deadline: Deadline::none(),
            engine: EngineConfig::new(),
            degradations: Vec::new(),
            scratch: Scratch::new(n),
        };
        session.resum_unreliability();
        Ok(session)
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The analysis settings in force.
    pub fn config(&self) -> &AsertaConfig {
        &self.cfg
    }

    /// The current cell assignment.
    pub fn cells(&self) -> &CircuitCells {
        &self.cells
    }

    /// The cached sensitization matrix.
    pub fn pij(&self) -> &SensitizationMatrix {
        &self.pij
    }

    /// The static 1-probabilities used for logical masking.
    pub fn static_probs(&self) -> &[f64] {
        &self.static_probs
    }

    /// The current timing view (loads, ramps, delays).
    pub fn timing(&self) -> &TimingView {
        &self.timing
    }

    /// The critical PI→PO path delay of the current assignment, seconds.
    pub fn critical_delay(&self) -> f64 {
        self.critical_delay
    }

    /// Per-gate generated glitch widths, seconds.
    pub fn generated_widths(&self) -> &[f64] {
        &self.generated
    }

    /// Circuit unreliability `U` (Eq. 4) of the current assignment.
    pub fn unreliability(&self) -> f64 {
        self.unreliability
    }

    /// Whether the session is poisoned: a numerical guard (or an injected
    /// fault) tripped mid-recompute, so the caches may be partially
    /// updated. A poisoned session refuses every further mutation with
    /// [`AnalysisError::Poisoned`]; reads keep working. Clear it with
    /// [`AnalysisSession::recover`].
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Why the session is poisoned, if it is.
    pub fn poison(&self) -> Option<&PoisonReason> {
        self.poison.as_ref()
    }

    /// The execution budget in force ([`Deadline::none`] by default).
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The resolved engine configuration this session was built with
    /// (explicit knobs overlaid on the environment at build time).
    /// Purely an execution-resource record — results never depend on it.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Approximate resident footprint of the session's caches, bytes —
    /// the accounting unit a byte-budget session pool evicts by. The
    /// estimate covers the dominant tables (`P_ij` rows, expected-width
    /// tables, the per-node vectors); per-cell library state and
    /// allocator overhead are not counted, so treat it as a lower-bound
    /// proxy, not an allocator measurement.
    pub fn resident_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let n = self.circuit.node_count();
        let n_pos = self.circuit.primary_outputs().len();
        // P_ij: dense row-major rows + union observability + reach CSR.
        let pij = n * n_pos * f + n * f + self.pij.reachable_pairs() * 4;
        // Expected-width tables (sparse per-node slabs).
        let widths = std::mem::size_of_val(self.widths.ws());
        // Per-node vectors: static probs, generated widths, per-gate U,
        // 4 timing arrays, scratch arrival.
        let per_node = 8 * n * f;
        pij + widths + per_node
    }

    /// Installs a cooperative execution budget. Every mutating entry
    /// point first checks it (an exhausted budget is a clean
    /// [`AnalysisError::Interrupted`] rejection, session untouched), and
    /// recompute stages re-check it at their boundaries (an exhaustion
    /// observed there poisons the session with
    /// [`PoisonReason::Interrupted`], since the caches are partially
    /// updated — recover as for any poisoning).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Removes any execution budget.
    pub fn clear_deadline(&mut self) {
        self.deadline = Deadline::none();
    }

    /// Graceful-degradation events recorded while building or governing
    /// this session (estimate truncation, cone-arena shrinks/evictions
    /// under a soft memory budget). Also surfaced on
    /// [`AnalysisSession::report`].
    pub fn degradations(&self) -> &[DegradationEvent] {
        &self.degradations
    }

    /// Per-node `U_i` (Eq. 3); zero for primary inputs.
    pub fn per_gate_unreliability(&self) -> &[f64] {
        &self.per_gate_u
    }

    /// The expected-width tables of the current assignment.
    pub fn expected_widths(&self) -> &ExpectedWidths {
        &self.widths
    }

    /// The characterized cell and output load of a gate — the inputs a
    /// downstream per-gate cache (energy, area) needs to refresh an
    /// [`ApplyStats::energy_dirty`] entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input.
    pub fn cell_and_load(&mut self, id: NodeId) -> (&CharacterizedCell, f64) {
        let load = self.timing.loads[id.index()];
        let Some(p) = self.cells.get(id) else {
            panic!("cell_and_load: node {id} is a primary input")
        };
        (self.library.get_or_characterize(p), load)
    }

    /// Packages the current state as a classic [`AsertaReport`] (clones
    /// the tables — use the accessors on the hot path).
    pub fn report(&self) -> AsertaReport {
        AsertaReport {
            unreliability: self.unreliability,
            per_gate_unreliability: self.per_gate_u.clone(),
            generated_widths: self.generated.clone(),
            expected_widths: self.widths.clone(),
            static_probs: self.static_probs.clone(),
            timing: self.timing.clone(),
            degradations: self.degradations.iter().map(ToString::to_string).collect(),
        }
    }

    /// Consumes the session, moving its state into a classic
    /// [`AsertaReport`] without cloning the tables — the tail of the
    /// cold-start [`analyze`](crate::analyze) path.
    pub fn into_report(self) -> AsertaReport {
        AsertaReport {
            unreliability: self.unreliability,
            per_gate_unreliability: self.per_gate_u,
            generated_widths: self.generated,
            expected_widths: self.widths,
            static_probs: self.static_probs,
            timing: self.timing,
            degradations: self.degradations.iter().map(ToString::to_string).collect(),
        }
    }

    /// Captures the session's inputs as an owned, persistable
    /// [`SessionSnapshot`] (circuit, configuration, library, cell
    /// assignment, `P_ij`), plus the critical delay and unreliability a
    /// restore must reproduce bitwise.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Poisoned`] — a poisoned session's caches are
    /// partially updated, so its check values could never verify;
    /// recover first.
    pub fn snapshot(&self) -> Result<SessionSnapshot, AnalysisError> {
        self.ensure_clean()?;
        Ok(SessionSnapshot {
            circuit: self.circuit.clone(),
            cfg: self.cfg.clone(),
            library: self.library.clone(),
            cells: self.cells.clone(),
            pij: self.pij.clone(),
            critical_delay: self.critical_delay,
            unreliability: self.unreliability,
        })
    }

    /// Atomically persists the session to `path` (snapshot capture +
    /// [`SessionSnapshot::write_to`]'s write-rename).
    ///
    /// # Errors
    ///
    /// [`SessionSnapshotError::Analysis`] for a poisoned session,
    /// [`SessionSnapshotError::Codec`] for encode/filesystem failures.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<(), SessionSnapshotError> {
        self.snapshot()?.write_to(path).map_err(Into::into)
    }

    /// Rebuilds a live session from a snapshot (borrowing the
    /// snapshot's circuit). The expensive inputs (`P_ij`, characterized
    /// cells) come straight from the image; timing, widths and
    /// unreliability are re-derived by the same full pass a fresh
    /// session runs, so this is a cold-start shortcut, not a
    /// re-estimation. The rebuilt critical delay and total
    /// unreliability must match the captured ones **bitwise**.
    ///
    /// # Errors
    ///
    /// * [`SessionSnapshotError::Analysis`] when the persisted inputs
    ///   fail construction-time validation;
    /// * [`SessionSnapshotError::StateMismatch`] when the rebuilt
    ///   analysis disagrees with the persisted check values (an
    ///   internally inconsistent image) — the snapshot is not trusted
    ///   and no session is returned.
    pub fn restore_from(snap: &'c SessionSnapshot) -> Result<Self, SessionSnapshotError> {
        Self::restore_against(snap.circuit(), snap)
    }

    /// [`AnalysisSession::restore_from`] against a caller-owned circuit
    /// (the session borrows `circuit` instead of the snapshot, so the
    /// snapshot can be dropped) — the form a long-lived session pool
    /// uses, keying interned circuits separately from their images.
    ///
    /// # Errors
    ///
    /// As [`AnalysisSession::restore_from`], plus
    /// [`SessionSnapshotError::StateMismatch`] when `circuit` differs
    /// from the snapshot's captured circuit.
    pub fn restore_against(
        circuit: &'c Circuit,
        snap: &SessionSnapshot,
    ) -> Result<Self, SessionSnapshotError> {
        if *circuit != snap.circuit {
            return Err(SessionSnapshotError::StateMismatch { what: "circuit" });
        }
        let session = Self::construct(
            circuit,
            snap.cells.clone(),
            snap.library.clone(),
            snap.cfg.clone(),
            snap.pij.clone(),
            1,
        )?;
        let mismatch = |what| SessionSnapshotError::StateMismatch { what };
        if session.critical_delay.to_bits() != snap.critical_delay.to_bits() {
            return Err(mismatch("critical delay"));
        }
        if session.unreliability.to_bits() != snap.unreliability.to_bits() {
            return Err(mismatch("total unreliability"));
        }
        Ok(session)
    }

    /// Applies per-gate deltas (`(gate, new cell parameters)` pairs) and
    /// incrementally re-derives the analysis. No-op deltas (parameters
    /// equal to the current assignment) are skipped outright.
    ///
    /// # Panics
    ///
    /// Panics on any [`AnalysisError`] (e.g. a delta targeting a primary
    /// input); [`AnalysisSession::try_apply`] is the fallible form.
    pub fn apply(&mut self, deltas: &[(NodeId, GateParams)]) -> ApplyStats {
        match self.try_apply(deltas) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnalysisSession::apply`]. Deltas are validated before
    /// any mutation, so on every rejection the session is bitwise
    /// identical to its pre-call state.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Poisoned`] if the session is already poisoned,
    ///   or if a numerical guard trips mid-recompute (the session then
    ///   poisons itself — see the [module docs](self));
    /// * [`AnalysisError::InvalidGateParams`] for a delta targeting a
    ///   primary input or carrying non-finite parameters (session
    ///   unchanged).
    pub fn try_apply(
        &mut self,
        deltas: &[(NodeId, GateParams)],
    ) -> Result<ApplyStats, AnalysisError> {
        self.ensure_clean()?;
        self.check_entry()?;
        for &(id, ref p) in deltas {
            self.validate_delta(id, p)?;
        }
        let mut changed: Vec<u32> = Vec::with_capacity(deltas.len());
        for &(id, p) in deltas {
            if self.cells.get(id) != Some(&p) {
                self.cells.set(id, p);
                changed.push(id.index() as u32);
            }
        }
        changed.sort_unstable();
        changed.dedup();
        self.update_after(changed)
    }

    /// Moves the session to a full target assignment, diffing it against
    /// the current one — the natural entry point for optimizer loops
    /// whose matcher produces whole candidate assignments.
    ///
    /// # Panics
    ///
    /// Panics on any [`AnalysisError`];
    /// [`AnalysisSession::try_set_cells`] is the fallible form.
    pub fn set_cells(&mut self, target: &CircuitCells) -> ApplyStats {
        match self.try_set_cells(target) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnalysisSession::set_cells`]. The whole target is
    /// validated before any mutation.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Poisoned`] if the session is already poisoned,
    ///   or if a numerical guard trips mid-recompute;
    /// * [`AnalysisError::MissingCellParams`] when the target misses a
    ///   gate (session unchanged);
    /// * [`AnalysisError::InvalidGateParams`] for non-finite target
    ///   parameters (session unchanged).
    pub fn try_set_cells(&mut self, target: &CircuitCells) -> Result<ApplyStats, AnalysisError> {
        self.ensure_clean()?;
        self.check_entry()?;
        for id in self.circuit.gates() {
            let node = id.index() as u32;
            let p = target
                .get(id)
                .ok_or(AnalysisError::MissingCellParams { node })?;
            validate_gate_params(node, p)?;
        }
        let mut changed: Vec<u32> = Vec::new();
        for id in self.circuit.gates() {
            let Some(&p) = target.get(id) else {
                continue; // unreachable: validated above
            };
            if self.cells.get(id) != Some(&p) {
                self.cells.set(id, p);
                changed.push(id.index() as u32);
            }
        }
        self.update_after(changed)
    }

    /// Selectively re-estimates the `P_ij` rows of `nodes` with
    /// `n_vectors` random vectors at `seed` (re-simulating only those
    /// fan-out cones), then incrementally re-derives everything
    /// downstream of the changed rows. With the session's own
    /// `(sensitization_vectors, seed)` this is a bitwise no-op; with more
    /// vectors it sharpens the estimate for the listed nodes (e.g. the
    /// current soft spots) at a fraction of a full re-estimate.
    ///
    /// Note the matrix then mixes sample sizes across rows;
    /// [`SensitizationMatrix::vectors_used`] keeps reporting the
    /// session-wide default.
    ///
    /// # Panics
    ///
    /// Panics on any [`AnalysisError`];
    /// [`AnalysisSession::try_resample_pij_rows`] is the fallible form.
    pub fn resample_pij_rows(
        &mut self,
        nodes: &[NodeId],
        n_vectors: usize,
        seed: u64,
    ) -> ApplyStats {
        match self.try_resample_pij_rows(nodes, n_vectors, seed) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnalysisSession::resample_pij_rows`].
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Poisoned`] if the session is already poisoned,
    ///   or if a width-row guard trips mid-recompute;
    /// * [`AnalysisError::InvalidConfig`] for `n_vectors == 0` (session
    ///   unchanged).
    pub fn try_resample_pij_rows(
        &mut self,
        nodes: &[NodeId],
        n_vectors: usize,
        seed: u64,
    ) -> Result<ApplyStats, AnalysisError> {
        self.ensure_clean()?;
        self.check_entry()?;
        let mut stats = ApplyStats::default();
        if nodes.is_empty() {
            return Ok(stats);
        }
        if n_vectors == 0 {
            return Err(AnalysisError::InvalidConfig {
                reason: "resampling needs at least one vector",
            });
        }
        ser_netlist::failpoint!(
            "aserta::resample_rows",
            return Err(AnalysisError::FaultInjected("aserta::resample_rows"))
        );
        // Resampling must reuse the session's estimator tolerance: rows
        // refilled under a different one would silently mix accuracy
        // settings in one matrix.
        let update = resimulate_rows_cfg(
            self.circuit,
            nodes,
            n_vectors,
            seed,
            self.engine.threads(),
            self.engine.cone_chunk(),
            &self.engine.pij(),
        );
        self.pij.apply_update(&update);
        // π weights read P rows of both a node and its successors; a full
        // rebuild is simplest and exact (refinement is a rare, heavy op).
        self.weights = WeightCache::build(self.circuit, &self.static_probs, &self.pij);
        self.budget_checkpoint("session::widths")?;

        // Width rows of the changed nodes and all their strict ancestors
        // are invalid; re-derive in reverse topological order.
        let seeds: Vec<u32> = nodes.iter().map(|id| id.index() as u32).collect();
        let scratch = &mut self.scratch;
        strict_ancestors(&self.csr, &seeds, &mut scratch.row_cand);
        for &s in &seeds {
            scratch.row_cand.insert(s);
        }
        scratch.row_changed.clear();
        scratch.u_dirty.clear();
        let topo = self.circuit.topological_order();
        for &id in topo.iter().rev() {
            let i = id.index();
            if !scratch.row_cand.contains(i as u32) {
                continue;
            }
            stats.rows_recomputed += 1;
            let kernel = RowKernel {
                weights: &self.weights,
                brackets: &self.brackets,
                grid: &self.grid,
            };
            let changed = kernel.recompute_row(i, &mut self.widths, &mut scratch.row_buf);
            if scratch
                .row_buf
                .iter()
                .any(|&v| !(v.is_finite() && v >= 0.0))
            {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "width-row",
                    node: Some(i as u32),
                }));
            }
            if changed {
                scratch.row_changed.insert(i as u32);
                scratch.u_dirty.insert(i as u32);
            }
        }
        stats.rows_changed = scratch.row_changed.len();
        self.refresh_unreliability();
        if !self.unreliability.is_finite() {
            return Err(self.poison_now(PoisonReason::NumericalFault {
                stage: "unreliability",
                node: None,
            }));
        }
        Ok(stats)
    }

    /// Moves the session to a new injected strike charge (the corner
    /// sweeps' flux/charge-spectrum axis). Charge feeds only the
    /// generated glitch widths (the strike tables' operating point), so
    /// timing, `P_ij` and the expected-width tables all survive — only
    /// the per-gate widths and `U_i` terms of gates whose width actually
    /// moved are re-derived. A no-op when `charge` equals the session's
    /// current setting.
    ///
    /// The resulting state is bitwise identical to a fresh
    /// [`analyze`](crate::analyze) at the new charge
    /// ([`ApplyStats::gates_changed`] counts the gates whose generated
    /// width moved).
    ///
    /// # Panics
    ///
    /// Panics on any [`AnalysisError`];
    /// [`AnalysisSession::try_set_charge`] is the fallible form.
    pub fn set_charge(&mut self, charge: f64) -> ApplyStats {
        match self.try_set_charge(charge) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`AnalysisSession::set_charge`].
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Poisoned`] if the session is already poisoned,
    ///   or if a generated-width guard trips mid-recompute;
    /// * [`AnalysisError::NonFiniteInput`] for a non-finite or
    ///   non-positive charge (session unchanged).
    pub fn try_set_charge(&mut self, charge: f64) -> Result<ApplyStats, AnalysisError> {
        self.ensure_clean()?;
        self.check_entry()?;
        if !(charge.is_finite() && charge > 0.0) {
            return Err(AnalysisError::NonFiniteInput {
                what: "injected charge",
                value: charge,
            });
        }
        let mut stats = ApplyStats::default();
        if charge == self.cfg.charge {
            return Ok(stats);
        }
        ser_netlist::failpoint!(
            "aserta::set_charge",
            return Err(AnalysisError::FaultInjected("aserta::set_charge"))
        );
        self.cfg.charge = charge;
        self.budget_checkpoint("session::generated-widths")?;
        self.scratch.u_dirty.clear();
        for id in self.circuit.gates() {
            let i = id.index();
            let Some(p) = self.cells.get(id) else {
                panic!("invariant: gates carry parameters")
            };
            let cell = self.library.get_or_characterize(p);
            let w = cell.glitch_width_at(self.timing.loads[i], charge);
            if !(w.is_finite() && w >= 0.0) {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "generated-width",
                    node: Some(i as u32),
                }));
            }
            if w != self.generated[i] {
                self.generated[i] = w;
                self.scratch.u_dirty.insert(i as u32);
                stats.gates_changed += 1;
            }
        }
        self.refresh_unreliability();
        if !self.unreliability.is_finite() {
            return Err(self.poison_now(PoisonReason::NumericalFault {
                stage: "unreliability",
                node: None,
            }));
        }
        Ok(stats)
    }

    /// The shared tail of every delta application: `self.cells` already
    /// holds the new assignment; `changed` lists the gates that differ.
    /// Numerical guards poison the session on the first non-finite (or
    /// negative-where-impossible) intermediate — the caches are partially
    /// updated at that point, so only a full rebuild can restore the
    /// fidelity contract.
    fn update_after(&mut self, changed: Vec<u32>) -> Result<ApplyStats, AnalysisError> {
        let mut stats = ApplyStats {
            gates_changed: changed.len(),
            ..ApplyStats::default()
        };
        if changed.is_empty() {
            return Ok(stats);
        }
        ser_netlist::failpoint!(
            "aserta::session_recompute",
            return Err(self.poison_now(PoisonReason::Injected("aserta::session_recompute")))
        );
        let scratch = &mut self.scratch;

        // --- Loads: only fan-ins of changed gates can see a new input
        // capacitance. Recompute with the batch pass's exact arithmetic
        // and keep the bitwise-changed ones.
        scratch.load_cand.clear();
        scratch.load_changed.clear();
        for &g in &changed {
            for &f in self.csr.fanin_of(g as usize) {
                scratch.load_cand.insert(f);
            }
        }
        let loads_model = LoadModel {
            wire_cap_per_pin: self.cfg.wire_cap_per_pin,
            po_load: self.cfg.po_load,
        };
        for idx in 0..scratch.load_cand.members().len() {
            let i = scratch.load_cand.members()[idx] as usize;
            let id = NodeId::new(i);
            let cells = &self.cells;
            let library = &mut self.library;
            let c = crate::binding::node_load(self.circuit, id, loads_model, |s| {
                cells
                    .get(s)
                    .map(|p| library.get_or_characterize(p).input_cap)
            });
            if !(c.is_finite() && c >= 0.0) {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "load",
                    node: Some(i as u32),
                }));
            }
            if c != self.timing.loads[i] {
                self.timing.loads[i] = c;
                scratch.load_changed.insert(i as u32);
            }
        }

        // --- Delays and ramps: forward sweep over the fan-out closure of
        // everything that changed, stopping where recomputed values are
        // bitwise identical.
        self.budget_checkpoint("session::timing")?;
        let scratch = &mut self.scratch;
        scratch.timing_affected.clear();
        scratch.delay_changed.clear();
        for &g in &changed {
            scratch.timing_affected.insert(g);
        }
        for &i in scratch.load_changed.members() {
            scratch.timing_affected.insert(i);
        }
        close_over_fanout(&self.csr, &mut scratch.timing_affected);
        for &id in self.circuit.topological_order() {
            let i = id.index();
            if !scratch.timing_affected.contains(i as u32) {
                continue;
            }
            let node = self.circuit.node(id);
            if node.is_input() {
                continue;
            }
            let ramp_in = crate::binding::gate_input_ramp(node, &self.timing.out_ramps);
            let params_changed = changed.binary_search(&(i as u32)).is_ok();
            if !params_changed
                && !scratch.load_changed.contains(i as u32)
                && ramp_in == self.timing.in_ramps[i]
            {
                continue;
            }
            let Some(p) = self.cells.get(id) else {
                panic!("invariant: gates carry parameters")
            };
            let cell = self.library.get_or_characterize(p);
            let d = cell.delay_at(self.timing.loads[i], ramp_in);
            let or = cell.out_ramp_at(self.timing.loads[i], ramp_in);
            if !(d.is_finite() && d >= 0.0 && or.is_finite() && or >= 0.0) {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "timing",
                    node: Some(i as u32),
                }));
            }
            self.timing.in_ramps[i] = ramp_in;
            if d != self.timing.delays[i] {
                self.timing.delays[i] = d;
                scratch.delay_changed.insert(i as u32);
            }
            if or != self.timing.out_ramps[i] {
                self.timing.out_ramps[i] = or;
            }
        }
        stats.loads_changed = scratch.load_changed.len();
        stats.delays_changed = scratch.delay_changed.len();

        // --- Generated widths + the per-gate energy dirty set: cell or
        // load changes move the strike tables' operating point.
        self.budget_checkpoint("session::generated-widths")?;
        let scratch = &mut self.scratch;
        scratch.u_dirty.clear();
        for &g in &changed {
            stats.energy_dirty.push(g);
        }
        for &i in scratch.load_changed.members() {
            if changed.binary_search(&i).is_err()
                && self.cells.get(NodeId::new(i as usize)).is_some()
            {
                stats.energy_dirty.push(i);
            }
        }
        for idx in 0..stats.energy_dirty.len() {
            let i = stats.energy_dirty[idx];
            let id = NodeId::new(i as usize);
            let Some(p) = self.cells.get(id) else {
                panic!("invariant: energy-dirty nodes are gates")
            };
            let cell = self.library.get_or_characterize(p);
            let w = cell.glitch_width_at(self.timing.loads[i as usize], self.cfg.charge);
            if !(w.is_finite() && w >= 0.0) {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "generated-width",
                    node: Some(i),
                }));
            }
            if w != self.generated[i as usize] {
                self.generated[i as usize] = w;
            }
            // Size or width may have moved U_i even if no row changes.
            scratch.u_dirty.insert(i);
        }

        // --- Expected-width rows: brackets of delay-changed nodes, then
        // the strict-ancestor closure in reverse topological order.
        self.budget_checkpoint("session::widths")?;
        let scratch = &mut self.scratch;
        for &i in scratch.delay_changed.members() {
            self.brackets.refresh_node(
                i as usize,
                &self.grid,
                self.timing.delays[i as usize],
                AttenuationModel::PaperEq1,
            );
        }
        strict_ancestors(
            &self.csr,
            scratch.delay_changed.members(),
            &mut scratch.row_cand,
        );
        scratch.row_changed.clear();
        let topo = self.circuit.topological_order();
        for &id in topo.iter().rev() {
            let i = id.index();
            if !scratch.row_cand.contains(i as u32) {
                continue;
            }
            // A candidate only needs recomputing if some successor's
            // delay or row actually changed.
            let hit = self
                .csr
                .fanout_of(i)
                .iter()
                .any(|&s| scratch.delay_changed.contains(s) || scratch.row_changed.contains(s));
            if !hit {
                continue;
            }
            stats.rows_recomputed += 1;
            let kernel = RowKernel {
                weights: &self.weights,
                brackets: &self.brackets,
                grid: &self.grid,
            };
            let row_moved = kernel.recompute_row(i, &mut self.widths, &mut scratch.row_buf);
            if scratch
                .row_buf
                .iter()
                .any(|&v| !(v.is_finite() && v >= 0.0))
            {
                return Err(self.poison_now(PoisonReason::NumericalFault {
                    stage: "width-row",
                    node: Some(i as u32),
                }));
            }
            if row_moved {
                scratch.row_changed.insert(i as u32);
                scratch.u_dirty.insert(i as u32);
            }
        }
        stats.rows_changed = scratch.row_changed.len();

        // --- Unreliability: refresh dirty U_i, then resum in the batch
        // pass's exact order. Critical delay is one cheap arrival pass.
        self.budget_checkpoint("session::unreliability")?;
        self.refresh_unreliability();
        if !self.unreliability.is_finite() {
            return Err(self.poison_now(PoisonReason::NumericalFault {
                stage: "unreliability",
                node: None,
            }));
        }
        self.refresh_critical_delay();
        if !self.critical_delay.is_finite() {
            return Err(self.poison_now(PoisonReason::NumericalFault {
                stage: "critical-delay",
                node: None,
            }));
        }
        Ok(stats)
    }

    /// Rebuilds the session from scratch over its current cell
    /// assignment, clearing any poison — the full-dirty recovery path
    /// (cold construction with the session's own `P_ij`, so no
    /// re-estimation).
    ///
    /// Recovery is memory-lean: the derived caches are shed *before*
    /// the rebuild, so peak memory stays near one session's footprint
    /// (plus the retained `P_ij`) instead of two — a 10k-gate recovery
    /// fits the same address-space ceiling cold construction does.
    ///
    /// # Errors
    ///
    /// Any [`AnalysisError`] from the fresh construction — notably
    /// [`AnalysisError::BadCell`] when the current assignment still maps
    /// to an invalid library cell; recover onto a known-good assignment
    /// with [`AnalysisSession::recover_with`] in that case. Because the
    /// caches were already shed, a failed rebuild leaves the session
    /// poisoned ([`PoisonReason::RecoveryFailed`] if it was clean); its
    /// circuit, cells, config and `P_ij` are intact, so a later recovery
    /// onto a valid assignment still succeeds (re-characterizing library
    /// cells lazily).
    pub fn recover(&mut self) -> Result<(), AnalysisError> {
        self.recover_with(self.cells.clone())
    }

    /// [`AnalysisSession::recover`] onto a caller-chosen cell assignment.
    ///
    /// # Errors
    ///
    /// See [`AnalysisSession::recover`].
    pub fn recover_with(&mut self, cells: CircuitCells) -> Result<(), AnalysisError> {
        ser_netlist::failpoint!(
            "aserta::full_rebuild",
            return Err(AnalysisError::FaultInjected("aserta::full_rebuild"))
        );
        // Shed the derived caches and hand the library over before
        // rebuilding: everything dropped here is exactly what the
        // rebuild re-derives, and releasing it first keeps recovery
        // inside the memory ceiling a single cold construction needs.
        self.weights.shed();
        self.widths.shed();
        self.brackets.shed();
        self.timing = TimingView {
            loads: Vec::new(),
            in_ramps: Vec::new(),
            delays: Vec::new(),
            out_ramps: Vec::new(),
        };
        self.scratch = Scratch::new(0);
        self.static_probs = Vec::new();
        self.generated = Vec::new();
        self.per_gate_u = Vec::new();
        self.grid = Vec::new();
        let empty = Library::new(self.library.tech().clone(), self.library.grids().clone());
        let library = std::mem::replace(&mut self.library, empty);

        match Self::construct(
            self.circuit,
            cells,
            library,
            self.cfg.clone(),
            self.pij.clone(),
            self.engine.threads(),
        ) {
            Ok(mut fresh) => {
                fresh.engine = self.engine;
                *self = fresh;
                Ok(())
            }
            Err(e) => {
                // The caches are gone; only another recovery can help.
                self.poison.get_or_insert(PoisonReason::RecoveryFailed);
                Err(e)
            }
        }
    }

    /// Refuses the call when the session is poisoned.
    fn ensure_clean(&self) -> Result<(), AnalysisError> {
        match &self.poison {
            Some(reason) => Err(AnalysisError::Poisoned(reason.clone())),
            None => Ok(()),
        }
    }

    /// Pre-mutation budget check at a mutating entry point: an exhausted
    /// [`Deadline`] is a clean rejection, session bitwise intact.
    fn check_entry(&self) -> Result<(), AnalysisError> {
        self.deadline
            .check("session::entry")
            .map_err(AnalysisError::Interrupted)
    }

    /// Budget checkpoint at a stage boundary *inside* a recompute: the
    /// caches are partially updated here, so exhaustion poisons (exactly
    /// like a numerical fault — recover with a full-dirty rebuild).
    fn budget_checkpoint(&mut self, stage: &'static str) -> Result<(), AnalysisError> {
        match self.deadline.check(stage) {
            Ok(()) => Ok(()),
            Err(i) => Err(self.poison_now(PoisonReason::Interrupted(i))),
        }
    }

    /// Records `reason` as the session's poison and returns the matching
    /// error — the single exit used by every mid-recompute guard.
    fn poison_now(&mut self, reason: PoisonReason) -> AnalysisError {
        self.poison = Some(reason.clone());
        AnalysisError::Poisoned(reason)
    }

    /// Pre-mutation validation of one delta: the target must be a gate
    /// and the parameters finite.
    fn validate_delta(&self, id: NodeId, p: &GateParams) -> Result<(), AnalysisError> {
        let node = id.index() as u32;
        if self.circuit.node(id).is_input() {
            return Err(AnalysisError::InvalidGateParams {
                node,
                reason: "primary inputs carry no cell parameters",
            });
        }
        validate_gate_params(node, p)
    }

    /// Recomputes `U_i` for the gates in `scratch.u_dirty` and resums the
    /// total in [`analyze`](crate::analyze)'s exact iteration order.
    fn refresh_unreliability(&mut self) {
        for &i in self.scratch.u_dirty.members() {
            let id = NodeId::new(i as usize);
            let Some(p) = self.cells.get(id) else {
                continue;
            };
            self.per_gate_u[i as usize] = p.size
                * self
                    .widths
                    .total_expected_width(id, self.generated[i as usize]);
        }
        self.resum_unreliability();
    }

    fn resum_unreliability(&mut self) {
        let mut total = 0.0;
        for id in self.circuit.gates() {
            total += self.per_gate_u[id.index()];
        }
        self.unreliability = total;
    }

    fn refresh_critical_delay(&mut self) {
        // Mirrors `TimingView::critical_path_delay` over reusable
        // scratch (same fold order, hence bitwise identical).
        let arrival = &mut self.scratch.arrival;
        let mut worst = 0.0f64;
        for &id in self.circuit.topological_order() {
            let node = self.circuit.node(id);
            let arr_in = node
                .fanin
                .iter()
                .map(|f| arrival[f.index()])
                .fold(0.0, f64::max);
            arrival[id.index()] = arr_in + self.timing.delays[id.index()];
            if self.circuit.is_primary_output(id) {
                worst = worst.max(arrival[id.index()]);
            }
        }
        self.critical_delay = worst;
    }
}

/// Rejects configuration scalars the analysis kernels cannot digest.
pub(crate) fn validate_config(cfg: &AsertaConfig) -> Result<(), AnalysisError> {
    let bad = |reason: &'static str| AnalysisError::InvalidConfig { reason };
    if !(cfg.charge.is_finite() && cfg.charge > 0.0) {
        return Err(bad("charge must be finite and positive"));
    }
    if cfg.sensitization_vectors == 0 {
        return Err(bad("sensitization_vectors must be at least 1"));
    }
    if cfg.sample_widths < 2 {
        return Err(bad("sample_widths must be at least 2"));
    }
    if !(cfg.wide_width.is_finite() && cfg.wide_width > 0.0) {
        return Err(bad("wide_width must be finite and positive"));
    }
    if !(cfg.pi_probability.is_finite() && (0.0..=1.0).contains(&cfg.pi_probability)) {
        return Err(bad("pi_probability must lie in [0, 1]"));
    }
    if !(cfg.pi_ramp.is_finite() && cfg.pi_ramp > 0.0) {
        return Err(bad("pi_ramp must be finite and positive"));
    }
    if !(cfg.wire_cap_per_pin.is_finite() && cfg.wire_cap_per_pin >= 0.0) {
        return Err(bad("wire_cap_per_pin must be finite and non-negative"));
    }
    if !(cfg.po_load.is_finite() && cfg.po_load >= 0.0) {
        return Err(bad("po_load must be finite and non-negative"));
    }
    Ok(())
}

/// The distinct variants `cells` assigns to `circuit`'s gates that
/// `library` lacks, in first-occurrence order, up to the first gate with
/// missing or invalid parameters (construction then reports that gate).
fn missing_variants(circuit: &Circuit, cells: &CircuitCells, library: &Library) -> Vec<GateParams> {
    let mut seen = HashSet::new();
    let mut missing = Vec::new();
    for id in circuit.gates() {
        let Some(p) = cells.get(id) else { break };
        if validate_gate_params(id.index() as u32, p).is_err() {
            break;
        }
        let bits = (
            p.kind,
            p.fanin,
            [p.size, p.l_nm, p.vdd, p.vth].map(f64::to_bits),
        );
        if library.cell_exact(p).is_none() && seen.insert(bits) {
            missing.push(*p);
        }
    }
    missing
}

/// Rejects per-gate parameters whose table lookups would produce NaN.
fn validate_gate_params(node: u32, p: &GateParams) -> Result<(), AnalysisError> {
    let reason = if !(p.size.is_finite() && p.size > 0.0) {
        "size must be finite and positive"
    } else if !(p.l_nm.is_finite() && p.l_nm > 0.0) {
        "channel length must be finite and positive"
    } else if !(p.vdd.is_finite() && p.vdd > 0.0) {
        "vdd must be finite and positive"
    } else if !p.vth.is_finite() {
        "vth must be finite"
    } else {
        return Ok(());
    };
    Err(AnalysisError::InvalidGateParams { node, reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn lib() -> Library {
        Library::new(Technology::ptm70(), CharGrids::coarse())
    }

    fn cfg() -> AsertaConfig {
        let mut c = AsertaConfig::fast();
        c.sensitization_vectors = 512;
        c
    }

    /// The fresh-path oracle: a full `analyze` of the session's current
    /// assignment, compared bitwise.
    fn assert_matches_fresh(session: &AnalysisSession<'_>) {
        let mut l = lib();
        let fresh = analyze(
            session.circuit(),
            session.cells(),
            &mut l,
            session.pij(),
            session.config(),
        );
        assert_eq!(session.timing().loads, fresh.timing.loads, "loads");
        assert_eq!(session.timing().in_ramps, fresh.timing.in_ramps, "ramps");
        assert_eq!(session.timing().delays, fresh.timing.delays, "delays");
        assert_eq!(session.timing().out_ramps, fresh.timing.out_ramps);
        assert_eq!(session.generated_widths(), &fresh.generated_widths[..]);
        assert_eq!(
            session.expected_widths().ws(),
            fresh.expected_widths.ws(),
            "width tables"
        );
        assert_eq!(
            session.per_gate_unreliability(),
            &fresh.per_gate_unreliability[..]
        );
        assert_eq!(session.unreliability(), fresh.unreliability, "total U");
        assert_eq!(
            session.critical_delay(),
            fresh.timing.critical_path_delay(session.circuit()),
            "critical delay"
        );
    }

    #[test]
    fn fresh_session_matches_analyze() {
        let c = generate::c17();
        let session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        assert_matches_fresh(&session);
    }

    #[test]
    fn single_delta_matches_fresh_bitwise() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let g = c.find("10").unwrap();
        let mut p = *session.cells().get(g).unwrap();
        p.size = 4.0;
        let stats = session.apply(&[(g, p)]);
        assert_eq!(stats.gates_changed, 1);
        assert_matches_fresh(&session);
    }

    #[test]
    fn delta_sequence_matches_fresh_on_sec32() {
        let c = generate::sec32("s");
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let gates: Vec<NodeId> = c.gates().collect();
        for step in 0..6 {
            let g = gates[(step * 37) % gates.len()];
            let mut p = *session.cells().get(g).unwrap();
            p.size = [2.0, 4.0, 1.0][step % 3];
            p.vth = [0.2, 0.3][step % 2];
            session.apply(&[(g, p)]);
        }
        assert_matches_fresh(&session);
    }

    #[test]
    fn noop_delta_touches_nothing() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let g = c.find("10").unwrap();
        let p = *session.cells().get(g).unwrap();
        let stats = session.apply(&[(g, p)]);
        assert_eq!(stats.gates_changed, 0);
        assert_eq!(stats.rows_recomputed, 0);
        assert!(stats.energy_dirty.is_empty());
    }

    #[test]
    fn set_cells_diffs_against_current() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let mut target = session.cells().clone();
        for &po in c.primary_outputs() {
            let mut p = *target.get(po).unwrap();
            p.size = 6.0;
            target.set(po, p);
        }
        let stats = session.set_cells(&target);
        assert_eq!(stats.gates_changed, 2);
        assert_matches_fresh(&session);
        // Returning to the original assignment restores the exact state.
        let nominal = CircuitCells::nominal(&c);
        session.set_cells(&nominal);
        assert_matches_fresh(&session);
    }

    #[test]
    fn resample_with_session_settings_is_a_noop() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let before_u = session.unreliability();
        let before_row = session.pij().row(c.find("10").unwrap()).to_vec();
        let stats = session.resample_pij_rows(
            &[c.find("10").unwrap()],
            cfg().sensitization_vectors,
            cfg().seed,
        );
        assert_eq!(stats.rows_changed, 0, "same vectors+seed must be a no-op");
        assert_eq!(session.unreliability(), before_u);
        assert_eq!(session.pij().row(c.find("10").unwrap()), &before_row[..]);
        assert_matches_fresh(&session);
    }

    #[test]
    fn resample_with_more_vectors_matches_a_patched_fresh_analysis() {
        let c = generate::sec32("s");
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let targets: Vec<NodeId> = c.gates().take(4).collect();
        session.resample_pij_rows(&targets, 2048, 99);

        // Oracle: fresh analysis over the hand-patched matrix.
        let engine = session.engine();
        let mut pij = estimate_pij(&c, &cfg(), engine);
        let up = ser_logicsim::sensitize::resimulate_rows_cfg(
            &c,
            &targets,
            2048,
            99,
            engine.threads(),
            engine.cone_chunk(),
            &engine.pij(),
        );
        pij.apply_update(&up);
        let mut l = lib();
        let fresh = analyze(&c, session.cells(), &mut l, &pij, session.config());
        assert_eq!(session.expected_widths().ws(), fresh.expected_widths.ws());
        assert_eq!(session.unreliability(), fresh.unreliability);
    }

    #[test]
    fn set_charge_matches_fresh_at_the_new_charge() {
        let c = generate::sec32("s");
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let stats = session.set_charge(32.0e-15);
        assert!(
            stats.gates_changed > 0,
            "a doubled charge must widen glitches"
        );
        // The oracle reads the session's own config, which now carries
        // the new charge — so this compares against a fresh analysis at
        // 32 fC.
        assert_matches_fresh(&session);
        // Same charge again: a strict no-op.
        let again = session.set_charge(32.0e-15);
        assert_eq!(again.gates_changed, 0);
        // And charge composes with cell deltas.
        let g = c.gates().next().unwrap();
        let mut p = *session.cells().get(g).unwrap();
        p.size = 4.0;
        session.apply(&[(g, p)]);
        assert_matches_fresh(&session);
    }

    #[test]
    fn sessions_clone_for_parallel_replicas() {
        let c = generate::c17();
        let session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let mut clone = session.clone();
        let g = c.find("11").unwrap();
        let mut p = *clone.cells().get(g).unwrap();
        p.size = 2.0;
        clone.apply(&[(g, p)]);
        assert_ne!(clone.unreliability(), session.unreliability());
        assert_matches_fresh(&clone);
        assert_matches_fresh(&session);
    }

    #[test]
    fn construction_rejects_bad_config_and_bad_params() {
        let c = generate::c17();
        let mut bad = cfg();
        bad.charge = f64::NAN;
        let err = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), bad).build();
        assert!(matches!(err, Err(AnalysisError::InvalidConfig { .. })));

        let mut cells = CircuitCells::nominal(&c);
        let g = c.find("10").unwrap();
        let mut p = *cells.get(g).unwrap();
        p.vdd = f64::NAN;
        cells.set(g, p);
        let err = AnalysisSession::builder(&c, cells, lib(), cfg()).build();
        assert!(matches!(err, Err(AnalysisError::InvalidGateParams { .. })));
    }

    #[test]
    fn delta_rejections_leave_the_session_bitwise_intact() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let u_before = session.unreliability();
        let timing_before = session.timing().clone();

        // A primary-input target is a typed error, not a panic.
        let pi = c.primary_inputs()[0];
        let err = session
            .try_apply(&[(pi, GateParams::new(ser_netlist::GateKind::Nand, 2))])
            .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::InvalidGateParams { reason, .. }
                if reason.contains("primary inputs")
        ));

        // Non-finite parameters are rejected before any mutation.
        let g = c.find("10").unwrap();
        let mut p = *session.cells().get(g).unwrap();
        p.size = f64::NAN;
        assert!(matches!(
            session.try_apply(&[(g, p)]),
            Err(AnalysisError::InvalidGateParams { .. })
        ));
        let mut q = *session.cells().get(g).unwrap();
        q.vdd = f64::INFINITY;
        assert!(matches!(
            session.try_set_charge(f64::NAN),
            Err(AnalysisError::NonFiniteInput { .. })
        ));
        assert!(matches!(
            session.try_apply(&[(g, q)]),
            Err(AnalysisError::InvalidGateParams { .. })
        ));

        assert!(!session.is_poisoned());
        assert_eq!(session.unreliability(), u_before);
        assert_eq!(session.timing().delays, timing_before.delays);
        assert_eq!(session.timing().loads, timing_before.loads);
        // And the session still works.
        let mut ok = *session.cells().get(g).unwrap();
        ok.size = 4.0;
        session.apply(&[(g, ok)]);
        assert_matches_fresh(&session);
    }

    #[test]
    fn nan_lut_poisons_then_recover_with_restores() {
        use ser_cells::lut::{Axis, Lut2};

        let c = generate::c17();
        let g = c.find("10").unwrap();
        let mut p = *CircuitCells::nominal(&c).get(g).unwrap();
        p.size = 4.0;

        // Pre-insert a NaN-filled variant under the delta's exact key, so
        // the incremental recompute interpolates NaN out of the delay
        // table and the timing guard trips mid-update.
        let nan_lut = || {
            Lut2::from_raw_unchecked(
                Axis::new(vec![1e-15, 4e-15]).unwrap(),
                Axis::new(vec![1e-12, 40e-12]).unwrap(),
                vec![f64::NAN; 4],
            )
            .unwrap()
        };
        let bad_cell = CharacterizedCell {
            params: p,
            input_cap: 0.3e-15,
            delay: nan_lut(),
            out_ramp: nan_lut(),
            glitch: nan_lut(),
            leak_power: 1e-9,
            c_self_total: 0.5e-15,
            area: 2.0,
        };
        let mut l = lib();
        l.insert(bad_cell);

        // Construction validates only the *current* assignment (nominal),
        // which doesn't touch the bad key — so it succeeds.
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), l, cfg())
            .build()
            .unwrap();
        assert!(!session.is_poisoned());

        let err = session.try_apply(&[(g, p)]).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::Poisoned(PoisonReason::NumericalFault { .. })
        ));
        assert!(session.is_poisoned());

        // Every further mutation is refused with the recorded reason.
        assert!(matches!(
            session.try_set_charge(32e-15),
            Err(AnalysisError::Poisoned(_))
        ));
        assert!(matches!(
            session.try_apply(&[]),
            Err(AnalysisError::Poisoned(_))
        ));
        // Reads still work, but a poisoned session refuses to image
        // its partially updated caches.
        let _ = session.unreliability();
        assert!(matches!(
            session.snapshot(),
            Err(AnalysisError::Poisoned(_))
        ));

        // recover() keeps the bad assignment, whose cell fails
        // construction-time validation.
        assert!(matches!(
            session.recover(),
            Err(AnalysisError::BadCell { .. })
        ));
        assert!(session.is_poisoned(), "failed recovery keeps the poison");

        // recover_with a clean assignment restores bitwise-fresh state.
        session.recover_with(CircuitCells::nominal(&c)).unwrap();
        assert!(!session.is_poisoned());
        assert_matches_fresh(&session);
        // And the session accepts mutations again.
        let mut ok = *session.cells().get(g).unwrap();
        ok.vth = 0.3;
        session.apply(&[(g, ok)]);
        assert_matches_fresh(&session);
    }

    #[test]
    fn failed_recovery_on_a_clean_session_sets_recovery_failed_poison() {
        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        assert!(!session.is_poisoned());

        // A rebuild target that fails construction-time validation: the
        // caches are already shed at that point, so the clean session
        // must come out explicitly poisoned, not silently hollow.
        let g = c.find("10").unwrap();
        let mut bad = CircuitCells::nominal(&c);
        let mut p = *bad.get(g).unwrap();
        p.size = f64::NAN;
        bad.set(g, p);
        session.recover_with(bad).unwrap_err();
        assert!(session.is_poisoned());
        assert_eq!(session.poison(), Some(&PoisonReason::RecoveryFailed));
        assert!(matches!(
            session.try_apply(&[]),
            Err(AnalysisError::Poisoned(PoisonReason::RecoveryFailed))
        ));

        // Recovery onto a valid assignment still succeeds (the retained
        // `P_ij` makes it bitwise-fresh, the library re-characterizes).
        session.recover_with(CircuitCells::nominal(&c)).unwrap();
        assert!(!session.is_poisoned());
        assert_matches_fresh(&session);
    }

    #[test]
    fn governed_construction_matches_ungoverned_bitwise() {
        let c = generate::sec32("s");
        let plain = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let governed = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .deadline(Deadline::within(std::time::Duration::from_secs(3600)))
            .build()
            .unwrap();
        assert_eq!(governed.pij(), plain.pij());
        assert_eq!(governed.unreliability(), plain.unreliability());
        assert_eq!(
            governed.per_gate_unreliability(),
            plain.per_gate_unreliability()
        );
        assert!(governed.degradations().is_empty());
        assert!(governed.report().degradations.is_empty());
    }

    #[test]
    fn exhausted_budget_at_construction_is_a_typed_interruption() {
        let c = generate::c17();
        let err = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .deadline(Deadline::within(std::time::Duration::ZERO))
            .build()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Interrupted(_)), "{err}");
    }

    #[test]
    fn cancelled_budget_rejects_mutations_cleanly() {
        use ser_netlist::govern::{CancelToken, InterruptReason};

        let c = generate::c17();
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let token = CancelToken::new();
        session.set_deadline(Deadline::none().with_token(token.clone()));

        // Budget still open: mutations work.
        let g = c.find("10").unwrap();
        let mut p = *session.cells().get(g).unwrap();
        p.size = 4.0;
        session.apply(&[(g, p)]);
        assert_matches_fresh(&session);

        // Cancelled: every mutating entry point is refused *before* any
        // state changes — the session stays clean and bitwise intact.
        token.cancel();
        let u_before = session.unreliability();
        let mut q = *session.cells().get(g).unwrap();
        q.size = 2.0;
        for err in [
            session.try_apply(&[(g, q)]).unwrap_err(),
            session
                .try_set_cells(&CircuitCells::nominal(&c))
                .unwrap_err(),
            session.try_set_charge(32e-15).unwrap_err(),
            session.try_resample_pij_rows(&[g], 1024, 5).unwrap_err(),
        ] {
            match err {
                AnalysisError::Interrupted(i) => {
                    assert_eq!(i.stage, "session::entry");
                    assert_eq!(i.reason, InterruptReason::Cancelled);
                }
                other => panic!("expected Interrupted, got {other}"),
            }
        }
        assert!(!session.is_poisoned(), "entry rejections never poison");
        assert_eq!(session.unreliability(), u_before);

        // Clearing the budget restores full service.
        session.clear_deadline();
        session.apply(&[(g, q)]);
        assert_matches_fresh(&session);
    }

    #[test]
    fn snapshot_of_recovered_session_round_trips() {
        let c = generate::sec32("s");
        let mut session = AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib(), cfg())
            .build()
            .unwrap();
        let g = c.gates().next().unwrap();
        let mut p = *session.cells().get(g).unwrap();
        p.size = 4.0;
        session.apply(&[(g, p)]);
        session.recover().unwrap();

        let snap = session.snapshot().unwrap();
        let restored = AnalysisSession::restore_from(&snap).unwrap();
        assert_eq!(restored.unreliability(), session.unreliability());
        assert_eq!(restored.cells(), session.cells());
    }
}
