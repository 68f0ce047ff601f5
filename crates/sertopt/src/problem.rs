//! The optimization problem object shared by all four algorithms: a
//! search point → delay targets → matched cells → Eq. 5 cost.
//!
//! The search space has two move families, mirroring what the paper's
//! Table 1 actually exhibits:
//!
//! 1. **tension moves** — exact nullspace-of-`T` deltas: no PI→PO path
//!    delay changes at all (the zero-overhead guarantee);
//! 2. **slack moves** — per-logic-level slowdown coefficients, each gate
//!    bounded by its own baseline slack divided by the circuit depth, so
//!    shared slack is never over-committed by more than the coefficient
//!    scale. These are the moves behind the paper's 1.03–1.23× delay
//!    ratios, and the `W2·T/T₀` cost term polices them.
//!
//! # Evaluation engine
//!
//! Every evaluation realizes the targets through the precompiled
//! [`MatchPlan`] — incrementally: the plan's scan memo re-matches only
//! the gates whose target, VDD floor or (load, ramp) moved since their
//! last scan, bitwise equal to a full match — and then measures the
//! assignment one of two ways ([`EvalStrategy`]):
//!
//! * [`EvalStrategy::Incremental`] (default) — a persistent
//!   [`AnalysisSession`] per worker: the candidate is *diffed* against
//!   the session's current assignment and only the invalidated cones,
//!   rows and per-gate terms are recomputed. Independent candidates
//!   (finite-difference probes, GA populations) additionally batch
//!   across threads via [`DelayProblem::evaluate_batch`], which deals
//!   them over per-worker replicas with [`aserta::deal`] — the same
//!   deal that runs ASERTA's corner sweeps.
//! * [`EvalStrategy::FreshPerMove`] — one full
//!   [`cost::evaluate`](crate::cost::evaluate) per move. Since the
//!   single-engine consolidation this is a *cold-start session* per move
//!   ([`aserta::try_analyze`] constructs a session and extracts its
//!   report), kept as the equivalence oracle and the perf baseline the
//!   warm session is measured against.
//!
//! Both strategies produce **bitwise identical** candidates: the session
//! guarantees exact fidelity to the fresh analysis, and the per-gate
//! energy cache mirrors [`gate_energy`](crate::cost::gate_energy)'s
//! arithmetic term for term. The `determinism` test suite pins this.

use aserta::{timing_view, AnalysisError, AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::{EngineConfig, SensitizationMatrix};
use ser_netlist::{topo, Circuit, NodeId};
use serde::{Deserialize, Serialize};

use crate::cost::{evaluate, CostBreakdown, CostWeights, EnergyModel};
use crate::error::EvalError;
use crate::matching::{MatchPlan, MatchingConfig};
use crate::nullspace::TensionSpace;
use crate::sta;

/// One fully-evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Eq. 5 cost (lower is better).
    pub cost: f64,
    /// The metric breakdown.
    pub breakdown: CostBreakdown,
    /// The realized assignment.
    pub cells: CircuitCells,
}

/// How [`DelayProblem`] measures a candidate assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvalStrategy {
    /// Persistent [`AnalysisSession`]s with delta application and
    /// thread-batched independent evaluations (the default).
    #[default]
    Incremental,
    /// One full analysis per move — the equivalence oracle and the perf
    /// baseline the incremental engine is measured against.
    FreshPerMove,
}

/// One worker's private evaluation state: an incremental session plus
/// the per-gate energy cache it keeps aligned with the session's
/// dirty-set reports.
#[derive(Clone)]
struct Replica<'a> {
    session: AnalysisSession<'a>,
    gate_energy: Vec<f64>,
    /// Set when a caught panic may have left the session mid-update; the
    /// next evaluation rebuilds the replica from scratch before
    /// measuring anything.
    wrecked: bool,
}

impl<'a> Replica<'a> {
    fn new(session: AnalysisSession<'a>, energy_model: &EnergyModel) -> Self {
        let mut replica = Replica {
            gate_energy: vec![0.0f64; session.circuit().node_count()],
            session,
            wrecked: false,
        };
        replica.refresh_all_energy(energy_model);
        replica
    }

    /// Moves the session to `cells` and measures it; mirrors
    /// [`evaluate`]'s arithmetic bit for bit.
    ///
    /// A poisoned or panic-wrecked replica heals itself first with a
    /// full rebuild at the incoming candidate — bitwise identical to the
    /// incremental path by the session's fidelity guarantee, so one
    /// failed candidate never taints later ones.
    fn evaluate(
        &mut self,
        cells: CircuitCells,
        energy_model: &EnergyModel,
        weights: &CostWeights,
        baseline: &CostBreakdown,
    ) -> Result<Candidate, EvalError> {
        ser_netlist::failpoint!(
            "sertopt::replica_evaluate",
            return Err(EvalError::FaultInjected("sertopt::replica_evaluate"))
        );
        if self.wrecked || self.session.is_poisoned() {
            self.session.recover_with(cells.clone())?;
            self.refresh_all_energy(energy_model);
            self.wrecked = false;
        }
        let stats = self.session.try_set_cells(&cells)?;
        for &i in &stats.energy_dirty {
            let id = NodeId::new(i as usize);
            self.gate_energy[i as usize] = replica_gate_energy(&mut self.session, id, energy_model);
        }
        let circuit = self.session.circuit();
        let mut energy = 0.0;
        for id in circuit.gates() {
            energy += self.gate_energy[id.index()];
        }
        let mut breakdown = CostBreakdown {
            unreliability: self.session.unreliability(),
            delay: self.session.critical_delay(),
            energy,
            area: cells.total_area(),
            cost: f64::NAN,
        };
        breakdown.cost = weights.cost(&breakdown, baseline);
        Ok(Candidate {
            cost: breakdown.cost,
            breakdown,
            cells,
        })
    }

    fn refresh_all_energy(&mut self, energy_model: &EnergyModel) {
        let circuit = self.session.circuit();
        for id in circuit.gates() {
            self.gate_energy[id.index()] = replica_gate_energy(&mut self.session, id, energy_model);
        }
    }
}

/// [`gate_energy`](crate::cost::gate_energy)'s exact arithmetic, fed
/// from the session's cached cell/load/static-probability state.
fn replica_gate_energy(
    session: &mut AnalysisSession<'_>,
    id: NodeId,
    energy_model: &EnergyModel,
) -> f64 {
    let prob = session.static_probs()[id.index()];
    let activity = 2.0 * prob * (1.0 - prob);
    let (cell, load) = session.cell_and_load(id);
    activity * cell.dynamic_energy(load) + cell.static_energy(energy_model.clock_period)
}

/// The delay-assignment-variation problem (paper §4), ready for repeated
/// evaluation: holds the one-time artifacts (`P_ij`, tension space,
/// match plan, baseline delays/metrics, analysis sessions) and hands out
/// costs for potential vectors.
pub struct DelayProblem<'a> {
    /// The circuit under optimization.
    pub circuit: &'a Circuit,
    /// The zero-overhead move space.
    pub tension: TensionSpace,
    /// Logic level of every node (for the slack-move family).
    pub levels: Vec<usize>,
    /// Baseline slack of every node at the baseline critical delay.
    pub slacks: Vec<f64>,
    /// Circuit depth (number of slack coefficients − 1).
    pub depth: usize,
    /// Realized per-node delays of the baseline assignment.
    pub base_delays: Vec<f64>,
    /// The baseline assignment itself.
    pub baseline_cells: CircuitCells,
    /// Baseline metrics (`cost` = the weight sum by construction).
    pub baseline: CostBreakdown,
    /// Eq. 5 weights.
    pub weights: CostWeights,
    /// Matching configuration.
    pub matching: MatchingConfig,
    /// ASERTA settings used in every evaluation.
    pub aserta_cfg: AsertaConfig,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Number of cost evaluations performed so far.
    pub evaluations: usize,
    /// How candidates are measured.
    pub strategy: EvalStrategy,
    /// Worker threads for [`DelayProblem::evaluate_batch`] (0 = the
    /// engine thread count its sessions resolved: `SER_SIM_THREADS` or
    /// the machine's parallelism). Results are identical for every
    /// value.
    pub threads: usize,
    plan: MatchPlan,
    replicas: Vec<Replica<'a>>,
    fresh_lib: Library,
}

impl<'a> DelayProblem<'a> {
    /// Prepares the problem from a baseline assignment: estimates
    /// `P_ij`, measures the baseline, compiles the match plan and the
    /// tension space, and boots the first analysis session.
    ///
    /// `library` is used (and warmed) during construction only; the
    /// problem owns private copies afterwards, so evaluations never
    /// contend on the caller's library.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::InvalidConfig`] for unusable `aserta_cfg`
    ///   scalars, checked before any Monte-Carlo work;
    /// * [`AnalysisError::Engine`] for a malformed `SER_*` variable;
    /// * [`AnalysisError::MissingCellParams`] when `baseline_cells`
    ///   misses a gate;
    /// * any error the baseline analysis or the first session build
    ///   reports.
    pub fn new(
        circuit: &'a Circuit,
        library: &mut Library,
        baseline_cells: CircuitCells,
        weights: CostWeights,
        matching: MatchingConfig,
        aserta_cfg: AsertaConfig,
        energy: EnergyModel,
    ) -> Result<Self, AnalysisError> {
        aserta_cfg.validate()?;
        // Warm every variant evaluations can touch: the allowed grid
        // (bulk, parallel) plus the baseline's own (possibly off-grid)
        // cells.
        let spec = matching.allowed.library_spec(circuit);
        library.characterize_spec(&spec, 0);
        for id in circuit.gates() {
            let p = baseline_cells
                .get(id)
                .ok_or(AnalysisError::MissingCellParams {
                    node: id.index() as u32,
                })?;
            library.get_or_characterize(p);
        }

        // Estimated once, on the engine settings a session build would
        // resolve (machine parallelism unless SER_* says otherwise).
        let engine = EngineConfig::from_env()?;
        let pij = sensitization_probabilities_cfg(
            circuit,
            aserta_cfg.sensitization_vectors,
            aserta_cfg.seed,
            engine.threads(),
            engine.cone_chunk(),
            &engine.pij(),
        );
        let tv = timing_view(
            circuit,
            &baseline_cells,
            library,
            matching.load_model,
            aserta_cfg.pi_ramp,
        );
        let mut baseline = evaluate(
            circuit,
            &baseline_cells,
            library,
            &pij,
            &aserta_cfg,
            &energy,
            &weights,
            None,
        )?;
        baseline.cost = weights.unreliability + weights.delay + weights.energy + weights.area;
        let plan = MatchPlan::build(circuit, library, &matching, Some(&baseline_cells));
        let tension = TensionSpace::build(circuit);
        let levels = topo::levels_from_inputs(circuit);
        let depth = levels.iter().copied().max().unwrap_or(0);
        let timing = sta::analyze(circuit, &tv.delays, baseline.delay);
        let slacks = timing
            .slack
            .iter()
            .map(|&s| if s.is_finite() { s.max(0.0) } else { 0.0 })
            .collect();

        let session = AnalysisSession::builder(
            circuit,
            baseline_cells.clone(),
            library.clone(),
            aserta_cfg.clone(),
        )
        .pij(pij)
        .build()?;
        let replicas = vec![Replica::new(session, &energy)];

        Ok(DelayProblem {
            circuit,
            tension,
            levels,
            slacks,
            depth,
            base_delays: tv.delays,
            baseline_cells,
            baseline,
            weights,
            matching,
            aserta_cfg,
            energy,
            evaluations: 0,
            strategy: EvalStrategy::default(),
            threads: 0,
            plan,
            replicas,
            fresh_lib: library.clone(),
        })
    }

    /// The shared sensitization matrix behind every evaluation.
    pub fn pij(&self) -> &SensitizationMatrix {
        self.replicas[0].session.pij()
    }

    /// Dimension of the search space: tension coordinates plus one slack
    /// coefficient per logic level.
    pub fn dim(&self) -> usize {
        self.tension.dim() + self.depth + 1
    }

    /// The per-node delay targets of a search point.
    ///
    /// The first [`TensionSpace::dim`] entries of `phi` are tension
    /// potentials (seconds); the remaining `depth + 1` entries are
    /// dimensionless level coefficients `κ_l`, scaled by `initial step`
    /// units of 10 ps per unit — a gate at level `l` is slowed by
    /// `κ_l · slack / depth` (clamped so targets stay positive).
    fn targets_for(&self, phi: &[f64]) -> Vec<f64> {
        let t_dim = self.tension.dim();
        let delta = self.tension.delta(self.circuit, &phi[..t_dim]);
        let kappa = &phi[t_dim..];
        let slack_scale = 1.0 / (self.depth.max(1) as f64);
        // κ is carried in seconds like the tension part (optimizers are
        // unit-agnostic); normalize to a dimensionless coefficient per
        // 10 ps so default step sizes explore κ ≈ ±2.
        self.circuit
            .node_ids()
            .map(|id| {
                let i = id.index();
                let k = kappa[self.levels[i]] / 10.0e-12;
                let slack_move = k * self.slacks[i] * slack_scale;
                (self.base_delays[i] + delta[i] + slack_move).max(1.0e-12)
            })
            .collect()
    }

    /// Evaluates a search point: tension deltas plus slack-bounded level
    /// slowdowns → clamped delay targets → matched cells → Eq. 5 cost
    /// against the baseline.
    ///
    /// # Errors
    ///
    /// Matching and measurement failures (including injected faults)
    /// surface as a typed [`EvalError`]. A failure never corrupts later
    /// evaluations — the replica heals itself with a full rebuild on its
    /// next call.
    pub fn try_evaluate_phi(&mut self, phi: &[f64]) -> Result<Candidate, EvalError> {
        self.evaluations += 1;
        let targets = self.targets_for(phi);
        let cells = self.plan.try_realize(self.circuit, &targets)?;
        match self.strategy {
            EvalStrategy::Incremental => {
                self.replicas[0].evaluate(cells, &self.energy, &self.weights, &self.baseline)
            }
            EvalStrategy::FreshPerMove => self.evaluate_fresh(cells),
        }
    }

    /// Evaluates independent search points as one batch, returning one
    /// `Result` per candidate in input order. Under
    /// [`EvalStrategy::Incremental`] the batch is spread over up to
    /// [`DelayProblem::threads`] session replicas; the result is
    /// **identical for every thread count** (each evaluation is exact
    /// regardless of its replica's prior state, and a failure is a
    /// property of the candidate, not of the replica it landed on). The
    /// fresh strategy evaluates sequentially.
    ///
    /// The batch is dealt by [`aserta::deal`]: a panic inside a replica
    /// evaluation is caught for that candidate alone and surfaces as
    /// [`EvalError::Panicked`]; the replica rebuilds itself before its
    /// next evaluation, so no later candidate sees the wreckage.
    pub fn evaluate_batch(&mut self, phis: &[Vec<f64>]) -> Vec<Result<Candidate, EvalError>> {
        let workers = match self.strategy {
            EvalStrategy::FreshPerMove => 1,
            EvalStrategy::Incremental => {
                let t = if self.threads == 0 {
                    self.replicas[0].session.engine().threads()
                } else {
                    self.threads
                };
                t.min(phis.len()).max(1)
            }
        };
        if workers <= 1 {
            return phis.iter().map(|phi| self.try_evaluate_phi(phi)).collect();
        }
        self.evaluations += phis.len();
        while self.replicas.len() < workers {
            let clone = self.replicas[0].clone();
            self.replicas.push(clone);
        }
        // Realize all candidates up front, in input order (the plan's
        // scan memo makes this cheap and needs `&mut`), then deal them
        // over the per-worker sessions.
        let mut jobs: Vec<Result<CircuitCells, EvalError>> = Vec::with_capacity(phis.len());
        for phi in phis {
            let targets = self.targets_for(phi);
            jobs.push(self.plan.try_realize(self.circuit, &targets));
        }
        let energy = &self.energy;
        let weights = &self.weights;
        let baseline = &self.baseline;
        aserta::deal(
            &mut self.replicas[..workers],
            &jobs,
            |replica, cells| match cells {
                Ok(cells) => replica.evaluate(cells.clone(), energy, weights, baseline),
                Err(e) => Err(e.clone()),
            },
            |replica| {
                replica.wrecked = true;
                Err(EvalError::Panicked {
                    context: "replica evaluation",
                })
            },
        )
    }

    /// The fresh measurement: one cold-start analysis session over the
    /// private library and the replicas' shared `P_ij` per move — kept
    /// as the oracle and perf baseline.
    fn evaluate_fresh(&mut self, cells: CircuitCells) -> Result<Candidate, EvalError> {
        let breakdown = evaluate(
            self.circuit,
            &cells,
            &mut self.fresh_lib,
            self.replicas[0].session.pij(),
            &self.aserta_cfg,
            &self.energy,
            &self.weights,
            Some(&self.baseline),
        )?;
        Ok(Candidate {
            cost: breakdown.cost,
            breakdown,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowed::AllowedParams;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn problem_for_c17(lib: &mut Library) -> DelayProblem<'static> {
        // Leak a circuit for the 'a lifetime of the test.
        let circuit: &'static ser_netlist::Circuit = Box::leak(Box::new(generate::c17()));
        let baseline = CircuitCells::nominal(circuit);
        let mut cfg = AsertaConfig::fast();
        cfg.sensitization_vectors = 512;
        DelayProblem::new(
            circuit,
            lib,
            baseline,
            CostWeights::default(),
            MatchingConfig::new(AllowedParams::tiny()),
            cfg,
            EnergyModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn zero_phi_costs_near_baseline() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut p = problem_for_c17(&mut lib);
        let c = p.try_evaluate_phi(&vec![0.0; p.dim()]).unwrap();
        // Matching at the baseline's own delays lands near the baseline
        // cost (the quantized library may differ slightly).
        let expect = p.baseline.cost;
        assert!(
            (c.cost - expect).abs() / expect < 0.35,
            "cost {} vs baseline {}",
            c.cost,
            expect
        );
        assert_eq!(p.evaluations, 1);
    }

    #[test]
    fn dim_counts_tension_plus_levels() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let p = problem_for_c17(&mut lib);
        // c17: one free tension class + (depth 3 + 1) level coefficients.
        assert_eq!(p.tension.dim(), 1, "c17 has one free class");
        assert_eq!(p.dim(), 1 + 3 + 1);
    }

    #[test]
    fn slack_moves_trade_delay_for_cost_terms() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut p = problem_for_c17(&mut lib);
        // Slow every level by its slack share: delay may rise, the
        // evaluation must stay finite and well-formed.
        let mut phi = vec![0.0; p.dim()];
        for slack in phi.iter_mut().skip(p.tension.dim()) {
            *slack = 10.0e-12; // κ = 1
        }
        let c = p.try_evaluate_phi(&phi).unwrap();
        assert!(c.cost.is_finite());
        assert!(c.breakdown.delay > 0.0);
    }

    #[test]
    fn strategies_agree_bitwise() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut inc = problem_for_c17(&mut lib);
        let mut fresh = problem_for_c17(&mut lib);
        fresh.strategy = EvalStrategy::FreshPerMove;
        let dim = inc.dim();
        for step in 0..5 {
            let phi: Vec<f64> = (0..dim)
                .map(|k| 8.0e-12 * (((k + step) % 3) as f64 - 1.0))
                .collect();
            let a = inc.try_evaluate_phi(&phi).unwrap();
            let b = fresh.try_evaluate_phi(&phi).unwrap();
            assert_eq!(a.cost, b.cost, "step {step}");
            assert_eq!(a.breakdown.unreliability, b.breakdown.unreliability);
            assert_eq!(a.breakdown.delay, b.breakdown.delay);
            assert_eq!(a.breakdown.energy, b.breakdown.energy);
            assert_eq!(a.breakdown.area, b.breakdown.area);
            assert_eq!(a.cells, b.cells);
        }
    }

    #[test]
    fn batch_matches_sequential_for_any_thread_count() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut p = problem_for_c17(&mut lib);
        let dim = p.dim();
        let phis: Vec<Vec<f64>> = (0..7)
            .map(|s| {
                (0..dim)
                    .map(|k| 6.0e-12 * (((k * 3 + s) % 5) as f64 - 2.0))
                    .collect()
            })
            .collect();
        let sequential: Vec<f64> = phis
            .iter()
            .map(|phi| p.try_evaluate_phi(phi).unwrap().cost)
            .collect();
        for threads in [1usize, 2, 5] {
            p.threads = threads;
            let batch = p.evaluate_batch(&phis);
            let costs: Vec<f64> = batch
                .into_iter()
                .map(|c| c.expect("no faults injected").cost)
                .collect();
            assert_eq!(costs, sequential, "{threads} threads");
        }
    }

    #[test]
    fn wrong_length_targets_are_a_typed_error() {
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let p = problem_for_c17(&mut lib);
        let mut plan = MatchPlan::build(p.circuit, &mut lib, &p.matching, Some(&p.baseline_cells));
        let err = plan.try_realize(p.circuit, &[1.0e-12]).unwrap_err();
        assert!(matches!(err, crate::error::EvalError::Match { .. }));
        let err = plan
            .try_realize(p.circuit, &vec![f64::NAN; p.circuit.node_count()])
            .unwrap_err();
        assert!(matches!(err, crate::error::EvalError::Match { .. }));
    }

    #[test]
    fn invalid_config_is_rejected_before_the_pij_estimate() {
        // Zero vectors would trip the estimator's assert; `new` must
        // report the config instead.
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let circuit = generate::c17();
        let mut cfg = AsertaConfig::fast();
        cfg.sensitization_vectors = 0;
        let err = DelayProblem::new(
            &circuit,
            &mut lib,
            CircuitCells::nominal(&circuit),
            CostWeights::default(),
            MatchingConfig::new(AllowedParams::tiny()),
            cfg,
            EnergyModel::default(),
        )
        .err()
        .unwrap();
        assert!(matches!(err, AnalysisError::InvalidConfig { .. }), "{err}");
    }
}
