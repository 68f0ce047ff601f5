//! The optimization drivers. The paper minimizes Eq. 5 with Sequential
//! Quadratic Programming and notes that "simulated annealing, genetic
//! algorithms or some other optimization algorithm can also be used" —
//! all four are provided:
//!
//! * [`sqp`] — the default: projected-gradient descent in tension space
//!   with finite-difference/simultaneous-perturbation gradients and
//!   backtracking line search (the SQP-flavoured substitute documented in
//!   DESIGN.md);
//! * [`coord`] — cyclic coordinate descent;
//! * [`anneal`] — simulated annealing;
//! * [`genetic`] — a (μ+λ)-style genetic algorithm.

pub mod anneal;
pub mod coord;
pub mod genetic;
pub mod sqp;

use aserta::{AsertaConfig, Deadline};
use ser_cells::Library;
use ser_netlist::Circuit;
use serde::{Deserialize, Serialize};

use crate::allowed::AllowedParams;
use crate::baseline::size_for_speed;
use crate::cost::{CostWeights, EnergyModel};
use crate::matching::MatchingConfig;
use crate::problem::{DelayProblem, EvalStrategy};
use crate::result::{Outcome, Termination};

/// Which search algorithm drives the Eq. 5 minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Algorithm {
    /// Projected-gradient ("SQP-flavoured") — the paper's default.
    #[default]
    Sqp,
    /// Cyclic coordinate descent.
    CoordinateDescent,
    /// Simulated annealing (paper-blessed alternative).
    Anneal,
    /// Genetic algorithm (paper-blessed alternative).
    Genetic,
}

/// Full optimizer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Search algorithm.
    pub algorithm: Algorithm,
    /// Eq. 5 weights.
    pub weights: CostWeights,
    /// The discrete cell-parameter grid.
    pub allowed: AllowedParams,
    /// Search iterations (algorithm-specific granularity).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial move scale in tension space, seconds.
    pub initial_step: f64,
    /// ASERTA settings for cost evaluations.
    pub aserta: AsertaConfig,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Sizes available to the speed-sizing baseline pass.
    pub baseline_sizes: Vec<f64>,
    /// Stage effort targeted by the baseline pass.
    pub baseline_effort: f64,
    /// How candidate assignments are measured: the incremental
    /// [`aserta::AnalysisSession`] engine (default) or one fresh analysis
    /// per move (the oracle/perf baseline). Both produce identical
    /// outcomes.
    pub eval: EvalStrategy,
    /// Worker threads for batched independent evaluations (0 = the
    /// `SER_SIM_THREADS`/available-parallelism default). Outcomes are
    /// identical for every value.
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            algorithm: Algorithm::Sqp,
            weights: CostWeights::default(),
            allowed: AllowedParams::table1_dual(),
            iterations: 30,
            seed: 0x5E127,
            initial_step: 20.0e-12,
            aserta: AsertaConfig::default(),
            energy: EnergyModel::default(),
            baseline_sizes: vec![1.0, 2.0, 4.0, 8.0],
            baseline_effort: 2.0,
            eval: EvalStrategy::default(),
            threads: 0,
        }
    }
}

impl OptimizerConfig {
    /// A fast profile for tests and demos.
    pub fn fast() -> Self {
        OptimizerConfig {
            iterations: 8,
            allowed: AllowedParams::tiny(),
            aserta: AsertaConfig::fast(),
            ..OptimizerConfig::default()
        }
    }
}

/// One optimization request: the serializable [`OptimizerConfig`] plus
/// the live execution budget — the single options struct shared by
/// library ([`optimize`]), CLI and daemon callers.
///
/// The split matters: [`OptimizeRequest::config`] is pure data
/// (algorithm, weights, grids, seeds — serde round-trippable), while
/// [`OptimizeRequest::budget`] holds live wall-clock/cancellation state
/// ([`Deadline`]) that only exists per call.
///
/// ```
/// use sertopt::{Algorithm, OptimizeRequest, OptimizerConfig};
///
/// let req = OptimizeRequest::new(OptimizerConfig::fast()).strategy(Algorithm::CoordinateDescent);
/// assert_eq!(req.config.algorithm, Algorithm::CoordinateDescent);
/// ```
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// Full optimizer configuration; `config.algorithm` is the search
    /// strategy.
    pub config: OptimizerConfig,
    /// Cooperative execution budget ([`Deadline::none`] = unbudgeted).
    pub budget: Deadline,
}

impl Default for OptimizeRequest {
    fn default() -> Self {
        OptimizeRequest::new(OptimizerConfig::default())
    }
}

impl OptimizeRequest {
    /// A request over `config` with no execution budget.
    pub fn new(config: OptimizerConfig) -> Self {
        OptimizeRequest {
            config,
            budget: Deadline::none(),
        }
    }

    /// Picks the search strategy (sets `config.algorithm`).
    #[must_use]
    pub fn strategy(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Installs a cooperative execution budget for this request.
    #[must_use]
    pub fn budget(mut self, budget: Deadline) -> Self {
        self.budget = budget;
        self
    }
}

/// End-to-end SERTOPT over one [`OptimizeRequest`]: speed-size the
/// baseline (the paper's Design Compiler step), build the problem, run
/// the configured search under the request's budget, and package the
/// outcome.
///
/// The budget (wall clock and/or [`CancelToken`](aserta::CancelToken))
/// is checked at every search-loop boundary — per SQP iteration,
/// coordinate-descent sweep, annealing move and genetic generation. When
/// it expires the search stops where it stands and the returned
/// [`Outcome`] carries the best assignment found so far with
/// [`Outcome::termination`] set to [`Termination::Interrupted`]; the
/// result is always consistent because the same best-vs-zero-vs-baseline
/// re-validation runs as for a completed search (a bounded amount of
/// post-budget work, at worst two cost evaluations). The baseline
/// speed-sizing pass and the initial `P_ij` estimate run before the
/// first checkpoint, so an already-expired budget still yields a usable
/// baseline-quality outcome rather than an error.
///
/// # Panics
///
/// Panics when [`DelayProblem::new`] fails, e.g. on an invalid
/// `request.config.aserta` (see [`aserta::AsertaConfig::validate`]) or a
/// malformed `SER_*` variable (see [`aserta::EngineConfig::from_env`]).
/// Callers holding untrusted input check both first.
pub fn optimize(circuit: &Circuit, library: &mut Library, request: &OptimizeRequest) -> Outcome {
    let cfg = &request.config;
    let deadline = &request.budget;
    let matching = MatchingConfig::new(cfg.allowed.clone());
    let baseline_cells = size_for_speed(
        circuit,
        library,
        &cfg.baseline_sizes,
        matching.load_model,
        cfg.baseline_effort,
    );
    let mut problem = match DelayProblem::new(
        circuit,
        library,
        baseline_cells.clone(),
        cfg.weights,
        matching,
        cfg.aserta.clone(),
        cfg.energy,
    ) {
        Ok(problem) => problem,
        Err(e) => panic!("optimize: {e}"),
    };
    problem.strategy = cfg.eval;
    problem.threads = cfg.threads;
    let (best_phi, history, interrupted) = match cfg.algorithm {
        Algorithm::Sqp => sqp::run(
            &mut problem,
            cfg.iterations,
            cfg.initial_step,
            cfg.seed,
            deadline,
        ),
        Algorithm::CoordinateDescent => coord::run(
            &mut problem,
            cfg.iterations,
            cfg.initial_step,
            cfg.seed,
            deadline,
        ),
        Algorithm::Anneal => anneal::run(
            &mut problem,
            cfg.iterations * 10,
            cfg.initial_step,
            cfg.seed,
            deadline,
        ),
        Algorithm::Genetic => genetic::run(
            &mut problem,
            cfg.iterations,
            cfg.initial_step,
            cfg.seed,
            deadline,
        ),
    };
    // Guards against library-quantization drift: prefer the re-matched
    // zero move if it beats the search result, and fall back to the
    // untouched baseline when nothing beats it (the paper's c499 row —
    // "the unreliability of c499 could not be reduced" — is exactly this
    // outcome). Evaluation failures (possible only under injected faults
    // or degenerate configurations) drop the failed point from the
    // comparison instead of aborting.
    let zero_phi = vec![0.0; problem.dim()];
    let best = problem.try_evaluate_phi(&best_phi).ok();
    let zero = problem.try_evaluate_phi(&zero_phi).ok();
    let picked = match (best, zero) {
        (Some(b), Some(z)) => Some(if z.cost < b.cost {
            (z, zero_phi.clone())
        } else {
            (b, best_phi)
        }),
        (Some(b), None) => Some((b, best_phi)),
        (None, Some(z)) => Some((z, zero_phi.clone())),
        (None, None) => None,
    };
    let (mut final_candidate, mut final_phi) = match picked {
        Some(p) => p,
        None => (
            crate::problem::Candidate {
                cost: problem.baseline.cost,
                breakdown: problem.baseline,
                cells: baseline_cells.clone(),
            },
            zero_phi,
        ),
    };
    // partial_cmp: a NaN cost must also fall back to the baseline.
    if final_candidate.cost.partial_cmp(&problem.baseline.cost) != Some(std::cmp::Ordering::Less) {
        final_candidate = crate::problem::Candidate {
            cost: problem.baseline.cost,
            breakdown: problem.baseline,
            cells: baseline_cells.clone(),
        };
        final_phi = vec![0.0; problem.dim()];
    }
    Outcome {
        circuit_name: circuit.name().to_owned(),
        baseline_cells,
        optimized_cells: final_candidate.cells,
        baseline: problem.baseline,
        optimized: final_candidate.breakdown,
        history,
        evaluations: problem.evaluations,
        best_phi: final_phi,
        termination: interrupted.map_or(Termination::Completed, Termination::Interrupted),
    }
}
