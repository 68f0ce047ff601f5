//! Optimizer determinism and engine-equivalence guarantees:
//!
//! * each of the four algorithms with a fixed seed produces an identical
//!   [`Outcome`] across repeated runs;
//! * outcomes are identical for every worker-thread count (the batched
//!   evaluation path is order-independent by construction);
//! * the incremental session engine and the fresh-analysis-per-move
//!   oracle produce identical outcomes.

use ser_cells::{CharGrids, Library};
use ser_netlist::generate;
use ser_spice::Technology;
use sertopt::{
    optimize, Algorithm, AllowedParams, EvalStrategy, OptimizeRequest, OptimizerConfig, Outcome,
};

fn lib() -> Library {
    Library::new(Technology::ptm70(), CharGrids::coarse())
}

fn cfg(algorithm: Algorithm) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::fast();
    cfg.algorithm = algorithm;
    cfg.iterations = 3;
    cfg.allowed = AllowedParams::tiny();
    cfg.aserta.sensitization_vectors = 256;
    cfg.threads = 1;
    cfg
}

fn run(cfg: &OptimizerConfig) -> Outcome {
    let circuit = generate::c17();
    let mut library = lib();
    optimize(&circuit, &mut library, &OptimizeRequest::new(cfg.clone()))
}

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.history, b.history, "{what}: history");
    assert_eq!(a.best_phi, b.best_phi, "{what}: best phi");
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluation count");
    assert_eq!(
        a.optimized.unreliability, b.optimized.unreliability,
        "{what}: U"
    );
    assert_eq!(a.optimized.delay, b.optimized.delay, "{what}: delay");
    assert_eq!(a.optimized.energy, b.optimized.energy, "{what}: energy");
    assert_eq!(a.optimized.area, b.optimized.area, "{what}: area");
    assert_eq!(a.optimized.cost, b.optimized.cost, "{what}: cost");
    assert_eq!(
        a.optimized_cells, b.optimized_cells,
        "{what}: optimized cells"
    );
}

#[test]
fn every_algorithm_is_reproducible_at_fixed_seed() {
    for algorithm in [
        Algorithm::Sqp,
        Algorithm::CoordinateDescent,
        Algorithm::Anneal,
        Algorithm::Genetic,
    ] {
        let c = cfg(algorithm);
        let first = run(&c);
        let second = run(&c);
        assert_outcomes_identical(&first, &second, &format!("{algorithm:?}"));
    }
}

#[test]
fn outcomes_are_thread_count_invariant() {
    // The batched evaluators (SQP probes, GA broods) spread work over
    // replicas; every thread count must land on the same outcome.
    for algorithm in [Algorithm::Sqp, Algorithm::Genetic] {
        let mut c = cfg(algorithm);
        c.threads = 1;
        let one = run(&c);
        c.threads = 3;
        let three = run(&c);
        c.threads = 8;
        let eight = run(&c);
        assert_outcomes_identical(&one, &three, &format!("{algorithm:?} 1v3 threads"));
        assert_outcomes_identical(&one, &eight, &format!("{algorithm:?} 1v8 threads"));
    }
}

#[test]
fn incremental_engine_matches_fresh_per_move_oracle() {
    for algorithm in [
        Algorithm::Sqp,
        Algorithm::CoordinateDescent,
        Algorithm::Anneal,
        Algorithm::Genetic,
    ] {
        let mut c = cfg(algorithm);
        c.eval = EvalStrategy::Incremental;
        let incremental = run(&c);
        c.eval = EvalStrategy::FreshPerMove;
        let fresh = run(&c);
        assert_outcomes_identical(
            &incremental,
            &fresh,
            &format!("{algorithm:?} incremental vs fresh"),
        );
    }
}
