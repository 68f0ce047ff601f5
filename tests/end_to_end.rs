//! End-to-end integration: netlist → characterized library → ASERTA →
//! SERTOPT, asserting the paper's headline contract — unreliability goes
//! down while path delays stay put.

use soft_error::aserta::{timing_view, try_analyze_fresh, AsertaConfig, CircuitCells, LoadModel};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::generate;
use soft_error::sertopt::matching::vdd_violations;
use soft_error::sertopt::{optimize, Algorithm, OptimizeRequest, OptimizerConfig};
use soft_error::spice::Technology;

fn fast_config(algorithm: Algorithm) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::fast();
    cfg.algorithm = algorithm;
    cfg.iterations = 6;
    cfg.aserta.sensitization_vectors = 512;
    cfg
}

#[test]
fn c17_optimization_never_regresses_and_keeps_timing() {
    let circuit = generate::c17();
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let outcome = optimize(
        &circuit,
        &mut library,
        &OptimizeRequest::new(fast_config(Algorithm::Sqp)),
    );

    // The zero-vector fallback guarantees no regression.
    assert!(
        outcome.optimized.cost <= outcome.baseline.cost + 1e-9,
        "cost must not regress: {} vs {}",
        outcome.optimized.cost,
        outcome.baseline.cost
    );
    // Zero-delay-overhead contract, modulo library quantization.
    assert!(
        outcome.delay_ratio() < 1.3,
        "delay ratio {} blew past quantization slack",
        outcome.delay_ratio()
    );
    // No level shifters needed.
    assert!(vdd_violations(&circuit, &outcome.optimized_cells).is_empty());
}

#[test]
fn every_algorithm_runs_on_c17() {
    let circuit = generate::c17();
    for algo in [
        Algorithm::Sqp,
        Algorithm::CoordinateDescent,
        Algorithm::Anneal,
        Algorithm::Genetic,
    ] {
        let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
        let outcome = optimize(
            &circuit,
            &mut library,
            &OptimizeRequest::new(fast_config(algo)),
        );
        assert!(
            outcome.optimized.unreliability.is_finite(),
            "{algo:?} produced garbage"
        );
        assert!(
            outcome.optimized.cost <= outcome.baseline.cost + 1e-9,
            "{algo:?} regressed"
        );
    }
}

#[test]
fn analysis_is_deterministic_across_library_instances() {
    let circuit = generate::c17();
    let cells = CircuitCells::nominal(&circuit);
    let cfg = AsertaConfig::fast();
    let mut lib1 = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut lib2 = Library::new(Technology::ptm70(), CharGrids::coarse());
    let u1 = try_analyze_fresh(&circuit, &cells, &mut lib1, &cfg)
        .unwrap()
        .unreliability;
    let u2 = try_analyze_fresh(&circuit, &cells, &mut lib2, &cfg)
        .unwrap()
        .unreliability;
    assert_eq!(u1, u2);
}

#[test]
fn optimized_assignment_realizes_a_valid_timing_view() {
    let circuit = generate::c17();
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let outcome = optimize(
        &circuit,
        &mut library,
        &OptimizeRequest::new(fast_config(Algorithm::Sqp)),
    );
    let lm = LoadModel {
        wire_cap_per_pin: 0.05e-15,
        po_load: 2.0e-15,
    };
    let tv = timing_view(&circuit, &outcome.optimized_cells, &mut library, lm, 20e-12);
    for g in circuit.gates() {
        assert!(tv.delays[g.index()] > 0.0, "gate {g} has no delay");
        assert!(tv.delays[g.index()] < 1e-9, "gate {g} absurdly slow");
    }
}

/// A malformed `SER_*` variable is a one-line error from `soft-error
/// optimize`, not a panic backtrace.
#[test]
fn cli_optimize_reports_a_malformed_ser_variable() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soft-error"))
        .args(["optimize", "c17", "--iters", "1", "--profile", "sizing"])
        .env("SER_SIM_THREADS", "abc")
        .output()
        .expect("the CLI starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "a panic: {stderr}");
    assert!(stderr.contains("SER_SIM_THREADS"), "{stderr}");
}
