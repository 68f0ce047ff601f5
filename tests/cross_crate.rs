//! Cross-crate integration: `.bench` I/O feeding analysis, library
//! persistence feeding identical results, and the c499 error-correcting
//! story.

use soft_error::aserta::{try_analyze, AsertaConfig, CircuitCells};
use soft_error::cells::{CharGrids, Library};
use soft_error::logicsim::sensitize::sensitization_probabilities_cfg;
use soft_error::logicsim::{EngineConfig, SensitizationMatrix};
use soft_error::netlist::{bench_format, generate, topo, Circuit};
use soft_error::spice::Technology;

/// `P_ij` on the default engine settings.
fn default_pij(circuit: &Circuit, n_vectors: usize, seed: u64) -> SensitizationMatrix {
    let e = EngineConfig::new();
    sensitization_probabilities_cfg(
        circuit,
        n_vectors,
        seed,
        e.threads(),
        e.cone_chunk(),
        &e.pij(),
    )
}

#[test]
fn bench_round_trip_preserves_analysis() {
    let original = generate::c17();
    let text = bench_format::write(&original);
    let reparsed = bench_format::parse(&text, "c17").expect("own output parses");

    let cfg = AsertaConfig::fast();
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let pij_a = default_pij(&original, 1024, 5);
    let pij_b = default_pij(&reparsed, 1024, 5);
    let u_a = try_analyze(
        &original,
        &CircuitCells::nominal(&original),
        &mut lib,
        &pij_a,
        &cfg,
    )
    .unwrap()
    .unreliability;
    let u_b = try_analyze(
        &reparsed,
        &CircuitCells::nominal(&reparsed),
        &mut lib,
        &pij_b,
        &cfg,
    )
    .unwrap()
    .unreliability;
    assert_eq!(u_a, u_b, "round trip must not change the analysis");
}

#[test]
fn persisted_library_reproduces_analysis() {
    let circuit = generate::c17();
    let cells = CircuitCells::nominal(&circuit);
    let cfg = AsertaConfig::fast();
    let pij = default_pij(&circuit, 1024, 5);

    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let u_fresh = try_analyze(&circuit, &cells, &mut lib, &pij, &cfg)
        .unwrap()
        .unreliability;

    let path = std::env::temp_dir().join("soft_error_test_lib.json");
    lib.save(&path).expect("temp dir is writable");
    let mut reloaded = Library::load(&path).expect("file we wrote loads");
    let u_reloaded = try_analyze(&circuit, &cells, &mut reloaded, &pij, &cfg)
        .unwrap()
        .unreliability;
    let _ = std::fs::remove_file(&path);

    assert_eq!(u_fresh, u_reloaded);
}

/// The paper's c499 observation rests on the circuit being a single-error
/// corrector built from XOR cones: glitches are never *logically* masked
/// on the way to the outputs (XOR propagates everything), so SERTOPT has
/// no cheap wins. Verify the structural half of that story.
#[test]
fn c499_xor_cones_defeat_logical_masking() {
    let ecc = generate::sec32("c499");
    let pij = default_pij(&ecc, 2048, 9);
    // Syndrome-tree XOR nodes: flips always reach at least one output
    // with substantial probability (through e_i AND-decode they can
    // mask, but the direct d_i XOR path cannot).
    let levels = topo::levels_to_outputs(&ecc);
    let mut near_po_probs = Vec::new();
    for g in ecc.gates() {
        if levels[g.index()] == 1 {
            let best: f64 = pij.row(g).iter().copied().fold(0.0, f64::max);
            near_po_probs.push(best);
        }
    }
    assert!(!near_po_probs.is_empty());
    let min = near_po_probs.iter().copied().fold(1.0, f64::min);
    assert!(
        min > 0.9,
        "XOR-fed output stage must be observable, min P = {min}"
    );
}

#[test]
fn generated_suite_analyzes_without_panics() {
    // Smoke the whole suite through ASERTA at low vector counts.
    let cfg = {
        let mut c = AsertaConfig::fast();
        c.sensitization_vectors = 128;
        c
    };
    for name in ["c17", "c432", "c499", "c880"] {
        let circuit = generate::iscas85(name).expect("bundled");
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let cells = CircuitCells::nominal(&circuit);
        let pij = default_pij(&circuit, 128, 1);
        let r = try_analyze(&circuit, &cells, &mut lib, &pij, &cfg).unwrap();
        assert!(r.unreliability > 0.0, "{name}");
        assert!(r.unreliability.is_finite(), "{name}");
    }
}
