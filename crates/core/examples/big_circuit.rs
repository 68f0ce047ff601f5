//! Generates and analyzes a 100 000-gate tiled circuit end to end.
//!
//! Demonstrates the scaling architecture from the README's "Scaling"
//! section: the tiled generator keeps fan-out cones tile-bounded, the
//! streamed cone arena keeps estimation memory proportional to one
//! chunk, and the sparse width tables keep the electrical pass
//! proportional to actual reachability. Run with:
//!
//! ```text
//! cargo run --release -p aserta --example big_circuit
//! ```
//!
//! Environment knobs: `BIG_CIRCUIT_GATES` (default 100 000) and
//! `SER_CONE_CHUNK` (roots per streamed arena chunk).

use std::time::Instant;

use aserta::{try_analyze_fresh, AnalysisError, AsertaConfig, CircuitCells, EngineConfig};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize;
use ser_spice::Technology;

fn main() -> Result<(), AnalysisError> {
    let gates: usize = std::env::var("BIG_CIRCUIT_GATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    let t0 = Instant::now();
    let spec = ser_netlist::generate::TiledSpec::scaled("big100k", gates);
    let circuit = ser_netlist::generate::tiled(&spec);
    let n_nodes = circuit.node_count();
    println!(
        "generated {} gates / {} nodes / {} POs in {:.2}s ({} tiles of ~{} gates)",
        circuit.gate_count(),
        n_nodes,
        circuit.primary_outputs().len(),
        t0.elapsed().as_secs_f64(),
        spec.tiles,
        spec.tile_gates,
    );

    // Modest vector count: the paper's 10 000 vectors are statistical
    // overkill for a demonstration run, and estimation cost is linear in
    // vectors. 2048 keeps the whole example interactive.
    let cfg = AsertaConfig {
        sensitization_vectors: 2048,
        ..AsertaConfig::default()
    };

    // Probe the streamed estimator's memory profile first: same work as
    // the P_ij pass inside `try_analyze_fresh`, but reporting peak bytes.
    let engine = EngineConfig::new();
    let threads = engine.threads();
    let chunk = engine.cone_chunk();
    let t1 = Instant::now();
    let (_pij, stats) = sensitize::sensitization_probabilities_with_stats_cfg(
        &circuit,
        cfg.sensitization_vectors,
        cfg.seed,
        threads,
        chunk,
        &engine.pij(),
    );
    println!(
        "P_ij: {:.2}s on {threads} threads, {} chunks of {chunk} roots, \
         peak arena {:.1} MiB = {:.1} bytes/node amortized",
        t1.elapsed().as_secs_f64(),
        stats.chunks,
        stats.peak_bytes as f64 / (1024.0 * 1024.0),
        stats.peak_bytes as f64 / n_nodes as f64,
    );

    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cells = CircuitCells::nominal(&circuit);
    let t2 = Instant::now();
    let report = try_analyze_fresh(&circuit, &cells, &mut lib, &cfg)?;
    println!(
        "try_analyze_fresh: {:.2}s, circuit unreliability U = {:.3e}",
        t2.elapsed().as_secs_f64(),
        report.unreliability,
    );

    println!("top soft-error contributors:");
    for (id, u) in report.soft_spots(&circuit, 5) {
        println!("  {:<12} U_i = {:.3e}", circuit.node(id).name, u);
    }
    Ok(())
}
