//! The `refs` subcommand: high-budget U references for every circuit
//! whose U the benchmark checks, written to `refs.json`.
//!
//! A reference is the same analysis with `P_ij` estimated on a fixed
//! budget of [`REF_VECTORS`] vectors (no adaptive stopping, no exact
//! mode) under a seed the benchmarked analyses never use, so its own
//! sampling error is small and independent of theirs.

use aserta::{AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::{sensitization_probabilities_cfg, PijConfig};
use ser_netlist::{generate, Circuit};
use ser_spice::Technology;

use crate::common::{cfg_at, die, engine, ref_key, References};

/// Vectors of a reference estimate: five times the paper's 10k.
pub const REF_VECTORS: usize = 50_000;

/// Seed of the reference estimates.
pub const REF_SEED: u64 = 0x005E_ED0F_2EF5;

/// U of `circuit` at each of `charges`, from one reference estimate.
fn reference(circuit: &Circuit, grids: CharGrids, charges: &[f64]) -> Vec<f64> {
    let engine = engine();
    let cfg = cfg_at(charges[0]);
    let pij = sensitization_probabilities_cfg(
        circuit,
        REF_VECTORS,
        REF_SEED,
        engine.threads(),
        engine.cone_chunk(),
        &PijConfig::fixed(),
    );
    let lib = Library::new(Technology::ptm70(), grids);
    let mut session = AnalysisSession::builder(circuit, CircuitCells::nominal(circuit), lib, cfg)
        .engine(engine)
        .pij(pij)
        .build()
        .unwrap_or_else(|e| die(&format!("reference for {}", circuit.name()), e));
    charges
        .iter()
        .map(|&q| {
            session
                .try_set_charge(q)
                .unwrap_or_else(|e| die(&format!("reference for {}", circuit.name()), e));
            session.unreliability()
        })
        .collect()
}

pub fn write() {
    let paper_charge = AsertaConfig::default().charge;
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut standard: Vec<Circuit> = crate::oneshot::CIRCUITS
        .iter()
        .map(|&n| generate::iscas85(n).unwrap_or_else(|| die("generating", n)))
        .collect();
    standard.extend(crate::scale::circuits());
    for c in &standard {
        let u = reference(c, CharGrids::standard(), &[paper_charge]);
        entries.push((ref_key(c.name(), "standard", paper_charge), u[0]));
        eprintln!("reference {}: {:e}", c.name(), u[0]);
    }
    for c in crate::serve::warm_circuits(None) {
        let us = reference(&c, CharGrids::coarse(), &crate::serve::CHARGES);
        for (&q, u) in crate::serve::CHARGES.iter().zip(us) {
            entries.push((ref_key(c.name(), "coarse", q), u));
        }
        eprintln!(
            "reference {}: {} charges",
            c.name(),
            crate::serve::CHARGES.len()
        );
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, u)| format!("    \"{k}\": {u:?}"))
        .collect();
    let text = format!(
        "{{\n  \"vectors\": {REF_VECTORS},\n  \"u\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    );
    std::fs::write(References::PATH, text)
        .unwrap_or_else(|e| die(&format!("writing {}", References::PATH), e));
    println!("wrote {} references to {}", entries.len(), References::PATH);
}
