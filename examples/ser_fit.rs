//! FIT-rate estimation over a particle-charge spectrum — the paper's
//! stated future-work extension ("look-up tables for different amounts of
//! injected charge"), implemented: soft-error rate in FIT before and
//! after SERTOPT hardening.
//!
//! ```text
//! cargo run --release --example ser_fit -- c432
//! ```

use soft_error::aserta::ser::{rank_by_fit, soft_error_rate, SerModel};
use soft_error::aserta::{AsertaConfig, CircuitCells, EngineConfig};
use soft_error::cells::{CharGrids, Library};
use soft_error::logicsim::sensitize::sensitization_probabilities_cfg;
use soft_error::netlist::generate;
use soft_error::sertopt::{optimize, OptimizeRequest, OptimizerConfig};
use soft_error::spice::Technology;

fn main() -> Result<(), soft_error::aserta::AnalysisError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "c432".to_owned());
    let circuit = generate::iscas85(&name).unwrap_or_else(|| {
        eprintln!("error: loading circuit: `{name}` is not an ISCAS'85 benchmark name");
        std::process::exit(1);
    });
    let mut library = Library::new(Technology::ptm70(), CharGrids::standard());
    let cfg = AsertaConfig::default();
    let model = SerModel::default();

    let engine = EngineConfig::new();
    let pij = sensitization_probabilities_cfg(
        &circuit,
        cfg.sensitization_vectors,
        cfg.seed,
        engine.threads(),
        engine.cone_chunk(),
        &engine.pij(),
    );
    let baseline = CircuitCells::nominal(&circuit);
    let before = soft_error_rate(&circuit, &baseline, &mut library, &pij, &cfg, &model)?;
    println!("{name}: nominal SER = {:.3} FIT", before.fit);
    println!("worst 5 gates by FIT:");
    for (id, fit) in rank_by_fit(&before, &circuit).into_iter().take(5) {
        println!("  {:<6} {:.4} FIT", circuit.node(id).name, fit);
    }

    let mut opt_cfg = OptimizerConfig::fast();
    opt_cfg.iterations = 10;
    let outcome = optimize(&circuit, &mut library, &OptimizeRequest::new(opt_cfg));
    let after = soft_error_rate(
        &circuit,
        &outcome.optimized_cells,
        &mut library,
        &pij,
        &cfg,
        &model,
    )?;
    println!(
        "\nafter SERTOPT: SER = {:.3} FIT ({:+.1}%)",
        after.fit,
        100.0 * (after.fit - before.fit) / before.fit
    );
    Ok(())
}
