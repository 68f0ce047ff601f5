//! Regenerates the paper's §5 runtime discussion: ASERTA analysis time
//! per circuit (the paper's MATLAB version took 15 s on c432 and 200 s on
//! c7552) and the speedup over the transistor-level reference ("orders of
//! magnitude less computation time than SPICE").
//!
//! ```text
//! cargo run --release -p ser-bench --bin runtimes [--spice-gates N]
//! ```

use aserta::{try_analyze, AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::EngineConfig;
use ser_spice::circuit_sim::{reference_unreliability, CircuitElectrical, CircuitSimConfig};
use ser_spice::Technology;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spice_gate_limit: usize = args
        .iter()
        .position(|a| a == "--spice-gates")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(250);

    let tech = Technology::ptm70();
    let names = [
        "c17", "c432", "c499", "c880", "c1908", "c2670", "c3540", "c5315", "c7552",
    ];
    println!("# ASERTA runtime per circuit (paper, MATLAB: c432 15 s, c7552 200 s)");
    println!(
        "{:<8} {:>7} {:>12} {:>12} {:>14} {:>12}",
        "circuit", "gates", "pij (s)", "aserta (s)", "reference (s)", "speedup"
    );
    for name in names {
        let circuit = ser_bench::bundled_iscas85(name);
        let mut lib = Library::new(tech.clone(), CharGrids::standard());
        let cells = CircuitCells::nominal(&circuit);
        let cfg = AsertaConfig::default();

        let e = EngineConfig::new();
        let (pij, t_pij) = ser_bench::timed(|| {
            sensitization_probabilities_cfg(
                &circuit,
                cfg.sensitization_vectors,
                cfg.seed,
                e.threads(),
                e.cone_chunk(),
                &e.pij(),
            )
        });
        // Warm the library before timing the analysis proper (the paper's
        // lookup tables are also characterized offline).
        if let Err(e) = try_analyze(&circuit, &cells, &mut lib, &pij, &cfg) {
            eprintln!("error: analyzing {name}: {e}");
            std::process::exit(1);
        }
        let (_, t_aserta) =
            ser_bench::timed(|| try_analyze(&circuit, &cells, &mut lib, &pij, &cfg));

        let (t_ref_str, speedup_str) = if circuit.gate_count() <= spice_gate_limit {
            let sim_cfg = CircuitSimConfig::default();
            let elec = CircuitElectrical::nominal(&tech, &circuit, &sim_cfg);
            let vectors =
                ser_logicsim::random::random_vectors(circuit.primary_inputs().len(), 5, 0.5, 1);
            let (_, t_ref) = ser_bench::timed(|| {
                reference_unreliability(&tech, &circuit, &elec, &vectors, &sim_cfg)
            });
            // Scale the 5-vector run to the paper's 50 vectors.
            let t_ref_50 = t_ref * 10.0;
            (
                format!("{t_ref_50:>14.1}"),
                format!("{:>11.0}x", t_ref_50 / t_aserta.max(1e-9)),
            )
        } else {
            (format!("{:>14}", "(skipped)"), format!("{:>12}", "--"))
        };
        println!(
            "{:<8} {:>7} {:>12.2} {:>12.3} {} {}",
            name,
            circuit.gate_count(),
            t_pij,
            t_aserta,
            t_ref_str,
            speedup_str
        );
    }
}
