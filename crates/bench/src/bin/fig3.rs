//! Regenerates **Fig. 3**: per-node unreliability `U_i` computed by
//! ASERTA vs the transistor-level reference ("SPICE") on c432, for nodes
//! at most five levels from the primary outputs, plus their correlation
//! (the paper reports 0.96 on c432 and 0.9 on average).
//!
//! ```text
//! cargo run --release -p ser-bench --bin fig3 [--circuit c432] [--vectors 50] [--suite]
//! ```

use aserta::{validate, AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_spice::Technology;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let circuit_name = flag_value(&args, "--circuit").unwrap_or_else(|| "c432".to_owned());
    let vectors: usize = flag_value(&args, "--vectors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let suite = args.iter().any(|a| a == "--suite");

    let tech = Technology::ptm70();
    let names: Vec<String> = if suite {
        vec!["c17".into(), "c432".into(), "c499".into()]
    } else {
        vec![circuit_name]
    };

    let mut correlations = Vec::new();
    for name in &names {
        let circuit = ser_bench::bundled_iscas85(name);
        let cells = CircuitCells::nominal(&circuit);
        let mut lib = Library::new(tech.clone(), CharGrids::standard());
        let cfg = AsertaConfig::default();
        let (report, secs) = ser_bench::timed(|| {
            validate::correlate_with_reference(&tech, &circuit, &cells, &mut lib, &cfg, vectors, 5)
        });
        let report = report.unwrap_or_else(|e| {
            eprintln!("error: analyzing {name}: {e}");
            std::process::exit(1);
        });
        println!("\n# Fig. 3 — {name}: ASERTA vs transistor-level U_i, nodes <= 5 levels from POs");
        println!(
            "# {} nodes, {} reference vectors, {:.1} s",
            report.nodes.len(),
            vectors,
            secs
        );
        println!("{:<14} {:>14} {:>14}", "node", "U_aserta", "U_reference");
        for ((n, a), r) in report
            .nodes
            .iter()
            .zip(&report.aserta)
            .zip(&report.reference)
        {
            println!("{:<14} {:>14.4e} {:>14.4e}", circuit.node(*n).name, a, r);
        }
        println!(
            "correlation({name}) = {:.3}   (paper: 0.96 on c432)",
            report.correlation
        );
        correlations.push(report.correlation);
    }
    if correlations.len() > 1 {
        let avg = correlations.iter().sum::<f64>() / correlations.len() as f64;
        println!("\naverage correlation = {avg:.3}   (paper: 0.9 across ISCAS'85)");
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
