//! Regenerates **Table 1**: SERTOPT optimization results on the paper's
//! seven ISCAS'85 circuits — VDD/Vth sets, area/energy/delay ratios and
//! the three unreliability-decrease columns.
//!
//! ```text
//! cargo run --release -p ser-bench --bin table1 [--quick] [--circuit cNNN]
//!     [--algo sqp|coord|anneal|genetic] [--vectors N] [--no-spice]
//! ```
//!
//! `--quick` runs a reduced configuration (fewer vectors/iterations) that
//! finishes in a few minutes; the default mirrors the paper's setup.

use ser_bench::table1::{paper_specs, run_circuit, Table1Config, Table1Row};
use ser_cells::{CharGrids, Library};
use ser_spice::Technology;
use sertopt::Algorithm;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_spice = args.iter().any(|a| a == "--no-spice");
    let only = flag_value(&args, "--circuit");
    let algo = match flag_value(&args, "--algo").as_deref() {
        Some("coord") => Algorithm::CoordinateDescent,
        Some("anneal") => Algorithm::Anneal,
        Some("genetic") => Algorithm::Genetic,
        _ => Algorithm::Sqp,
    };

    let mut cfg = Table1Config::default();
    cfg.optimizer.algorithm = algo;
    if quick {
        cfg.optimizer.iterations = 10;
        cfg.optimizer.aserta.sensitization_vectors = 2048;
        cfg.reference_vectors = 10;
    }
    if let Some(v) = flag_value(&args, "--vectors").and_then(|v| v.parse().ok()) {
        cfg.reference_vectors = v;
    }
    if let Some(it) = flag_value(&args, "--iters").and_then(|v| v.parse().ok()) {
        cfg.optimizer.iterations = it;
    }
    cfg.run_spice_reference = !no_spice;

    let mut specs = paper_specs();
    if let Some(name) = only {
        specs.retain(|s| s.name == name);
        assert!(!specs.is_empty(), "unknown circuit name");
    }

    println!(
        "# Table 1 — SERTOPT optimization results ({algo:?}, {} iterations)",
        cfg.optimizer.iterations
    );
    println!("{}", Table1Row::header());
    let tech = Technology::ptm70();
    let mut rows = Vec::new();
    for spec in &specs {
        // One shared library per VDD/Vth family keeps characterization
        // cached across circuits.
        let mut library = Library::new(tech.clone(), CharGrids::standard());
        let row = run_circuit(spec, &cfg, &mut library).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", spec.name);
            std::process::exit(1)
        });
        println!(
            "{}   ({:.0} s, {} evals)",
            row.format(),
            row.optimize_seconds,
            row.outcome.evaluations
        );
        rows.push(row);
    }

    println!("\n# paper's corresponding rows:");
    println!("# c432  0.8,1      0.2,0.3     2X    2.2X  1.23X   40%  44% 54%");
    println!("# c499  --         --          --    --    --       0%   0%  0%");
    println!("# c1908 0.8,1,1.2  0.1,0.2,0.3 1.2X  1.8X  0.98X   18%   6% 12%");
    println!("# c2670 0.8,1,1.2  0.1,0.2,0.3 1.05X 1.3X  0.98X   21%  42% 38%");
    println!("# c3540 0.8,1      0.2,0.3     1.5X  1.6X  1.03X   47%  35% 34%");
    println!("# c5315 0.8,1,1.2  0.1,0.2,0.3 1.2X  1.9X  0.98X   26%  --  --");
    println!("# c7552 0.8,1      0.2,0.3     1.6X  1.6X  1.07X   18%  --  --");
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
