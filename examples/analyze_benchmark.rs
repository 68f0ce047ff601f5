//! Analyze any ISCAS'85 benchmark (or your own `.bench` file) with
//! ASERTA: unreliability, soft spots, timing, and — for small circuits —
//! validation against the transistor-level reference.
//!
//! ```text
//! cargo run --release --example analyze_benchmark -- c432
//! cargo run --release --example analyze_benchmark -- path/to/circuit.bench
//! cargo run --release --example analyze_benchmark -- c432 --validate
//! ```

use std::fs;

use soft_error::aserta::{report, try_analyze_fresh, validate, AsertaConfig, CircuitCells};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::{bench_format, generate, stats::CircuitStats, Circuit};
use soft_error::spice::Technology;

fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("c432");
    let do_validate = args.iter().any(|a| a == "--validate");

    let circuit: Circuit = if name.ends_with(".bench") {
        let text = fs::read_to_string(name).unwrap_or_else(|e| die(&format!("reading {name}"), e));
        bench_format::parse(&text, name).unwrap_or_else(|e| die(&format!("parsing {name}"), e))
    } else {
        generate::iscas85(name).unwrap_or_else(|| {
            die(
                "loading circuit",
                format!("`{name}` is not an ISCAS'85 name (c17, c432, …) or a .bench path"),
            )
        })
    };

    println!("{}", CircuitStats::compute_fast(&circuit));

    let tech = Technology::ptm70();
    let mut library = Library::new(tech.clone(), CharGrids::standard());
    let cells = CircuitCells::nominal(&circuit);
    let cfg = AsertaConfig::default();

    let (rep, secs) = {
        let t0 = std::time::Instant::now();
        let r = try_analyze_fresh(&circuit, &cells, &mut library, &cfg)
            .unwrap_or_else(|e| die(&format!("analyzing {name}"), e));
        (r, t0.elapsed().as_secs_f64())
    };
    println!("\nASERTA finished in {secs:.2} s");
    println!("unreliability U = {:.4e}", rep.unreliability);
    println!(
        "critical path    = {:.1} ps",
        rep.timing.critical_path_delay(&circuit) * 1e12
    );
    println!();
    println!(
        "{}",
        report::format_ranked_table(
            &circuit,
            "top 10 soft spots",
            &rep.per_gate_unreliability,
            10
        )
    );

    if do_validate {
        println!("validating against the transistor-level reference (this is the slow part)…");
        let r =
            validate::correlate_with_reference(&tech, &circuit, &cells, &mut library, &cfg, 25, 5)
                .unwrap_or_else(|e| die(&format!("validating {name}"), e));
        println!(
            "ASERTA vs reference correlation over {} near-PO nodes: {:.3}",
            r.nodes.len(),
            r.correlation
        );
    }
}
