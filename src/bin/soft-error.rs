//! The `soft-error` command-line tool: ASERTA analysis, SERTOPT
//! optimization, library characterization and netlist statistics from
//! the shell.
//!
//! ```text
//! soft-error stats c432
//! soft-error analyze c432 --top 10
//! soft-error analyze my_design.bench --json report.json
//! soft-error optimize c432 --algo sqp --iters 16 --profile dual
//! soft-error characterize /tmp/lib.json --coarse
//! soft-error validate c17 --vectors 25
//! ```

use std::fs;
use std::process::ExitCode;

use soft_error::aserta::{
    report, validate, AnalysisSession, AsertaConfig, CircuitCells, Deadline, EngineConfig,
};
use soft_error::cells::{CharGrids, Library, LibrarySpec};
use soft_error::netlist::{bench_format, generate, stats::CircuitStats, Circuit, GateKind};
use soft_error::sertopt::{optimize, Algorithm, AllowedParams, OptimizeRequest, OptimizerConfig};
use soft_error::spice::Technology;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command {
        "stats" => cmd_stats(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "characterize" => cmd_characterize(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
soft-error — soft-error tolerance analysis (ASERTA) and optimization (SERTOPT)

USAGE:
  soft-error stats        <circuit>
  soft-error analyze      <circuit> [--vectors N] [--seed S] [--top K] [--json FILE]
  soft-error optimize     <circuit> [--algo sqp|coord|anneal|genetic]
                                    [--iters N] [--profile dual|triple|sizing]
                                    [--budget-ms MS]
  soft-error characterize <out.json> [--coarse]
  soft-error validate     <circuit> [--vectors N] [--levels L]

<circuit> is an ISCAS'85 name (c17, c432, c499, …) or a path to a
.bench netlist file.";

/// Loads a circuit from a benchmark name or a `.bench` path.
fn load_circuit(spec: &str) -> Result<Circuit, String> {
    if spec.ends_with(".bench") {
        let text = fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?;
        bench_format::parse(&text, spec).map_err(|e| format!("parsing {spec}: {e}"))
    } else {
        generate::iscas85(spec)
            .ok_or_else(|| format!("`{spec}` is not a known benchmark or .bench path"))
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{v}`")),
        None => Ok(default),
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("stats needs a circuit")?;
    let circuit = load_circuit(spec)?;
    println!("{}", CircuitStats::compute_fast(&circuit));
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("analyze needs a circuit")?;
    let circuit = load_circuit(spec)?;
    let mut cfg = AsertaConfig::default();
    cfg.sensitization_vectors = flag_parse(args, "--vectors", cfg.sensitization_vectors)?;
    cfg.seed = flag_parse(args, "--seed", cfg.seed)?;
    let top: usize = flag_parse(args, "--top", 10)?;

    let library = Library::new(Technology::ptm70(), CharGrids::standard());
    let cells = CircuitCells::nominal(&circuit);
    let t0 = std::time::Instant::now();
    // The strict env overlay: malformed SER_* variables are a typed
    // error here, not a silently-ignored knob.
    let engine = EngineConfig::from_env().map_err(|e| e.to_string())?;
    let rep = AnalysisSession::builder(&circuit, cells, library, cfg)
        .engine(engine)
        .build()
        .map_err(|e| e.to_string())?
        .into_report();
    let secs = t0.elapsed().as_secs_f64();

    println!("circuit          {}", circuit.name());
    println!("gates            {}", circuit.gate_count());
    println!("unreliability U  {:.4e}", rep.unreliability);
    println!(
        "critical path    {:.1} ps",
        rep.timing.critical_path_delay(&circuit) * 1e12
    );
    println!("analysis time    {secs:.2} s");
    println!();
    print!(
        "{}",
        report::format_ranked_table(
            &circuit,
            &format!("top {top} soft spots"),
            &rep.per_gate_unreliability,
            top
        )
    );

    if let Some(path) = flag(args, "--json") {
        let per_gate: Vec<serde_json::Value> = circuit
            .gates()
            .map(|g| {
                serde_json::json!({
                    "gate": circuit.node(g).name,
                    "unreliability": rep.per_gate_unreliability[g.index()],
                    "generated_width_s": rep.generated_widths[g.index()],
                    "delay_s": rep.timing.delays[g.index()],
                })
            })
            .collect();
        let doc = serde_json::json!({
            "circuit": circuit.name(),
            "unreliability": rep.unreliability,
            "critical_path_s": rep.timing.critical_path_delay(&circuit),
            "gates": per_gate,
        });
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("serializing the JSON report: {e}"))?;
        fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("optimize needs a circuit")?;
    let circuit = load_circuit(spec)?;
    let mut cfg = OptimizerConfig::default();
    cfg.algorithm = match flag(args, "--algo") {
        Some("coord") => Algorithm::CoordinateDescent,
        Some("anneal") => Algorithm::Anneal,
        Some("genetic") => Algorithm::Genetic,
        Some("sqp") | None => Algorithm::Sqp,
        Some(other) => return Err(format!("unknown algorithm `{other}`")),
    };
    cfg.iterations = flag_parse(args, "--iters", cfg.iterations)?;
    cfg.allowed = match flag(args, "--profile") {
        Some("triple") => AllowedParams::table1_triple(),
        Some("sizing") => AllowedParams::sizing_only(),
        Some("dual") | None => AllowedParams::table1_dual(),
        Some(other) => return Err(format!("unknown profile `{other}`")),
    };
    // `optimize` panics on a config or `SER_*` variable its problem
    // build rejects, so both are checked here first.
    EngineConfig::from_env().map_err(|e| e.to_string())?;
    cfg.aserta.validate().map_err(|e| e.to_string())?;

    println!(
        "optimizing {} with {:?} ({} iterations)…",
        circuit.name(),
        cfg.algorithm,
        cfg.iterations
    );
    let mut request = OptimizeRequest::new(cfg);
    if let Some(ms) = flag(args, "--budget-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--budget-ms expects a number, got `{ms}`"))?;
        request = request.budget(Deadline::within(std::time::Duration::from_millis(ms)));
    }
    let mut library = Library::new(Technology::ptm70(), CharGrids::standard());
    let outcome = optimize(&circuit, &mut library, &request);
    println!(
        "unreliability  {:.3e} -> {:.3e}  (-{:.0}%)",
        outcome.baseline.unreliability,
        outcome.optimized.unreliability,
        100.0 * outcome.unreliability_decrease()
    );
    println!(
        "delay {:.2}x   energy {:.2}x   area {:.2}x   ({} evaluations)",
        outcome.delay_ratio(),
        outcome.energy_ratio(),
        outcome.area_ratio(),
        outcome.evaluations
    );
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("characterize needs an output path")?;
    let grids = if args.iter().any(|a| a == "--coarse") {
        CharGrids::coarse()
    } else {
        CharGrids::standard()
    };
    let mut library = Library::new(Technology::ptm70(), grids);
    let spec = LibrarySpec {
        kinds_fanins: vec![
            (GateKind::Not, 1),
            (GateKind::Buf, 1),
            (GateKind::Nand, 2),
            (GateKind::Nand, 3),
            (GateKind::Nand, 4),
            (GateKind::Nor, 2),
            (GateKind::Nor, 3),
            (GateKind::And, 2),
            (GateKind::Or, 2),
            (GateKind::Xor, 2),
            (GateKind::Xnor, 2),
        ],
        sizes: vec![1.0, 2.0, 4.0, 8.0],
        lengths_nm: vec![70.0, 100.0, 150.0, 250.0, 300.0],
        vdds: vec![0.8, 1.0, 1.2],
        vths: vec![0.1, 0.2, 0.3],
    };
    let t0 = std::time::Instant::now();
    let added = library.characterize_spec(&spec, 0);
    println!(
        "characterized {added} variants in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    library
        .save(path)
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("validate needs a circuit")?;
    let circuit = load_circuit(spec)?;
    let vectors: usize = flag_parse(args, "--vectors", 25)?;
    if vectors == 0 {
        return Err("--vectors must be at least 1".into());
    }
    let levels: usize = flag_parse(args, "--levels", 5)?;
    let tech = Technology::ptm70();
    let mut library = Library::new(tech.clone(), CharGrids::standard());
    let cells = CircuitCells::nominal(&circuit);
    let cfg = AsertaConfig::default();
    println!(
        "running the transistor-level reference on {} ({} vectors)…",
        circuit.name(),
        vectors
    );
    let r = validate::correlate_with_reference(
        &tech,
        &circuit,
        &cells,
        &mut library,
        &cfg,
        vectors,
        levels,
    )
    .map_err(|e| format!("analyzing {}: {e}", circuit.name()))?;
    println!(
        "ASERTA vs reference over {} nodes (≤ {levels} levels from POs): correlation {:.3}",
        r.nodes.len(),
        r.correlation
    );
    println!("(paper: 0.96 on c432, 0.9 average)");
    Ok(())
}
