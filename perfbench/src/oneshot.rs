//! `oneshot-iscas`: the `soft-error analyze` job, run cold on each
//! Table-1 circuit stand-in. Each operation goes `.bench` text → parse →
//! fresh standard-grid library → session build at the paper's 10k
//! vectors → report, exactly as the CLI runs it, so characterization is
//! paid on every operation.

use std::time::Instant;

use aserta::{AnalysisSession, CircuitCells, EngineConfig};
use ser_cells::{CharGrids, Library};
use ser_logicsim::probability::static_probabilities_analytic;
use ser_logicsim::sensitize::sensitization_probabilities_with_stats_cfg;
use ser_netlist::{bench_format, generate};
use ser_spice::Technology;

use crate::common::{cfg_at, engine, needed_variants, timed, trim_heap, References, Report, Rng};
use crate::trace::Tracer;

pub const CIRCUITS: [&str; 6] = ["c432", "c1908", "c2670", "c3540", "c5315", "c7552"];

const SETUP_REPS: usize = 5;

struct Input {
    name: &'static str,
    text: String,
    gates: usize,
}

/// Set-up: generate each stand-in and emit its `.bench` text, then run
/// the job once on c17 so the process's one-time allocations are made
/// before the first timed job.
fn setup(engine: &EngineConfig) -> Vec<Input> {
    let c17 = Input {
        name: "c17",
        text: bench_format::write(&generate::c17()),
        gates: 6,
    };
    if let Err(e) = analyze(&c17, engine) {
        crate::common::die("warming up on c17", e);
    }
    CIRCUITS
        .iter()
        .map(|&name| {
            let circuit = generate::iscas85(name)
                .unwrap_or_else(|| crate::common::die("generating", format!("unknown {name}")));
            Input {
                name,
                text: bench_format::write(&circuit),
                gates: circuit.gate_count(),
            }
        })
        .collect()
}

fn library() -> Library {
    Library::new(Technology::ptm70(), CharGrids::standard())
}

/// The CLI's analyze job, untraced. Returns U.
fn analyze(input: &Input, engine: &EngineConfig) -> Result<f64, String> {
    let circuit = bench_format::parse(&input.text, input.name).map_err(|e| e.to_string())?;
    let cells = CircuitCells::nominal(&circuit);
    let report = AnalysisSession::builder(&circuit, cells, library(), cfg_at(16e-15))
        .engine(*engine)
        .build()
        .map_err(|e| e.to_string())?
        .into_report();
    Ok(report.unreliability)
}

/// The same job with each layer called on its own inside a span: the
/// variants the build would characterize lazily are characterized first
/// (in the same order, on one thread), `P_ij` is estimated with stats,
/// and the builder gets the matrix.
fn analyze_traced(
    input: &Input,
    engine: &EngineConfig,
    t: &mut Tracer,
    r: &mut Report,
) -> Result<f64, String> {
    t.op("op", |t| {
        let circuit = t.span("netlist.parse", |_| {
            bench_format::parse(&input.text, input.name).map_err(|e| e.to_string())
        })?;
        let cells = CircuitCells::nominal(&circuit);
        let mut lib = library();
        let variants = t.span("cells.characterize", |_| {
            for p in needed_variants(&circuit, &cells) {
                lib.get_or_characterize(&p);
            }
            lib.len()
        });
        r.variants.0 += variants;
        r.variants.1 += 1;
        let cfg = cfg_at(16e-15);
        let (pij, stats) = t.span("logicsim.pij", |_| {
            sensitization_probabilities_with_stats_cfg(
                &circuit,
                cfg.sensitization_vectors,
                cfg.seed,
                engine.threads(),
                engine.cone_chunk(),
                &engine.pij(),
            )
        });
        r.estimates.push((stats, circuit.node_count()));
        let u = t.span("aserta.build_rest", |_| {
            AnalysisSession::builder(&circuit, cells, lib, cfg)
                .engine(*engine)
                .pij(pij)
                .build()
                .map(|s| s.into_report().unreliability)
                .map_err(|e| e.to_string())
        })?;
        Ok(u)
    })
}

pub fn run(seed: u64, seconds: f64, t: &mut Tracer) -> Report {
    let refs = References::load();
    let mut r = Report::default();
    let engine = engine();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (v, s) = timed(|| setup(&engine));
        r.setup_times.push(s);
        inputs = v;
    }
    let mut rng = Rng::new(seed);

    let start = Instant::now();
    let mut pass_times: Vec<f64> = Vec::new();
    let mut traced_pass_times: Vec<f64> = Vec::new();
    let mut gates = 0usize;
    let mut plain_u = vec![f64::NAN; inputs.len()];
    loop {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        for &i in &order {
            let input = &inputs[i];
            r.attempted += 1;
            trim_heap();
            let (u, s) = timed(|| analyze(input, &engine));
            r.op_times.push(s);
            gates += input.gates;
            match u {
                Ok(u) => {
                    plain_u[i] = u;
                    r.check_u(input.name, u, refs.get(input.name, "standard", 16e-15));
                }
                Err(e) => r.fail(format!("{}: {e}", input.name)),
            }
        }
        pass_times.push(pass_start.elapsed().as_secs_f64());
        if t.enabled() {
            let traced_start = Instant::now();
            for &i in &order {
                let input = &inputs[i];
                r.attempted += 1;
                match analyze_traced(input, &engine, t, &mut r) {
                    Ok(u) if u.to_bits() == plain_u[i].to_bits() => {}
                    Ok(u) => r.fail(format!(
                        "{}: traced job gave U {u:e}, the job {:e}",
                        input.name, plain_u[i]
                    )),
                    Err(e) => r.fail(format!("{} (traced): {e}", input.name)),
                }
            }
            traced_pass_times.push(traced_start.elapsed().as_secs_f64());
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / pass_times.len() as f64;
        if elapsed + per_round > seconds {
            break;
        }
    }
    r.busy_s = pass_times.iter().sum();
    r.detail
        .push(("analyze_gates_per_s", gates as f64 / r.busy_s, "gates/s"));

    if t.enabled() {
        // Standalone probe, outside the operations: the static
        // probabilities the session derives during its build.
        for input in &inputs {
            if let Ok(circuit) = bench_format::parse(&input.text, input.name) {
                t.op("probe", |t| {
                    t.span("logicsim.static_probs", |_| {
                        static_probabilities_analytic(&circuit, 0.5)
                    })
                });
            }
        }
        let ops = (pass_times.len() * inputs.len()) as f64;
        crate::layers_from_trace(&mut r, t, ops, inputs.len() as f64);
        let untraced: f64 = pass_times.iter().sum();
        let traced: f64 = traced_pass_times.iter().sum();
        r.layer("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    }
    r
}
