//! `analyze-scale`: session builds over a library characterized during
//! set-up, on a large tiled circuit, the c6288 multiplier (reconvergent)
//! and an SRAM periphery circuit. `P_ij` (the logic simulator over the
//! netlist cone arena) does nearly all of the work.

use std::time::Instant;

use aserta::{timing_view, AnalysisSession, CircuitCells, EngineConfig, ExpectedWidths, LoadModel};
use ser_cells::{CharGrids, Library};
use ser_logicsim::probability::static_probabilities_analytic;
use ser_logicsim::sensitize::sensitization_probabilities_with_stats_cfg;
use ser_netlist::generate::{self, SramSpec, TiledSpec};
use ser_netlist::Circuit;
use ser_spice::Technology;

use crate::common::{
    cfg_at, engine, missing_variants, needed_variants, timed, References, Report, Rng,
};
use crate::trace::Tracer;

const SETUP_REPS: usize = 3;

/// The workload's circuits, in a fixed order.
pub fn circuits() -> Vec<Circuit> {
    vec![
        generate::tiled(&TiledSpec::scaled("tiled20k", 20_000)),
        generate::iscas85("c6288").unwrap_or_else(|| crate::common::die("generating", "c6288")),
        generate::sram_periphery(&SramSpec::new("sram64x32", 64, 32, 32)),
    ]
}

/// Set-up: generate the circuits and characterize every variant their
/// nominal assignments use.
fn setup(t: &mut Tracer) -> (Vec<Circuit>, Library) {
    t.op("setup", |t| {
        let circuits = circuits();
        let mut lib = Library::new(Technology::ptm70(), CharGrids::standard());
        t.span("cells.characterize", |_| {
            for c in &circuits {
                for p in needed_variants(c, &CircuitCells::nominal(c)) {
                    lib.get_or_characterize(&p);
                }
            }
        });
        (circuits, lib)
    })
}

fn build<'c>(
    circuit: &'c Circuit,
    lib: &Library,
    engine: &EngineConfig,
) -> Result<AnalysisSession<'c>, String> {
    AnalysisSession::builder(
        circuit,
        CircuitCells::nominal(circuit),
        lib.clone(),
        cfg_at(16e-15),
    )
    .engine(*engine)
    .build()
    .map_err(|e| e.to_string())
}

/// The build with `P_ij` estimated in its own span and handed to the
/// builder.
fn build_traced<'c>(
    circuit: &'c Circuit,
    lib: &Library,
    engine: &EngineConfig,
    t: &mut Tracer,
    r: &mut Report,
) -> Result<AnalysisSession<'c>, String> {
    t.op("op", |t| {
        let cfg = cfg_at(16e-15);
        let (pij, stats) = t.span("logicsim.pij", |_| {
            sensitization_probabilities_with_stats_cfg(
                circuit,
                cfg.sensitization_vectors,
                cfg.seed,
                engine.threads(),
                engine.cone_chunk(),
                &engine.pij(),
            )
        });
        r.estimates.push((stats, circuit.node_count()));
        t.span("aserta.build_rest", |_| {
            AnalysisSession::builder(circuit, CircuitCells::nominal(circuit), lib.clone(), cfg)
                .engine(*engine)
                .pij(pij)
                .build()
                .map_err(|e| e.to_string())
        })
    })
}

/// Standalone probes of the build's inner stages, outside the
/// operations: static probabilities, the timing view and the expected
/// widths, each re-run once on a built session's inputs.
fn probe(circuit: &Circuit, session: &AnalysisSession<'_>, lib: &Library, t: &mut Tracer) {
    let cfg = cfg_at(16e-15);
    let cells = CircuitCells::nominal(circuit);
    let mut lib = lib.clone();
    t.op("probe", |t| {
        t.span("logicsim.static_probs", |_| {
            static_probabilities_analytic(circuit, cfg.pi_probability)
        });
        let loads = LoadModel {
            wire_cap_per_pin: cfg.wire_cap_per_pin,
            po_load: cfg.po_load,
        };
        let view = t.span("aserta.timing", |_| {
            timing_view(circuit, &cells, &mut lib, loads, cfg.pi_ramp)
        });
        t.span("aserta.widths", |_| {
            ExpectedWidths::compute(
                circuit,
                session.static_probs(),
                session.pij(),
                &view.delays,
                cfg.sample_width_grid(),
            )
        });
    });
}

pub fn run(seed: u64, seconds: f64, t: &mut Tracer) -> Report {
    crate::common::reuse_heap();
    let refs = References::load();
    let mut r = Report::default();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // free the previous repetition before building anew
        let (v, s) = timed(|| setup(t));
        r.setup_times.push(s);
        r.variants.0 += v.1.len();
        r.variants.1 += 1;
        state = Some(v);
    }
    let Some((circuits, lib)) = state else {
        unreachable!("SETUP_REPS > 0")
    };
    let engine = engine();
    let mut rng = Rng::new(seed);

    let start = Instant::now();
    let mut pass_times = Vec::new();
    let mut traced_pass_times = Vec::new();
    let mut gates = 0usize;
    let mut in_timed = 0usize;
    let mut probes = Vec::new();
    let mut plain_u = vec![f64::NAN; circuits.len()];
    loop {
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        for &i in &order {
            let c = &circuits[i];
            r.attempted += 1;
            let missing = missing_variants(c, &CircuitCells::nominal(c), &lib);
            in_timed += missing;
            let u = build(c, &lib, &engine).map(|s| s.unreliability());
            gates += c.gate_count();
            if missing > 0 {
                r.fail(format!(
                    "{}: {missing} variants characterized in a timed build",
                    c.name()
                ));
            }
            match u {
                Ok(u) => {
                    plain_u[i] = u;
                    r.check_u(c.name(), u, refs.get(c.name(), "standard", 16e-15));
                }
                Err(e) => r.fail(format!("{}: {e}", c.name())),
            }
        }
        pass_times.push(pass_start.elapsed().as_secs_f64());
        if t.enabled() {
            let traced_start = Instant::now();
            for &i in &order {
                let c = &circuits[i];
                r.attempted += 1;
                match build_traced(c, &lib, &engine, t, &mut r) {
                    Ok(session) => {
                        let u = session.unreliability();
                        if u.to_bits() != plain_u[i].to_bits() {
                            r.fail(format!(
                                "{}: traced build gave U {u:e}, the build {:e}",
                                c.name(),
                                plain_u[i]
                            ));
                        }
                        if probes.len() < circuits.len() {
                            probes.push((i, session));
                        }
                    }
                    Err(e) => r.fail(format!("{} (traced): {e}", c.name())),
                }
            }
            traced_pass_times.push(traced_start.elapsed().as_secs_f64());
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / pass_times.len() as f64 > seconds {
            break;
        }
    }
    // The operation is one pass: a build of each circuit. Per-build
    // latencies would mix three sizes, and their median would hop between
    // the two small circuits from run to run.
    r.op_times.clone_from(&pass_times);
    r.busy_s = pass_times.iter().sum();
    r.detail
        .push(("analyze_gates_per_s", gates as f64 / r.busy_s, "gates/s"));

    if t.enabled() {
        for (i, session) in &probes {
            probe(&circuits[*i], session, &lib, t);
        }
        let ops = pass_times.len() as f64;
        r.layer("cells.variants_in_timed", in_timed as f64);
        crate::layers_from_trace(&mut r, t, ops, circuits.len() as f64);
        let untraced: f64 = pass_times.iter().sum();
        let traced: f64 = traced_pass_times.iter().sum();
        r.layer("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    }
    r
}
