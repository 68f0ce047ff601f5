//! `sertopt-table1`: `sertopt::optimize` over the Table-1 dual-VDD/Vth
//! profile with the default 30 iterations, SQP and coordinate descent,
//! on c432, sec32 (the c499 stand-in) and c880. The coarse library is
//! characterized during set-up, plus one warm-up optimize per circuit,
//! so timed calls do only the search: warm session deltas and candidate
//! evaluation.

use std::time::Instant;

use aserta::{AnalysisSession, LoadModel};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::{sensitization_probabilities_cfg, PijConfig};
use ser_netlist::generate;
use ser_netlist::Circuit;
use ser_spice::Technology;
use sertopt::{
    size_for_speed, Algorithm, AllowedParams, OptimizeRequest, OptimizerConfig, Outcome,
};

use crate::common::{engine, median, timed, Report, Rng, OPTIMIZER_THREADS, THREADS};
use crate::refs::{REF_SEED, REF_VECTORS};
use crate::trace::Tracer;

const SETUP_REPS: usize = 2;

const ALGORITHMS: [Algorithm; 2] = [Algorithm::Sqp, Algorithm::CoordinateDescent];

fn circuits() -> Vec<Circuit> {
    let named =
        |n: &str| generate::iscas85(n).unwrap_or_else(|| crate::common::die("generating", n));
    vec![named("c432"), generate::sec32("sec32"), named("c880")]
}

fn config(algorithm: Algorithm) -> OptimizerConfig {
    OptimizerConfig {
        algorithm,
        allowed: AllowedParams::table1_dual(),
        threads: OPTIMIZER_THREADS,
        ..OptimizerConfig::default()
    }
}

/// Set-up: characterize the coarse library over every circuit's Table-1
/// grid, then one warm-up optimize per circuit to absorb any variant
/// the search still characterizes lazily.
fn setup(t: &mut Tracer) -> (Vec<Circuit>, Library) {
    t.op("setup", |t| {
        let circuits = circuits();
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        t.span("cells.characterize", |_| {
            for c in &circuits {
                lib.characterize_spec(&AllowedParams::table1_dual().library_spec(c), THREADS);
            }
        });
        for c in &circuits {
            sertopt::optimize(c, &mut lib, &OptimizeRequest::new(config(Algorithm::Sqp)));
        }
        (circuits, lib)
    })
}

/// Identity of an outcome for the repeat check: cost bits and
/// evaluation count.
fn fingerprint(o: &Outcome) -> (u64, usize) {
    (o.optimized.cost.to_bits(), o.evaluations)
}

pub fn run(seed: u64, seconds: f64, t: &mut Tracer) -> Report {
    let mut r = Report::default();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // free the previous repetition before building anew
        let (v, s) = timed(|| setup(t));
        r.setup_times.push(s);
        state = Some(v);
    }
    let Some((circuits, mut lib)) = state else {
        unreachable!("SETUP_REPS > 0")
    };
    let mut rng = Rng::new(seed);

    let jobs: Vec<(usize, Algorithm)> = (0..circuits.len())
        .flat_map(|c| ALGORITHMS.iter().map(move |&a| (c, a)))
        .collect();
    let mut first: Vec<Option<Outcome>> = vec![None; jobs.len()];
    let mut in_timed = 0usize;
    let mut evaluations = 0usize;
    let start = Instant::now();
    let mut pass_times = Vec::new();
    let mut traced_pass_times = Vec::new();
    let tracing = t.enabled();
    loop {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        // A traced run repeats each pass with spans on, for the overhead,
        // alternating which of the two runs first.
        let first_traced = pass_times.len() % 2 == 1;
        for traced in [first_traced, !first_traced]
            .into_iter()
            .filter(|&on| !on || tracing)
        {
            t.set_enabled(traced);
            let pass_start = Instant::now();
            for &j in &order {
                let (ci, algo) = jobs[j];
                let c = &circuits[ci];
                r.attempted += 1;
                let before = lib.len();
                let request = OptimizeRequest::new(config(algo));
                let outcome = t.op("op", |t| {
                    t.span("sertopt.optimize", |_| {
                        sertopt::optimize(c, &mut lib, &request)
                    })
                });
                if !traced {
                    evaluations += outcome.evaluations;
                }
                let added = lib.len() - before;
                in_timed += added;
                let what = format!("{} {algo:?}", c.name());
                if added > 0 {
                    r.fail(format!(
                        "{what}: {added} variants characterized in a timed optimize"
                    ));
                }
                if outcome.termination.was_interrupted() {
                    r.fail(format!("{what}: search interrupted"));
                }
                match &first[j] {
                    None => first[j] = Some(outcome),
                    Some(f) if fingerprint(f) != fingerprint(&outcome) => r.fail(format!(
                        "{what}: outcome differs across repeats ({:?} vs {:?})",
                        fingerprint(f),
                        fingerprint(&outcome)
                    )),
                    Some(_) => {}
                }
            }
            let pass_s = pass_start.elapsed().as_secs_f64();
            if traced {
                traced_pass_times.push(pass_s);
            } else {
                pass_times.push(pass_s);
            }
        }
        t.set_enabled(tracing);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / pass_times.len() as f64 > seconds {
            break;
        }
    }
    // The operation is one pass over the six jobs (the Table-1 suite).
    // Per-call latencies would mix six job sizes, and their median would
    // sit between two of them.
    r.op_times.clone_from(&pass_times);
    r.busy_s = pass_times.iter().sum();
    let outcomes: Vec<&Outcome> = first.iter().flatten().collect();
    r.detail
        .push(("optimize_suite_s", median(&pass_times), "s"));
    r.detail.push((
        "u_decrease_pct",
        100.0
            * outcomes
                .iter()
                .map(|o| o.unreliability_decrease())
                .sum::<f64>()
            / outcomes.len() as f64,
        "%",
    ));
    r.detail.push((
        "delay_ratio_max",
        outcomes.iter().map(|o| o.delay_ratio()).fold(0.0, f64::max),
        "ratio",
    ));

    check_accuracy(&mut r, &circuits, &jobs, &first, &lib);

    if t.enabled() {
        probe(&mut r, &circuits, &jobs, &first, &mut lib, t);
        let ops = pass_times.len() as f64;
        r.layer("cells.variants_in_timed", in_timed as f64);
        r.variants = (lib.len() * SETUP_REPS, SETUP_REPS);
        crate::layers_from_trace(&mut r, t, ops, circuits.len() as f64);
        r.layer("sertopt.evaluations", evaluations as f64 / ops);
        let optimize_s = r.layers.get("sertopt.optimize_s").copied().unwrap_or(0.0);
        r.layer("sertopt.s_per_eval", optimize_s * ops / evaluations as f64);
        let untraced: f64 = pass_times.iter().sum();
        let traced: f64 = traced_pass_times.iter().sum();
        r.layer("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    }
    r
}

/// The optimizer's reported U for each optimized design against a
/// high-budget fixed-vector re-analysis of the same cells.
fn check_accuracy(
    r: &mut Report,
    circuits: &[Circuit],
    jobs: &[(usize, Algorithm)],
    outcomes: &[Option<Outcome>],
    lib: &Library,
) {
    let engine = engine();
    for (ci, c) in circuits.iter().enumerate() {
        let cfg = config(Algorithm::Sqp).aserta;
        let pij = sensitization_probabilities_cfg(
            c,
            REF_VECTORS,
            REF_SEED,
            engine.threads(),
            engine.cone_chunk(),
            &PijConfig::fixed(),
        );
        for (j, &(cj, algo)) in jobs.iter().enumerate() {
            let Some(o) = outcomes[j].as_ref().filter(|_| cj == ci) else {
                continue;
            };
            let reference =
                AnalysisSession::builder(c, o.optimized_cells.clone(), lib.clone(), cfg.clone())
                    .engine(engine)
                    .pij(pij.clone())
                    .build();
            match reference {
                Ok(s) => r.check_u(
                    &format!("{} {algo:?} optimized", c.name()),
                    o.optimized.unreliability,
                    s.unreliability(),
                ),
                Err(e) => r.fail(format!("{} {algo:?} reference: {e}", c.name())),
            }
        }
    }
}

/// Standalone probes, outside the operations: the speed-sizing baseline
/// pass, and one warm session delta from each baseline to its optimized
/// design.
fn probe(
    r: &mut Report,
    circuits: &[Circuit],
    jobs: &[(usize, Algorithm)],
    outcomes: &[Option<Outcome>],
    lib: &mut Library,
    t: &mut Tracer,
) {
    let cfg = config(Algorithm::Sqp);
    let loads = LoadModel {
        wire_cap_per_pin: cfg.aserta.wire_cap_per_pin,
        po_load: cfg.aserta.po_load,
    };
    let mut dirty = Vec::new();
    for (ci, c) in circuits.iter().enumerate() {
        let Some(o) = jobs
            .iter()
            .zip(outcomes)
            .find(|((cj, _), _)| *cj == ci)
            .and_then(|(_, o)| o.as_ref())
        else {
            continue;
        };
        let session =
            AnalysisSession::builder(c, o.baseline_cells.clone(), lib.clone(), cfg.aserta.clone())
                .engine(engine())
                .build();
        let Ok(mut session) = session else {
            r.fail(format!("{}: baseline session failed to build", c.name()));
            continue;
        };
        t.op("probe", |t| {
            t.span("sertopt.baseline", |_| {
                size_for_speed(c, lib, &cfg.baseline_sizes, loads, cfg.baseline_effort)
            });
            match t.span("aserta.delta", |_| {
                session.try_set_cells(&o.optimized_cells)
            }) {
                Ok(stats) => dirty.push(stats.rows_recomputed as f64),
                Err(e) => r.fail(format!("{}: delta failed: {e}", c.name())),
            }
        });
    }
    r.layer("aserta.delta_dirty", median(&dirty));
}
