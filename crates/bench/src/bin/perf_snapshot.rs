//! Perf-trajectory snapshot: wall-times the ASERTA/SERTOPT hot paths on
//! fixed circuits at fixed seeds and writes a `BENCH_*.json` record, so
//! every PR has a baseline to beat.
//!
//! Measures, per circuit (c17 / sec32 / layered):
//!
//! * `pij` — Monte-Carlo sensitization-probability estimation;
//! * `widths` — the reverse-topological [`ExpectedWidths`] pass;
//! * `analyze_fresh` — the end-to-end ASERTA pipeline (library
//!   characterization warmed up beforehand so the timing isolates the
//!   analysis hot path);
//! * `optimize_fresh` / `optimize_incremental` — the same fixed-seed
//!   SERTOPT run measured against both evaluation strategies: one full
//!   analysis (a cold-start session, including its owned-state setup)
//!   per move versus the persistent warm
//!   [`aserta::AnalysisSession`]. The two runs produce
//!   identical outcomes (asserted), so the ratio measures warm-session
//!   reuse against the cold-start oracle path;
//! * `corners_fresh` / `corners_session` — the multi-corner scenario
//!   sweep ([`ser_bench::corners`]): a VDD × Vth × charge grid analyzed
//!   fresh per corner (cold session + `P_ij` re-estimate each time)
//!   versus driven through one warm session as per-corner deltas.
//!   Identical points (asserted), same warm-vs-cold reading;
//! * `snapshot_rebuild` / `snapshot_restore` — cold-starting a session
//!   from a `.sersnap` image versus rebuilding it from scratch
//!   (including the Monte-Carlo `P_ij` estimate the snapshot makes
//!   redundant). The restored session re-derives its timing and widths
//!   and is verified bitwise against the captured U and critical delay,
//!   so the ratio is pure persistence win. Under `--gate` it is held to
//!   an **absolute** floor ([`SNAPSHOT_RESTORE_SPEEDUP_FLOOR`]) on the
//!   circuits in [`RESTORE_GATED_CIRCUITS`].
//!
//! A separate top-level `serve` section times the `ser-serve` daemon
//! path on layered1k: requests/sec through an in-process daemon whose
//! pooled warm session answers charge-delta analyze requests, against a
//! fresh builder session per request. Under `--gate` the warm speedup
//! is held to an **absolute** floor ([`SERVE_SPEEDUP_FLOOR`]), not a
//! baseline ratio — the section is new and self-judging.
//!
//! A `pij_kernel` section ablates the estimator's adaptive sampling on
//! layered1k at a multi-block budget: the fixed-budget path
//! ([`PijConfig::fixed`]) against the default — whose speedup over
//! fixed is held to an **absolute** [`PIJ_KERNEL_SPEEDUP_FLOOR`] under
//! `--gate`, serve-style.
//!
//! A `characterization` section times characterizing the c432
//! stand-in's nominal cell variants into an empty library (standard
//! grids; coarse under `--smoke`) on one thread and on the engine's
//! threads ([`ser_cells::Library::characterize_all`]), checks the two
//! libraries are byte-equal and reports the speedup. It is recorded,
//! not gated, so the committed smoke baseline does not carry it.
//!
//! Every estimate runs on the `SER_*` environment overlay
//! ([`EngineConfig::from_env`]); a malformed variable is fatal. The
//! output's `snapshot` label is the `--out` file stem without its
//! `BENCH_` prefix (`--out BENCH_pr13.json` records `"pr13"`).
//!
//! ```text
//! cargo run --release -p ser-bench --bin perf_snapshot -- \
//!     [--smoke] [--gate] [--scaling] [--only SECTION] [--out PATH] \
//!     [--baseline PATH] [--emit-snapshot PATH]
//! ```
//!
//! `--only <circuits|serve|pij_kernel|scaling|characterization>` runs a
//! single section
//! (skipping the baseline comparison, whose coverage checks would
//! otherwise fail loudly) — so e.g. the `pij_kernel` ablations can be
//! iterated without paying the full suite.
//!
//! `--smoke` shrinks vector counts and repetitions for CI and compares
//! against the **committed baseline** (`crates/bench/baselines/
//! smoke.json`, embedded at compile time), printing the per-section
//! comparison to stdout so CI logs are self-explanatory. `--gate`
//! additionally fails (exit 1) if any timed section regresses beyond
//! [`GATE_THRESHOLD`]× the baseline. `--baseline` compares against an
//! explicit snapshot file instead and embeds it in the output document.
//!
//! `--scaling` additionally records a gates-versus-time/memory curve on
//! the [`tiled`](ser_netlist::generate::tiled) big-circuit family
//! (1k/10k gates in smoke mode, 1k/10k/100k otherwise): `analyze_fresh`
//! wall time, the streamed estimator's peak arena bytes (total and
//! amortized per node) and the process peak RSS per point, plus the
//! fitted log-log slope of time versus gates. Under `--gate` the slope
//! is compared against the baseline's — catching asymptotic regressions
//! that per-circuit constants would miss — alongside the usual
//! per-point wall-time ratios.

use aserta::{
    timing_view, AnalysisSession, AsertaConfig, AsertaReport, CircuitCells, ExpectedWidths,
    LoadModel, SessionSnapshot,
};
use ser_bench::corners::{sweep_fresh, sweep_session, CornerGrid};
use ser_bench::timed;
use ser_cells::{CharGrids, Library};
use ser_logicsim::probability::static_probabilities_analytic;
use ser_logicsim::sensitize::{
    sensitization_probabilities_cfg, sensitization_probabilities_with_stats_cfg, PijConfig,
};
use ser_logicsim::{EngineConfig, SensitizationMatrix};
use ser_netlist::generate::{self, LayeredSpec, TiledSpec};
use ser_netlist::Circuit;
use ser_serve::api::AnalyzeResult;
use ser_serve::{serve, CircuitSource, Client, GridKind, Listen, Request, Response, ServerConfig};
use ser_spice::{GateParams, Technology};
use serde_json::Value;
use sertopt::{Algorithm, AllowedParams, EvalStrategy, OptimizeRequest, OptimizerConfig};

/// Fixed seed shared by every stochastic estimate in the snapshot.
const SEED: u64 = 0xBE7C;

/// Prints a fatal error and exits — the bench binary's replacement for
/// `unwrap()`/`panic!` on fallible analysis and I/O surfaces.
fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(2);
}

/// [`aserta::try_analyze_fresh`] with bench-style error reporting.
fn checked_analyze(
    circuit: &Circuit,
    cells: &CircuitCells,
    lib: &mut Library,
    cfg: &AsertaConfig,
) -> AsertaReport {
    aserta::try_analyze_fresh(circuit, cells, lib, cfg)
        .unwrap_or_else(|e| die(&format!("analyzing {}", circuit.name()), e))
}

/// The committed smoke baseline CI gates against (regenerate by running
/// `perf_snapshot --smoke --scaling --out crates/bench/baselines/smoke.json`
/// on the reference machine after an intentional perf change; without
/// `--scaling` the baseline loses the section the CI scaling gate
/// compares against).
const EMBEDDED_SMOKE_BASELINE: &str = include_str!("../../baselines/smoke.json");

/// Allowed wall-time regression before `--gate` fails the run. Generous:
/// CI machines are noisy; the gate is meant to catch order-of-magnitude
/// slips, not jitter.
const GATE_THRESHOLD: f64 = 1.5;

/// Sections whose *baseline* wall time is below this are compared and
/// printed but never gated: below ~10 ms (c17's entire analysis and
/// optimization), scheduler noise swamps any real signal even
/// best-of-3, and a 2x blip there says nothing about the code.
const MIN_GATED_SECONDS: f64 = 1.0e-2;

/// The timed sections a baseline comparison inspects. A section (or a
/// whole circuit) missing from the baseline is a **loud** `--gate`
/// failure, not a silent skip — regenerate the committed baseline
/// whenever a scenario is added.
const TIMED_KEYS: [&str; 8] = [
    "pij_s",
    "widths_s",
    "analyze_fresh_s",
    "optimize_fresh_s",
    "optimize_incremental_s",
    "corners_fresh_s",
    "corners_session_s",
    "snapshot_restore_s",
];

/// Hard floor on the warm-daemon speedup over fresh-per-request
/// analysis on layered1k under `--gate`. **Absolute**, not
/// baseline-relative: the daemon's entire reason to exist is that a
/// pooled warm session answers a charge-delta request without
/// rebuilding the session (and re-running the Monte-Carlo `P_ij`
/// estimate), so a ratio below this means the pool stopped serving
/// warm.
const SERVE_SPEEDUP_FLOOR: f64 = 5.0;

/// Hard floor on the default-mode `P_ij` speedup (adaptive sampling at
/// default accuracy) over the fixed-budget path on layered1k under
/// `--gate`. **Absolute**, serve-style: adaptive sampling's reason to
/// exist is a multiple-× cut of the dominant `analyze_fresh` term, so
/// a ratio below this means it stopped pulling. Six runs on a 2-vCPU VM measured
/// 3.06–4.21×; the floor sits below the lowest.
const PIJ_KERNEL_SPEEDUP_FLOOR: f64 = 2.5;

/// Hard floor on `snapshot_restore_speedup` (rebuild time over restore
/// time) under `--gate`. **Absolute**: an image exists to skip work, so
/// restoring must never be slower than rebuilding.
const SNAPSHOT_RESTORE_SPEEDUP_FLOOR: f64 = 1.0;

/// The circuits the restore floor applies to. c17 is left out: both of
/// its sides take about 0.1 ms, where timer noise decides the ratio.
const RESTORE_GATED_CIRCUITS: [&str; 2] = ["sec32", "layered1k"];

/// The top-level sections, as `--only` names them. The CI perf commands
/// (`--smoke --gate` and `--smoke --scaling --gate`) run all four, so
/// the committed smoke baseline must carry each.
const SECTIONS: [&str; 4] = ["circuits", "serve", "pij_kernel", "scaling"];

/// Sections `--only` also names that no gate compares, so the committed
/// smoke baseline need not carry them.
const UNGATED_SECTIONS: [&str; 1] = ["characterization"];

/// Allowed additive increase of the fitted log-log `analyze_fresh` slope
/// over the baseline's before the scaling gate fails. A slope step of
/// this size means super-linear growth crept in (e.g. an accidental
/// `O(V·|PO|)` pass), which per-point ratios on small circuits miss.
const SLOPE_MARGIN: f64 = 0.35;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    let scaling_mode = args.iter().any(|a| a == "--scaling");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "perf_snapshot.json".to_owned());
    let label = std::path::Path::new(&out_path)
        .file_stem()
        .map(|s| s.to_string_lossy().trim_start_matches("BENCH_").to_owned())
        .unwrap_or_default();
    let baseline_path = flag_value(&args, "--baseline");

    // A sample image of the current format version, e.g. for CI to
    // upload as a downloadable artifact. Standalone: emits and exits.
    if let Some(path) = flag_value(&args, "--emit-snapshot") {
        emit_snapshot(&path);
        return;
    }

    // Smoke keeps vector counts small but still takes best-of-3: the
    // 1.5x gate needs timings stable enough not to trip on scheduler
    // noise.
    // The committed baseline holds smoke-mode numbers; gating full-mode
    // timings against it would fail unconditionally.
    if gate && !smoke && baseline_path.is_none() {
        eprintln!("error: --gate needs --smoke (committed baseline) or an explicit --baseline");
        std::process::exit(2);
    }

    // `--only` narrows the run to one section and drops the baseline
    // comparison (whose missing-section checks would fail loudly by
    // design for every section that did not run).
    let only = flag_value(&args, "--only");
    if let Some(o) = &only {
        if !SECTIONS.contains(&o.as_str()) && !UNGATED_SECTIONS.contains(&o.as_str()) {
            let known = [&SECTIONS[..], &UNGATED_SECTIONS[..]].concat().join("|");
            eprintln!("error: unknown --only section {o:?} ({known})");
            std::process::exit(2);
        }
    }
    let runs = |section: &str| only.as_deref().is_none_or(|o| o == section);

    let (vectors, reps) = if smoke { (512, 3) } else { (4096, 3) };
    let engine = EngineConfig::from_env().unwrap_or_else(|e| die("reading SER_* settings", e));
    let threads = engine.threads();

    let mut rows: Vec<Value> = Vec::new();
    if runs("circuits") {
        for circuit in snapshot_circuits() {
            let mut row = measure(&circuit, &engine, vectors, reps);
            merge(&mut row, measure_optimize(&circuit, smoke));
            merge(&mut row, measure_corners(&circuit, smoke));
            merge(&mut row, measure_snapshot_restore(&circuit, smoke));
            eprintln!("measured {}", circuit.name());
            rows.push(row);
        }
    }
    let scaling_doc = (scaling_mode && runs("scaling")).then(|| measure_scaling(&engine, smoke));
    let serve_doc = runs("serve").then(|| measure_serve(smoke));
    let pij_kernel_doc = runs("pij_kernel").then(|| measure_pij_kernel(&engine));
    let characterization_doc =
        runs("characterization").then(|| measure_characterization(&engine, smoke, reps));

    // An explicit --baseline is embedded in the document; the committed
    // smoke baseline is only *printed* (embedding it would nest forever
    // once the output is committed as the next baseline).
    let explicit_baseline = baseline_path.map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| die(&format!("reading {p}"), e));
        serde_json::from_str::<Value>(&text).unwrap_or_else(|e| die(&format!("parsing {p}"), e))
    });
    let speedups = explicit_baseline.as_ref().map(|b| speedups_vs(b, &rows));

    let compare_against = if only.is_some() {
        None
    } else {
        explicit_baseline.clone().or_else(|| {
            if smoke || gate {
                Some(
                    serde_json::from_str::<Value>(EMBEDDED_SMOKE_BASELINE)
                        .unwrap_or_else(|e| die("parsing the embedded smoke baseline", e)),
                )
            } else {
                None
            }
        })
    };
    let mut regressions: Vec<String> = Vec::new();
    if let Some(base) = &compare_against {
        regressions = print_comparison(base, &rows);
        if let Some(run_scaling) = &scaling_doc {
            regressions.extend(print_scaling_comparison(base, run_scaling));
        }
    }
    // The serve, pij_kernel and snapshot-restore ratios judge themselves
    // against absolute floors rather than the committed baseline, so a
    // stale baseline can never mask a dead warm path, kernel path or
    // persistence win.
    if gate {
        if let Some(d) = &serve_doc {
            check_floor(
                &mut regressions,
                "serve: warm-daemon speedup",
                num(d, "warm_speedup"),
                SERVE_SPEEDUP_FLOOR,
            );
        }
        if let Some(d) = &pij_kernel_doc {
            check_floor(
                &mut regressions,
                "pij_kernel: default-mode speedup",
                num(d, "speedup_default"),
                PIJ_KERNEL_SPEEDUP_FLOOR,
            );
        }
        for row in &rows {
            let name = field(row, "name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            if RESTORE_GATED_CIRCUITS.contains(&name) {
                check_floor(
                    &mut regressions,
                    &format!("{name}: snapshot restore speedup"),
                    num(row, "snapshot_restore_speedup"),
                    SNAPSHOT_RESTORE_SPEEDUP_FLOOR,
                );
            }
        }
    }

    let mut doc: Vec<(String, Value)> = vec![
        ("snapshot".into(), serde_json::to_value(&label)),
        ("smoke".into(), serde_json::to_value(&smoke)),
        ("threads".into(), serde_json::to_value(&(threads as u64))),
        ("vectors".into(), serde_json::to_value(&(vectors as u64))),
        ("reps".into(), serde_json::to_value(&(reps as u64))),
        ("circuits".into(), Value::Array(rows)),
    ];
    if let Some(s) = serve_doc {
        doc.push(("serve".into(), s));
    }
    if let Some(s) = pij_kernel_doc {
        doc.push(("pij_kernel".into(), s));
    }
    if let Some(s) = scaling_doc {
        doc.push(("scaling".into(), s));
    }
    if let Some(s) = characterization_doc {
        doc.push(("characterization".into(), s));
    }
    if let Some(s) = speedups {
        doc.push(("speedup_vs_baseline".into(), s));
    }
    if let Some(b) = explicit_baseline {
        doc.push(("baseline".into(), b));
    }
    let text = serde_json::to_string_pretty(&Value::Object(doc))
        .unwrap_or_else(|e| die("rendering the output JSON", e));
    std::fs::write(&out_path, text + "\n")
        .unwrap_or_else(|e| die(&format!("writing {out_path}"), e));
    println!("wrote {out_path}");

    if gate && !regressions.is_empty() {
        eprintln!("perf gate FAILED ({GATE_THRESHOLD}x threshold):");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
    if gate {
        println!("perf gate passed ({GATE_THRESHOLD}x threshold)");
    }
}

/// Holds a self-judging ratio to an absolute floor: prints it when met,
/// records a regression when it falls below or went unmeasured.
fn check_floor(regressions: &mut Vec<String>, what: &str, value: Option<f64>, floor: f64) {
    match value {
        Some(v) if v >= floor => println!("{what} {v:.2}x (absolute floor {floor}x)"),
        Some(v) => regressions.push(format!("{what} {v:.2}x below the absolute {floor}x floor")),
        None => regressions.push(format!("{what} missing — the section stopped measuring")),
    }
}

/// The fixed circuit set: tiny exact c17, the 32-bit SEC circuit
/// (c499-class structure) and a 1000-gate random layered DAG.
fn snapshot_circuits() -> Vec<Circuit> {
    vec![
        generate::c17(),
        generate::sec32("sec32"),
        generate::layered(&LayeredSpec::new("layered1k", 40, 12, 1000)),
    ]
}

/// Times the three analysis hot paths on one circuit, keeping the best
/// of `reps` runs (first `analyze_fresh` call outside the clock warms
/// the library's characterization cache).
fn measure(circuit: &Circuit, engine: &EngineConfig, vectors: usize, reps: usize) -> Value {
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cells = CircuitCells::nominal(circuit);
    let cfg = AsertaConfig {
        sensitization_vectors: vectors,
        seed: SEED,
        ..AsertaConfig::default()
    };

    // Warm-up: characterizes every cell once so timed runs hit the cache.
    let report = checked_analyze(circuit, &cells, &mut lib, &cfg);

    // The first timed run doubles as the matrix used by the widths pass.
    let (pij, first_s) = timed(|| estimate(circuit, engine, vectors));
    let rest_s = best_of(reps.saturating_sub(1), || {
        timed(|| estimate(circuit, engine, vectors)).1
    });
    let pij_s = first_s.min(rest_s);

    let probs = static_probabilities_analytic(circuit, cfg.pi_probability);
    let loads = LoadModel {
        wire_cap_per_pin: cfg.wire_cap_per_pin,
        po_load: cfg.po_load,
    };
    let view = timing_view(circuit, &cells, &mut lib, loads, cfg.pi_ramp);
    let widths_s = best_of(reps, || {
        timed(|| {
            ExpectedWidths::compute(circuit, &probs, &pij, &view.delays, cfg.sample_width_grid())
        })
        .1
    });

    let analyze_s = best_of(reps, || {
        timed(|| checked_analyze(circuit, &cells, &mut lib, &cfg)).1
    });

    Value::Object(vec![
        ("name".into(), serde_json::to_value(&circuit.name())),
        (
            "nodes".into(),
            serde_json::to_value(&(circuit.node_count() as u64)),
        ),
        (
            "gates".into(),
            serde_json::to_value(&(circuit.gate_count() as u64)),
        ),
        (
            "pos".into(),
            serde_json::to_value(&(circuit.primary_outputs().len() as u64)),
        ),
        (
            "unreliability".into(),
            serde_json::to_value(&report.unreliability),
        ),
        ("pij_s".into(), serde_json::to_value(&pij_s)),
        ("widths_s".into(), serde_json::to_value(&widths_s)),
        ("analyze_fresh_s".into(), serde_json::to_value(&analyze_s)),
    ])
}

/// `P_ij` of `circuit` at [`SEED`] on `engine`'s settings.
fn estimate(circuit: &Circuit, engine: &EngineConfig, vectors: usize) -> SensitizationMatrix {
    sensitization_probabilities_cfg(
        circuit,
        vectors,
        SEED,
        engine.threads(),
        engine.cone_chunk(),
        &engine.pij(),
    )
}

/// Times the same fixed-seed SERTOPT run under both evaluation engines
/// (single worker thread, so the ratio isolates incrementality, not
/// parallelism) and asserts the outcomes agree.
fn measure_optimize(circuit: &Circuit, smoke: bool) -> Value {
    // Coordinate descent is the representative inner-loop workload:
    // localized single-coordinate moves, exactly what the incremental
    // engine scopes. (SQP's SPSA probes above `FD_DIM_LIMIT` perturb all
    // coordinates at once and profit mostly from thread batching.)
    let mut cfg = OptimizerConfig {
        algorithm: Algorithm::CoordinateDescent,
        allowed: AllowedParams::tiny(),
        iterations: if smoke { 3 } else { 10 },
        seed: SEED,
        threads: 1,
        ..OptimizerConfig::default()
    };
    cfg.aserta.sensitization_vectors = if smoke { 512 } else { 2048 };
    cfg.aserta.seed = SEED;

    // Pre-warm one library per engine run outside the clock.
    let mut lib_fresh = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut lib_inc = Library::new(Technology::ptm70(), CharGrids::coarse());
    lib_fresh.characterize_spec(&cfg.allowed.library_spec(circuit), 0);
    lib_inc.characterize_spec(&cfg.allowed.library_spec(circuit), 0);

    cfg.eval = EvalStrategy::FreshPerMove;
    let (fresh, fresh_s) =
        timed(|| sertopt::optimize(circuit, &mut lib_fresh, &OptimizeRequest::new(cfg.clone())));
    cfg.eval = EvalStrategy::Incremental;
    let (inc, inc_s) =
        timed(|| sertopt::optimize(circuit, &mut lib_inc, &OptimizeRequest::new(cfg.clone())));
    assert_eq!(
        fresh.optimized.cost,
        inc.optimized.cost,
        "engines must agree on {}",
        circuit.name()
    );
    assert_eq!(fresh.evaluations, inc.evaluations);

    Value::Object(vec![
        ("optimize_fresh_s".into(), serde_json::to_value(&fresh_s)),
        (
            "optimize_incremental_s".into(),
            serde_json::to_value(&inc_s),
        ),
        (
            "optimize_speedup".into(),
            serde_json::to_value(&(fresh_s / inc_s)),
        ),
        (
            "optimize_evaluations".into(),
            serde_json::to_value(&(inc.evaluations as u64)),
        ),
    ])
}

/// Times the multi-corner scenario sweep under both engines (fresh
/// analysis per corner vs one warm session driven by per-corner deltas;
/// single worker thread so the ratio isolates the engine) and asserts
/// they produce identical points.
fn measure_corners(circuit: &Circuit, smoke: bool) -> Value {
    let grid = if smoke {
        CornerGrid::smoke()
    } else {
        CornerGrid::table1_style()
    };
    let corners = grid.corners();
    let cells = CircuitCells::nominal(circuit);
    let cfg = AsertaConfig {
        sensitization_vectors: if smoke { 512 } else { 2048 },
        seed: SEED,
        ..AsertaConfig::default()
    };

    // Warm each engine's library with every corner variant — and the
    // base-point variants the session boots from — outside the clock,
    // so neither run times first-touch characterization.
    let mut lib_fresh = Library::new(Technology::ptm70(), CharGrids::coarse());
    checked_analyze(circuit, &cells, &mut lib_fresh, &cfg);
    sweep_fresh(circuit, &cells, &mut lib_fresh, &cfg, &corners);
    let lib_session = lib_fresh.clone();

    let (fresh, fresh_s) = timed(|| sweep_fresh(circuit, &cells, &mut lib_fresh, &cfg, &corners));
    let (warm, session_s) =
        timed(|| sweep_session(circuit, &cells, lib_session, &cfg, &corners, 1));
    assert_eq!(fresh, warm, "engines must agree on {}", circuit.name());

    Value::Object(vec![
        (
            "corners".into(),
            serde_json::to_value(&(corners.len() as u64)),
        ),
        ("corners_fresh_s".into(), serde_json::to_value(&fresh_s)),
        ("corners_session_s".into(), serde_json::to_value(&session_s)),
        (
            "corners_speedup".into(),
            serde_json::to_value(&(fresh_s / session_s)),
        ),
    ])
}

/// Times cold-start-from-file against a full rebuild at the same
/// config, best-of-2 each: `snapshot_restore_s` covers `read_file` +
/// `restore_from` (decode, CRC checks, the full timing/width/U pass over
/// the stored inputs, and the bitwise U and critical-delay check),
/// `snapshot_rebuild_s` covers a builder `build()` from scratch including
/// the Monte-Carlo `P_ij` estimate the snapshot makes redundant.
/// `snapshot_bytes` is the image size on disk.
fn measure_snapshot_restore(circuit: &Circuit, smoke: bool) -> Value {
    let vectors = if smoke { 512 } else { 2048 };
    let cfg = AsertaConfig {
        sensitization_vectors: vectors,
        seed: SEED,
        ..AsertaConfig::default()
    };
    let cells = CircuitCells::nominal(circuit);
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    // Warm the characterization cache so both paths time their own work.
    checked_analyze(circuit, &cells, &mut lib, &cfg);

    let session = AnalysisSession::builder(circuit, cells.clone(), lib.clone(), cfg.clone())
        .build()
        .unwrap_or_else(|e| die(&format!("building session for {}", circuit.name()), e));
    let rebuild_s = best_of(2, || {
        timed(|| {
            AnalysisSession::builder(circuit, cells.clone(), lib.clone(), cfg.clone())
                .build()
                .unwrap_or_else(|e| die(&format!("rebuilding session for {}", circuit.name()), e))
        })
        .1
    });

    let dir = std::env::temp_dir().join(format!("sersnap-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die("creating snapshot temp dir", e));
    let path = dir.join(format!("{}.sersnap", circuit.name()));
    session
        .snapshot_to(&path)
        .unwrap_or_else(|e| die(&format!("writing snapshot for {}", circuit.name()), e));
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let live_bits = session.unreliability().to_bits();
    let restore_s = best_of(2, || {
        timed(|| {
            let snap = SessionSnapshot::read_file(&path)
                .unwrap_or_else(|e| die(&format!("reading snapshot for {}", circuit.name()), e));
            let restored = AnalysisSession::restore_from(&snap)
                .unwrap_or_else(|e| die(&format!("restoring session for {}", circuit.name()), e));
            assert_eq!(
                restored.unreliability().to_bits(),
                live_bits,
                "restored session must match the live one bitwise"
            );
        })
        .1
    });
    std::fs::remove_dir_all(&dir).ok();

    Value::Object(vec![
        (
            "snapshot_rebuild_s".into(),
            serde_json::to_value(&rebuild_s),
        ),
        (
            "snapshot_restore_s".into(),
            serde_json::to_value(&restore_s),
        ),
        (
            "snapshot_restore_speedup".into(),
            serde_json::to_value(&(rebuild_s / restore_s)),
        ),
        (
            "snapshot_bytes".into(),
            serde_json::to_value(&snapshot_bytes),
        ),
    ])
}

/// Times the `ser-serve` daemon path on layered1k: boots an in-process
/// server on a Unix socket, issues analyze requests that differ only in
/// strike charge (after the first cold build each is a warm-session
/// delta, since charge is excluded from the pool identity), and
/// compares per-request wall time against a fresh builder session per
/// request. Library characterization is warmed outside the clock on
/// both sides, so the fresh cost is the per-request work a non-resident
/// caller cannot avoid: the Monte-Carlo `P_ij` estimate plus session
/// setup. One warm answer is asserted bitwise equal to its fresh
/// counterpart — the fidelity contract the speedup rides on.
fn measure_serve(smoke: bool) -> Value {
    let vectors = if smoke { 512 } else { 2048 };
    let cfg = AsertaConfig {
        sensitization_vectors: vectors,
        seed: SEED,
        ..AsertaConfig::default()
    };
    let spec = LayeredSpec::new("layered1k", 40, 12, 1000);
    let circuit = generate::layered(&spec);
    let cells = CircuitCells::nominal(&circuit);
    // Requests cycle through distinct charges: same session identity, so
    // every daemon answer after the first is a warm delta, never a
    // cache replay of an identical request.
    let charges: Vec<f64> = (0..8)
        .map(|i| cfg.charge * (1.0 + 0.125 * i as f64))
        .collect();

    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    checked_analyze(&circuit, &cells, &mut lib, &cfg);
    let fresh_at = |charge: f64| {
        let mut one = cfg.clone();
        one.charge = charge;
        AnalysisSession::builder(&circuit, cells.clone(), lib.clone(), one)
            .build()
            .unwrap_or_else(|e| die("building a fresh serve-baseline session", e))
    };
    let fresh_reqs = if smoke { 3 } else { 5 };
    let (_, fresh_total_s) = timed(|| {
        for i in 0..fresh_reqs {
            let session = fresh_at(charges[i % charges.len()]);
            assert!(session.unreliability() > 0.0);
        }
    });

    let socket = std::env::temp_dir().join(format!("ser-serve-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut server_cfg = ServerConfig::new(Listen::Unix(socket));
    server_cfg.workers = 1;
    let handle = serve(server_cfg).unwrap_or_else(|e| die("booting the in-process daemon", e));
    let mut client =
        Client::connect(&handle.endpoint()).unwrap_or_else(|e| die("connecting to the daemon", e));
    let analyze_at = |client: &mut Client, charge: f64| -> AnalyzeResult {
        let mut one = cfg.clone();
        one.charge = charge;
        let request = Request::Analyze {
            circuit: CircuitSource::Layered {
                name: spec.name.clone(),
                inputs: spec.n_inputs as u64,
                outputs: spec.n_outputs as u64,
                gates: spec.n_gates as u64,
                seed: spec.seed,
            },
            config: one,
            grids: GridKind::Coarse,
            deadline_ms: None,
        };
        match client.request(&request) {
            Ok(Response::Analyzed(result)) => result,
            Ok(other) => die("analyze request", format!("unexpected response {other:?}")),
            Err(e) => die("analyze request", e),
        }
    };

    // The first request pays the daemon's one cold session build; it is
    // recorded separately and kept out of the warm clock.
    let (cold, cold_s) = timed(|| analyze_at(&mut client, charges[0]));
    let check = fresh_at(charges[0]);
    assert_eq!(
        cold.unreliability.to_bits(),
        check.unreliability().to_bits(),
        "daemon answer must be bitwise identical to the direct library call"
    );

    let warm_reqs = if smoke { 24 } else { 48 };
    let (_, warm_total_s) = timed(|| {
        for i in 0..warm_reqs {
            let result = analyze_at(&mut client, charges[i % charges.len()]);
            assert!(result.unreliability > 0.0);
        }
    });

    match client.request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        Ok(other) => die(
            "shutting the daemon down",
            format!("unexpected response {other:?}"),
        ),
        Err(e) => die("shutting the daemon down", e),
    }
    drop(client);
    handle.join();

    let fresh_per = fresh_total_s / fresh_reqs as f64;
    let warm_per = warm_total_s / warm_reqs as f64;
    eprintln!(
        "measured serve throughput ({:.0} warm req/s, {:.1}x over fresh-per-request)",
        1.0 / warm_per,
        fresh_per / warm_per
    );

    Value::Object(vec![
        ("circuit".into(), serde_json::to_value(&"layered1k")),
        ("vectors".into(), serde_json::to_value(&(vectors as u64))),
        (
            "warm_requests".into(),
            serde_json::to_value(&(warm_reqs as u64)),
        ),
        ("warm_total_s".into(), serde_json::to_value(&warm_total_s)),
        ("warm_per_request_s".into(), serde_json::to_value(&warm_per)),
        (
            "warm_requests_per_s".into(),
            serde_json::to_value(&(1.0 / warm_per)),
        ),
        ("cold_first_request_s".into(), serde_json::to_value(&cold_s)),
        (
            "fresh_requests".into(),
            serde_json::to_value(&(fresh_reqs as u64)),
        ),
        ("fresh_total_s".into(), serde_json::to_value(&fresh_total_s)),
        (
            "fresh_per_request_s".into(),
            serde_json::to_value(&fresh_per),
        ),
        (
            "fresh_requests_per_s".into(),
            serde_json::to_value(&(1.0 / fresh_per)),
        ),
        (
            "warm_speedup".into(),
            serde_json::to_value(&(fresh_per / warm_per)),
        ),
    ])
}

/// Ablates adaptive sampling on layered1k at a deliberately multi-block
/// budget (the adaptive stop rule only fires at 64-word block
/// boundaries, so the 512-vector smoke budget — a single partial block
/// — would show no adaptivity at all):
///
/// * `fixed` — tolerance 0 ([`PijConfig::fixed`]): the baseline the
///   ratio is against;
/// * `default` — adaptive sampling at default accuracy; its deviation
///   from fixed is reported (`max_abs_delta_p`) and sanity-bounded.
fn measure_pij_kernel(engine: &EngineConfig) -> Value {
    let circuit = generate::layered(&LayeredSpec::new("layered1k", 40, 12, 1000));
    let vectors = 200_000;
    let reps = 3;
    let threads = engine.threads();
    let chunk = engine.cone_chunk();

    let fixed_cfg = PijConfig::fixed();
    let default_cfg = PijConfig::default();

    let run = |pij: &PijConfig| {
        let (first, first_s) =
            timed(|| sensitization_probabilities_cfg(&circuit, vectors, SEED, threads, chunk, pij));
        let rest_s = best_of(reps - 1, || {
            timed(|| sensitization_probabilities_cfg(&circuit, vectors, SEED, threads, chunk, pij))
                .1
        });
        (first, first_s.min(rest_s))
    };
    let (fixed, fixed_s) = run(&fixed_cfg);
    let (default_m, default_s) = run(&default_cfg);
    let ((_, stats), _) = timed(|| {
        sensitization_probabilities_with_stats_cfg(
            &circuit,
            vectors,
            SEED,
            threads,
            chunk,
            &default_cfg,
        )
    });

    // Default accuracy must stay default accuracy: adaptive stopping
    // may not drift visibly from the fixed-budget estimate.
    let mut max_delta = 0.0f64;
    for id in circuit.node_ids() {
        for j in 0..circuit.primary_outputs().len() {
            max_delta = max_delta.max((default_m.p(id, j) - fixed.p(id, j)).abs());
        }
    }
    assert!(
        max_delta < 0.05,
        "default estimator drifted {max_delta} from the fixed-budget estimate"
    );

    eprintln!(
        "measured pij_kernel (fixed {:.1} ms, default {:.1} ms, {:.1}x)",
        fixed_s * 1e3,
        default_s * 1e3,
        fixed_s / default_s
    );
    Value::Object(vec![
        ("circuit".into(), serde_json::to_value(&"layered1k")),
        ("vectors".into(), serde_json::to_value(&(vectors as u64))),
        ("threads".into(), serde_json::to_value(&(threads as u64))),
        ("chunk".into(), serde_json::to_value(&(chunk as u64))),
        ("fixed_s".into(), serde_json::to_value(&fixed_s)),
        ("default_s".into(), serde_json::to_value(&default_s)),
        (
            "speedup_default".into(),
            serde_json::to_value(&(fixed_s / default_s)),
        ),
        (
            "adaptive_stops".into(),
            serde_json::to_value(&(stats.adaptive_stops as u64)),
        ),
        ("max_abs_delta_p".into(), serde_json::to_value(&max_delta)),
    ])
}

/// Times characterizing the c432 stand-in's distinct nominal variants
/// into an empty library, best of `reps`, on one thread and on the
/// engine's threads, and asserts both libraries serialize byte-equal.
fn measure_characterization(engine: &EngineConfig, smoke: bool, reps: usize) -> Value {
    let circuit =
        generate::iscas85("c432").unwrap_or_else(|| die("generating c432", "unknown circuit"));
    let cells = CircuitCells::nominal(&circuit);
    let variants: Vec<GateParams> = circuit
        .gates()
        .filter_map(|id| cells.get(id).copied())
        .collect();
    let grids = if smoke {
        CharGrids::coarse()
    } else {
        CharGrids::standard()
    };
    let threads = engine.threads();
    let run = |t: usize| {
        let mut lib = Library::new(Technology::ptm70(), grids.clone());
        let (added, s) = timed(|| lib.characterize_all(&variants, t));
        (lib, added, s)
    };
    let (serial_lib, count, first_serial_s) = run(1);
    let (parallel_lib, _, first_parallel_s) = run(threads);
    let json = |lib: &Library| {
        lib.to_json()
            .unwrap_or_else(|e| die("serializing a library", e))
    };
    assert!(
        json(&serial_lib) == json(&parallel_lib),
        "parallel characterization must match the serial library byte for byte"
    );
    let serial_s = first_serial_s.min(best_of(reps - 1, || run(1).2));
    let parallel_s = first_parallel_s.min(best_of(reps - 1, || run(threads).2));

    eprintln!(
        "measured characterization ({count} variants, serial {:.1} ms, {threads} threads {:.1} ms, {:.2}x)",
        serial_s * 1e3,
        parallel_s * 1e3,
        serial_s / parallel_s
    );
    Value::Object(vec![
        ("circuit".into(), serde_json::to_value(&"c432")),
        (
            "grids".into(),
            serde_json::to_value(&if smoke { "coarse" } else { "standard" }),
        ),
        ("variants".into(), serde_json::to_value(&(count as u64))),
        ("threads".into(), serde_json::to_value(&(threads as u64))),
        ("serial_s".into(), serde_json::to_value(&serial_s)),
        ("parallel_s".into(), serde_json::to_value(&parallel_s)),
        (
            "speedup".into(),
            serde_json::to_value(&(serial_s / parallel_s)),
        ),
    ])
}

/// Writes a known-good `.sersnap` image of the sec32 reference circuit
/// at the current format version, then verifies it restores bitwise.
fn emit_snapshot(path: &str) {
    let circuit = generate::sec32("sec32");
    let cfg = AsertaConfig {
        sensitization_vectors: 512,
        seed: SEED,
        ..AsertaConfig::default()
    };
    let cells = CircuitCells::nominal(&circuit);
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let session = AnalysisSession::builder(&circuit, cells, lib, cfg)
        .build()
        .unwrap_or_else(|e| die("building the sample session", e));
    session
        .snapshot_to(path)
        .unwrap_or_else(|e| die(&format!("writing {path}"), e));
    let snap = SessionSnapshot::read_file(path)
        .unwrap_or_else(|e| die(&format!("reading back {path}"), e));
    let restored = AnalysisSession::restore_from(&snap)
        .unwrap_or_else(|e| die(&format!("restoring {path}"), e));
    assert_eq!(
        restored.unreliability().to_bits(),
        session.unreliability().to_bits(),
        "emitted snapshot must restore bitwise"
    );
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("wrote {path} ({bytes} bytes, restore verified bitwise)");
}

/// Measures the gates-versus-cost curve on the [`generate::tiled`]
/// big-circuit family: per point, best-of-2 `pij` and `analyze_fresh`
/// wall times, the streamed estimator's arena profile and the process
/// peak RSS (monotonic across points — sizes run ascending, so each
/// reading is the high-water mark after that size).
fn measure_scaling(engine: &EngineConfig, smoke: bool) -> Value {
    let sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let vectors = if smoke { 512 } else { 1024 };
    let reps = 2;
    let chunk = engine.cone_chunk();

    let mut points: Vec<Value> = Vec::new();
    for &gates in sizes {
        let name = format!("tiled{}k", gates / 1000);
        let circuit = generate::tiled(&TiledSpec::scaled(name.clone(), gates));
        let nodes = circuit.node_count();
        let cells = CircuitCells::nominal(&circuit);
        let cfg = AsertaConfig {
            sensitization_vectors: vectors,
            seed: SEED,
            ..AsertaConfig::default()
        };
        let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        // Warm-up: characterizes every cell once so timed runs hit the
        // cache, exactly like the fixed-circuit suite.
        checked_analyze(&circuit, &cells, &mut lib, &cfg);

        let ((_, stats), first_s) = timed(|| {
            sensitization_probabilities_with_stats_cfg(
                &circuit,
                vectors,
                SEED,
                engine.threads(),
                chunk,
                &engine.pij(),
            )
        });
        let pij_s = first_s.min(best_of(reps - 1, || {
            timed(|| estimate(&circuit, engine, vectors)).1
        }));
        let analyze_s = best_of(reps, || {
            timed(|| checked_analyze(&circuit, &cells, &mut lib, &cfg)).1
        });

        points.push(Value::Object(vec![
            ("name".into(), serde_json::to_value(&name)),
            ("gates".into(), serde_json::to_value(&(gates as u64))),
            ("nodes".into(), serde_json::to_value(&(nodes as u64))),
            ("pij_s".into(), serde_json::to_value(&pij_s)),
            ("analyze_fresh_s".into(), serde_json::to_value(&analyze_s)),
            (
                "arena_chunks".into(),
                serde_json::to_value(&(stats.chunks as u64)),
            ),
            (
                "arena_peak_bytes".into(),
                serde_json::to_value(&(stats.peak_bytes as u64)),
            ),
            (
                "arena_bytes_per_node".into(),
                serde_json::to_value(&(stats.peak_bytes as f64 / nodes as f64)),
            ),
            (
                "cone_entries".into(),
                serde_json::to_value(&(stats.cone_entries as u64)),
            ),
            (
                "peak_rss_bytes".into(),
                match peak_rss_bytes() {
                    Some(b) => serde_json::to_value(&b),
                    None => Value::Null,
                },
            ),
        ]));
        eprintln!("measured scaling point {name} ({gates} gates)");
    }

    let slope = fit_loglog_slope(&points, "analyze_fresh_s");
    Value::Object(vec![
        ("vectors".into(), serde_json::to_value(&(vectors as u64))),
        ("chunk".into(), serde_json::to_value(&(chunk as u64))),
        ("points".into(), Value::Array(points)),
        (
            "slope_analyze_fresh".into(),
            match slope {
                Some(s) => serde_json::to_value(&s),
                None => Value::Null,
            },
        ),
    ])
}

/// Least-squares slope of `ln(point[key])` against `ln(gates)` — the
/// empirical scaling exponent (1.0 = linear in circuit size). `None`
/// with fewer than two usable points.
fn fit_loglog_slope(points: &[Value], key: &str) -> Option<f64> {
    let xy: Vec<(f64, f64)> = points
        .iter()
        .filter_map(|p| {
            let g = num(p, "gates").filter(|&g| g > 0.0)?;
            let t = num(p, key).filter(|&t| t > 0.0)?;
            Some((g.ln(), t.ln()))
        })
        .collect();
    if xy.len() < 2 {
        return None;
    }
    let n = xy.len() as f64;
    let mx = xy.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let my = xy.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let sxy = xy.iter().map(|&(x, y)| (x - mx) * (y - my)).sum::<f64>();
    let sxx = xy.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum::<f64>();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// Peak resident-set size of this process from `/proc/self/status`
/// (`VmHWM`), in bytes. `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Prints the scaling-curve comparison and returns its gate findings:
/// per-point `analyze_fresh` ratios beyond [`GATE_THRESHOLD`] (like the
/// fixed-circuit sections), a fitted slope more than [`SLOPE_MARGIN`]
/// above the baseline's, and — loudly — a baseline with no scaling
/// section or mismatched points.
fn print_scaling_comparison(baseline: &Value, run: &Value) -> Vec<String> {
    let mut regressions = Vec::new();
    println!("\nscaling comparison vs baseline:");
    let Some(base) = field(baseline, "scaling") else {
        println!("  (baseline has no scaling section)");
        regressions.push(
            "scaling: section missing from baseline — regenerate crates/bench/baselines/smoke.json"
                .to_owned(),
        );
        return regressions;
    };
    let empty: Vec<Value> = Vec::new();
    let base_points = field(base, "points")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let run_points = field(run, "points")
        .and_then(Value::as_array)
        .unwrap_or(&empty);

    for point in run_points {
        let Some(gates) = num(point, "gates") else {
            continue;
        };
        let name = format!("{}-gate point", gates as u64);
        let Some(base_point) = base_points.iter().find(|b| num(b, "gates") == Some(gates)) else {
            println!("  {name} (not in baseline)");
            regressions.push(format!(
                "scaling: {name} missing from baseline — regenerate crates/bench/baselines/smoke.json"
            ));
            continue;
        };
        match (
            num(base_point, "analyze_fresh_s"),
            num(point, "analyze_fresh_s"),
        ) {
            (Some(b), Some(n)) if b > 0.0 => {
                let ratio = n / b;
                println!("  {name:<18} analyze_fresh {ratio:.2}x");
                if ratio > GATE_THRESHOLD && b >= MIN_GATED_SECONDS {
                    regressions.push(format!(
                        "scaling: {name} analyze_fresh_s {n:.6}s vs baseline {b:.6}s ({ratio:.2}x)"
                    ));
                }
            }
            _ => {
                println!("  {name:<18} (no comparable timing)");
            }
        }
    }
    for base_point in base_points {
        let Some(gates) = num(base_point, "gates") else {
            continue;
        };
        if !run_points.iter().any(|p| num(p, "gates") == Some(gates)) {
            regressions.push(format!(
                "scaling: {}-gate point in baseline but not measured — a scaling size silently dropped",
                gates as u64
            ));
        }
    }

    match (
        num(base, "slope_analyze_fresh"),
        num(run, "slope_analyze_fresh"),
    ) {
        (Some(b), Some(n)) => {
            println!("  slope             {n:.3} vs baseline {b:.3}");
            if n > b + SLOPE_MARGIN {
                regressions.push(format!(
                    "scaling: analyze_fresh slope {n:.3} vs baseline {b:.3} — asymptotic regression"
                ));
            }
        }
        _ => {
            println!("  slope             (not comparable)");
        }
    }
    regressions
}

/// Appends `extra`'s fields to the `row` object.
fn merge(row: &mut Value, extra: Value) {
    if let (Value::Object(row), Value::Object(extra)) = (row, extra) {
        row.extend(extra);
    }
}

/// Minimum over `reps` runs (`INFINITY` when `reps` is 0, for callers
/// folding in an already-timed first run).
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Prints a per-circuit, per-section comparison against `baseline` to
/// stdout and returns the gate findings: sections regressing beyond
/// [`GATE_THRESHOLD`] (ignoring sections whose baseline is under
/// [`MIN_GATED_SECONDS`] — pure noise at that scale), plus any measured
/// section or circuit **missing** from the baseline — a stale baseline
/// must fail the gate loudly, not silently shrink its coverage. The
/// committed baseline records one machine's wall times: regenerate it
/// alongside intentional perf changes (and whenever a scenario is
/// added), and expect the gate to be meaningful only on comparable
/// hardware.
fn print_comparison(baseline: &Value, rows: &[Value]) -> Vec<String> {
    let empty: &[Value] = &[];
    let base_rows = baseline_rows(baseline).unwrap_or(empty);
    let mut regressions = Vec::new();
    println!("\ncomparison vs baseline (new/old wall time; <1 is faster):");
    for row in rows {
        let Some(name) = field(row, "name").and_then(Value::as_str) else {
            continue;
        };
        let Some(base) = base_rows
            .iter()
            .find(|b| field(b, "name").and_then(Value::as_str) == Some(name))
        else {
            println!("  {name:<10} (not in baseline)");
            regressions.push(format!(
                "{name}: circuit missing from baseline — regenerate crates/bench/baselines/smoke.json"
            ));
            continue;
        };
        let mut parts: Vec<String> = Vec::new();
        for key in TIMED_KEYS {
            match (num(base, key), num(row, key)) {
                (Some(b), Some(n)) if b > 0.0 => {
                    let ratio = n / b;
                    parts.push(format!("{} {ratio:.2}x", key.trim_end_matches("_s")));
                    if ratio > GATE_THRESHOLD && b >= MIN_GATED_SECONDS {
                        regressions.push(format!(
                            "{name}: {key} {n:.6}s vs baseline {b:.6}s ({ratio:.2}x)"
                        ));
                    }
                }
                (None, Some(_)) => {
                    parts.push(format!("{} (no baseline)", key.trim_end_matches("_s")));
                    regressions.push(format!(
                        "{name}: {key} missing from baseline — regenerate crates/bench/baselines/smoke.json"
                    ));
                }
                (Some(_), None) => {
                    parts.push(format!("{} (not measured)", key.trim_end_matches("_s")));
                    regressions.push(format!(
                        "{name}: {key} in baseline but not measured — a scenario silently stopped running"
                    ));
                }
                _ => {}
            }
        }
        println!("  {name:<10} {}", parts.join("  "));
    }
    // The reverse direction: circuits the baseline covers but this run
    // no longer measures must fail just as loudly.
    for base in base_rows {
        let Some(name) = field(base, "name").and_then(Value::as_str) else {
            continue;
        };
        if !rows
            .iter()
            .any(|r| field(r, "name").and_then(Value::as_str) == Some(name))
        {
            println!("  {name:<10} (in baseline, not measured)");
            regressions.push(format!(
                "{name}: circuit in baseline but not measured — a snapshot circuit silently dropped"
            ));
        }
    }
    regressions
}

fn baseline_rows(baseline: &Value) -> Option<&[Value]> {
    baseline
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "circuits"))
        .and_then(|(_, v)| v.as_array())
}

/// Per-circuit `baseline_time / new_time` ratios for the timed sections.
fn speedups_vs(baseline: &Value, rows: &[Value]) -> Value {
    let empty: &[Value] = &[];
    let base_rows = baseline_rows(baseline).unwrap_or(empty);
    let mut out: Vec<(String, Value)> = Vec::new();
    for row in rows {
        let Some(name) = field(row, "name").and_then(Value::as_str) else {
            continue;
        };
        let Some(base) = base_rows
            .iter()
            .find(|b| field(b, "name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let ratio = |key: &str| -> Value {
            match (num(base, key), num(row, key)) {
                (Some(b), Some(n)) if n > 0.0 => serde_json::to_value(&(b / n)),
                _ => Value::Null,
            }
        };
        out.push((
            name.to_owned(),
            Value::Object(vec![
                ("pij".into(), ratio("pij_s")),
                ("widths".into(), ratio("widths_s")),
                ("analyze_fresh".into(), ratio("analyze_fresh_s")),
                (
                    "optimize_incremental".into(),
                    ratio("optimize_incremental_s"),
                ),
                ("corners_session".into(), ratio("corners_session_s")),
            ]),
        ));
    }
    Value::Object(out)
}

fn field<'v>(obj: &'v Value, key: &str) -> Option<&'v Value> {
    obj.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn num(obj: &Value, key: &str) -> Option<f64> {
    match field(obj, key) {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_smoke_baseline_covers_every_gated_section() {
        let base: Value = serde_json::from_str(EMBEDDED_SMOKE_BASELINE).expect("baseline parses");
        for section in SECTIONS {
            assert!(
                field(&base, section).is_some(),
                "the committed smoke baseline lacks the `{section}` section; regenerate it \
                 with `perf_snapshot --smoke --scaling --out crates/bench/baselines/smoke.json`"
            );
        }
    }
}
