//! Workload benchmark for the soft-error workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot-iscas|analyze-scale|sertopt-table1|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- refs
//! ```
//!
//! One run sets its workload up (several times, reporting the median
//! set-up time), measures for `--seconds`, checks every output, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run records spans around the
//! calls into each crate and reports the per-layer metrics instead. The
//! `refs` subcommand recomputes the committed accuracy references
//! (`refs.json`). See `README.md` beside this crate for the metric
//! definitions and what each workload stresses.

mod common;
mod oneshot;
mod refs;
mod scale;
mod sertopt_wl;
mod serve;
mod trace;

use common::{die, median, nproc, peak_rss_mib, quantile, Report};
use trace::Tracer;

/// A traced operation whose layer spans leave more than this share of
/// its wall time unattributed fails the run.
const UNATTRIBUTED_LIMIT: f64 = 0.03;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("netlist.cone_entries", "count"),
    ("netlist.arena_peak_bytes", "bytes"),
    ("cells.characterize_s", "s"),
    ("cells.variants", "count"),
    ("cells.s_per_variant", "s"),
    ("cells.variants_in_timed", "count"),
    ("logicsim.pij_s", "s"),
    ("logicsim.adaptive_stop_ratio", "ratio"),
    ("logicsim.exact_roots", "count"),
    ("logicsim.static_probs_s", "s"),
    ("aserta.timing_s", "s"),
    ("aserta.widths_s", "s"),
    ("aserta.build_rest_s", "s"),
    ("aserta.delta_s", "s"),
    ("aserta.delta_dirty", "count"),
    ("aserta.snapshot_write_s", "s"),
    ("aserta.snapshot_bytes", "bytes"),
    ("sertopt.baseline_s", "s"),
    ("sertopt.optimize_s", "s"),
    ("sertopt.evaluations", "count"),
    ("sertopt.s_per_eval", "s"),
    ("serve.codec_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.pool_hits", "count"),
    ("serve.pool_misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("env.nproc", "count"),
    ("env.estimator_threads", "count"),
    ("env.optimizer_threads", "count"),
    ("env.daemon_workers", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: &str| -> f64 {
        let text = value(flag).unwrap_or(default);
        text.parse()
            .unwrap_or_else(|_| die(flag, format!("expected a number, got `{text}`")))
    };
    let workload = value("--workload")
        .unwrap_or_else(|| die("usage", "--workload <name> is required"))
        .to_owned();
    Args {
        workload,
        seed: number("--seed", "1") as u64,
        seconds: number("--seconds", "10"),
        trace: number("--trace", "0") != 0.0,
    }
}

fn main() {
    common::steady_allocator();
    if std::env::args().nth(1).as_deref() == Some("refs") {
        refs::write();
        return;
    }
    let args = parse_args();
    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "oneshot-iscas" => oneshot::run(args.seed, args.seconds, &mut tracer),
        "analyze-scale" => scale::run(args.seed, args.seconds, &mut tracer),
        "sertopt-table1" => sertopt_wl::run(args.seed, args.seconds, &mut tracer),
        "serve-mixed" => serve::run(args.seed, args.seconds, &mut tracer),
        other => die("usage", format!("unknown workload `{other}`")),
    };
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tracer.write(&path)) {
            die(&format!("writing {}", path.display()), e);
        }
    }
    print_result(&args, &mut report);
}

/// Turns the traced run's spans into per-operation layer metrics: each
/// span's self time, summed by name and divided by the number of
/// operations (or probes, or set-ups) it ran under; plus the estimator
/// counters and the share of each operation no layer span covers.
pub fn layers_from_trace(r: &mut Report, t: &Tracer, ops: f64, probes: f64) {
    for ((root, name), total) in t.self_time_by_name() {
        if root == name {
            continue;
        }
        let per = match root {
            "op" => ops,
            "probe" => probes,
            "setup" => r.setup_times.len() as f64,
            _ => continue,
        };
        let metric = format!("{name}_s");
        match PER_LAYER.iter().find(|(n, _)| *n == metric) {
            Some(&(m, _)) => *r.layers.entry(m).or_default() += total / per,
            None => die("trace", format!("span `{name}` has no per-layer metric")),
        }
    }
    let shares = t.unattributed_shares("op");
    let worst = shares.iter().copied().fold(0.0, f64::max);
    r.layer("trace.unattributed_pct", 100.0 * worst);
    if worst > UNATTRIBUTED_LIMIT {
        r.fail(format!(
            "traced operations: layer spans cover only {:.1}% of an operation's wall time",
            100.0 * (1.0 - worst)
        ));
    }
    if !r.estimates.is_empty() {
        let n = r.estimates.len() as f64;
        let stops: usize = r.estimates.iter().map(|(s, _)| s.adaptive_stops).sum();
        let roots: usize = r.estimates.iter().map(|(_, roots)| roots).sum();
        let exact: usize = r.estimates.iter().map(|(s, _)| s.exact_roots).sum();
        let entries: usize = r.estimates.iter().map(|(s, _)| s.cone_entries).sum();
        let peak = r
            .estimates
            .iter()
            .map(|(s, _)| s.peak_bytes)
            .max()
            .unwrap_or(0);
        r.layer("logicsim.adaptive_stop_ratio", stops as f64 / roots as f64);
        r.layer("logicsim.exact_roots", exact as f64 / n);
        r.layer("netlist.cone_entries", entries as f64 / n);
        r.layer("netlist.arena_peak_bytes", peak as f64);
    }
    let (variants, units) = r.variants;
    if units > 0 {
        let per_unit = variants as f64 / units as f64;
        r.layer("cells.variants", per_unit);
        let characterize = r.layers.get("cells.characterize_s").copied().unwrap_or(0.0);
        if per_unit > 0.0 {
            r.layer("cells.s_per_variant", characterize / per_unit);
        }
    }
}

fn print_result(args: &Args, r: &mut Report) {
    for p in &r.problems {
        eprintln!("FAILED: {p}");
    }
    eprintln!("set-up repetitions (s): {:?}", r.setup_times);
    let env = [
        ("env.nproc", nproc() as f64),
        ("env.estimator_threads", common::engine().threads() as f64),
        ("env.optimizer_threads", common::OPTIMIZER_THREADS as f64),
        ("env.daemon_workers", serve::WORKERS as f64),
    ];
    let ops = r.op_times.len() as f64;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        for (name, value) in env {
            r.layer(name, value);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, r.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        vec![
            ("setup_s", median(&r.setup_times), "s"),
            ("ops_per_s", ops / r.busy_s, "1/s"),
            ("p50_ms", 1e3 * median(&r.op_times), "ms"),
            ("p99_ms", 1e3 * quantile(&r.op_times, 0.99), "ms"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
            ("u_rel_err", r.u_rel_err, "ratio"),
        ]
    };
    let mut detail: Vec<String> = r
        .detail
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    detail.extend(
        env.iter()
            .map(|(name, value)| format!("\"{name}\": {}", num(*value))),
    );
    detail.push(format!("\"ops\": {}", r.op_times.len()));
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"detail\": {{{}}}}}",
        args.workload,
        args.seed,
        detail.join(", ")
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
