//! `ser-serve`: the resident soft-error analysis daemon and its
//! command-line client.
//!
//! ```text
//! ser-serve serve    --listen unix:/tmp/ser.sock [--workers N] [--pool-budget BYTES]
//!                    [--pool-dir DIR] [--max-frame BYTES] [--threads N] [--cone-chunk N]
//!                    [--pij-tol T]
//! ser-serve ping     --connect unix:/tmp/ser.sock
//! ser-serve stats    --connect ...
//! ser-serve analyze  --connect ... --circuit c17 [--vectors N] [--charge-fc Q]
//!                    [--seed S] [--grids coarse|standard] [--deadline-ms MS]
//! ser-serve sweep    --connect ... --circuit c17 [--vdds 0.9,1.1] [--vths 0.2]
//!                    [--charges-fc 8,16,32] [--threads N] [...analyze flags]
//! ser-serve optimize --connect ... --circuit c17 [--algo sqp] [--profile dual]
//!                    [--iters N] [--budget-ms MS]
//! ser-serve snapshot --connect ... --circuit c17 [--vectors N] [--grids ...]
//! ser-serve shutdown --connect ...
//! ```
//!
//! Client subcommands print the server's JSON response on stdout and
//! exit non-zero on a typed error, so shell traces (the CI smoke job)
//! can assert on both. `serve` rejects a flag it does not know with a
//! usage error (exit 2) rather than ignoring it. Engine knobs resolve as
//! explicit flag > `SER_*` environment variable > built-in default; a
//! malformed environment is a startup error, not a silent fallback.

use std::path::PathBuf;
use std::process::ExitCode;

use ser_serve::api::{CircuitSource, GridKind, OptimizeSpec, Request, Response};
use ser_serve::pool::PoolConfig;
use ser_serve::server::{serve, Listen, ServerConfig};
use ser_serve::{Client, EngineConfig, DEFAULT_MAX_FRAME};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "ping" => client_round_trip(rest, |_| Ok(Request::Ping)),
        "stats" => client_round_trip(rest, |_| Ok(Request::Stats)),
        "shutdown" => client_round_trip(rest, |_| Ok(Request::Shutdown)),
        "analyze" => client_round_trip(rest, |a| {
            Ok(Request::Analyze {
                circuit: circuit_flag(a)?,
                config: config_flags(a)?,
                grids: grids_flag(a)?,
                deadline_ms: flag_parse_opt(a, "--deadline-ms")?,
            })
        }),
        "sweep" => client_round_trip(rest, |a| {
            Ok(Request::CornerSweep {
                circuit: circuit_flag(a)?,
                config: config_flags(a)?,
                grids: grids_flag(a)?,
                vdds: list_flag(a, "--vdds", &[0.9, 1.1])?,
                vths: list_flag(a, "--vths", &[0.2])?,
                charges: list_flag(a, "--charges-fc", &[8.0, 16.0, 32.0])?
                    .into_iter()
                    .map(|fc| fc * 1.0e-15)
                    .collect(),
                threads: flag_parse(a, "--threads", 0)?,
                deadline_ms: flag_parse_opt(a, "--deadline-ms")?,
            })
        }),
        "optimize" => client_round_trip(rest, |a| {
            let mut spec = OptimizeSpec::default();
            if let Some(algo) = flag(a, "--algo") {
                spec.algorithm = algo.to_owned();
            }
            if let Some(profile) = flag(a, "--profile") {
                spec.profile = profile.to_owned();
            }
            spec.iterations = flag_parse(a, "--iters", spec.iterations)?;
            spec.seed = flag_parse_opt(a, "--seed")?;
            spec.vectors = flag_parse_opt(a, "--vectors")?;
            spec.threads = flag_parse(a, "--threads", spec.threads)?;
            Ok(Request::Optimize {
                circuit: circuit_flag(a)?,
                spec,
                budget_ms: flag_parse_opt(a, "--budget-ms")?,
            })
        }),
        "snapshot" => client_round_trip(rest, |a| {
            Ok(Request::Snapshot {
                circuit: circuit_flag(a)?,
                config: config_flags(a)?,
                grids: grids_flag(a)?,
            })
        }),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ser-serve: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str =
    "usage: ser-serve <serve|ping|stats|analyze|sweep|optimize|snapshot|shutdown> [flags]
  serve     --listen unix:<path>|tcp:<host:port> [--workers N] [--pool-budget BYTES]
            [--pool-dir DIR] [--max-frame BYTES] [--threads N] [--cone-chunk N]
            [--pij-tol T]
  clients   --connect unix:<path>|tcp:<host:port> plus per-command flags
            (see the crate README's Serving section)";

// ------------------------------------------------------------- serve

/// The flags `serve` accepts; each takes one value.
const SERVE_FLAGS: [&str; 8] = [
    "--listen",
    "--workers",
    "--pool-budget",
    "--pool-dir",
    "--max-frame",
    "--threads",
    "--cone-chunk",
    "--pij-tol",
];

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    for pair in args.chunks(2) {
        if !SERVE_FLAGS.contains(&pair[0].as_str()) {
            return Err(format!("serve: unknown flag `{}`\n{USAGE}", pair[0]));
        }
        if pair.len() < 2 {
            return Err(format!("serve: `{}` needs a value", pair[0]));
        }
    }
    let listen = Listen::parse(
        flag(args, "--listen").ok_or("serve needs --listen unix:<path> or tcp:<host:port>")?,
    )?;
    // Strict env: a malformed SER_* variable aborts startup loudly.
    let env_engine = EngineConfig::from_env().map_err(|e| e.to_string())?;
    let mut explicit = EngineConfig::default();
    if let Some(threads) = flag_parse_opt::<usize>(args, "--threads")? {
        explicit = explicit.with_threads(threads);
    }
    if let Some(chunk) = flag_parse_opt::<usize>(args, "--cone-chunk")? {
        explicit = explicit.with_cone_chunk(chunk);
    }
    // The estimator knob is validated here, not silently sanitized at
    // resolution: a daemon started with a bad accuracy flag must refuse
    // to boot, exactly like a malformed SER_* variable.
    if let Some(tol) = flag_parse_opt::<f64>(args, "--pij-tol")? {
        if !tol.is_finite() || tol < 0.0 {
            return Err(format!(
                "--pij-tol expects a finite non-negative number (0 disables adaptivity), got `{tol}`"
            ));
        }
        explicit = explicit.with_pij_tolerance(tol);
    }
    let engine = explicit.overlay(&env_engine);

    let mut pool = PoolConfig {
        engine,
        ..PoolConfig::default()
    };
    if let Some(budget) = flag_parse_opt::<usize>(args, "--pool-budget")? {
        pool.budget_bytes = budget;
    }
    pool.dir = flag(args, "--pool-dir").map(PathBuf::from);

    let mut config = ServerConfig::new(listen);
    config.pool = pool;
    config.workers = flag_parse(args, "--workers", config.workers)?;
    config.max_frame = flag_parse(args, "--max-frame", DEFAULT_MAX_FRAME)?;

    let handle = serve(config).map_err(|e| e.to_string())?;
    match handle.endpoint() {
        Listen::Unix(path) => eprintln!("ser-serve: listening on unix:{}", path.display()),
        Listen::Tcp(addr) => eprintln!("ser-serve: listening on tcp:{addr}"),
    }
    // Blocks until a Shutdown request drains the workers; then images
    // the pool and removes the socket file.
    handle.join();
    eprintln!("ser-serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------- client

fn client_round_trip(
    args: &[String],
    build: impl FnOnce(&[String]) -> Result<Request, String>,
) -> Result<ExitCode, String> {
    let endpoint = Listen::parse(
        flag(args, "--connect").ok_or("client commands need --connect unix:<path>|tcp:<addr>")?,
    )?;
    let request = build(args)?;
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let response = client.request(&request).map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?;
    println!("{text}");
    match response {
        Response::Error(e) => {
            eprintln!("ser-serve: server rejected the request: {e}");
            Ok(ExitCode::FAILURE)
        }
        _ => Ok(ExitCode::SUCCESS),
    }
}

/// `--circuit c17` (ISCAS'85 / sec32) or
/// `--circuit layered:<gates>:<inputs>:<outputs>:<seed>`.
fn circuit_flag(args: &[String]) -> Result<CircuitSource, String> {
    let spec = flag(args, "--circuit").ok_or("this command needs --circuit <name>")?;
    if let Some(body) = spec.strip_prefix("layered:") {
        let parts: Vec<&str> = body.split(':').collect();
        let [gates, inputs, outputs, seed] = parts.as_slice() else {
            return Err(format!(
                "layered spec `{spec}` must be layered:<gates>:<inputs>:<outputs>:<seed>"
            ));
        };
        let parse = |what: &str, text: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("layered {what} `{text}` is not a number"))
        };
        let gates = parse("gates", gates)?;
        return Ok(CircuitSource::Layered {
            name: format!("layered{gates}"),
            inputs: parse("inputs", inputs)?,
            outputs: parse("outputs", outputs)?,
            gates,
            seed: parse("seed", seed)?,
        });
    }
    Ok(CircuitSource::Named(spec.to_owned()))
}

fn config_flags(args: &[String]) -> Result<aserta::AsertaConfig, String> {
    let mut cfg = aserta::AsertaConfig::default();
    // Daemon-client default: fast enough for interactive traces; raise
    // --vectors for paper-fidelity numbers.
    cfg.sensitization_vectors = flag_parse(args, "--vectors", 512)?;
    cfg.seed = flag_parse(args, "--seed", cfg.seed)?;
    if let Some(fc) = flag_parse_opt::<f64>(args, "--charge-fc")? {
        cfg.charge = fc * 1.0e-15;
    }
    Ok(cfg)
}

fn grids_flag(args: &[String]) -> Result<GridKind, String> {
    match flag(args, "--grids") {
        None | Some("coarse") => Ok(GridKind::Coarse),
        Some("standard") => Ok(GridKind::Standard),
        Some(other) => Err(format!("unknown grids `{other}` (coarse|standard)")),
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
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{text}`")),
    }
}

fn flag_parse_opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(text) => text
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} expects a number, got `{text}`")),
    }
}

fn list_flag(args: &[String], name: &str, default: &[f64]) -> Result<Vec<f64>, String> {
    match flag(args, name) {
        None => Ok(default.to_vec()),
        Some(text) => text
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("{name} expects comma-separated numbers, got `{part}`"))
            })
            .collect(),
    }
}
