//! `serve-mixed`: a closed loop of two callers, each waiting for its
//! reply, against an in-process `ser_serve::serve` daemon on a Unix
//! socket (two workers, one estimator thread per pooled session, a
//! `.sersnap` directory so every pool miss also writes an image).
//!
//! The seed fixes each caller's request stream:
//! * warm `Analyze` charge deltas on the caller's circuits;
//! * `CornerSweep` requests over the `CornerGrid::smoke()` axes;
//! * 3% `Analyze` requests for a layered circuit under a name no earlier
//!   request used, which always miss the pool.
//!
//! Each caller works on its own copies of the warm circuits, so hit and
//! miss counts do not depend on how the two streams interleave, and both
//! callers issue the same mix whatever their relative speed.

use std::path::PathBuf;
use std::time::Instant;

use aserta::{AnalysisSession, AsertaConfig, CircuitCells, EngineConfig};
use ser_bench::corners::CornerGrid;
use ser_cells::{CharGrids, Library};
use ser_netlist::Circuit;
use ser_serve::api::{AnalyzeResult, SweepPoint};
use ser_serve::pool::intern_circuit;
use ser_serve::{
    proto, serve, ApiError, CircuitSource, Client, GridKind, Listen, PoolConfig, Request, Response,
    ServerConfig, ServerHandle, SessionPool, DEFAULT_MAX_FRAME,
};
use ser_spice::Technology;

use crate::common::{cfg_at, median, quantile, timed, References, Report, Rng};
use crate::trace::Tracer;

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Strike charges the warm `Analyze` requests draw from, coulombs.
pub const CHARGES: [f64; 8] = [
    8e-15, 10e-15, 12e-15, 14e-15, 16e-15, 20e-15, 24e-15, 32e-15,
];

/// Each caller's stream is cut into blocks of this many requests, each
/// with exactly [`MISSES`] misses and [`SWEEPS`] sweeps at seeded
/// positions, so the mix does not drift from run to run.
const BLOCK: usize = 100;
const MISSES: usize = 3;
const SWEEPS: usize = 20;
const SETUP_REPS: usize = 3;
/// Requests per caller whose full reply is kept: the traced run replays
/// them layer by layer, and the bitwise sample is drawn from them.
const KEPT: usize = 200;
/// Sampled answers per caller checked bitwise against direct calls.
const SAMPLES: usize = 40;
/// Byte budget of the daemon's session pool: the warm sessions stay
/// resident while old miss sessions are evicted, so memory does not grow
/// with throughput.
const POOL_BUDGET: usize = 40 << 20;
/// Generator seed of the miss circuits' common structure.
const MISS_STRUCTURE_SEED: u64 = 0x3155;

/// The warm circuit structures: name, inputs, outputs, gates. The first
/// two have the interfaces and sizes of the c2670 and c880 stand-ins.
const WARM: [(&str, u64, u64, u64); 3] = [
    ("l2670", 233, 140, 1193),
    ("l880", 60, 26, 383),
    ("layered1k", 40, 12, 1000),
];
/// Generator seed of the warm structures.
const WARM_SEED: u64 = 0x5E21E;

/// Warm circuit `i` as a request source. Each caller gets its own copy
/// under its own name (`None` names the shared structure), so the two
/// callers never contend for one pool entry and issue the same mix.
fn source(i: usize, caller: Option<usize>) -> CircuitSource {
    let (base, inputs, outputs, gates) = WARM[i];
    CircuitSource::Layered {
        name: caller.map_or_else(|| base.to_owned(), |c| format!("{base}.{c}")),
        inputs,
        outputs,
        gates,
        seed: WARM_SEED,
    }
}

/// The warm circuits of `caller` (or the shared structures).
pub fn warm_circuits(caller: Option<usize>) -> Vec<Circuit> {
    (0..WARM.len())
        .map(|i| {
            source(i, caller)
                .instantiate()
                .unwrap_or_else(|e| crate::common::die("circuit", e))
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Analyze,
    Sweep,
    Miss,
}

/// One scheduled request.
#[derive(Clone)]
struct Planned {
    kind: Kind,
    /// Index into [`WARM`] (warm requests).
    circuit: usize,
    charge: f64,
    request: Request,
}

fn analyze_request(source: CircuitSource, charge: f64) -> Request {
    Request::Analyze {
        circuit: source,
        config: cfg_at(charge),
        grids: GridKind::Coarse,
        deadline_ms: None,
    }
}

fn sweep_request(source: CircuitSource) -> Request {
    let grid = CornerGrid::smoke();
    Request::CornerSweep {
        circuit: source,
        config: AsertaConfig::default(),
        grids: GridKind::Coarse,
        vdds: grid.vdds,
        vths: grid.vths,
        charges: grid.charges,
        threads: 1,
        deadline_ms: None,
    }
}

/// The seeded request stream of one caller.
struct Schedule {
    rng: Rng,
    caller: usize,
    misses: u64,
    block: Vec<Kind>,
}

impl Schedule {
    fn new(seed: u64, caller: usize) -> Self {
        Schedule {
            rng: Rng::new(seed ^ (0x5E77E ^ caller as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            caller,
            misses: 0,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> Planned {
        if self.block.is_empty() {
            self.block = [(Kind::Miss, MISSES), (Kind::Sweep, SWEEPS)]
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            self.block.resize(BLOCK, Kind::Analyze);
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().unwrap_or(Kind::Analyze);
        let circuit = self.rng.below(WARM.len());
        let charge = CHARGES[self.rng.below(CHARGES.len())];
        let source = source(circuit, Some(self.caller));
        if kind == Kind::Miss {
            // A name no earlier request used makes a new pool identity.
            // The structure is the same for every miss, so each one does
            // the same cold work whatever the seed.
            self.misses += 1;
            let name = format!(
                "miss-{}-{}-{:016x}",
                self.caller,
                self.misses,
                self.rng.next_u64()
            );
            let request = analyze_request(
                CircuitSource::Layered {
                    name,
                    inputs: 40,
                    outputs: 12,
                    gates: 1000,
                    seed: MISS_STRUCTURE_SEED,
                },
                charge,
            );
            Planned {
                kind: Kind::Miss,
                circuit,
                charge,
                request,
            }
        } else if kind == Kind::Sweep {
            Planned {
                kind: Kind::Sweep,
                circuit,
                charge,
                request: sweep_request(source),
            }
        } else {
            Planned {
                kind: Kind::Analyze,
                circuit,
                charge,
                request: analyze_request(source, charge),
            }
        }
    }
}

/// One answered request.
struct Done {
    planned: Planned,
    latency: f64,
    /// U of an `Analyze` answer (`None` for a sweep), or the failure.
    outcome: Result<Option<f64>, String>,
    /// The full reply, for the first [`KEPT`] requests of a caller.
    response: Option<Response>,
}

/// Where the daemon keeps its socket and `.sersnap` images: inside the
/// working directory, removed when the run ends.
struct Paths {
    dir: PathBuf,
    socket: PathBuf,
    pool: PathBuf,
}

impl Paths {
    fn new() -> Self {
        let dir = PathBuf::from(".bench_out").join(format!("serve-{}", std::process::id()));
        Paths {
            socket: dir.join("d.sock"),
            pool: dir.join("pool"),
            dir,
        }
    }

    fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.pool).unwrap_or_else(|e| {
            crate::common::die(&format!("creating {}", self.pool.display()), e)
        });
    }
}

fn pool_config(dir: Option<PathBuf>) -> PoolConfig {
    PoolConfig {
        dir,
        engine: EngineConfig::new().with_threads(1),
        budget_bytes: POOL_BUDGET,
    }
}

fn ask(client: &mut Client, request: &Request) -> Result<Response, String> {
    match client.request(request) {
        Ok(Response::Error(e)) => Err(format!("typed error: {e:?}")),
        Ok(r) => Ok(r),
        Err(e) => Err(e.to_string()),
    }
}

/// Set-up: boot the daemon, connect both callers and warm each caller's
/// circuits with one `Analyze` (the cold build) and one sweep (the
/// corner variants).
fn setup(paths: &Paths) -> (ServerHandle, Vec<Client>) {
    paths.reset();
    let mut cfg = ServerConfig::new(Listen::Unix(paths.socket.clone()));
    cfg.workers = WORKERS;
    cfg.pool = pool_config(Some(paths.pool.clone()));
    let handle = serve(cfg).unwrap_or_else(|e| crate::common::die("booting the daemon", e));
    let mut clients: Vec<Client> = (0..2)
        .map(|_| {
            Client::connect(&handle.endpoint())
                .unwrap_or_else(|e| crate::common::die("connecting", e))
        })
        .collect();
    for (caller, client) in clients.iter_mut().enumerate() {
        for c in 0..WARM.len() {
            let source = source(c, Some(caller));
            for request in [
                analyze_request(source.clone(), CHARGES[0]),
                sweep_request(source),
            ] {
                ask(client, &request).unwrap_or_else(|e| crate::common::die("warming the pool", e));
            }
        }
    }
    (handle, clients)
}

fn shutdown(handle: ServerHandle, mut clients: Vec<Client>) {
    let _ = clients[0].request(&Request::Shutdown);
    drop(clients);
    handle.join();
}

pub fn run(seed: u64, seconds: f64, t: &mut Tracer) -> Report {
    let refs = References::load();
    let mut r = Report::default();
    let paths = Paths::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, clients)) = state.take() {
            shutdown(handle, clients);
        }
        let (v, s) = timed(|| setup(&paths));
        r.setup_times.push(s);
        state = Some(v);
    }
    let Some((handle, clients)) = state else {
        unreachable!("SETUP_REPS > 0")
    };

    // The closed loop: each caller sends its next request only after the
    // previous reply arrived.
    let start = Instant::now();
    let results: Vec<(Client, Vec<Done>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(caller, mut client)| {
                scope.spawn(move || {
                    let mut schedule = Schedule::new(seed, caller);
                    let mut done = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let planned = schedule.next();
                        let t0 = Instant::now();
                        let response = client.request(&planned.request);
                        let latency = t0.elapsed().as_secs_f64();
                        let outcome = match &response {
                            Ok(Response::Analyzed(a)) => Ok(Some(a.unreliability)),
                            Ok(Response::Swept { .. }) => Ok(None),
                            Ok(other) => Err(format!("{other:?}")),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        let response = response.ok().filter(|_| done.len() < KEPT);
                        done.push(Done {
                            planned,
                            latency,
                            outcome,
                            response,
                        });
                    }
                    (client, done, schedule.misses)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| crate::common::die("caller", "panicked"))
            })
            .collect()
    });
    r.busy_s = start.elapsed().as_secs_f64();

    let mut clients = Vec::new();
    let mut streams = Vec::new();
    let mut issued_misses = 0;
    for (client, done, misses) in results {
        clients.push(client);
        streams.push(done);
        issued_misses += misses;
    }
    let warm_issued: u64 = streams
        .iter()
        .flatten()
        .filter(|d| d.planned.kind != Kind::Miss)
        .count() as u64;

    // Pool counters, read over an existing connection: a third one would
    // wait for a worker while both serve the callers.
    let stats = match ask(&mut clients[0], &Request::Stats) {
        Ok(Response::Stats(s)) => Some(s),
        other => {
            r.fail(format!("stats request: {:?}", other.err()));
            None
        }
    };
    shutdown(handle, clients);
    let _ = std::fs::remove_dir_all(&paths.dir);

    let mut by_kind: [Vec<f64>; 3] = Default::default();
    for d in streams.iter().flatten() {
        r.attempted += 1;
        r.op_times.push(d.latency);
        by_kind[d.planned.kind as usize].push(d.latency);
        if let Err(e) = &d.outcome {
            r.fail(format!("{:?} request: {e}", d.planned.kind));
        }
    }
    // Set-up issued one cold build (miss) and one sweep (hit) per warm
    // circuit.
    let warm_circuits = (2 * WARM.len()) as u64;
    if let Some(s) = &stats {
        r.detail.push((
            "pool_resident_mib",
            s.resident_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ));
        r.detail.push(("pool_sessions", s.sessions as f64, "count"));
        let (hits, misses) = (warm_issued + warm_circuits, issued_misses + warm_circuits);
        if s.hits != hits || s.misses != misses {
            r.fail(format!(
                "pool counters {}/{} hits/misses, expected {hits}/{misses}",
                s.hits, s.misses
            ));
        }
    }
    r.detail
        .push(("serve_rps", r.op_times.len() as f64 / r.busy_s, "1/s"));
    r.detail
        .push(("serve_p50_ms", 1e3 * median(&r.op_times), "ms"));
    r.detail
        .push(("serve_p99_ms", 1e3 * quantile(&r.op_times, 0.99), "ms"));
    let classes = ["analyze_p50_ms", "sweep_p50_ms", "miss_p50_ms"];
    for (name, times) in classes.into_iter().zip(&by_kind) {
        r.detail.push((name, 1e3 * median(times), "ms"));
    }

    check_answers(&mut r, seed, &streams, &refs);

    if t.enabled() {
        replay(&mut r, &streams, t);
        if let Some(s) = &stats {
            r.layer("serve.pool_hits", s.hits as f64);
            r.layer("serve.pool_misses", s.misses as f64);
        }
    }
    r
}

/// Accuracy of every warm answer against the references (once per
/// circuit and charge, since answers are deterministic), and a seeded
/// sample of answers bitwise against direct session calls.
fn check_answers(r: &mut Report, seed: u64, streams: &[Vec<Done>], refs: &References) {
    let shared = warm_circuits(None);
    let mut checked: Vec<(usize, u64)> = Vec::new();
    for d in streams.iter().flatten() {
        if let (Kind::Analyze, Ok(Some(u))) = (d.planned.kind, &d.outcome) {
            let key = (d.planned.circuit, d.planned.charge.to_bits());
            if !checked.contains(&key) {
                checked.push(key);
                let name = shared[d.planned.circuit].name();
                r.check_u(
                    &format!("{name} at {:.0} fC", d.planned.charge * 1e15),
                    *u,
                    refs.get(name, "coarse", d.planned.charge),
                );
            }
        }
    }

    let mut rng = Rng::new(seed ^ 0xC4EC);
    for (caller, stream) in streams.iter().enumerate() {
        let circuits = warm_circuits(Some(caller));
        let mut direct: Vec<Option<AnalysisSession<'_>>> = circuits.iter().map(|_| None).collect();
        let kept = &stream[..KEPT.min(stream.len())];
        for _ in 0..SAMPLES.min(kept.len()) {
            let d = &kept[rng.below(kept.len())];
            let Some(response) = &d.response else {
                continue; // a failed exchange, already counted
            };
            let ok = match (&d.planned.kind, response) {
                (Kind::Miss, Response::Analyzed(a)) => check_miss(&d.planned.request, a),
                (Kind::Analyze, Response::Analyzed(a)) => {
                    let s = direct_session(&mut direct, &circuits, d.planned.circuit);
                    s.try_set_charge(d.planned.charge)
                        .and_then(|_| s.try_set_cells(&CircuitCells::nominal(s.circuit())))
                        .map(|_| s.unreliability().to_bits() == a.unreliability.to_bits())
                        .unwrap_or(false)
                }
                (Kind::Sweep, Response::Swept { points }) => {
                    let s = direct_session(&mut direct, &circuits, d.planned.circuit);
                    sweep_matches(s, points)
                }
                (_, Response::Error(_)) => continue, // already counted
                _ => false,
            };
            if !ok {
                r.fail(format!(
                    "{:?} answer on {} differs from the direct session call",
                    d.planned.kind,
                    circuits[d.planned.circuit].name()
                ));
            }
        }
    }
}

fn direct_session<'a, 'c>(
    cache: &'a mut [Option<AnalysisSession<'c>>],
    circuits: &'c [Circuit],
    i: usize,
) -> &'a mut AnalysisSession<'c> {
    cache[i].get_or_insert_with(|| {
        let c = &circuits[i];
        let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        AnalysisSession::builder(c, CircuitCells::nominal(c), lib, cfg_at(CHARGES[0]))
            .build()
            .unwrap_or_else(|e| crate::common::die("direct session", e))
    })
}

fn sweep_matches(s: &mut AnalysisSession<'_>, points: &[SweepPoint]) -> bool {
    let base = CircuitCells::nominal(s.circuit());
    let corners = CornerGrid::smoke().corners();
    corners.len() == points.len()
        && corners.iter().zip(points).all(|(corner, p)| {
            let cells = corner.cells(s.circuit(), &base);
            s.try_set_charge(corner.charge).is_ok()
                && s.try_set_cells(&cells).is_ok()
                && s.unreliability().to_bits() == p.unreliability.to_bits()
                && s.critical_delay().to_bits() == p.critical_delay_s.to_bits()
        })
}

fn check_miss(request: &Request, answer: &AnalyzeResult) -> bool {
    let Request::Analyze {
        circuit, config, ..
    } = request
    else {
        return false;
    };
    let Ok(c) = circuit.instantiate() else {
        return false;
    };
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    AnalysisSession::builder(&c, CircuitCells::nominal(&c), lib, config.clone())
        .build()
        .is_ok_and(|s| s.unreliability().to_bits() == answer.unreliability.to_bits())
}

/// The traced run's layer breakdown of daemon requests. A prefix of each
/// caller's stream is replayed in memory: the frame codec on the run's
/// own requests and replies, then the request handling through a
/// `SessionPool` of the same configuration, with the session deltas and
/// the miss images in spans of their own. Waiting (transport and
/// queueing) is the measured round trip less codec and handling.
fn replay(r: &mut Report, streams: &[Vec<Done>], t: &mut Tracer) {
    let dir = PathBuf::from(".bench_out").join(format!("replay-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let pool = SessionPool::new(pool_config(None));
    let circuits: Vec<Vec<&'static Circuit>> = (0..streams.len())
        .map(|caller| {
            warm_circuits(Some(caller))
                .into_iter()
                .map(intern_circuit)
                .collect()
        })
        .collect();
    // Warm exactly like set-up, outside any span.
    t.set_enabled(false);
    for (caller, owned) in circuits.iter().enumerate() {
        for (i, &circuit) in owned.iter().enumerate() {
            let source = source(i, Some(caller));
            let warm = analyze_request(source.clone(), CHARGES[0]);
            let _ = handle(&pool, &warm, circuit, None, t);
            let _ = handle(&pool, &sweep_request(source), circuit, None, t);
        }
    }
    t.set_enabled(true);
    let mut round_trips = 0.0;
    let mut ops = 0usize;
    let mut dirty = Vec::new();
    let mut snap_bytes = Vec::new();
    let mut grew = 0usize;
    for (caller, stream) in streams.iter().enumerate() {
        for (k, d) in stream.iter().take(KEPT).enumerate() {
            let Some(response) = &d.response else {
                continue;
            };
            round_trips += d.latency;
            ops += 1;
            let circuit = match d.planned.kind {
                Kind::Miss => match &d.planned.request {
                    Request::Analyze { circuit, .. } => match circuit.instantiate() {
                        Ok(c) => intern_circuit(c),
                        Err(e) => {
                            r.fail(format!("replay: {e:?}"));
                            continue;
                        }
                    },
                    _ => continue,
                },
                _ => circuits[caller][d.planned.circuit],
            };
            // Every twentieth warm request also counts, outside the
            // spans, the variants its session's library gained.
            let probe_growth = d.planned.kind != Kind::Miss && k % 20 == 0;
            let before = probe_growth.then(|| library_variants(&pool, &d.planned.request, circuit));
            t.op("op", |t| {
                t.span("serve.codec", |_| {
                    codec_round_trip(&d.planned.request, response)
                });
                let snap = (d.planned.kind == Kind::Miss)
                    .then(|| dir.join(format!("{caller}-{k}.sersnap")));
                let out = t.span("serve.handle", |t| {
                    handle(&pool, &d.planned.request, circuit, snap.as_deref(), t)
                });
                match out {
                    Ok(h) => {
                        dirty.extend(h.dirty);
                        snap_bytes.extend(h.snapshot_bytes);
                    }
                    Err(e) => r.fail(format!("replay: {e:?}")),
                }
            });
            if let Some(b) = before {
                grew += library_variants(&pool, &d.planned.request, circuit).saturating_sub(b);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ops_f = ops.max(1) as f64;
    crate::layers_from_trace(r, t, ops_f, 1.0);
    let codec = r.layers.get("serve.codec_s").copied().unwrap_or(0.0);
    let handle_s = r.layers.get("serve.handle_s").copied().unwrap_or(0.0)
        + ["aserta.delta_s", "aserta.snapshot_write_s"]
            .iter()
            .map(|k| r.layers.get(k).copied().unwrap_or(0.0))
            .sum::<f64>();
    r.layer("serve.wait_s", round_trips / ops_f - codec - handle_s);
    r.layer(
        "aserta.delta_dirty",
        dirty.iter().sum::<f64>() / dirty.len().max(1) as f64,
    );
    r.layer("aserta.snapshot_bytes", median(&snap_bytes));
    r.layer("cells.variants_in_timed", grew as f64);
    if grew > 0 {
        r.fail(format!("warm requests characterized {grew} new variants"));
    }
    // The traced run's daemon phase is the untraced run itself; spans
    // come only from the replay afterwards.
    r.layer("trace.overhead_pct", 0.0);
}

/// What handling one replayed request touched.
struct Handled {
    dirty: Vec<f64>,
    snapshot_bytes: Option<f64>,
}

/// Variants in the library of the pooled session a request addresses,
/// read back from the session's `.sersnap` image (which embeds the
/// library).
fn library_variants(pool: &SessionPool, request: &Request, circuit: &'static Circuit) -> usize {
    let (Request::Analyze { config, grids, .. } | Request::CornerSweep { config, grids, .. }) =
        request
    else {
        return 0;
    };
    let count = |s: &AnalysisSession<'_>| -> Option<usize> {
        let bytes = s.snapshot().ok()?.to_bytes().ok()?;
        let image = ser_netlist::snapshot::Snapshot::from_bytes(&bytes).ok()?;
        let json = image
            .section(aserta::snapshot::TAG_LIBRARY)
            .ok()?
            .str()
            .ok()?;
        Library::from_json(&json).ok().map(|lib| lib.len())
    };
    pool.with_session(circuit, config, *grids, |s| Ok(count(s).unwrap_or(0)))
        .unwrap_or(0)
}

/// The daemon's request handling, through the same pool entry point:
/// warm requests reach their state by deltas; a miss builds cold inside
/// the pool and writes its image to `snapshot` (the daemon's eager
/// imaging).
fn handle(
    pool: &SessionPool,
    request: &Request,
    circuit: &'static Circuit,
    snapshot: Option<&std::path::Path>,
    t: &mut Tracer,
) -> Result<Handled, ApiError> {
    let err = |e: aserta::AnalysisError| ApiError::Analysis {
        detail: e.to_string(),
    };
    match request {
        Request::Analyze { config, grids, .. } => pool.with_session(circuit, config, *grids, |s| {
            let mut dirty = Vec::new();
            t.span("aserta.delta", |_| {
                s.try_set_charge(config.charge)?;
                s.try_set_cells(&CircuitCells::nominal(circuit))
                    .map(|a| dirty.push(a.rows_recomputed as f64))
            })
            .map_err(err)?;
            let _ = s.report();
            let mut snapshot_bytes = None;
            if let Some(path) = snapshot {
                t.span("aserta.snapshot_write", |_| s.snapshot_to(path))
                    .map_err(|e| ApiError::Analysis {
                        detail: e.to_string(),
                    })?;
                snapshot_bytes = std::fs::metadata(path).ok().map(|m| m.len() as f64);
            }
            Ok(Handled {
                dirty,
                snapshot_bytes,
            })
        }),
        Request::CornerSweep { config, grids, .. } => {
            pool.with_session(circuit, config, *grids, |s| {
                let base = CircuitCells::nominal(circuit);
                let mut dirty = Vec::new();
                for corner in CornerGrid::smoke().corners() {
                    let cells = corner.cells(circuit, &base);
                    t.span("aserta.delta", |_| {
                        s.try_set_charge(corner.charge)?;
                        s.try_set_cells(&cells)
                            .map(|a| dirty.push(a.rows_recomputed as f64))
                    })
                    .map_err(err)?;
                }
                Ok(Handled {
                    dirty,
                    snapshot_bytes: None,
                })
            })
        }
        _ => Err(ApiError::BadRequest {
            detail: "not replayed".to_owned(),
        }),
    }
}

/// Both directions of one exchange through the frame codec, in memory.
fn codec_round_trip(request: &Request, response: &Response) {
    let mut buf = Vec::new();
    let _ = proto::write_frame(&mut buf, request);
    let _ = proto::read_message::<Request>(&mut buf.as_slice(), DEFAULT_MAX_FRAME);
    buf.clear();
    let _ = proto::write_frame(&mut buf, response);
    let _ = proto::read_message::<Response>(&mut buf.as_slice(), DEFAULT_MAX_FRAME);
}
