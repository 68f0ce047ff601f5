//! The daemon: a threaded accept loop + worker pool over [`crate::proto`]
//! frames, routing [`Request`]s through the warm [`SessionPool`].
//!
//! No async runtime: connections are handed from the accept thread to a
//! fixed worker pool over an `mpsc` channel, and each worker serves one
//! connection at a time, frame by frame. Analytical throughput comes
//! from the *engine's* parallelism (the session's Monte-Carlo and
//! corner-sweep replica threading), not from connection count, so a
//! small worker pool is the right shape.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] flips the stop
//! flag, pokes the accept loop awake with a self-connection, waits for
//! the workers to drain, images the pool ([`SessionPool::snapshot_all`])
//! and removes the Unix socket file. A `kill -9` skips all of that by
//! definition — which is why the pool also images every session eagerly
//! at build time.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use aserta::corners::{self, CornerGrid, SweepError};
use aserta::{AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_netlist::govern::Deadline;
use ser_spice::Technology;
use sertopt::OptimizeRequest;

use crate::api::{
    AnalyzeResult, ApiError, OptimizeResult, OptimizeSpec, Request, Response, SweepPoint,
};
use crate::pool::{intern_circuit, PoolConfig, SessionPool};
use crate::proto::{self, Conn, FrameError, DEFAULT_MAX_FRAME};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 picks a free port).
    Tcp(String),
}

impl Listen {
    /// Parses `unix:<path>` or `tcp:<addr>`.
    ///
    /// # Errors
    ///
    /// A human-readable message for any other shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path".to_owned());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = text.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: needs host:port".to_owned());
            }
            return Ok(Listen::Tcp(addr.to_owned()));
        }
        Err(format!(
            "listen spec `{text}` is neither unix:<path> nor tcp:<host:port>"
        ))
    }
}

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening endpoint.
    pub listen: Listen,
    /// Worker threads serving connections (minimum 1).
    pub workers: usize,
    /// Per-frame payload ceiling, bytes.
    pub max_frame: usize,
    /// Warm-pool settings.
    pub pool: PoolConfig,
}

impl ServerConfig {
    /// A config listening on `listen` with defaults everywhere else.
    pub fn new(listen: Listen) -> Self {
        ServerConfig {
            listen,
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            pool: PoolConfig::default(),
        }
    }
}

/// Why the daemon could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on the endpoint failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

enum Acceptor {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Acceptor {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Acceptor::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// send [`Request::Shutdown`] (or use [`ServerHandle::shutdown`]) and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    threads: Vec<JoinHandle<()>>,
    pool: Arc<SessionPool>,
    stopping: Arc<AtomicBool>,
    listen: Listen,
    tcp_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The endpoint clients should connect to. For TCP this reflects
    /// the actually-bound address (port 0 resolved).
    pub fn endpoint(&self) -> Listen {
        match (&self.listen, self.tcp_addr) {
            (Listen::Tcp(_), Some(addr)) => Listen::Tcp(addr.to_string()),
            (l, _) => l.clone(),
        }
    }

    /// The pool, for embedders that want counters without a round trip.
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Requests shutdown from outside a connection (tests, signal
    /// handlers): flips the stop flag and pokes the accept loop.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        poke_accept(&self.endpoint());
    }

    /// Waits for the accept loop and every worker to exit, then images
    /// the pool and removes a Unix socket file.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.pool.snapshot_all();
        if let Listen::Unix(path) = &self.listen {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Unblocks a blocking `accept` by making (and immediately dropping) a
/// connection to the endpoint.
fn poke_accept(endpoint: &Listen) {
    match endpoint {
        Listen::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        Listen::Tcp(addr) => {
            let _ = TcpStream::connect_timeout(
                &match addr.parse() {
                    Ok(a) => a,
                    Err(_) => return,
                },
                Duration::from_millis(200),
            );
        }
    }
}

/// Boots the daemon: binds the endpoint, restores the pool from its
/// snapshot directory, and spawns the accept loop plus `workers`
/// connection threads. Returns once the endpoint is live.
///
/// # Errors
///
/// [`ServeError::Io`] when the endpoint cannot be bound.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServeError> {
    let workers = config.workers.max(1);
    let pool = Arc::new(SessionPool::new(config.pool.clone()));
    pool.restore_dir();

    let (acceptor, tcp_addr) = match &config.listen {
        Listen::Unix(path) => {
            // A stale socket file from a crashed daemon would fail the
            // bind; the pool directory, not the socket, is durable state.
            let _ = std::fs::remove_file(path);
            (Acceptor::Unix(UnixListener::bind(path)?), None)
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let bound = listener.local_addr()?;
            (Acceptor::Tcp(listener), Some(bound))
        }
    };

    let stopping = Arc::new(AtomicBool::new(false));
    let (tx, rx): (Sender<Conn>, Receiver<Conn>) = std::sync::mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let stopping = Arc::clone(&stopping);
        threads.push(std::thread::spawn(move || {
            // `tx` lives in this thread; dropping it on exit closes the
            // channel and drains the workers.
            while !stopping.load(Ordering::SeqCst) {
                match acceptor.accept() {
                    Ok(conn) => {
                        if stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        if tx.send(conn).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        if stopping.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
        }));
    }
    let endpoint = match (&config.listen, tcp_addr) {
        (Listen::Tcp(_), Some(addr)) => Listen::Tcp(addr.to_string()),
        (l, _) => l.clone(),
    };
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let pool = Arc::clone(&pool);
        let stopping = Arc::clone(&stopping);
        let endpoint = endpoint.clone();
        let max_frame = config.max_frame;
        threads.push(std::thread::spawn(move || loop {
            let conn = {
                let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                guard.recv()
            };
            let Ok(conn) = conn else {
                return; // channel closed: accept loop exited
            };
            serve_connection(conn, &pool, &stopping, &endpoint, max_frame);
        }));
    }

    Ok(ServerHandle {
        threads,
        pool,
        stopping,
        listen: config.listen,
        tcp_addr,
    })
}

/// Serves one connection until it closes, errors, or shutdown.
fn serve_connection(
    mut conn: Conn,
    pool: &SessionPool,
    stopping: &Arc<AtomicBool>,
    endpoint: &Listen,
    max_frame: usize,
) {
    loop {
        let request = match proto::read_message::<Request>(&mut conn, max_frame) {
            Ok(req) => req,
            Err(FrameError::Closed) => return,
            Err(FrameError::Oversized { limit, got }) => {
                // The payload was never read; the stream cannot be
                // resynchronized. Typed reply, then hang up.
                let _ = proto::write_frame(
                    &mut conn,
                    &Response::Error(ApiError::Oversized { limit, got }),
                );
                return;
            }
            Err(FrameError::Malformed(detail)) => {
                // Framing stayed intact: reject and keep serving.
                let _ = proto::write_frame(
                    &mut conn,
                    &Response::Error(ApiError::MalformedFrame { detail }),
                );
                continue;
            }
            Err(FrameError::Io(_)) => return,
        };

        if stopping.load(Ordering::SeqCst) {
            let _ = proto::write_frame(&mut conn, &Response::Error(ApiError::ShuttingDown));
            return;
        }

        if matches!(request, Request::Shutdown) {
            let _ = proto::write_frame(&mut conn, &Response::ShuttingDown);
            let _ = conn.flush();
            stopping.store(true, Ordering::SeqCst);
            poke_accept(endpoint);
            return;
        }

        // A panic is a daemon bug, not the client's: answer it as a
        // typed error and keep serving. `SessionPool::with_session`
        // holds no lock while the work runs, so unwinding only drops
        // the session the request had checked out.
        let response = std::panic::catch_unwind(AssertUnwindSafe(|| handle(&request, pool)))
            .unwrap_or_else(|payload| {
                Response::Error(ApiError::Internal {
                    detail: panic_message(payload.as_ref()),
                })
            });
        if proto::write_frame(&mut conn, &response).is_err() {
            return;
        }
    }
}

/// The message a panic was raised with, or a placeholder for a
/// payload that is not a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Routes one request. Every failure the request can cause is a typed
/// [`Response::Error`]; a panic (a daemon bug) unwinds to
/// [`serve_connection`], which answers it as [`ApiError::Internal`].
fn handle(request: &Request, pool: &SessionPool) -> Response {
    match request {
        Request::Ping => Response::Pong {
            version: env!("CARGO_PKG_VERSION").to_owned(),
        },
        Request::Stats => Response::Stats(pool.stats()),
        Request::Shutdown => Response::ShuttingDown,
        Request::Analyze {
            circuit,
            config,
            grids,
            deadline_ms,
        } => match analyze(pool, circuit, config, *grids, *deadline_ms) {
            Ok(r) => Response::Analyzed(r),
            Err(e) => Response::Error(e),
        },
        Request::CornerSweep {
            circuit,
            config,
            grids,
            vdds,
            vths,
            charges,
            threads,
            deadline_ms,
        } => {
            let grid = CornerGrid {
                vdds: vdds.clone(),
                vths: vths.clone(),
                charges: charges.clone(),
            };
            match sweep(pool, circuit, config, *grids, grid, *threads, *deadline_ms) {
                Ok(points) => Response::Swept { points },
                Err(e) => Response::Error(e),
            }
        }
        Request::Optimize {
            circuit,
            spec,
            budget_ms,
        } => match optimize(circuit, spec, *budget_ms) {
            Ok(r) => Response::Optimized(r),
            Err(e) => Response::Error(e),
        },
        Request::Snapshot {
            circuit,
            config,
            grids,
        } => match snapshot(pool, circuit, config, *grids) {
            Ok((path, bytes)) => Response::Snapshotted {
                path: path.display().to_string(),
                bytes,
            },
            Err(e) => Response::Error(e),
        },
    }
}

fn api_err(e: &aserta::AnalysisError) -> ApiError {
    if let aserta::AnalysisError::Interrupted(i) = e {
        return ApiError::Interrupted {
            stage: i.stage.to_owned(),
        };
    }
    ApiError::Analysis {
        detail: e.to_string(),
    }
}

fn request_deadline(deadline_ms: Option<u64>) -> Deadline {
    match deadline_ms {
        Some(ms) => Deadline::within(Duration::from_millis(ms)),
        None => Deadline::none(),
    }
}

fn analyze(
    pool: &SessionPool,
    source: &crate::api::CircuitSource,
    cfg: &AsertaConfig,
    grids: crate::api::GridKind,
    deadline_ms: Option<u64>,
) -> Result<AnalyzeResult, ApiError> {
    let circuit = intern_circuit(source.instantiate()?);
    pool.with_session(circuit, cfg, grids, |session| {
        // Warm path: reach the request's state by deltas. The deadline
        // binds only this delta work — a cold build above took no
        // deadline, so its Monte-Carlo estimate is canonical.
        session.set_deadline(request_deadline(deadline_ms));
        let target = CircuitCells::nominal(circuit);
        session
            .try_set_charge(cfg.charge)
            .map_err(|e| api_err(&e))?;
        session.try_set_cells(&target).map_err(|e| api_err(&e))?;
        session.clear_deadline();
        let report = session.report();
        Ok(AnalyzeResult {
            circuit: circuit.name().to_owned(),
            gates: circuit.gate_count() as u64,
            unreliability: session.unreliability(),
            critical_delay_s: session.critical_delay(),
            per_gate_unreliability: report.per_gate_unreliability,
        })
    })
}

/// The most corners one [`Request::CornerSweep`] may ask for: two
/// orders above [`CornerGrid::table1_style`]'s 27. Larger grids are
/// refused before anything is allocated for them.
pub const MAX_SWEEP_CORNERS: usize = 4096;

fn sweep(
    pool: &SessionPool,
    source: &crate::api::CircuitSource,
    cfg: &AsertaConfig,
    grids: crate::api::GridKind,
    grid: CornerGrid,
    threads: u64,
    deadline_ms: Option<u64>,
) -> Result<Vec<SweepPoint>, ApiError> {
    let count = [grid.vths.len(), grid.charges.len()]
        .into_iter()
        .try_fold(grid.vdds.len(), usize::checked_mul);
    if count.is_none_or(|n| n == 0 || n > MAX_SWEEP_CORNERS) {
        return Err(ApiError::BadRequest {
            detail: format!("a corner grid needs 1 to {MAX_SWEEP_CORNERS} corners"),
        });
    }
    let circuit = intern_circuit(source.instantiate()?);
    pool.with_session(circuit, cfg, grids, |session| {
        session.set_deadline(request_deadline(deadline_ms));
        // Off the wire: no more replicas (clones + threads) than the engine has.
        let engine_threads = session.engine().threads();
        let threads = usize::try_from(threads).map_or(engine_threads, |t| t.min(engine_threads));
        let base = CircuitCells::nominal(circuit);
        let points = corners::sweep(session, &base, &grid.corners(), threads);
        session.clear_deadline();
        points
            .into_iter()
            .map(|point| match point {
                Ok(p) => Ok(SweepPoint {
                    vdd: p.corner.vdd,
                    vth: p.corner.vth,
                    charge: p.corner.charge,
                    unreliability: p.unreliability,
                    critical_delay_s: p.critical_delay,
                }),
                Err(SweepError::Analysis(e)) => Err(api_err(&e)),
                Err(e) => Err(ApiError::Internal {
                    detail: e.to_string(),
                }),
            })
            .collect()
    })
}

fn optimize(
    source: &crate::api::CircuitSource,
    spec: &OptimizeSpec,
    budget_ms: Option<u64>,
) -> Result<OptimizeResult, ApiError> {
    let circuit = source.instantiate()?;
    let cfg = spec.to_config()?;
    // `sertopt::optimize` panics on a config its problem build rejects;
    // checking here turns a bad request into an error reply.
    cfg.aserta.validate().map_err(|e| api_err(&e))?;
    // The optimizer builds its own incremental sessions internally; the
    // pool holds nominal-assignment analysis sessions, which an
    // optimization run would only churn. Same library construction as
    // the `soft-error optimize` CLI, so daemon and CLI answers agree.
    let mut library = Library::new(Technology::ptm70(), ser_cells::CharGrids::standard());
    let mut request = OptimizeRequest::new(cfg);
    if let Some(ms) = budget_ms {
        request = request.budget(Deadline::within(Duration::from_millis(ms)));
    }
    let outcome = sertopt::optimize(&circuit, &mut library, &request);
    Ok(OptimizeResult {
        baseline_unreliability: outcome.baseline.unreliability,
        optimized_unreliability: outcome.optimized.unreliability,
        delay_ratio: outcome.delay_ratio(),
        energy_ratio: outcome.energy_ratio(),
        area_ratio: outcome.area_ratio(),
        evaluations: outcome.evaluations as u64,
        interrupted: outcome.termination.was_interrupted(),
    })
}

fn snapshot(
    pool: &SessionPool,
    source: &crate::api::CircuitSource,
    cfg: &AsertaConfig,
    grids: crate::api::GridKind,
) -> Result<(PathBuf, u64), ApiError> {
    let circuit = intern_circuit(source.instantiate()?);
    pool.force_snapshot(circuit, cfg, grids)
}
