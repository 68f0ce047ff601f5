//! The typed wire API: [`Request`], [`Response`] and [`ApiError`].
//!
//! Every frame on the wire is one JSON object with a `"type"` tag; the
//! payload enums below are the single source of truth for the protocol.
//! The vendored serde shim's derive handles named-field structs and
//! unit-only enums, so the three payload-carrying enums implement
//! [`serde::Serialize`]/[`serde::Deserialize`] by hand over the shim's
//! [`Value`] tree — round-trip pinned by the tests at the bottom.
//!
//! Analytical responses carry `f64`s through JSON text using Rust's
//! shortest round-trip float formatting, so a daemon answer is **bitwise
//! identical** to the same computation run in-process — the property the
//! protocol integration tests assert.

use aserta::AsertaConfig;
use ser_netlist::generate::{self, LayeredSpec};
use ser_netlist::{bench_format, Circuit};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use sertopt::{Algorithm, AllowedParams, OptimizerConfig};

/// Where the server gets the circuit a request talks about.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSource {
    /// A built-in benchmark: an ISCAS'85 name (`c17`, `c432`, …) or
    /// `sec32`.
    Named(String),
    /// An inline `.bench` netlist.
    Bench {
        /// Circuit name recorded in the parsed netlist.
        name: String,
        /// The `.bench` source text.
        text: String,
    },
    /// A deterministically generated random layered DAG (equal specs
    /// generate equal circuits, so a spec is a stable circuit identity).
    Layered {
        /// Circuit name.
        name: String,
        /// Primary inputs.
        inputs: u64,
        /// Primary outputs.
        outputs: u64,
        /// Total gate count.
        gates: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl CircuitSource {
    /// Materializes the circuit this source describes.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownCircuit`] for an unrecognized name,
    /// [`ApiError::BadRequest`] for an unparseable `.bench` payload.
    pub fn instantiate(&self) -> Result<Circuit, ApiError> {
        match self {
            CircuitSource::Named(name) => {
                if name == "sec32" {
                    return Ok(generate::sec32("sec32"));
                }
                generate::iscas85(name)
                    .ok_or_else(|| ApiError::UnknownCircuit { name: name.clone() })
            }
            CircuitSource::Bench { name, text } => {
                bench_format::parse(text, name).map_err(|e| ApiError::BadRequest {
                    detail: format!("parsing `{name}`: {e}"),
                })
            }
            CircuitSource::Layered {
                name,
                inputs,
                outputs,
                gates,
                seed,
            } => {
                let mut spec = LayeredSpec::new(
                    name.clone(),
                    *inputs as usize,
                    *outputs as usize,
                    *gates as usize,
                );
                spec.seed = *seed;
                Ok(generate::layered(&spec))
            }
        }
    }

    /// A short human label for logs and pool stats.
    pub fn label(&self) -> &str {
        match self {
            CircuitSource::Named(name) => name,
            CircuitSource::Bench { name, .. } | CircuitSource::Layered { name, .. } => name,
        }
    }
}

/// Which characterization grid resolution the request's library uses.
/// Part of the session identity: sessions characterized on different
/// grids never share a pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GridKind {
    /// The production grid ([`ser_cells::CharGrids::standard`]).
    #[default]
    Standard,
    /// The coarse CI grid ([`ser_cells::CharGrids::coarse`]).
    Coarse,
}

impl GridKind {
    /// The characterization grids this kind names.
    pub fn grids(self) -> ser_cells::CharGrids {
        match self {
            GridKind::Standard => ser_cells::CharGrids::standard(),
            GridKind::Coarse => ser_cells::CharGrids::coarse(),
        }
    }
}

/// The reduced optimizer surface exposed on the wire. Maps onto
/// [`sertopt::OptimizerConfig`] via [`OptimizeSpec::to_config`]; both
/// the daemon and a direct library caller go through the same mapping,
/// which is what makes daemon optimize responses comparable to local
/// runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeSpec {
    /// Search algorithm: `sqp`, `coord`, `anneal` or `genetic`.
    pub algorithm: String,
    /// Parameter profile: `dual`, `triple`, `sizing` or `tiny`.
    pub profile: String,
    /// Search iterations.
    pub iterations: u64,
    /// RNG seed (`None` = the library default).
    pub seed: Option<u64>,
    /// Monte-Carlo vectors for cost evaluations (`None` = default).
    pub vectors: Option<u64>,
    /// Worker threads for batched candidate evaluation (0 = auto).
    pub threads: u64,
}

impl Default for OptimizeSpec {
    fn default() -> Self {
        OptimizeSpec {
            algorithm: "sqp".to_owned(),
            profile: "dual".to_owned(),
            iterations: 6,
            seed: None,
            vectors: None,
            threads: 1,
        }
    }
}

impl OptimizeSpec {
    /// Resolves the wire spec into a full [`OptimizerConfig`].
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] on an unknown algorithm or profile name.
    pub fn to_config(&self) -> Result<OptimizerConfig, ApiError> {
        let mut cfg = OptimizerConfig::fast();
        cfg.algorithm = match self.algorithm.as_str() {
            "sqp" => Algorithm::Sqp,
            "coord" => Algorithm::CoordinateDescent,
            "anneal" => Algorithm::Anneal,
            "genetic" => Algorithm::Genetic,
            other => {
                return Err(ApiError::BadRequest {
                    detail: format!("unknown algorithm `{other}`"),
                })
            }
        };
        cfg.allowed = match self.profile.as_str() {
            "dual" => AllowedParams::table1_dual(),
            "triple" => AllowedParams::table1_triple(),
            "sizing" => AllowedParams::sizing_only(),
            "tiny" => AllowedParams::tiny(),
            other => {
                return Err(ApiError::BadRequest {
                    detail: format!("unknown profile `{other}`"),
                })
            }
        };
        cfg.iterations = self.iterations as usize;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(vectors) = self.vectors {
            cfg.aserta.sensitization_vectors = vectors as usize;
        }
        cfg.threads = self.threads as usize;
        Ok(cfg)
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Pool/throughput counters.
    Stats,
    /// Full ASERTA analysis of a circuit at the nominal cell assignment,
    /// served from a warm session when one is pooled.
    Analyze {
        /// The circuit to analyze.
        circuit: CircuitSource,
        /// Analysis settings (part of the session identity, except
        /// `charge`, which is applied as a cheap warm-session delta).
        config: AsertaConfig,
        /// Library grid resolution.
        grids: GridKind,
        /// Optional per-request wall-clock budget, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// A VDD × Vth × charge operating-corner sweep, each corner applied
    /// to the warm session as a cell-delta batch and dealt round-robin
    /// over session replicas.
    CornerSweep {
        /// The circuit to sweep.
        circuit: CircuitSource,
        /// Analysis settings shared by every corner.
        config: AsertaConfig,
        /// Library grid resolution.
        grids: GridKind,
        /// Supply-voltage axis, volts.
        vdds: Vec<f64>,
        /// Threshold-voltage axis, volts.
        vths: Vec<f64>,
        /// Strike-charge axis, coulombs.
        charges: Vec<f64>,
        /// Replica threads (0 = server default).
        threads: u64,
        /// Optional per-request wall-clock budget, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// A SERTOPT optimization run.
    Optimize {
        /// The circuit to optimize.
        circuit: CircuitSource,
        /// Reduced optimizer settings.
        spec: OptimizeSpec,
        /// Optional optimization budget, milliseconds.
        budget_ms: Option<u64>,
    },
    /// Force a `.sersnap` image of the circuit's pooled session to disk
    /// (building the session first if it is cold).
    Snapshot {
        /// The circuit to snapshot.
        circuit: CircuitSource,
        /// Analysis settings identifying the session.
        config: AsertaConfig,
        /// Library grid resolution.
        grids: GridKind,
    },
    /// Snapshot the pool and stop the daemon.
    Shutdown,
}

/// Pool and request counters returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PoolStats {
    /// Resident warm sessions.
    pub sessions: u64,
    /// Sum of the pooled sessions' resident-byte estimates.
    pub resident_bytes: u64,
    /// The pool's byte budget.
    pub budget_bytes: u64,
    /// Requests served from a warm session.
    pub hits: u64,
    /// Requests that had to build (or rebuild) a session.
    pub misses: u64,
    /// Sessions restored from `.sersnap` images at startup.
    pub restored: u64,
    /// Total requests handled.
    pub requests: u64,
}

/// Payload of [`Response::Analyzed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeResult {
    /// Circuit name.
    pub circuit: String,
    /// Gate count.
    pub gates: u64,
    /// Circuit unreliability `U` (Eq. 4).
    pub unreliability: f64,
    /// Critical PI→PO path delay, seconds.
    pub critical_delay_s: f64,
    /// Per-gate soft-error contributions `U_i` (Eq. 3), node-indexed.
    pub per_gate_unreliability: Vec<f64>,
}

/// One evaluated corner in a [`Response::Swept`] payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Threshold voltage, volts.
    pub vth: f64,
    /// Strike charge, coulombs.
    pub charge: f64,
    /// Circuit unreliability at the corner.
    pub unreliability: f64,
    /// Critical path delay at the corner, seconds.
    pub critical_delay_s: f64,
}

/// Payload of [`Response::Optimized`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeResult {
    /// Baseline circuit unreliability.
    pub baseline_unreliability: f64,
    /// Optimized circuit unreliability.
    pub optimized_unreliability: f64,
    /// Optimized/baseline critical-delay ratio.
    pub delay_ratio: f64,
    /// Optimized/baseline energy ratio.
    pub energy_ratio: f64,
    /// Optimized/baseline area ratio.
    pub area_ratio: f64,
    /// Cost evaluations spent.
    pub evaluations: u64,
    /// Whether the budget interrupted the search (the returned
    /// assignment is still never-regress valid).
    pub interrupted: bool,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// Server crate version.
        version: String,
    },
    /// Reply to [`Request::Stats`].
    Stats(PoolStats),
    /// Reply to [`Request::Analyze`].
    Analyzed(AnalyzeResult),
    /// Reply to [`Request::CornerSweep`], points in grid order
    /// (VDD-major, then Vth, then charge).
    Swept {
        /// The evaluated corners.
        points: Vec<SweepPoint>,
    },
    /// Reply to [`Request::Optimize`].
    Optimized(OptimizeResult),
    /// Reply to [`Request::Snapshot`].
    Snapshotted {
        /// Where the `.sersnap` image was written.
        path: String,
        /// Image size in bytes.
        bytes: u64,
    },
    /// Reply to [`Request::Shutdown`]; the connection closes after it.
    ShuttingDown,
    /// The request failed with a typed error.
    Error(ApiError),
}

/// Typed request failures, shipped inside [`Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The frame payload was not a well-formed request object. The
    /// connection stays usable: framing was intact, only the payload was
    /// bad.
    MalformedFrame {
        /// What the parser rejected.
        detail: String,
    },
    /// The frame's length prefix exceeds the server's limit. The server
    /// replies with this and closes the connection (the oversized
    /// payload is never read, so the stream cannot be resynchronized).
    Oversized {
        /// The server's frame limit, bytes.
        limit: u64,
        /// The announced frame length, bytes.
        got: u64,
    },
    /// A [`CircuitSource::Named`] name the server does not know.
    UnknownCircuit {
        /// The offending name.
        name: String,
    },
    /// A structurally valid request with unusable contents.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The analysis engine rejected the request.
    Analysis {
        /// The engine's error rendering.
        detail: String,
    },
    /// The per-request deadline expired (or its cancel token fired)
    /// before the work completed.
    Interrupted {
        /// The pipeline stage that observed the interruption.
        stage: String,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// Handling the request panicked — a bug in the daemon, not in the
    /// request. The worker survives and keeps serving; the session the
    /// request had checked out is dropped, not returned to the pool.
    Internal {
        /// The panic message.
        detail: String,
    },
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::MalformedFrame { detail } => write!(f, "malformed frame: {detail}"),
            ApiError::Oversized { limit, got } => {
                write!(f, "frame of {got} bytes exceeds the {limit}-byte limit")
            }
            ApiError::UnknownCircuit { name } => write!(f, "unknown circuit `{name}`"),
            ApiError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ApiError::Analysis { detail } => write!(f, "analysis failed: {detail}"),
            ApiError::Interrupted { stage } => write!(f, "interrupted at {stage}"),
            ApiError::ShuttingDown => write!(f, "server is shutting down"),
            ApiError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ApiError {}

// ------------------------------------------------------- serde plumbing
//
// The vendored serde derive cannot express payload-carrying enum
// variants, so the tagged-object convention is written out by hand:
// `{"type": "<tag>", ...payload fields}`.

fn obj(type_tag: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("type".to_owned(), Value::String(type_tag.to_owned()))];
    entries.append(&mut fields);
    Value::Object(entries)
}

#[allow(clippy::type_complexity)]
fn tag_of(v: &Value) -> Result<(&str, &[(String, Value)]), SerdeError> {
    let entries = v
        .as_object()
        .ok_or_else(|| SerdeError::custom(format!("expected object, found {}", v.kind())))?;
    let tag = serde::__find(entries, "type")
        .and_then(Value::as_str)
        .ok_or_else(|| SerdeError::custom("missing string field `type`"))?;
    Ok((tag, entries))
}

fn field<T: Deserialize>(
    entries: &[(String, Value)],
    container: &str,
    name: &str,
) -> Result<T, SerdeError> {
    let v =
        serde::__find(entries, name).ok_or_else(|| SerdeError::missing_field(container, name))?;
    T::deserialize(v).map_err(|e| e.context(&format!("{container}.{name}")))
}

fn opt_field<T: Deserialize>(
    entries: &[(String, Value)],
    container: &str,
    name: &str,
) -> Result<Option<T>, SerdeError> {
    match serde::__find(entries, name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::deserialize(v)
            .map(Some)
            .map_err(|e| e.context(&format!("{container}.{name}"))),
    }
}

impl Serialize for CircuitSource {
    fn serialize(&self) -> Value {
        match self {
            CircuitSource::Named(name) => obj("named", vec![("name".to_owned(), name.serialize())]),
            CircuitSource::Bench { name, text } => obj(
                "bench",
                vec![
                    ("name".to_owned(), name.serialize()),
                    ("text".to_owned(), text.serialize()),
                ],
            ),
            CircuitSource::Layered {
                name,
                inputs,
                outputs,
                gates,
                seed,
            } => obj(
                "layered",
                vec![
                    ("name".to_owned(), name.serialize()),
                    ("inputs".to_owned(), inputs.serialize()),
                    ("outputs".to_owned(), outputs.serialize()),
                    ("gates".to_owned(), gates.serialize()),
                    ("seed".to_owned(), seed.serialize()),
                ],
            ),
        }
    }
}

impl Deserialize for CircuitSource {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let (tag, e) = tag_of(v)?;
        match tag {
            "named" => Ok(CircuitSource::Named(field(e, "CircuitSource", "name")?)),
            "bench" => Ok(CircuitSource::Bench {
                name: field(e, "CircuitSource", "name")?,
                text: field(e, "CircuitSource", "text")?,
            }),
            "layered" => Ok(CircuitSource::Layered {
                name: field(e, "CircuitSource", "name")?,
                inputs: field(e, "CircuitSource", "inputs")?,
                outputs: field(e, "CircuitSource", "outputs")?,
                gates: field(e, "CircuitSource", "gates")?,
                seed: field(e, "CircuitSource", "seed")?,
            }),
            other => Err(SerdeError::custom(format!(
                "unknown circuit source `{other}`"
            ))),
        }
    }
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        match self {
            Request::Ping => obj("ping", vec![]),
            Request::Stats => obj("stats", vec![]),
            Request::Analyze {
                circuit,
                config,
                grids,
                deadline_ms,
            } => obj(
                "analyze",
                vec![
                    ("circuit".to_owned(), circuit.serialize()),
                    ("config".to_owned(), config.serialize()),
                    ("grids".to_owned(), grids.serialize()),
                    ("deadline_ms".to_owned(), deadline_ms.serialize()),
                ],
            ),
            Request::CornerSweep {
                circuit,
                config,
                grids,
                vdds,
                vths,
                charges,
                threads,
                deadline_ms,
            } => obj(
                "corner_sweep",
                vec![
                    ("circuit".to_owned(), circuit.serialize()),
                    ("config".to_owned(), config.serialize()),
                    ("grids".to_owned(), grids.serialize()),
                    ("vdds".to_owned(), vdds.serialize()),
                    ("vths".to_owned(), vths.serialize()),
                    ("charges".to_owned(), charges.serialize()),
                    ("threads".to_owned(), threads.serialize()),
                    ("deadline_ms".to_owned(), deadline_ms.serialize()),
                ],
            ),
            Request::Optimize {
                circuit,
                spec,
                budget_ms,
            } => obj(
                "optimize",
                vec![
                    ("circuit".to_owned(), circuit.serialize()),
                    ("spec".to_owned(), spec.serialize()),
                    ("budget_ms".to_owned(), budget_ms.serialize()),
                ],
            ),
            Request::Snapshot {
                circuit,
                config,
                grids,
            } => obj(
                "snapshot",
                vec![
                    ("circuit".to_owned(), circuit.serialize()),
                    ("config".to_owned(), config.serialize()),
                    ("grids".to_owned(), grids.serialize()),
                ],
            ),
            Request::Shutdown => obj("shutdown", vec![]),
        }
    }
}

impl Deserialize for Request {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let (tag, e) = tag_of(v)?;
        match tag {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => Ok(Request::Analyze {
                circuit: field(e, "Analyze", "circuit")?,
                config: field(e, "Analyze", "config")?,
                grids: field(e, "Analyze", "grids")?,
                deadline_ms: opt_field(e, "Analyze", "deadline_ms")?,
            }),
            "corner_sweep" => Ok(Request::CornerSweep {
                circuit: field(e, "CornerSweep", "circuit")?,
                config: field(e, "CornerSweep", "config")?,
                grids: field(e, "CornerSweep", "grids")?,
                vdds: field(e, "CornerSweep", "vdds")?,
                vths: field(e, "CornerSweep", "vths")?,
                charges: field(e, "CornerSweep", "charges")?,
                threads: field(e, "CornerSweep", "threads")?,
                deadline_ms: opt_field(e, "CornerSweep", "deadline_ms")?,
            }),
            "optimize" => Ok(Request::Optimize {
                circuit: field(e, "Optimize", "circuit")?,
                spec: field(e, "Optimize", "spec")?,
                budget_ms: opt_field(e, "Optimize", "budget_ms")?,
            }),
            "snapshot" => Ok(Request::Snapshot {
                circuit: field(e, "Snapshot", "circuit")?,
                config: field(e, "Snapshot", "config")?,
                grids: field(e, "Snapshot", "grids")?,
            }),
            other => Err(SerdeError::custom(format!(
                "unknown request type `{other}`"
            ))),
        }
    }
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Pong { version } => {
                obj("pong", vec![("version".to_owned(), version.serialize())])
            }
            Response::Stats(stats) => match stats.serialize() {
                Value::Object(fields) => obj("stats", fields),
                other => other,
            },
            Response::Analyzed(r) => match r.serialize() {
                Value::Object(fields) => obj("analyzed", fields),
                other => other,
            },
            Response::Swept { points } => {
                obj("swept", vec![("points".to_owned(), points.serialize())])
            }
            Response::Optimized(r) => match r.serialize() {
                Value::Object(fields) => obj("optimized", fields),
                other => other,
            },
            Response::Snapshotted { path, bytes } => obj(
                "snapshotted",
                vec![
                    ("path".to_owned(), path.serialize()),
                    ("bytes".to_owned(), bytes.serialize()),
                ],
            ),
            Response::ShuttingDown => obj("shutting_down", vec![]),
            Response::Error(e) => obj("error", vec![("error".to_owned(), e.serialize())]),
        }
    }
}

impl Deserialize for Response {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let (tag, e) = tag_of(v)?;
        match tag {
            "pong" => Ok(Response::Pong {
                version: field(e, "Pong", "version")?,
            }),
            "stats" => PoolStats::deserialize(v).map(Response::Stats),
            "analyzed" => AnalyzeResult::deserialize(v).map(Response::Analyzed),
            "swept" => Ok(Response::Swept {
                points: field(e, "Swept", "points")?,
            }),
            "optimized" => OptimizeResult::deserialize(v).map(Response::Optimized),
            "snapshotted" => Ok(Response::Snapshotted {
                path: field(e, "Snapshotted", "path")?,
                bytes: field(e, "Snapshotted", "bytes")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error(field(e, "Error", "error")?)),
            other => Err(SerdeError::custom(format!(
                "unknown response type `{other}`"
            ))),
        }
    }
}

impl Serialize for ApiError {
    fn serialize(&self) -> Value {
        match self {
            ApiError::MalformedFrame { detail } => obj(
                "malformed_frame",
                vec![("detail".to_owned(), detail.serialize())],
            ),
            ApiError::Oversized { limit, got } => obj(
                "oversized",
                vec![
                    ("limit".to_owned(), limit.serialize()),
                    ("got".to_owned(), got.serialize()),
                ],
            ),
            ApiError::UnknownCircuit { name } => obj(
                "unknown_circuit",
                vec![("name".to_owned(), name.serialize())],
            ),
            ApiError::BadRequest { detail } => obj(
                "bad_request",
                vec![("detail".to_owned(), detail.serialize())],
            ),
            ApiError::Analysis { detail } => {
                obj("analysis", vec![("detail".to_owned(), detail.serialize())])
            }
            ApiError::Interrupted { stage } => {
                obj("interrupted", vec![("stage".to_owned(), stage.serialize())])
            }
            ApiError::ShuttingDown => obj("shutting_down", vec![]),
            ApiError::Internal { detail } => {
                obj("internal", vec![("detail".to_owned(), detail.serialize())])
            }
        }
    }
}

impl Deserialize for ApiError {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let (tag, e) = tag_of(v)?;
        match tag {
            "malformed_frame" => Ok(ApiError::MalformedFrame {
                detail: field(e, "MalformedFrame", "detail")?,
            }),
            "oversized" => Ok(ApiError::Oversized {
                limit: field(e, "Oversized", "limit")?,
                got: field(e, "Oversized", "got")?,
            }),
            "unknown_circuit" => Ok(ApiError::UnknownCircuit {
                name: field(e, "UnknownCircuit", "name")?,
            }),
            "bad_request" => Ok(ApiError::BadRequest {
                detail: field(e, "BadRequest", "detail")?,
            }),
            "analysis" => Ok(ApiError::Analysis {
                detail: field(e, "Analysis", "detail")?,
            }),
            "interrupted" => Ok(ApiError::Interrupted {
                stage: field(e, "Interrupted", "stage")?,
            }),
            "shutting_down" => Ok(ApiError::ShuttingDown),
            "internal" => Ok(ApiError::Internal {
                detail: field(e, "Internal", "detail")?,
            }),
            other => Err(SerdeError::custom(format!("unknown error type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(v: &T) -> T
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let text = serde_json::to_string(v).expect("serialize");
        let back: T = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(&back, v, "{text}");
        back
    }

    #[test]
    fn requests_round_trip() {
        round_trip(&Request::Ping);
        round_trip(&Request::Stats);
        round_trip(&Request::Shutdown);
        round_trip(&Request::Analyze {
            circuit: CircuitSource::Named("c17".into()),
            config: AsertaConfig::default(),
            grids: GridKind::Coarse,
            deadline_ms: Some(250),
        });
        round_trip(&Request::Analyze {
            circuit: CircuitSource::Bench {
                name: "x".into(),
                text: "INPUT(a)\n".into(),
            },
            config: AsertaConfig::fast(),
            grids: GridKind::Standard,
            deadline_ms: None,
        });
        round_trip(&Request::CornerSweep {
            circuit: CircuitSource::Layered {
                name: "l".into(),
                inputs: 8,
                outputs: 2,
                gates: 40,
                seed: 7,
            },
            config: AsertaConfig::fast(),
            grids: GridKind::Coarse,
            vdds: vec![0.9, 1.1],
            vths: vec![0.2],
            charges: vec![8.0e-15, 16.0e-15],
            threads: 0,
            deadline_ms: None,
        });
        round_trip(&Request::Optimize {
            circuit: CircuitSource::Named("c432".into()),
            spec: OptimizeSpec::default(),
            budget_ms: Some(5_000),
        });
        round_trip(&Request::Snapshot {
            circuit: CircuitSource::Named("sec32".into()),
            config: AsertaConfig::default(),
            grids: GridKind::Standard,
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip(&Response::Pong {
            version: "0.1.0".into(),
        });
        round_trip(&Response::Stats(PoolStats {
            sessions: 2,
            resident_bytes: 123_456,
            budget_bytes: 1 << 26,
            hits: 10,
            misses: 3,
            restored: 1,
            requests: 14,
        }));
        round_trip(&Response::Analyzed(AnalyzeResult {
            circuit: "c17".into(),
            gates: 6,
            unreliability: 1.25e-3,
            critical_delay_s: 3.5e-10,
            per_gate_unreliability: vec![1.0e-4, 2.0e-4],
        }));
        round_trip(&Response::Swept {
            points: vec![SweepPoint {
                vdd: 1.0,
                vth: 0.2,
                charge: 16.0e-15,
                unreliability: 2.0e-3,
                critical_delay_s: 4.0e-10,
            }],
        });
        round_trip(&Response::Optimized(OptimizeResult {
            baseline_unreliability: 1.0e-2,
            optimized_unreliability: 4.0e-3,
            delay_ratio: 1.01,
            energy_ratio: 1.2,
            area_ratio: 1.1,
            evaluations: 64,
            interrupted: false,
        }));
        round_trip(&Response::Snapshotted {
            path: "/tmp/x.sersnap".into(),
            bytes: 4096,
        });
        round_trip(&Response::ShuttingDown);
        for err in [
            ApiError::MalformedFrame {
                detail: "nope".into(),
            },
            ApiError::Oversized {
                limit: 1024,
                got: 4096,
            },
            ApiError::UnknownCircuit {
                name: "c9999".into(),
            },
            ApiError::BadRequest {
                detail: "bad".into(),
            },
            ApiError::Analysis {
                detail: "poisoned".into(),
            },
            ApiError::Interrupted {
                stage: "serve::sweep".into(),
            },
            ApiError::ShuttingDown,
            ApiError::Internal {
                detail: "fail point `x`: injected panic".into(),
            },
        ] {
            round_trip(&Response::Error(err));
        }
    }

    #[test]
    fn floats_survive_the_wire_bitwise() {
        // The bitwise-fidelity contract leans on shortest round-trip
        // float text; pin it at the API layer.
        let xs = [1.0e-300, 0.1 + 0.2, f64::MIN_POSITIVE, 2.5e17, -1.0 / 3.0];
        for x in xs {
            let r = round_trip(&Response::Analyzed(AnalyzeResult {
                circuit: "c".into(),
                gates: 1,
                unreliability: x,
                critical_delay_s: -x,
                per_gate_unreliability: vec![x],
            }));
            let Response::Analyzed(r) = r else {
                unreachable!()
            };
            assert_eq!(r.unreliability.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn unknown_tags_are_typed_parse_errors() {
        assert!(serde_json::from_str::<Request>("{\"type\":\"frobnicate\"}").is_err());
        assert!(serde_json::from_str::<Request>("[1,2,3]").is_err());
        assert!(serde_json::from_str::<Response>("{\"no_type\":1}").is_err());
    }

    #[test]
    fn circuit_sources_instantiate() {
        let c17 = CircuitSource::Named("c17".into())
            .instantiate()
            .expect("c17");
        assert_eq!(c17.gate_count(), 6);
        assert!(CircuitSource::Named("sec32".into()).instantiate().is_ok());
        let err = CircuitSource::Named("c9999".into())
            .instantiate()
            .unwrap_err();
        assert!(matches!(err, ApiError::UnknownCircuit { .. }));
        // Equal layered specs are a stable identity: byte-equal circuits.
        let a = CircuitSource::Layered {
            name: "l".into(),
            inputs: 8,
            outputs: 2,
            gates: 40,
            seed: 3,
        };
        assert_eq!(
            a.instantiate().expect("layered"),
            a.instantiate().expect("layered")
        );
    }

    #[test]
    fn optimize_spec_maps_onto_the_library_config() {
        let spec = OptimizeSpec {
            algorithm: "coord".into(),
            profile: "tiny".into(),
            iterations: 3,
            seed: Some(42),
            vectors: Some(256),
            threads: 2,
        };
        let cfg = spec.to_config().expect("valid spec");
        assert_eq!(cfg.algorithm, Algorithm::CoordinateDescent);
        assert_eq!(cfg.iterations, 3);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.aserta.sensitization_vectors, 256);
        assert!(OptimizeSpec {
            algorithm: "magic".into(),
            ..OptimizeSpec::default()
        }
        .to_config()
        .is_err());
    }
}
