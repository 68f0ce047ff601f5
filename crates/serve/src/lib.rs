//! `ser_serve`: a resident soft-error analysis daemon.
//!
//! The library layers a **service shape** over the workspace's session
//! API: a threaded TCP/Unix-socket server ([`server`]) speaks a
//! length-prefixed JSON protocol ([`proto`]) of typed [`api::Request`]s
//! and [`api::Response`]s, and routes analytical work through a
//! byte-budgeted pool of warm [`aserta::AnalysisSession`]s ([`pool`])
//! instead of rebuilding the Monte-Carlo `P_ij` estimate and the
//! characterized-cell cache per request.
//!
//! Three contracts carry over from the library layer unchanged, and the
//! protocol integration tests pin them end to end:
//!
//! * **Bitwise fidelity** — a response served from a warm session is
//!   bit-for-bit the answer a fresh in-process analysis at the same
//!   configuration produces, because warm requests are expressed as
//!   session deltas (`try_set_charge` then `try_set_cells`) and the
//!   session fidelity contract makes delta'd state equal fresh state.
//!   JSON is safe to carry that promise: the vendored serializer prints
//!   `f64`s with shortest round-trip formatting.
//! * **Typed failure** — malformed frames, oversized payloads, unknown
//!   circuits and exhausted deadlines all come back as
//!   [`api::ApiError`] values, never a dropped connection mid-frame and
//!   never a panic (the crate denies `unwrap`/`expect` outside tests).
//! * **Crash safety** — every session built into the pool is eagerly
//!   imaged to a `.sersnap` file, so a `kill -9`'d daemon restarted on
//!   the same `--pool-dir` restores its warm pool and keeps answering
//!   bitwise-identically.
//!
//! Per-request execution budgets reuse the library's cooperative
//! [`Deadline`] machinery and apply **only to warm delta work**. Cold
//! builds take no deadline, because the session builder has none: the
//! `P_ij` estimate always runs to completion, so every pooled session
//! is canonical.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod pool;
pub mod proto;
pub mod server;

pub use api::{ApiError, CircuitSource, GridKind, OptimizeSpec, Request, Response};
pub use client::{Client, ClientError};
pub use pool::{PoolConfig, SessionPool};
pub use proto::{FrameError, DEFAULT_MAX_FRAME};
pub use server::{serve, Listen, ServeError, ServerConfig, ServerHandle};

// The engine knobs a deployment tunes, re-exported so daemon embedders
// need only this crate.
pub use ser_logicsim::{EngineConfig, EngineConfigError};
pub use ser_netlist::govern::{CancelToken, Deadline};
