//! [`EngineConfig`]: one explicit home for the engine's knobs, and
//! the only code in the workspace that reads the `SER_*` environment.
//!
//! Three knobs govern how (not what) the engine computes — none of them
//! affects results, which are bitwise identical for every setting:
//!
//! * **worker threads** (`SER_SIM_THREADS`) — simulation/replica
//!   parallelism;
//! * **cone chunk size** (`SER_CONE_CHUNK`) — roots per streamed
//!   cone-arena chunk (peak memory vs recompilation trade);
//! * **soft memory limit** (`SER_MEM_SOFT_LIMIT`) — byte budget the
//!   governed estimator degrades under instead of OOMing.
//!
//! A fourth knob governs the `P_ij` **estimator** itself (see
//! [`PijConfig`]). It trades accuracy bookkeeping for speed and is
//! therefore part of a result's identity:
//!
//! * **adaptive tolerance** (`SER_PIJ_TOL`) — per-cone relative
//!   half-width target for early sampling stops (`0` = the fixed-budget
//!   bitwise-pinned mode).
//!
//! Precedence is **explicit > environment > default**: a field set on
//! the config wins; an unset field falls through to the environment
//! overlay ([`EngineConfig::from_env`]) and then to the built-in
//! default. [`EngineConfig::from_env`] rejects malformed variable
//! values with a typed [`EngineConfigError`]. The estimator entry
//! points in [`crate::sensitize`] never read the environment: callers
//! resolve a config here and pass it down.
//!
//! # Example
//!
//! ```
//! use ser_logicsim::engine::EngineConfig;
//!
//! // Explicit beats environment beats default.
//! let cfg = EngineConfig::new().with_threads(2).overlay(
//!     &EngineConfig::new().with_threads(8).with_cone_chunk(64),
//! );
//! assert_eq!(cfg.threads(), 2); // explicit
//! assert_eq!(cfg.cone_chunk(), 64); // from the overlay
//! assert_eq!(cfg.mem_soft_limit(), None); // default
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

/// Default roots-per-chunk of the streamed estimator. At typical cone
/// sizes a chunk's arena plus compiled programs stays in the low
/// megabytes, which amortizes to tens of bytes per circuit node on
/// 100k-gate designs.
pub const DEFAULT_CONE_CHUNK: usize = 128;

/// Default relative tolerance of the adaptive sampler: a cone stops
/// early once its observability confidence half-width drops below
/// `tolerance * estimate` (never below the half-width the full
/// requested budget would achieve, so the default preserves the
/// fixed-budget accuracy). `0` disables adaptivity entirely.
pub const DEFAULT_PIJ_TOLERANCE: f64 = 0.02;

/// A malformed engine environment variable, rejected by the strict
/// [`EngineConfig::from_env`] overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfigError {
    /// The offending environment variable.
    pub var: &'static str,
    /// The value found there.
    pub value: String,
    /// What a valid value would look like.
    pub expected: &'static str,
}

impl fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed {}=`{}`: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EngineConfigError {}

/// Configuration of the analysis engine: worker threads, streamed-arena
/// chunk size and the soft memory budget, plus the `P_ij` estimator's
/// adaptive tolerance.
///
/// All fields are optional; an unset field resolves through the
/// layering described in the [module docs](self). The resolved
/// accessors ([`EngineConfig::threads`], [`EngineConfig::cone_chunk`],
/// [`EngineConfig::mem_soft_limit`]) apply the built-in defaults, so a
/// fully-unset config is always usable.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads (`None` = machine parallelism).
    pub sim_threads: Option<usize>,
    /// Roots per streamed cone-arena chunk (`None` =
    /// [`DEFAULT_CONE_CHUNK`]).
    pub cone_chunk: Option<usize>,
    /// Soft memory budget in bytes for governed estimation (`None` =
    /// ungoverned).
    pub mem_soft_limit: Option<usize>,
    /// Relative tolerance of the adaptive `P_ij` sampler; `0` pins the
    /// fixed-budget bitwise path (`None` = [`DEFAULT_PIJ_TOLERANCE`]).
    pub pij_tolerance: Option<f64>,
}

impl EngineConfig {
    /// An empty config: every knob falls through to its default.
    pub const fn new() -> Self {
        EngineConfig {
            sim_threads: None,
            cone_chunk: None,
            mem_soft_limit: None,
            pij_tolerance: None,
        }
    }

    /// Sets the worker-thread count (must be positive to take effect;
    /// the resolved accessor treats 0 as unset).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.sim_threads = Some(threads);
        self
    }

    /// Sets the streamed-arena chunk size (roots per chunk).
    #[must_use]
    pub fn with_cone_chunk(mut self, roots: usize) -> Self {
        self.cone_chunk = Some(roots);
        self
    }

    /// Sets the soft memory budget, bytes.
    #[must_use]
    pub fn with_mem_soft_limit(mut self, bytes: usize) -> Self {
        self.mem_soft_limit = Some(bytes);
        self
    }

    /// Sets the adaptive sampler's relative tolerance (`0` = fixed
    /// budget, bitwise-pinned).
    #[must_use]
    pub fn with_pij_tolerance(mut self, tolerance: f64) -> Self {
        self.pij_tolerance = Some(tolerance);
        self
    }

    /// The environment overlay: reads `SER_SIM_THREADS`,
    /// `SER_CONE_CHUNK`, `SER_MEM_SOFT_LIMIT` and `SER_PIJ_TOL`,
    /// rejecting malformed values with a typed [`EngineConfigError`]
    /// instead of silently ignoring them. Unset variables leave the
    /// field unset.
    ///
    /// # Errors
    ///
    /// [`EngineConfigError`] naming the offending variable when its
    /// value is not a positive integer (threads, chunk), a positive
    /// byte count with optional `K`/`M`/`G` suffix (memory limit) or a
    /// finite non-negative number (tolerance).
    pub fn from_env() -> Result<Self, EngineConfigError> {
        let mut cfg = EngineConfig::new();
        if let Ok(v) = std::env::var("SER_SIM_THREADS") {
            cfg.sim_threads = Some(parse_positive(&v).ok_or(EngineConfigError {
                var: "SER_SIM_THREADS",
                value: v,
                expected: "a positive integer",
            })?);
        }
        if let Ok(v) = std::env::var("SER_CONE_CHUNK") {
            cfg.cone_chunk = Some(parse_positive(&v).ok_or(EngineConfigError {
                var: "SER_CONE_CHUNK",
                value: v,
                expected: "a positive integer",
            })?);
        }
        if let Ok(v) = std::env::var("SER_MEM_SOFT_LIMIT") {
            cfg.mem_soft_limit = Some(parse_byte_size(&v).ok_or(EngineConfigError {
                var: "SER_MEM_SOFT_LIMIT",
                value: v,
                expected: "a positive byte count with optional K/M/G suffix",
            })?);
        }
        if let Ok(v) = std::env::var("SER_PIJ_TOL") {
            cfg.pij_tolerance = Some(parse_tolerance(&v).ok_or(EngineConfigError {
                var: "SER_PIJ_TOL",
                value: v,
                expected: "a finite non-negative number (0 disables adaptivity)",
            })?);
        }
        Ok(cfg)
    }

    /// Layers `self` over `under`: fields set on `self` win, unset
    /// fields fall through — the "explicit > env > default" composition
    /// (`explicit.overlay(&env)`), with the resolved accessors applying
    /// the final defaults.
    #[must_use]
    pub fn overlay(&self, under: &EngineConfig) -> EngineConfig {
        EngineConfig {
            sim_threads: self.sim_threads.or(under.sim_threads),
            cone_chunk: self.cone_chunk.or(under.cone_chunk),
            mem_soft_limit: self.mem_soft_limit.or(under.mem_soft_limit),
            pij_tolerance: self.pij_tolerance.or(under.pij_tolerance),
        }
    }

    /// Resolved worker-thread count: the configured value when
    /// positive, else [`std::thread::available_parallelism`].
    pub fn threads(&self) -> usize {
        match self.sim_threads {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Resolved streamed-arena chunk size: the configured value when
    /// positive, else [`DEFAULT_CONE_CHUNK`].
    pub fn cone_chunk(&self) -> usize {
        match self.cone_chunk {
            Some(n) if n > 0 => n,
            _ => DEFAULT_CONE_CHUNK,
        }
    }

    /// Resolved soft memory budget, bytes (`None` = ungoverned).
    pub fn mem_soft_limit(&self) -> Option<usize> {
        self.mem_soft_limit.filter(|&b| b > 0)
    }

    /// Resolved adaptive tolerance: the configured value when finite
    /// and non-negative (including the pinned `0`), else
    /// [`DEFAULT_PIJ_TOLERANCE`].
    pub fn pij_tolerance(&self) -> f64 {
        match self.pij_tolerance {
            Some(t) if t.is_finite() && t >= 0.0 => t,
            _ => DEFAULT_PIJ_TOLERANCE,
        }
    }

    /// The resolved estimator configuration consumed by the `P_ij`
    /// kernels (see [`crate::sensitize`]).
    pub fn pij(&self) -> PijConfig {
        PijConfig {
            tolerance: self.pij_tolerance(),
        }
    }
}

/// Resolved estimator knob handed to the `P_ij` kernels: the adaptive
/// sampler's relative tolerance (part of a result's identity unless
/// pinned to its fixed-mode `0`).
///
/// [`PijConfig::default`] is the engine default (adaptive sampling on);
/// [`PijConfig::fixed`] is the bitwise-pinned legacy mode that every
/// historical estimate used (no early stops).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PijConfig {
    /// Relative half-width target for early sampling stops; `0`
    /// disables adaptivity.
    pub tolerance: f64,
}

impl Default for PijConfig {
    fn default() -> Self {
        PijConfig {
            tolerance: DEFAULT_PIJ_TOLERANCE,
        }
    }
}

impl PijConfig {
    /// The fixed-budget mode: bitwise identical to every estimate the
    /// engine produced before the estimator knobs existed, and the
    /// reference the adaptive path is validated against.
    pub const fn fixed() -> Self {
        PijConfig { tolerance: 0.0 }
    }
}

/// Parses a positive integer; `None` for malformed or zero values.
fn parse_positive(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Parses an adaptive tolerance; `None` unless finite and
/// non-negative (zero is the valid pinned mode).
fn parse_tolerance(s: &str) -> Option<f64> {
    s.trim()
        .parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
}

/// Parses `"65536"`, `"64K"`, `"8M"`, `"1G"` into bytes (powers of
/// 1024). `None` for malformed or zero values.
pub(crate) fn parse_byte_size(s: &str) -> Option<usize> {
    let t = s.trim();
    let (num, mult) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 1usize << 10),
        b'm' | b'M' => (&t[..t.len() - 1], 1usize << 20),
        b'g' | b'G' => (&t[..t.len() - 1], 1usize << 30),
        _ => (t, 1),
    };
    let n: usize = num.trim().parse().ok()?;
    (n > 0).then(|| n.saturating_mul(mult))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_prefers_upper_layer() {
        let explicit = EngineConfig::new().with_threads(3);
        let env = EngineConfig::new().with_threads(7).with_cone_chunk(32);
        let merged = explicit.overlay(&env);
        assert_eq!(merged.sim_threads, Some(3));
        assert_eq!(merged.cone_chunk, Some(32));
        assert_eq!(merged.mem_soft_limit, None);
    }

    #[test]
    fn resolved_defaults_are_usable() {
        let cfg = EngineConfig::new();
        assert!(cfg.threads() >= 1);
        assert_eq!(cfg.cone_chunk(), DEFAULT_CONE_CHUNK);
        assert_eq!(cfg.mem_soft_limit(), None);
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size("64K"), Some(64 << 10));
        assert_eq!(parse_byte_size(" 8M "), Some(8 << 20));
        assert_eq!(parse_byte_size("1g"), Some(1 << 30));
        assert_eq!(parse_byte_size("0"), None);
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size(""), None);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = EngineConfig::new()
            .with_threads(4)
            .with_mem_soft_limit(1 << 20)
            .with_pij_tolerance(0.01);
        let v = serde::Serialize::serialize(&cfg);
        let back: EngineConfig = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn estimator_knobs_resolve_with_defaults() {
        let cfg = EngineConfig::new();
        assert_eq!(cfg.pij_tolerance(), DEFAULT_PIJ_TOLERANCE);
        assert_eq!(cfg.pij(), PijConfig::default());
    }

    #[test]
    fn estimator_knobs_accept_pinned_zeroes() {
        // 0 is meaningful (fixed budget), not "unset".
        let cfg = EngineConfig::new().with_pij_tolerance(0.0);
        assert_eq!(cfg.pij(), PijConfig::fixed());
    }

    #[test]
    fn invalid_tolerance_falls_back_to_default() {
        assert_eq!(
            EngineConfig::new().with_pij_tolerance(-1.0).pij_tolerance(),
            DEFAULT_PIJ_TOLERANCE
        );
    }

    #[test]
    fn overlay_carries_estimator_knobs() {
        let explicit = EngineConfig::new().with_pij_tolerance(0.0);
        let env = EngineConfig::new()
            .with_pij_tolerance(0.1)
            .with_cone_chunk(8);
        let merged = explicit.overlay(&env);
        assert_eq!(merged.pij_tolerance, Some(0.0));
        assert_eq!(merged.cone_chunk, Some(8));
    }

    // The env-reading paths are covered in `tests/engine_env.rs` as a
    // separate process-wide-env test binary (env mutation races the
    // in-crate parallel tests otherwise).
}
