//! Environment-overlay behavior of [`EngineConfig`]: `from_env` rejects
//! malformed values with a typed error, precedence is explicit > env >
//! default, and the estimator entry points never read the environment.
//!
//! Lives in its own test binary because it mutates process-wide
//! environment variables; the tests serialize on a local mutex so the
//! in-binary test threads cannot race each other.

use std::sync::Mutex;

use ser_logicsim::engine::{EngineConfig, EngineConfigError, DEFAULT_CONE_CHUNK};
use ser_logicsim::sensitize::{resimulate_rows_cfg, sensitization_probabilities_cfg, PijConfig};
use ser_netlist::generate;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const VARS: [&str; 4] = [
    "SER_SIM_THREADS",
    "SER_CONE_CHUNK",
    "SER_MEM_SOFT_LIMIT",
    "SER_PIJ_TOL",
];

/// Runs `f` with exactly `set` in the engine environment, restoring the
/// previous state afterwards.
fn with_env<R>(set: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved: Vec<(&str, Option<String>)> =
        VARS.iter().map(|&v| (v, std::env::var(v).ok())).collect();
    for &v in &VARS {
        std::env::remove_var(v);
    }
    for &(k, v) in set {
        std::env::set_var(k, v);
    }
    let out = f();
    for (v, old) in saved {
        match old {
            Some(val) => std::env::set_var(v, val),
            None => std::env::remove_var(v),
        }
    }
    out
}

#[test]
fn strict_overlay_reads_well_formed_values() {
    let cfg = with_env(
        &[
            ("SER_SIM_THREADS", "3"),
            ("SER_CONE_CHUNK", "64"),
            ("SER_MEM_SOFT_LIMIT", "8M"),
        ],
        || EngineConfig::from_env().unwrap(),
    );
    assert_eq!(cfg.sim_threads, Some(3));
    assert_eq!(cfg.cone_chunk, Some(64));
    assert_eq!(cfg.mem_soft_limit, Some(8 << 20));
}

#[test]
fn strict_overlay_leaves_unset_vars_unset() {
    let cfg = with_env(&[], || EngineConfig::from_env().unwrap());
    assert_eq!(cfg, EngineConfig::new());
}

#[test]
fn strict_overlay_rejects_malformed_mem_limit() {
    let err = with_env(&[("SER_MEM_SOFT_LIMIT", "lots")], || {
        EngineConfig::from_env().unwrap_err()
    });
    assert_eq!(
        err,
        EngineConfigError {
            var: "SER_MEM_SOFT_LIMIT",
            value: "lots".to_string(),
            expected: "a positive byte count with optional K/M/G suffix",
        }
    );
    // The error formats with enough context to act on.
    assert!(err.to_string().contains("SER_MEM_SOFT_LIMIT"));
    assert!(err.to_string().contains("lots"));
}

#[test]
fn strict_overlay_rejects_malformed_chunk_and_threads() {
    let err = with_env(&[("SER_CONE_CHUNK", "0")], || {
        EngineConfig::from_env().unwrap_err()
    });
    assert_eq!(err.var, "SER_CONE_CHUNK");

    let err = with_env(&[("SER_SIM_THREADS", "-2")], || {
        EngineConfig::from_env().unwrap_err()
    });
    assert_eq!(err.var, "SER_SIM_THREADS");
}

#[test]
fn strict_overlay_reads_estimator_knobs() {
    let cfg = with_env(&[("SER_PIJ_TOL", "0.05")], || {
        EngineConfig::from_env().unwrap()
    });
    assert_eq!(cfg.pij_tolerance, Some(0.05));
    assert_eq!(cfg.pij().tolerance, 0.05);
}

#[test]
fn strict_overlay_rejects_malformed_estimator_knobs() {
    let err = with_env(&[("SER_PIJ_TOL", "-0.1")], || {
        EngineConfig::from_env().unwrap_err()
    });
    assert_eq!(err.var, "SER_PIJ_TOL");

    let err = with_env(&[("SER_PIJ_TOL", "inf")], || {
        EngineConfig::from_env().unwrap_err()
    });
    assert_eq!(err.var, "SER_PIJ_TOL");
}

#[test]
fn explicit_beats_env_beats_default() {
    let resolved = with_env(
        &[("SER_CONE_CHUNK", "512"), ("SER_SIM_THREADS", "5")],
        || {
            let explicit = EngineConfig::new().with_threads(2);
            explicit.overlay(&EngineConfig::from_env().unwrap())
        },
    );
    assert_eq!(resolved.threads(), 2); // explicit wins
    assert_eq!(resolved.cone_chunk(), 512); // env fills the gap
    assert_eq!(resolved.mem_soft_limit(), None); // default
}

#[test]
fn estimator_entry_points_ignore_the_environment() {
    // 4 blocks of 64 words: enough for adaptive stops, so a tolerance
    // read from the environment would change the result.
    let n_vectors = 64 * 64 * 4;
    let c = generate::sec32("env");
    let nodes: Vec<_> = c.node_ids().filter(|id| id.index() % 5 == 1).collect();
    let run = || {
        let pij = PijConfig::default();
        (
            sensitization_probabilities_cfg(&c, n_vectors, 7, 2, DEFAULT_CONE_CHUNK, &pij),
            resimulate_rows_cfg(&c, &nodes, n_vectors, 7, 2, DEFAULT_CONE_CHUNK, &pij),
        )
    };
    let cleared = with_env(&[], run);
    let set = with_env(&[("SER_PIJ_TOL", "0"), ("SER_SIM_THREADS", "1")], run);
    assert_eq!(set, cleared);
    // The pinned settings would have mattered had they been read.
    let fixed = sensitization_probabilities_cfg(
        &c,
        n_vectors,
        7,
        1,
        DEFAULT_CONE_CHUNK,
        &PijConfig::fixed(),
    );
    assert_ne!(fixed, cleared.0);
}
