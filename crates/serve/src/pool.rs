//! The warm-session pool: per-circuit resident [`AnalysisSession`]s
//! under a byte budget, with eager `.sersnap` crash images.
//!
//! # Identity
//!
//! A pool slot is keyed by **(circuit, analysis config sans charge,
//! grid kind, estimator knobs)**. The strike charge is excluded
//! deliberately: moving the charge is a cheap warm delta
//! (`try_set_charge`), so requests that differ only in charge share one
//! warm session instead of fragmenting the pool. The resolved `P_ij`
//! estimator knob ([`EngineConfig::pij`]: the adaptive tolerance) is
//! *included*: a daemon restarted with a different accuracy setting
//! must never serve a `.sersnap` image whose matrices were estimated
//! under the old one, so warm hits never mix accuracy settings. The key is an FNV-1a hash
//! of the circuit's canonical snapshot encoding plus the charge-zeroed
//! config JSON plus the estimator tag; a hit additionally requires full
//! equality on the circuit and config, so a hash collision can never
//! alias two identities.
//!
//! # Lifetimes
//!
//! [`AnalysisSession`] borrows its circuit, but pool entries outlive any
//! request scope, so the pool interns each distinct [`Circuit`] with
//! [`Box::leak`] into a `&'static` — interned circuits live for the
//! daemon's lifetime, bounded by the number of *distinct* circuits
//! served, which is the same bound the pool's sessions already imply.
//!
//! # Crash safety
//!
//! Every cold build is eagerly imaged to `<dir>/<key>.sersnap` before
//! the response goes out. The filename **is** the pool key (16 hex
//! digits); [`SessionPool::restore_dir`] trusts it at startup while
//! [`AnalysisSession::restore_against`] re-derives the session from the
//! image's inputs (library, cells, `P_ij`) and checks the stored
//! unreliability and critical delay bit for bit, so a stale or foreign
//! file can only ever fail to restore, never restore wrongly. An image
//! of an older format version fails to decode and is skipped; the next
//! miss on its identity rebuilds the session cold and re-images it.
//! Snapshots capture the session's *identity* state; a restored session
//! reaches any requested state through the same deltas a warm one
//! would, so post-restart responses stay bitwise identical.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aserta::{AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_logicsim::sensitize::PijConfig;
use ser_logicsim::EngineConfig;
use ser_netlist::snapshot::{write_circuit_section, SnapshotWriter};
use ser_netlist::Circuit;
use ser_spice::Technology;

use crate::api::{ApiError, GridKind, PoolStats};

/// Pool construction settings.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Soft byte budget over the pooled sessions' resident estimates.
    /// The least-recently-used entries are evicted past it; the most
    /// recent entry is always kept, so one large circuit cannot wedge
    /// the pool.
    pub budget_bytes: usize,
    /// Where `.sersnap` crash images live (`None` disables persistence).
    pub dir: Option<PathBuf>,
    /// Engine knobs (thread count, cone chunk, memory ceiling) applied
    /// to every session the pool builds.
    pub engine: EngineConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            // Generous enough for a handful of 100k-gate sessions.
            budget_bytes: 2 << 30,
            dir: None,
            engine: EngineConfig::default(),
        }
    }
}

struct Entry {
    key: u64,
    circuit: &'static Circuit,
    cfg_identity: AsertaConfig,
    /// `None` on entries restored from disk (the grid kind is not part
    /// of the snapshot encoding); pinned on their first hit.
    grids: Option<GridKind>,
    session: AnalysisSession<'static>,
    last_used: u64,
}

#[derive(Default)]
struct PoolInner {
    entries: Vec<Entry>,
    clock: u64,
}

/// The pool itself. All methods take `&self`; one mutex guards the
/// entry list, and sessions are checked *out* of it for the duration of
/// a request so concurrent requests on different circuits never
/// serialize on each other's analysis work.
pub struct SessionPool {
    config: PoolConfig,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    restored: AtomicU64,
    requests: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Interns a circuit, returning a `'static` borrow. Distinct circuits
/// leak once each; an already-interned circuit is reused by equality.
pub fn intern_circuit(circuit: Circuit) -> &'static Circuit {
    static INTERNED: Mutex<Vec<&'static Circuit>> = Mutex::new(Vec::new());
    let mut interned = lock(&INTERNED);
    if let Some(hit) = interned.iter().find(|c| ***c == circuit) {
        return hit;
    }
    let leaked: &'static Circuit = Box::leak(Box::new(circuit));
    interned.push(leaked);
    leaked
}

fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The charge-zeroed config that names a pool identity.
fn identity_cfg(cfg: &AsertaConfig) -> AsertaConfig {
    let mut id = cfg.clone();
    id.charge = 0.0;
    id
}

/// The estimator knob's contribution to a pool identity. The tolerance
/// is tagged by its exact bit pattern — two tolerances that differ in
/// the last ulp are different accuracy contracts, and bit equality is
/// the only float comparison that round-trips through text losslessly.
fn estimator_tag(pij: &PijConfig) -> String {
    format!("tol={:016x}", pij.tolerance.to_bits())
}

fn pool_key(circuit: &Circuit, cfg: &AsertaConfig, grids: GridKind, pij: &PijConfig) -> u64 {
    let mut w = SnapshotWriter::new();
    write_circuit_section(&mut w, circuit);
    let circuit_bytes = w.to_bytes();
    let identity = identity_cfg(cfg);
    // The config's JSON text is a stable encoding of its value; the
    // Debug fallback is equally deterministic and only reachable if the
    // encoder ever grows a failure mode.
    let cfg_text = serde_json::to_string(&identity).unwrap_or_else(|_| format!("{identity:?}"));
    let grid_tag: &[u8] = match grids {
        GridKind::Standard => b"standard",
        GridKind::Coarse => b"coarse",
    };
    let pij_tag = estimator_tag(pij);
    fnv1a64(&[
        &circuit_bytes,
        cfg_text.as_bytes(),
        grid_tag,
        pij_tag.as_bytes(),
    ])
}

fn snapshot_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.sersnap"))
}

impl SessionPool {
    /// An empty pool.
    pub fn new(config: PoolConfig) -> Self {
        SessionPool {
            config,
            inner: Mutex::new(PoolInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// Restores every readable `.sersnap` image in the configured
    /// directory into warm pool entries. Unreadable, misnamed or
    /// internally inconsistent images are skipped (restoring is an
    /// optimization; a skipped image only costs a cold rebuild later).
    /// Returns the number of sessions restored.
    pub fn restore_dir(&self) -> usize {
        let Some(dir) = self.config.dir.clone() else {
            return 0;
        };
        let Ok(listing) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut n = 0;
        for dirent in listing.flatten() {
            let path = dirent.path();
            let Some(stem) = path.file_name().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(hex) = stem.strip_suffix(".sersnap") else {
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let Ok(snap) = aserta::SessionSnapshot::read_file(&path) else {
                continue;
            };
            let circuit = intern_circuit(snap.circuit().clone());
            let Ok(session) = AnalysisSession::restore_against(circuit, &snap) else {
                continue;
            };
            let cfg_identity = identity_cfg(snap.config());
            let mut inner = lock(&self.inner);
            if inner.entries.iter().any(|e| e.key == key) {
                continue;
            }
            inner.clock += 1;
            let last_used = inner.clock;
            inner.entries.push(Entry {
                key,
                circuit,
                cfg_identity,
                grids: None,
                session,
                last_used,
            });
            drop(inner);
            n += 1;
        }
        self.restored.store(n as u64, Ordering::Relaxed);
        self.evict_over_budget();
        n
    }

    /// Runs `work` against the warm session for `(circuit, cfg, grids)`,
    /// building (and eagerly imaging) one on a miss. The entry is
    /// checked out for the duration, so same-identity requests that race
    /// each build their own session and the freshest one is kept; the
    /// answers are bitwise identical either way.
    ///
    /// `work` receives the session **in an unspecified prior state** and
    /// must reach its target state via deltas — exactly the contract the
    /// fidelity guarantee is stated for. If `work` leaves the session
    /// poisoned, the entry is dropped instead of returned to the pool.
    ///
    /// # Errors
    ///
    /// [`ApiError::Analysis`] when a cold build fails; whatever `work`
    /// returns otherwise.
    pub fn with_session<T>(
        &self,
        circuit: &'static Circuit,
        cfg: &AsertaConfig,
        grids: GridKind,
        work: impl FnOnce(&mut AnalysisSession<'static>) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = pool_key(circuit, cfg, grids, &self.config.engine.pij());
        let cfg_identity = identity_cfg(cfg);

        let checked_out = {
            let mut inner = lock(&self.inner);
            let slot = inner.entries.iter().position(|e| {
                e.key == key
                    && std::ptr::eq(e.circuit, circuit)
                    && e.cfg_identity == cfg_identity
                    && e.grids.is_none_or(|g| g == grids)
            });
            slot.map(|i| inner.entries.swap_remove(i))
        };

        let mut entry = match checked_out {
            Some(mut entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.grids = Some(grids);
                entry
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let session = self.build_session(circuit, cfg, grids)?;
                let entry = Entry {
                    key,
                    circuit,
                    cfg_identity,
                    grids: Some(grids),
                    session,
                    last_used: 0,
                };
                // Crash image before the first response leaves the
                // daemon: a kill -9 from here on restores this session.
                if let Some(dir) = &self.config.dir {
                    let _ = std::fs::create_dir_all(dir);
                    let _ = entry.session.snapshot_to(snapshot_path(dir, key));
                }
                entry
            }
        };

        let result = work(&mut entry.session);
        entry.session.clear_deadline();
        if !entry.session.is_poisoned() {
            let mut inner = lock(&self.inner);
            inner.clock += 1;
            entry.last_used = inner.clock;
            // A racing same-identity build may have checked in first;
            // keep the newest and let the duplicate drop.
            if let Some(dup) = inner.entries.iter().position(|e| e.key == entry.key) {
                inner.entries.swap_remove(dup);
            }
            inner.entries.push(entry);
            drop(inner);
            self.evict_over_budget();
        }
        result
    }

    /// Forces a fresh `.sersnap` image of the `(circuit, cfg, grids)`
    /// session — building it first on a miss — and returns the image
    /// path and size.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] when the pool has no snapshot directory;
    /// [`ApiError::Analysis`] when the session cannot be built or
    /// imaged.
    pub fn force_snapshot(
        &self,
        circuit: &'static Circuit,
        cfg: &AsertaConfig,
        grids: GridKind,
    ) -> Result<(PathBuf, u64), ApiError> {
        let Some(dir) = self.config.dir.clone() else {
            return Err(ApiError::BadRequest {
                detail: "the server has no snapshot directory (start it with --pool-dir)"
                    .to_owned(),
            });
        };
        let key = pool_key(circuit, cfg, grids, &self.config.engine.pij());
        let path = snapshot_path(&dir, key);
        self.with_session(circuit, cfg, grids, |session| {
            std::fs::create_dir_all(&dir).map_err(|e| ApiError::Analysis {
                detail: format!("creating {}: {e}", dir.display()),
            })?;
            session.snapshot_to(&path).map_err(|e| ApiError::Analysis {
                detail: e.to_string(),
            })?;
            let bytes = std::fs::metadata(&path)
                .map_err(|e| ApiError::Analysis {
                    detail: format!("stat {}: {e}", path.display()),
                })?
                .len();
            Ok((path.clone(), bytes))
        })
    }

    /// Images every resident session to the snapshot directory (no-op
    /// without one). Called on graceful shutdown so a restart restores
    /// the full warm pool; crash coverage comes from the eager
    /// build-time images instead.
    pub fn snapshot_all(&self) {
        let Some(dir) = self.config.dir.clone() else {
            return;
        };
        let _ = std::fs::create_dir_all(&dir);
        let inner = lock(&self.inner);
        for entry in &inner.entries {
            let _ = entry.session.snapshot_to(snapshot_path(&dir, entry.key));
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let inner = lock(&self.inner);
        let resident: usize = inner
            .entries
            .iter()
            .map(|e| e.session.resident_bytes())
            .sum();
        PoolStats {
            sessions: inner.entries.len() as u64,
            resident_bytes: resident as u64,
            budget_bytes: self.config.budget_bytes as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            restored: self.restored.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// The engine configuration sessions are built with.
    pub fn engine(&self) -> &EngineConfig {
        &self.config.engine
    }

    fn build_session(
        &self,
        circuit: &'static Circuit,
        cfg: &AsertaConfig,
        grids: GridKind,
    ) -> Result<AnalysisSession<'static>, ApiError> {
        let library = Library::new(Technology::ptm70(), grids.grids());
        // Never governed: a deadline-truncated Monte-Carlo estimate
        // would make this session's answers non-canonical and poison
        // every later warm response. Cold builds run to completion; the
        // per-request deadline only binds the warm delta work.
        AnalysisSession::builder(
            circuit,
            CircuitCells::nominal(circuit),
            library,
            cfg.clone(),
        )
        .engine(self.config.engine)
        .build()
        .map_err(|e| ApiError::Analysis {
            detail: e.to_string(),
        })
    }

    fn evict_over_budget(&self) {
        let mut inner = lock(&self.inner);
        loop {
            if inner.entries.len() <= 1 {
                return;
            }
            let resident: usize = inner
                .entries
                .iter()
                .map(|e| e.session.resident_bytes())
                .sum();
            if resident <= self.config.budget_bytes {
                return;
            }
            let Some(oldest) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                return;
            };
            // The .sersnap file stays on disk: an evicted identity can
            // still restore warm after a restart.
            inner.entries.swap_remove(oldest);
        }
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SessionPool")
            .field("sessions", &s.sessions)
            .field("resident_bytes", &s.resident_bytes)
            .field("budget_bytes", &s.budget_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::generate;

    fn fast_cfg() -> AsertaConfig {
        let mut cfg = AsertaConfig::fast();
        cfg.sensitization_vectors = 128;
        cfg
    }

    #[test]
    fn keys_separate_circuits_configs_and_grids() {
        let c17 = intern_circuit(generate::c17());
        let sec = intern_circuit(generate::sec32("sec32"));
        let cfg = fast_cfg();
        let pij = PijConfig::default();
        let base = pool_key(c17, &cfg, GridKind::Coarse, &pij);
        assert_ne!(base, pool_key(sec, &cfg, GridKind::Coarse, &pij));
        assert_ne!(base, pool_key(c17, &cfg, GridKind::Standard, &pij));
        let mut other = cfg.clone();
        other.sensitization_vectors += 1;
        assert_ne!(base, pool_key(c17, &other, GridKind::Coarse, &pij));
        // Charge is NOT identity: same key, served by a warm delta.
        let mut charged = cfg.clone();
        charged.charge *= 2.0;
        assert_eq!(base, pool_key(c17, &charged, GridKind::Coarse, &pij));
    }

    #[test]
    fn keys_separate_estimator_accuracy_settings() {
        let c17 = intern_circuit(generate::c17());
        let cfg = fast_cfg();
        let base = pool_key(c17, &cfg, GridKind::Coarse, &PijConfig::default());
        let tightened = PijConfig {
            tolerance: PijConfig::default().tolerance / 2.0,
        };
        assert_ne!(base, pool_key(c17, &cfg, GridKind::Coarse, &tightened));
        // The fully pinned fixed-budget estimator is its own identity.
        assert_ne!(
            base,
            pool_key(c17, &cfg, GridKind::Coarse, &PijConfig::fixed())
        );
    }

    #[test]
    fn interning_is_by_equality() {
        let a = intern_circuit(generate::c17());
        let b = intern_circuit(generate::c17());
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn warm_hits_after_one_cold_build() {
        let pool = SessionPool::new(PoolConfig {
            dir: None,
            ..PoolConfig::default()
        });
        let circuit = intern_circuit(generate::c17());
        let cfg = fast_cfg();
        for _ in 0..3 {
            let u = pool
                .with_session(circuit, &cfg, GridKind::Coarse, |s| {
                    s.try_set_charge(cfg.charge)
                        .map_err(|e| ApiError::Analysis {
                            detail: e.to_string(),
                        })?;
                    Ok(s.unreliability())
                })
                .expect("analyze");
            assert!(u.is_finite());
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.sessions, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn eviction_keeps_the_most_recent_entry() {
        // A 1-byte budget forces eviction down to the floor of one.
        let pool = SessionPool::new(PoolConfig {
            budget_bytes: 1,
            dir: None,
            engine: EngineConfig::default(),
        });
        let cfg = fast_cfg();
        let c17 = intern_circuit(generate::c17());
        let sec = intern_circuit(generate::sec32("sec32"));
        pool.with_session(c17, &cfg, GridKind::Coarse, |_| Ok(()))
            .expect("c17");
        pool.with_session(sec, &cfg, GridKind::Coarse, |_| Ok(()))
            .expect("sec32");
        let stats = pool.stats();
        assert_eq!(
            stats.sessions, 1,
            "budget of 1 byte keeps exactly the newest entry"
        );
        // The survivor is the most recent one: sec32 hits warm.
        pool.with_session(sec, &cfg, GridKind::Coarse, |_| Ok(()))
            .expect("sec32 again");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn snapshots_restore_into_a_warm_pool() {
        let dir = std::env::temp_dir().join(format!("ser-serve-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fast_cfg();
        let circuit = intern_circuit(generate::c17());
        let make_pool = || {
            SessionPool::new(PoolConfig {
                dir: Some(dir.clone()),
                ..PoolConfig::default()
            })
        };

        let first = make_pool();
        let u_cold = first
            .with_session(circuit, &cfg, GridKind::Coarse, |s| Ok(s.unreliability()))
            .expect("cold");
        drop(first); // no graceful snapshot_all: the eager image must cover this

        let second = make_pool();
        assert_eq!(second.restore_dir(), 1);
        let stats = second.stats();
        assert_eq!(stats.restored, 1);
        assert_eq!(stats.sessions, 1);
        let u_restored = second
            .with_session(circuit, &cfg, GridKind::Coarse, |s| {
                s.try_set_charge(cfg.charge)
                    .map_err(|e| ApiError::Analysis {
                        detail: e.to_string(),
                    })?;
                s.try_set_cells(&CircuitCells::nominal(circuit))
                    .map_err(|e| ApiError::Analysis {
                        detail: e.to_string(),
                    })?;
                Ok(s.unreliability())
            })
            .expect("restored");
        assert_eq!(second.stats().hits, 1, "the restored entry serves warm");
        assert_eq!(u_restored.to_bits(), u_cold.to_bits());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_sessions_are_dropped_not_pooled() {
        let pool = SessionPool::new(PoolConfig {
            dir: None,
            ..PoolConfig::default()
        });
        let circuit = intern_circuit(generate::c17());
        let cfg = fast_cfg();
        pool.with_session(circuit, &cfg, GridKind::Coarse, |s| {
            // A non-finite charge is refused before mutation; the
            // session is NOT poisoned by it, so it stays pooled.
            assert!(s.try_set_charge(f64::NAN).is_err());
            Ok(())
        })
        .expect("refused delta is not fatal");
        assert_eq!(pool.stats().sessions, 1);
    }
}
