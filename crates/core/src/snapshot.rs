//! Crash-safe session persistence: a compact, versioned, checksummed
//! binary image of a whole [`AnalysisSession`](crate::AnalysisSession).
//!
//! A [`SessionSnapshot`] holds the session's *inputs* only — the circuit,
//! the configuration, the characterized library, the cell assignment and
//! the Monte-Carlo `P_ij` matrix (stored sparse, one probability per
//! reachable `(node, PO)` pair — the matrix's own in-memory layout, so
//! its slices are written as they are) — plus two check values: the circuit
//! unreliability and critical delay the live session had at capture
//! time. Timing, width tables and per-gate unreliability are a cheap,
//! deterministic pass over those inputs, so they are not stored.
//! Restoring re-runs that pass (skipping the expensive `P_ij` estimation
//! and SPICE characterization) and compares the two check values
//! **bitwise**: a restored session reproduces the captured one, or the
//! restore fails with a typed error — never a silently-wrong session.
//!
//! On disk the image uses the [`ser_netlist::snapshot`] container:
//! magic + format version up front, one CRC-32 per section, atomic
//! write-rename persistence. Format version 1 images, which also stored
//! every per-node derived table, are refused as
//! [`SnapshotError::UnsupportedVersion`]. Every decode failure
//! (truncation, bit flips, version skew, duplicated or unknown sections,
//! domain-invariant violations) surfaces as a typed [`SnapshotError`] or
//! [`SessionSnapshotError`]; the decoder never panics on hostile bytes.
//!
//! # Example
//!
//! ```no_run
//! use aserta::{AnalysisSession, AsertaConfig, CircuitCells, SessionSnapshot};
//! use ser_cells::{CharGrids, Library};
//! use ser_netlist::generate;
//! use ser_spice::Technology;
//!
//! let c17 = generate::c17();
//! let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
//! let session = AnalysisSession::builder(&c17, CircuitCells::nominal(&c17), lib, AsertaConfig::fast())
//!     .build()
//!     .unwrap();
//!
//! // Persist (atomic write-rename), then cold-start from the file.
//! session.snapshot_to("c17.sersnap").unwrap();
//! let snap = SessionSnapshot::read_file("c17.sersnap").unwrap();
//! let restored = AnalysisSession::restore_from(&snap).unwrap();
//! assert_eq!(restored.unreliability(), session.unreliability());
//! ```

use std::path::Path;

use ser_cells::Library;
use ser_logicsim::SensitizationMatrix;
use ser_netlist::snapshot::{
    gate_kind_code, gate_kind_from_code, read_circuit_section, write_circuit_section, SectionTag,
    Snapshot, SnapshotError, SnapshotWriter, TAG_CIRCUIT,
};
use ser_netlist::{Circuit, NodeId};
use ser_spice::GateParams;

use crate::binding::CircuitCells;
use crate::config::AsertaConfig;
use crate::error::AnalysisError;

/// Section tag: analysis configuration (JSON, bit-exact `f64`s).
pub const TAG_CONFIG: SectionTag = SectionTag(*b"CONF");
/// Section tag: characterized cell library (JSON, bit-exact `f64`s).
pub const TAG_LIBRARY: SectionTag = SectionTag(*b"LIBJ");
/// Section tag: per-gate cell parameter assignment (binary).
pub const TAG_CELLS: SectionTag = SectionTag(*b"CELL");
/// Section tag: the Monte-Carlo sensitization matrix (binary).
pub const TAG_PIJ: SectionTag = SectionTag(*b"PIJM");
/// Section tag: the captured critical delay and unreliability, which a
/// restore must reproduce bitwise.
pub const TAG_DERIVED: SectionTag = SectionTag(*b"DERV");

/// An owned, self-contained image of one
/// [`AnalysisSession`](crate::AnalysisSession).
///
/// Created by [`AnalysisSession::snapshot`](crate::AnalysisSession::snapshot)
/// or decoded from bytes/file; consumed by
/// [`AnalysisSession::restore_from`](crate::AnalysisSession::restore_from).
/// The snapshot owns its [`Circuit`], so a restored session borrows the
/// circuit from the snapshot (keep the snapshot alive as long as the
/// session).
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    pub(crate) circuit: Circuit,
    pub(crate) cfg: AsertaConfig,
    pub(crate) library: Library,
    pub(crate) cells: CircuitCells,
    pub(crate) pij: SensitizationMatrix,
    pub(crate) critical_delay: f64,
    pub(crate) unreliability: f64,
}

/// Failure of a session-level snapshot operation: either the byte-level
/// codec rejected the image, or the rebuilt analysis disagreed with it.
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionSnapshotError {
    /// The container codec rejected the bytes (I/O, truncation, CRC,
    /// version skew, malformed section…).
    Codec(SnapshotError),
    /// The persisted inputs failed analysis validation, or the source
    /// session was poisoned at capture time.
    Analysis(AnalysisError),
    /// The analysis rebuilt from the persisted inputs does not reproduce
    /// the persisted critical delay and unreliability bitwise — the
    /// image is internally inconsistent (or from a different build of
    /// the analysis kernels).
    StateMismatch {
        /// Which value disagreed first.
        what: &'static str,
    },
}

impl std::fmt::Display for SessionSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionSnapshotError::Codec(e) => write!(f, "session snapshot codec error: {e}"),
            SessionSnapshotError::Analysis(e) => {
                write!(f, "session snapshot analysis error: {e}")
            }
            SessionSnapshotError::StateMismatch { what } => write!(
                f,
                "restored session diverges from the snapshot's {what} — image inconsistent"
            ),
        }
    }
}

impl std::error::Error for SessionSnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionSnapshotError::Codec(e) => Some(e),
            SessionSnapshotError::Analysis(e) => Some(e),
            SessionSnapshotError::StateMismatch { .. } => None,
        }
    }
}

impl From<SnapshotError> for SessionSnapshotError {
    fn from(e: SnapshotError) -> Self {
        SessionSnapshotError::Codec(e)
    }
}

impl From<AnalysisError> for SessionSnapshotError {
    fn from(e: AnalysisError) -> Self {
        SessionSnapshotError::Analysis(e)
    }
}

fn malformed(section: SectionTag, reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        section,
        reason: reason.into(),
    }
}

impl SessionSnapshot {
    /// The captured circuit — the netlist a restored session borrows.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The captured analysis configuration.
    pub fn config(&self) -> &AsertaConfig {
        &self.cfg
    }

    /// The captured cell assignment.
    pub fn cells(&self) -> &CircuitCells {
        &self.cells
    }

    /// The captured sensitization matrix.
    pub fn pij(&self) -> &SensitizationMatrix {
        &self.pij
    }

    /// The captured circuit unreliability (verified on restore).
    pub fn unreliability(&self) -> f64 {
        self.unreliability
    }

    /// Serializes the snapshot into the checksummed container format.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when a captured value cannot be
    /// represented (effectively never for state captured from a live
    /// session).
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        Ok(self.encode()?.to_bytes())
    }

    /// Atomically persists the snapshot: writes a temporary sibling
    /// file, then renames it over `path`, so a crash mid-write never
    /// leaves a torn image at `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, plus anything
    /// [`SessionSnapshot::to_bytes`] rejects.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.encode()?.write_atomic(path)
    }

    /// Decodes a snapshot image, re-validating every structural
    /// invariant (container framing, CRCs, then the domain invariants of
    /// each section).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; corrupted input yields a typed rejection,
    /// never a panic or a silently-wrong snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode(&Snapshot::from_bytes(bytes)?)
    }

    /// Reads and decodes a snapshot file.
    ///
    /// # Errors
    ///
    /// See [`SessionSnapshot::from_bytes`]; plus [`SnapshotError::Io`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::decode(&Snapshot::read_file(path)?)
    }

    fn encode(&self) -> Result<SnapshotWriter, SnapshotError> {
        let mut w = SnapshotWriter::new();
        write_circuit_section(&mut w, &self.circuit);

        let cfg_json =
            serde_json::to_string(&self.cfg).map_err(|e| malformed(TAG_CONFIG, e.to_string()))?;
        w.begin_section(TAG_CONFIG);
        w.str(&cfg_json);
        w.end_section();

        let lib_json = self
            .library
            .to_json()
            .map_err(|e| malformed(TAG_LIBRARY, e.to_string()))?;
        w.begin_section(TAG_LIBRARY);
        w.str(&lib_json);
        w.end_section();

        w.begin_section(TAG_CELLS);
        let gates: Vec<NodeId> = self.circuit.gates().collect();
        w.u64(gates.len() as u64);
        for id in gates {
            let p = self
                .cells
                .get(id)
                .ok_or_else(|| malformed(TAG_CELLS, format!("gate {id} has no parameters")))?;
            w.u32(id.index() as u32);
            w.u8(gate_kind_code(p.kind));
            w.u64(p.fanin as u64);
            w.f64(p.size);
            w.f64(p.l_nm);
            w.f64(p.vdd);
            w.f64(p.vth);
        }
        w.end_section();

        w.begin_section(TAG_PIJ);
        let po_cols: Vec<u32> = self
            .pij
            .outputs()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        w.vec_u32(&po_cols);
        w.u64(self.pij.node_count() as u64);
        w.vec_f64(self.pij.reachable_probabilities());
        w.vec_f64(self.pij.observabilities());
        let mut off = Vec::with_capacity(self.pij.reach_offsets().len());
        for &o in self.pij.reach_offsets() {
            off.push(
                u32::try_from(o)
                    .map_err(|_| malformed(TAG_PIJ, "reachability offset exceeds u32"))?,
            );
        }
        w.vec_u32(&off);
        w.vec_u32(self.pij.reach_columns_flat());
        w.u64(self.pij.vectors_used() as u64);
        w.end_section();

        w.begin_section(TAG_DERIVED);
        w.f64(self.critical_delay);
        w.f64(self.unreliability);
        w.end_section();
        Ok(w)
    }

    fn decode(snap: &Snapshot) -> Result<Self, SnapshotError> {
        const KNOWN: [SectionTag; 6] = [
            TAG_CIRCUIT,
            TAG_CONFIG,
            TAG_LIBRARY,
            TAG_CELLS,
            TAG_PIJ,
            TAG_DERIVED,
        ];
        for tag in snap.tags() {
            if !KNOWN.contains(&tag) {
                return Err(malformed(tag, "unexpected section in a session snapshot"));
            }
        }

        let circuit = read_circuit_section(snap)?;
        let n = circuit.node_count();

        let mut s = snap.section(TAG_CONFIG)?;
        let cfg_json = s.str()?;
        s.finish()?;
        let cfg: AsertaConfig =
            serde_json::from_str(&cfg_json).map_err(|e| malformed(TAG_CONFIG, e.to_string()))?;

        let mut s = snap.section(TAG_LIBRARY)?;
        let lib_json = s.str()?;
        s.finish()?;
        let library =
            Library::from_json(&lib_json).map_err(|e| malformed(TAG_LIBRARY, e.to_string()))?;

        let mut s = snap.section(TAG_CELLS)?;
        let n_gates = s.read_len()?;
        if n_gates != circuit.gate_count() {
            return Err(malformed(
                TAG_CELLS,
                format!(
                    "assignment covers {n_gates} gates, circuit has {}",
                    circuit.gate_count()
                ),
            ));
        }
        let mut cells = CircuitCells::nominal(&circuit);
        let mut seen = vec![false; n];
        for _ in 0..n_gates {
            let node = s.u32()? as usize;
            if node >= n {
                return Err(malformed(TAG_CELLS, format!("node {node} out of range")));
            }
            let id = NodeId::new(node);
            let gate = circuit.node(id);
            if gate.is_input() {
                return Err(malformed(
                    TAG_CELLS,
                    format!("node {node} is a primary input, not a gate"),
                ));
            }
            if std::mem::replace(&mut seen[node], true) {
                return Err(malformed(TAG_CELLS, format!("duplicate entry for {node}")));
            }
            let code = s.u8()?;
            let kind = gate_kind_from_code(code)
                .ok_or_else(|| malformed(TAG_CELLS, format!("unknown gate kind code {code}")))?;
            let fanin = s.read_len()?;
            if kind != gate.kind || fanin != gate.fanin_count() {
                return Err(malformed(
                    TAG_CELLS,
                    format!("parameters for node {node} disagree with the circuit's gate"),
                ));
            }
            let params = GateParams {
                kind,
                fanin,
                size: s.f64()?,
                l_nm: s.f64()?,
                vdd: s.f64()?,
                vth: s.f64()?,
            };
            cells.set(id, params);
        }
        s.finish()?;

        let mut s = snap.section(TAG_PIJ)?;
        let outputs: Vec<NodeId> = s
            .vec_u32()?
            .into_iter()
            .map(|c| NodeId::new(c as usize))
            .collect();
        let n_nodes = s.read_len()?;
        let p = s.vec_f64()?;
        let obs = s.vec_f64()?;
        let reach_off: Vec<usize> = s.vec_u32()?.into_iter().map(|o| o as usize).collect();
        let reach_cols = s.vec_u32()?;
        let vectors_used = s.read_len()?;
        s.finish()?;
        // The matrix must match the circuit it is restored against.
        if outputs != circuit.primary_outputs() || n_nodes != n {
            return Err(malformed(
                TAG_PIJ,
                "matrix shape disagrees with the circuit's nodes and primary outputs",
            ));
        }
        let pij = SensitizationMatrix::from_raw_parts(
            outputs,
            n_nodes,
            p,
            obs,
            reach_off,
            reach_cols,
            vectors_used,
        )
        .map_err(|reason| malformed(TAG_PIJ, reason))?;

        let mut s = snap.section(TAG_DERIVED)?;
        let critical_delay = s.f64()?;
        let unreliability = s.f64()?;
        s.finish()?;

        Ok(SessionSnapshot {
            circuit,
            cfg,
            library,
            cells,
            pij,
            critical_delay,
            unreliability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn session(circuit: &Circuit) -> AnalysisSession<'_> {
        let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut cfg = AsertaConfig::fast();
        cfg.sensitization_vectors = 512;
        AnalysisSession::builder(circuit, CircuitCells::nominal(circuit), lib, cfg)
            .build()
            .expect("session")
    }

    fn assert_restored_bitwise(live: &AnalysisSession<'_>, snap: &SessionSnapshot) {
        let restored = AnalysisSession::restore_from(snap).expect("restore");
        assert_eq!(restored.circuit(), live.circuit());
        assert_eq!(restored.cells(), live.cells());
        assert_eq!(restored.config(), live.config());
        assert_eq!(restored.pij(), live.pij());
        assert_eq!(restored.timing().loads, live.timing().loads);
        assert_eq!(restored.timing().delays, live.timing().delays);
        assert_eq!(restored.generated_widths(), live.generated_widths());
        assert_eq!(
            restored.per_gate_unreliability(),
            live.per_gate_unreliability()
        );
        assert_eq!(
            restored.unreliability().to_bits(),
            live.unreliability().to_bits()
        );
        assert_eq!(
            restored.critical_delay().to_bits(),
            live.critical_delay().to_bits()
        );
    }

    #[test]
    fn byte_round_trip_restores_bitwise() {
        for circuit in [generate::c17(), generate::sec32("s")] {
            let live = session(&circuit);
            let bytes = live.snapshot().unwrap().to_bytes().unwrap();
            let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
            assert_restored_bitwise(&live, &snap);
        }
    }

    #[test]
    fn round_trip_survives_session_mutations() {
        let circuit = generate::sec32("s");
        let mut live = session(&circuit);
        let g = circuit.gates().nth(3).unwrap();
        let mut p = *live.cells().get(g).unwrap();
        p.size = 4.0;
        live.try_apply(&[(g, p)]).unwrap();
        live.try_set_charge(32.0e-15).unwrap();

        let bytes = live.snapshot().unwrap().to_bytes().unwrap();
        let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_restored_bitwise(&live, &snap);
    }

    #[test]
    fn file_round_trip_is_atomic_and_bitwise() {
        let circuit = generate::c17();
        let live = session(&circuit);
        let path = std::env::temp_dir().join(format!("aserta-snap-{}.sersnap", std::process::id()));
        live.snapshot_to(&path).unwrap();
        let snap = SessionSnapshot::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_restored_bitwise(&live, &snap);
    }

    #[test]
    fn every_flipped_bit_is_rejected_with_a_typed_error() {
        let circuit = generate::c17();
        let bytes = session(&circuit).snapshot().unwrap().to_bytes().unwrap();
        // Flip one bit in a spread of positions across the whole image;
        // decode must reject each (the live bytes stay untouched) and
        // never panic. Positions cover the header, every section's
        // framing and payload.
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            let err = SessionSnapshot::from_bytes(&bad).expect_err("corrupt image accepted");
            let _ = err.to_string();
        }
    }

    #[test]
    fn truncations_are_rejected_with_a_typed_error() {
        let circuit = generate::c17();
        let bytes = session(&circuit).snapshot().unwrap().to_bytes().unwrap();
        for keep in (0..bytes.len()).step_by(61) {
            let err = SessionSnapshot::from_bytes(&bytes[..keep]).expect_err("truncation accepted");
            let _ = err.to_string();
        }
    }

    #[test]
    fn cross_circuit_sections_cannot_mix() {
        // A CELL/PIJ payload from one circuit must not validate against
        // another circuit's snapshot: rebuild a hybrid container.
        let c17 = generate::c17();
        let sec = generate::sec32("s");
        let a = session(&c17).snapshot().unwrap();
        let b = session(&sec).snapshot().unwrap();
        let hybrid = SessionSnapshot {
            circuit: a.circuit.clone(),
            cfg: a.cfg.clone(),
            library: a.library.clone(),
            cells: a.cells.clone(),
            pij: b.pij.clone(),
            critical_delay: a.critical_delay,
            unreliability: a.unreliability,
        };
        let bytes = hybrid.to_bytes().unwrap();
        let err = SessionSnapshot::from_bytes(&bytes).expect_err("mixed sections accepted");
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn tampered_derived_state_fails_restore_not_silently() {
        let circuit = generate::c17();
        let live = session(&circuit);
        let mut snap = live.snapshot().unwrap();
        snap.unreliability *= 1.5;
        let err = match AnalysisSession::restore_from(&snap) {
            Ok(_) => panic!("inconsistent image restored"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SessionSnapshotError::StateMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn poisoned_sessions_refuse_snapshot() {
        let circuit = generate::c17();
        let mut live = session(&circuit);
        // An expired budget rejects the apply at entry, before any
        // mutation: the session is not poisoned and still snapshots.
        // The refusal of a poisoned session is pinned in session.rs
        // (`nan_lut_poisons_then_recover_with_restores`).
        live.set_deadline(ser_netlist::govern::Deadline::within(
            std::time::Duration::ZERO,
        ));
        let g = circuit.gates().next().unwrap();
        let mut p = *live.cells().get(g).unwrap();
        p.size = 4.0;
        assert!(matches!(
            live.try_apply(&[(g, p)]),
            Err(AnalysisError::Interrupted(_))
        ));
        assert!(live.snapshot().is_ok());
    }
}
