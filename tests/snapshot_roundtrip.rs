//! Session-snapshot round-trip and corruption-rejection guarantees:
//!
//! * encode → decode → restore is **bitwise** on the reference circuits
//!   (sec32, layered1k, tiled10k): every derived quantity of the
//!   restored session matches the live one bit for bit, and both
//!   sessions stay bitwise in lockstep through subsequent mutations;
//! * the file path is atomic: `snapshot_to` + `read_file` round-trips
//!   through a real filesystem;
//! * **every** corruption — random truncation, random single-bit flips,
//!   wrong magic, wrong version (including the retired version 1),
//!   duplicated sections, a malformed cell table under a valid CRC — is
//!   rejected with a typed [`SnapshotError`], never a panic and never a
//!   silently-wrong session, and the live donor session is untouched.

use proptest::prelude::*;
use soft_error::aserta::snapshot::TAG_LIBRARY;
use soft_error::aserta::{
    AnalysisSession, AsertaConfig, CircuitCells, SessionSnapshot, SessionSnapshotError,
};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::generate::{self, LayeredSpec, TiledSpec};
use soft_error::netlist::snapshot::{
    write_circuit_section, Snapshot, SnapshotError, SnapshotWriter,
};
use soft_error::netlist::Circuit;
use soft_error::spice::{GateParams, Technology};

fn fast_cfg(vectors: usize) -> AsertaConfig {
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = vectors;
    cfg
}

fn session(circuit: &Circuit, vectors: usize) -> AnalysisSession<'_> {
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    AnalysisSession::builder(
        circuit,
        CircuitCells::nominal(circuit),
        lib,
        fast_cfg(vectors),
    )
    .build()
    .unwrap()
}

/// Every derived quantity of a session, plus its `P_ij` matrix, bit for
/// bit. Restore compares only U and the critical delay at run time; this
/// pins the per-node tables it no longer stores or checks.
fn fingerprint(s: &AnalysisSession<'_>) -> Vec<u64> {
    let r = s.report();
    let t = s.timing();
    let mut v = vec![s.unreliability().to_bits(), s.critical_delay().to_bits()];
    for table in [
        &r.per_gate_unreliability,
        &r.generated_widths,
        &r.static_probs,
        &t.loads,
        &t.in_ramps,
        &t.delays,
        &t.out_ramps,
    ] {
        v.extend(table.iter().map(|x| x.to_bits()));
    }
    v.extend(
        s.pij()
            .reachable_probabilities()
            .iter()
            .map(|x| x.to_bits()),
    );
    v.extend(s.pij().reach_offsets().iter().map(|&o| o as u64));
    v.extend(s.pij().reach_columns_flat().iter().map(|&c| u64::from(c)));
    v.extend(s.pij().observabilities().iter().map(|x| x.to_bits()));
    let ws = s.expected_widths();
    for i in s.circuit().node_ids() {
        for &j in s.pij().reachable_columns(i) {
            for k in 0..ws.grid().len() {
                v.push(ws.at_sample(i, j as usize, k).to_bits());
            }
        }
    }
    v
}

/// An upsize delta that genuinely changes the assignment.
fn upsize(circuit: &Circuit) -> (soft_error::netlist::NodeId, GateParams) {
    let g = circuit.gates().next().expect("circuit has gates");
    let node = circuit.node(g);
    (
        g,
        GateParams::new(node.kind, node.fanin.len()).with_size(2.0),
    )
}

fn assert_bitwise_round_trip(circuit: &Circuit, vectors: usize) {
    let live = session(circuit, vectors);
    let snap = live.snapshot().expect("clean session snapshots");
    let bytes = snap.to_bytes().expect("encode");
    let decoded = SessionSnapshot::from_bytes(&bytes).expect("decode");
    let restored = AnalysisSession::restore_from(&decoded)
        .expect("restore re-derives the exact captured state");

    assert_eq!(
        fingerprint(&live),
        fingerprint(&restored),
        "{}: restored session must be bitwise equal to the live one",
        circuit.name()
    );
    assert_eq!(live.cells(), restored.cells(), "{}", circuit.name());

    // The restored session is not just a frozen copy: it tracks the live
    // one bitwise through subsequent incremental mutations.
    let mut live = live;
    let mut restored = restored;
    let (g, delta) = upsize(circuit);
    live.try_apply(&[(g, delta)]).expect("live mutates");
    restored.try_apply(&[(g, delta)]).expect("restored mutates");
    assert_eq!(
        fingerprint(&live),
        fingerprint(&restored),
        "{}: sessions must stay in lockstep after restore",
        circuit.name()
    );
}

#[test]
fn round_trip_is_bitwise_on_sec32() {
    assert_bitwise_round_trip(&generate::sec32("c499"), 512);
}

#[test]
fn round_trip_is_bitwise_on_layered1k() {
    assert_bitwise_round_trip(
        &generate::layered(&LayeredSpec::new("layered1k", 40, 12, 1000)),
        256,
    );
}

#[test]
fn round_trip_is_bitwise_on_tiled10k() {
    assert_bitwise_round_trip(
        &generate::tiled(&TiledSpec::scaled("tiled10k", 10_000)),
        128,
    );
}

#[test]
fn file_round_trip_survives_the_filesystem() {
    let circuit = generate::sec32("c499");
    let live = session(&circuit, 512);
    let dir = std::env::temp_dir().join(format!("sersnap-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c499.sersnap");

    live.snapshot_to(&path).expect("atomic write");
    let decoded = SessionSnapshot::read_file(&path).expect("read back");
    let restored = AnalysisSession::restore_from(&decoded).expect("restore");
    assert_eq!(fingerprint(&live), fingerprint(&restored));

    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- corruption

/// One encoded sec32 image shared by the corruption tests (building a
/// session per proptest case would dominate the suite's runtime).
fn reference_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let circuit = generate::sec32("c499");
        let live = session(&circuit, 256);
        live.snapshot().expect("clean").to_bytes().expect("encode")
    })
}

#[test]
fn wrong_magic_and_version_are_typed_rejections() {
    let bytes = reference_bytes();

    let mut bad_magic = bytes.to_vec();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        SessionSnapshot::from_bytes(&bad_magic),
        Err(SnapshotError::BadMagic)
    ));

    // The version field sits right after the 8-byte magic.
    let mut skewed = bytes.to_vec();
    skewed[8] = 0xFF;
    assert!(matches!(
        SessionSnapshot::from_bytes(&skewed),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // A version 1 image (which also stored the per-node derived tables)
    // is refused, not misread.
    let mut v1 = bytes.to_vec();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        SessionSnapshot::from_bytes(&v1),
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));
}

#[test]
fn duplicated_sections_are_typed_rejections() {
    let circuit = generate::sec32("c499");
    let mut w = SnapshotWriter::new();
    write_circuit_section(&mut w, &circuit);
    write_circuit_section(&mut w, &circuit);
    let err = match SessionSnapshot::from_bytes(&w.to_bytes()) {
        Ok(_) => panic!("duplicated sections must not decode"),
        Err(e) => e,
    };
    assert!(
        matches!(err, SnapshotError::DuplicateSection { .. }),
        "{err}"
    );
}

/// A library section that passes its CRC but holds a malformed cell
/// table (the first delay table's load axis emptied) is a typed decode
/// rejection, not a panic at the first table lookup of a restore.
#[test]
fn malformed_library_tables_are_typed_rejections() {
    let circuit = generate::c17();
    let bytes = session(&circuit, 256)
        .snapshot()
        .expect("clean")
        .to_bytes()
        .expect("encode");
    let snap = Snapshot::from_bytes(&bytes).expect("a valid image");
    let json = snap
        .section(TAG_LIBRARY)
        .expect("a library section")
        .str()
        .expect("library JSON");
    let head = "\"delay\":{\"axis0\":{\"values\":[";
    let at = json.find(head).expect("a delay table") + head.len();
    let close = at + json[at..].find(']').expect("end of the axis");
    let tampered = format!("{}{}", &json[..at], &json[close..]);

    let mut w = SnapshotWriter::new();
    for tag in snap.tags() {
        w.begin_section(tag);
        if tag == TAG_LIBRARY {
            w.str(&tampered);
        } else {
            w.bytes(snap.section(tag).expect("listed section").rest());
        }
        w.end_section();
    }
    let err = match SessionSnapshot::from_bytes(&w.to_bytes()) {
        Ok(_) => panic!("a malformed cell table decoded"),
        Err(e) => e,
    };
    assert!(
        matches!(err, SnapshotError::Malformed { .. }) && err.to_string().contains("Axis"),
        "{err}"
    );
}

#[test]
fn failed_restores_leave_the_donor_session_untouched() {
    let circuit = generate::sec32("c499");
    let live = session(&circuit, 256);
    let before = fingerprint(&live);
    let bytes = live.snapshot().expect("clean").to_bytes().expect("encode");

    // A corrupted image fails to decode; a tampered-but-valid-CRC image
    // would fail restore with a typed error. Neither touches the donor.
    let mut torn = bytes.clone();
    torn.truncate(bytes.len() / 3);
    assert!(SessionSnapshot::from_bytes(&torn).is_err());

    assert_eq!(
        fingerprint(&live),
        before,
        "failed restore attempts must not disturb the live session"
    );
    let again = live
        .snapshot()
        .expect("still clean")
        .to_bytes()
        .expect("encode");
    assert_eq!(bytes, again, "the donor still snapshots byte-identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the image at any point yields a typed error — the
    /// decoder never panics on and never accepts a short file.
    #[test]
    fn any_truncation_is_a_typed_rejection(frac in 0.0f64..1.0) {
        let bytes = reference_bytes();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let truncated = &bytes[..cut];
        match SessionSnapshot::from_bytes(truncated) {
            Ok(_) => prop_assert!(false, "decoded a truncated image (cut at {cut})"),
            Err(e) => {
                // Any typed variant is acceptable; reaching here at all
                // proves no panic escaped.
                let _ = e.to_string();
            }
        }
    }

    /// Flipping any single bit anywhere in the image yields a typed
    /// error: every byte is covered by the magic check, the version
    /// check, or a section CRC.
    #[test]
    fn any_single_bit_flip_is_a_typed_rejection(frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = reference_bytes();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((bytes.len() - 1) as f64 * frac) as usize;
        let mut flipped = bytes.to_vec();
        flipped[idx] ^= 1 << bit;
        match SessionSnapshot::from_bytes(&flipped) {
            Ok(_) => prop_assert!(false, "decoded with bit {bit} of byte {idx} flipped"),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

// `SessionSnapshotError` itself must round through `?` from both layers;
// a compile-time-ish check that the conversions exist and display.
#[test]
fn session_snapshot_error_wraps_both_layers() {
    let codec: SessionSnapshotError = SnapshotError::BadMagic.into();
    assert!(codec.to_string().to_lowercase().contains("magic"));
}
