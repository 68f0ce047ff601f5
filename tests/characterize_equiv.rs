//! Parallel characterization is invisible in the results:
//!
//! * [`Library::characterize_all`] on two threads builds a library whose
//!   JSON is byte-equal to a serial `get_or_characterize` loop over the
//!   same variants, duplicates included;
//! * session builds on one and on two engine threads, given the same
//!   `P_ij`, write byte-equal `.sersnap` images and the same U bits;
//! * the parallel pre-pass keeps construction's typed-error precedence:
//!   the first bad gate is reported, whatever lies after it.

use soft_error::aserta::{
    AnalysisError, AnalysisSession, AsertaConfig, CircuitCells, EngineConfig,
};
use soft_error::cells::lut::{Axis, Lut2};
use soft_error::cells::{CharGrids, CharacterizedCell, Library};
use soft_error::logicsim::sensitize::{sensitization_probabilities_cfg, PijConfig};
use soft_error::logicsim::SensitizationMatrix;
use soft_error::netlist::{generate, Circuit};
use soft_error::spice::{GateParams, Technology};

fn c432() -> Circuit {
    generate::iscas85("c432").expect("c432 stand-in")
}

fn lib() -> Library {
    Library::new(Technology::ptm70(), CharGrids::coarse())
}

/// c432's nominal cells with every third gate at a raised Vth and every
/// fifth at a lowered VDD: a handful of variants per template.
fn mixed_cells(circuit: &Circuit) -> CircuitCells {
    let mut cells = CircuitCells::nominal(circuit);
    for (k, id) in circuit.gates().enumerate() {
        let mut p = *cells.get(id).expect("gates carry parameters");
        if k % 3 == 0 {
            p.vth = 0.3;
        }
        if k % 5 == 0 {
            p.vdd = 0.8;
        }
        cells.set(id, p);
    }
    cells
}

fn estimate(circuit: &Circuit, vectors: usize) -> SensitizationMatrix {
    let engine = EngineConfig::new();
    sensitization_probabilities_cfg(
        circuit,
        vectors,
        7,
        1,
        engine.cone_chunk(),
        &PijConfig::default(),
    )
}

fn gate_params(circuit: &Circuit, cells: &CircuitCells) -> Vec<GateParams> {
    circuit
        .gates()
        .map(|id| *cells.get(id).expect("gates carry parameters"))
        .collect()
}

#[test]
fn parallel_library_is_byte_equal_to_serial_loop() {
    let circuit = c432();
    let params = gate_params(&circuit, &mixed_cells(&circuit));

    let mut serial = lib();
    for p in &params {
        serial.get_or_characterize(p);
    }
    let mut parallel = lib();
    let added = parallel.characterize_all(&params, 2);

    assert_eq!(added, serial.len());
    assert!(added > 2, "the mix must hold several variants, got {added}");
    assert_eq!(
        parallel.to_json().expect("serializes"),
        serial.to_json().expect("serializes")
    );
    assert_eq!(parallel.characterize_all(&params, 2), 0, "idempotent");
}

#[test]
fn session_images_are_byte_equal_across_engine_threads() {
    let circuit = c432();
    let cells = mixed_cells(&circuit);
    let cfg = AsertaConfig::fast();
    let pij = estimate(&circuit, 256);

    let build = |threads: usize| {
        AnalysisSession::builder(&circuit, cells.clone(), lib(), cfg.clone())
            .engine(EngineConfig::new().with_threads(threads))
            .pij(pij.clone())
            .build()
            .expect("valid inputs build")
    };
    let one = build(1);
    let two = build(2);

    assert_eq!(one.unreliability().to_bits(), two.unreliability().to_bits());
    let image = |s: &AnalysisSession| {
        s.snapshot()
            .expect("clean session images")
            .to_bytes()
            .expect("encodes")
    };
    assert_eq!(image(&one), image(&two));
}

#[test]
fn first_bad_gate_still_wins_over_later_invalid_params() {
    let circuit = c432();
    let gates: Vec<_> = circuit.gates().collect();
    let mut cells = CircuitCells::nominal(&circuit);

    // Gate k maps to a NaN-filled library cell; a later gate carries a
    // non-finite Vth and a later one still an uncharacterized variant.
    let k = gates[gates.len() / 3];
    let mut bad = *cells.get(k).expect("gates carry parameters");
    bad.vth = 0.25;
    cells.set(k, bad);
    let later = gates[2 * gates.len() / 3];
    let mut invalid = *cells.get(later).expect("gates carry parameters");
    invalid.vth = f64::NAN;
    cells.set(later, invalid);
    let last = gates[gates.len() - 1];
    let mut fresh = *cells.get(last).expect("gates carry parameters");
    fresh.size = 3.0;
    cells.set(last, fresh);

    let nan_lut = || {
        Lut2::from_raw_unchecked(
            Axis::new(vec![1e-15, 4e-15]).expect("sorted axis"),
            Axis::new(vec![1e-12, 40e-12]).expect("sorted axis"),
            vec![f64::NAN; 4],
        )
        .expect("shape matches")
    };
    let mut library = lib();
    library.insert(CharacterizedCell {
        params: bad,
        input_cap: 0.3e-15,
        delay: nan_lut(),
        out_ramp: nan_lut(),
        glitch: nan_lut(),
        leak_power: 1e-9,
        c_self_total: 0.5e-15,
        area: 2.0,
    });

    let pij = estimate(&circuit, 64);
    let err = AnalysisSession::builder(&circuit, cells, library, AsertaConfig::fast())
        .engine(EngineConfig::new().with_threads(2))
        .pij(pij)
        .build()
        .expect_err("gate k's cell is invalid");
    assert!(
        matches!(err, AnalysisError::BadCell { node } if node == k.index() as u32),
        "expected BadCell at gate {}, got {err:?}",
        k.index()
    );
}
