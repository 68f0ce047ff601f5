//! Property-based equivalence of the incremental [`AnalysisSession`]
//! against the fresh analysis pipeline, on random layered circuits:
//!
//! any sequence of random per-gate delta moves (sizes, lengths, VDD,
//! Vth — the exact move set SERTOPT's matcher emits) followed by session
//! queries must match `try_analyze_fresh` on the mutated circuit — bitwise
//! for `P_ij`, within 1e-12 (relative) for expected widths and SER. The
//! engine actually guarantees bitwise identity everywhere; the looser
//! bound here is the stable public contract.

use proptest::prelude::*;
use soft_error::aserta::{try_analyze_fresh, AnalysisSession, AsertaConfig, CircuitCells};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::generate::{layered, LayeredSpec};
use soft_error::netlist::Circuit;
use soft_error::spice::Technology;

fn arbitrary_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..8, 1usize..5, 8usize..60, 0u64..5000).prop_map(|(pi, po, gates, seed)| {
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        layered(&spec)
    })
}

/// One random gate delta: `(gate selector, size, length, vdd, vth)`
/// choice indices into small discrete menus (mirroring a match grid).
type Move = (usize, u8, u8, u8, u8);

fn arbitrary_moves() -> impl Strategy<Value = Vec<Move>> {
    proptest::collection::vec((0usize..10_000, 0u8..4, 0u8..2, 0u8..2, 0u8..2), 1..14)
}

fn cfg() -> AsertaConfig {
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = 192;
    cfg
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn session_matches_fresh_after_random_move_sequence(
        circuit in arbitrary_circuit(),
        moves in arbitrary_moves(),
    ) {
        let cfg = cfg();
        let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut session =
            AnalysisSession::builder(&circuit, CircuitCells::nominal(&circuit), lib, cfg.clone())
                .build()
                .unwrap();

        let gates: Vec<_> = circuit.gates().collect();
        for chunk in moves.chunks(2) {
            // Apply moves in small batches, as an optimizer's matcher
            // would hand them over.
            let deltas: Vec<_> = chunk
                .iter()
                .map(|&(sel, s, l, v, t)| {
                    let g = gates[sel % gates.len()];
                    let mut p = *session.cells().get(g).unwrap();
                    p.size = [1.0, 2.0, 4.0, 8.0][s as usize];
                    p.l_nm = [70.0, 150.0][l as usize];
                    p.vdd = [1.0, 0.8][v as usize];
                    p.vth = [0.2, 0.3][t as usize];
                    (g, p)
                })
                .collect();
            session.try_apply(&deltas).unwrap();
        }

        // Fresh oracle over the mutated assignment.
        let mut oracle_lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let fresh = try_analyze_fresh(&circuit, session.cells(), &mut oracle_lib, &cfg).unwrap();

        // P_ij: bitwise (the session never re-estimates on cell deltas).
        let n_pos = circuit.primary_outputs().len();
        let engine = session.engine();
        let fresh_pij = soft_error::logicsim::sensitize::sensitization_probabilities_cfg(
            &circuit,
            cfg.sensitization_vectors,
            cfg.seed,
            engine.threads(),
            engine.cone_chunk(),
            &engine.pij(),
        );
        for id in circuit.node_ids() {
            prop_assert_eq!(
                session.pij().reachable_columns(id),
                fresh_pij.reachable_columns(id),
                "P support of {}", id
            );
            prop_assert_eq!(session.pij().row(id), fresh_pij.row(id), "P row of {}", id);
        }

        // Timing, generated widths, width tables, SER: ≤ 1e-12 relative.
        for id in circuit.node_ids() {
            let i = id.index();
            prop_assert!(close(session.timing().delays[i], fresh.timing.delays[i]));
            prop_assert!(close(session.timing().loads[i], fresh.timing.loads[i]));
            prop_assert!(close(
                session.generated_widths()[i],
                fresh.generated_widths[i]
            ));
            for j in 0..n_pos {
                for k in 0..cfg.sample_widths {
                    let got = session.expected_widths().at_sample(id, j, k);
                    let want = fresh.expected_widths.at_sample(id, j, k);
                    prop_assert!(
                        close(got, want),
                        "W table node {} col {} k {}: {:e} vs {:e}",
                        id, j, k, got, want
                    );
                }
            }
            prop_assert!(
                close(
                    session.per_gate_unreliability()[i],
                    fresh.per_gate_unreliability[i]
                ),
                "U_{}: {:e} vs {:e}",
                id,
                session.per_gate_unreliability()[i],
                fresh.per_gate_unreliability[i]
            );
        }
        prop_assert!(
            close(session.unreliability(), fresh.unreliability),
            "U: {:e} vs {:e}",
            session.unreliability(),
            fresh.unreliability
        );
        prop_assert!(close(
            session.critical_delay(),
            fresh.timing.critical_path_delay(&circuit)
        ));
    }

    /// Per-gate energy/area inputs exposed by the session also match the
    /// fresh pipeline's view (loads, ramps), so incremental cost caches
    /// downstream stay exact.
    #[test]
    fn session_timing_view_matches_fresh(
        circuit in arbitrary_circuit(),
        moves in arbitrary_moves(),
    ) {
        let cfg = cfg();
        let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut session =
            AnalysisSession::builder(&circuit, CircuitCells::nominal(&circuit), lib, cfg.clone())
                .build()
                .unwrap();
        let gates: Vec<_> = circuit.gates().collect();
        for &(sel, s, l, v, t) in &moves {
            let g = gates[sel % gates.len()];
            let mut p = *session.cells().get(g).unwrap();
            p.size = [1.0, 2.0, 4.0, 8.0][s as usize];
            p.l_nm = [70.0, 150.0][l as usize];
            p.vdd = [1.0, 0.8][v as usize];
            p.vth = [0.2, 0.3][t as usize];
            session.try_apply(&[(g, p)]).unwrap();
        }
        let mut oracle_lib = Library::new(Technology::ptm70(), CharGrids::coarse());
        let fresh = try_analyze_fresh(&circuit, session.cells(), &mut oracle_lib, &cfg).unwrap();
        prop_assert_eq!(&session.timing().loads, &fresh.timing.loads);
        prop_assert_eq!(&session.timing().in_ramps, &fresh.timing.in_ramps);
        prop_assert_eq!(&session.timing().out_ramps, &fresh.timing.out_ramps);
        prop_assert_eq!(&session.timing().delays, &fresh.timing.delays);
    }
}
