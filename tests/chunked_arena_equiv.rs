//! Property-based equivalence of per-chunk cone arenas against the
//! monolithic whole-circuit closure, on random layered circuits:
//!
//! * every chunking of the PO-region root order, one
//!   `ConeArena::build_for` per chunk, must reproduce the monolithic
//!   arena's cones and reachable-PO lists exactly;
//! * the streamed `P_ij` estimator must return **bitwise identical**
//!   matrices for every `(threads, chunk_size)` combination, in both
//!   the fixed-budget and the default estimator mode — the determinism
//!   contract the analysis engine's caches rely on;
//! * the run's `EstimateStats` work counters must not depend on the
//!   thread count, and its `peak_bytes` may grow only by the few offset
//!   entries each extra worker's share adds — one chunk in total, not
//!   one chunk per worker.

use proptest::prelude::*;
use soft_error::logicsim::sensitize::{
    sensitization_probabilities_cfg, sensitization_probabilities_with_stats_cfg, PijConfig,
};
use soft_error::netlist::csr::{po_region_order, ConeArena, CsrView};
use soft_error::netlist::generate::{layered, LayeredSpec};
use soft_error::netlist::Circuit;

fn arbitrary_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..9, 1usize..5, 8usize..70, 0u64..5000).prop_map(|(pi, po, gates, seed)| {
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        layered(&spec)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-chunk builds over the PO-region order reproduce the
    /// monolithic closure exactly, for every chunk size, and the chunks
    /// cover every node once.
    #[test]
    fn chunked_cones_match_monolithic(
        circuit in arbitrary_circuit(),
        chunk_size in 1usize..40,
    ) {
        let csr = CsrView::build(&circuit);
        let full = ConeArena::build(&csr);
        let all: Vec<u32> = (0..circuit.node_count() as u32).collect();
        let order = po_region_order(&csr, &all);
        prop_assert_eq!(order.len(), circuit.node_count());
        let mut covered = vec![false; circuit.node_count()];
        for chunk in order.chunks(chunk_size) {
            let arena = ConeArena::build_for(&csr, chunk);
            for (slot, &root) in chunk.iter().enumerate() {
                let i = root as usize;
                prop_assert!(!covered[i], "root {} in two chunks", i);
                covered[i] = true;
                prop_assert_eq!(arena.cone(slot), full.cone(i), "cone of {}", i);
                prop_assert_eq!(
                    arena.reachable_cols(slot),
                    full.reachable_cols(i),
                    "reach of {}",
                    i
                );
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// The streamed estimator is bitwise identical for every worker
    /// count and every chunk size, including the degenerate one-root
    /// chunks and the single-chunk (monolithic) extreme — both in
    /// fixed-budget mode (`PijConfig::fixed`, the CI pin) and under the
    /// default adaptive configuration, whose stop decisions are driven
    /// by integer counters.
    #[test]
    fn pij_bitwise_identical_across_threads_and_chunks(
        circuit in arbitrary_circuit(),
        seed in 0u64..1 << 40,
    ) {
        // 3 words: one partial 64-word block. 131 words: two full blocks
        // and a partial one, so the adaptive leg stops roots at block
        // boundaries and rebuilds only the still-sampling cones.
        for n_vectors in [192, 64 * (2 * 64 + 3)] {
            for pij in [PijConfig::fixed(), PijConfig::default()] {
                let monolithic = sensitization_probabilities_cfg(
                    &circuit, n_vectors, seed, 1, circuit.node_count(), &pij,
                );
                for threads in [1usize, 2, 7] {
                    for chunk_size in [1usize, 3, 16, 64] {
                        let m = sensitization_probabilities_cfg(
                            &circuit, n_vectors, seed, threads, chunk_size, &pij,
                        );
                        prop_assert_eq!(
                            &m, &monolithic,
                            "vectors {} threads {} chunk {} tol {}",
                            n_vectors, threads, chunk_size, pij.tolerance
                        );
                    }
                }
            }
        }
    }

    /// The estimator's work counters are the same for every worker
    /// count, and splitting a chunk visit across workers costs at most a
    /// few offset entries per worker in `peak_bytes`: each worker builds
    /// only its share of the chunk.
    #[test]
    fn estimate_stats_stable_across_threads(
        circuit in arbitrary_circuit(),
        seed in 0u64..1 << 40,
    ) {
        // Two full blocks and a partial one, so the default mode stops
        // roots adaptively and later blocks rebuild live subsets.
        let n_vectors = 64 * (2 * 64 + 3);
        for pij in [PijConfig::fixed(), PijConfig::default()] {
            for chunk_size in [1usize, 3, 64] {
                let (m1, one) = sensitization_probabilities_with_stats_cfg(
                    &circuit, n_vectors, seed, 1, chunk_size, &pij,
                );
                for threads in [2usize, 3, 7] {
                    let (m, st) = sensitization_probabilities_with_stats_cfg(
                        &circuit, n_vectors, seed, threads, chunk_size, &pij,
                    );
                    let what = format!(
                        "threads {threads} chunk {chunk_size} tol {}",
                        pij.tolerance
                    );
                    prop_assert_eq!(&m, &m1, "{}", what);
                    prop_assert_eq!(st.chunks, one.chunks, "chunks, {}", what);
                    prop_assert_eq!(st.cone_entries, one.cone_entries, "cone_entries, {}", what);
                    prop_assert_eq!(
                        st.adaptive_stops,
                        one.adaptive_stops,
                        "adaptive_stops, {}",
                        what
                    );
                    prop_assert!(
                        st.peak_bytes >= one.peak_bytes
                            && st.peak_bytes - one.peak_bytes <= 64 * threads,
                        "peak_bytes {} vs {} single-threaded, {}",
                        st.peak_bytes,
                        one.peak_bytes,
                        what
                    );
                }
            }
        }
    }
}
