//! Bitwise equivalence of the single-engine `try_analyze`/`try_analyze_fresh`
//! (a cold-start [`AnalysisSession`] since the consolidation) against
//! the **pre-refactor fresh pipeline**, captured verbatim below:
//! timing view → static probabilities → generated widths → the hoisted
//! reverse-topological batch `ExpectedWidths` pass → per-gate `U_i`.
//!
//! Pinned on the snapshot circuits (sec32, layered1k) and on random
//! layered circuits with random off-nominal assignments. Equality is
//! exact (`==` on every f64): the session's row kernel performs the
//! batch pass's arithmetic operation for operation.

use proptest::prelude::*;
use soft_error::aserta::glitch::attenuate;
use soft_error::aserta::logical::{pi_weights, successor_sensitizations};
use soft_error::aserta::{try_analyze, AsertaConfig, CircuitCells};
use soft_error::cells::{CharGrids, Library};
use soft_error::logicsim::sensitize::sensitization_probabilities_cfg;
use soft_error::logicsim::{EngineConfig, SensitizationMatrix};
use soft_error::netlist::generate::{layered, sec32, LayeredSpec};
use soft_error::netlist::Circuit;
use soft_error::spice::GateParams;

/// The pre-refactor report fields the oracle reproduces.
struct ReferenceReport {
    unreliability: f64,
    per_gate_unreliability: Vec<f64>,
    generated_widths: Vec<f64>,
    /// Node-major `[k][j]` expected-width tables.
    ws: Vec<f64>,
    loads: Vec<f64>,
    delays: Vec<f64>,
}

#[derive(Clone, Copy)]
struct RefBracket {
    off_lo: usize,
    off_hi: usize,
    w_lo: f64,
    w_hi: f64,
}

/// The old `bracket_for`, verbatim.
fn ref_bracket_for(grid: &[f64], w: f64, n_pos: usize) -> RefBracket {
    let top = grid.len() - 1;
    if w <= grid[0] {
        RefBracket {
            off_lo: 0,
            off_hi: 0,
            w_lo: 1.0,
            w_hi: 0.0,
        }
    } else if w >= grid[top] {
        RefBracket {
            off_lo: top * n_pos,
            off_hi: top * n_pos,
            w_lo: 0.0,
            w_hi: 1.0,
        }
    } else {
        let mut lo = 0usize;
        let mut hi = top;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if grid[mid] <= w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let frac = (w - grid[lo]) / (grid[lo + 1] - grid[lo]);
        RefBracket {
            off_lo: lo * n_pos,
            off_hi: (lo + 1) * n_pos,
            w_lo: 1.0 - frac,
            w_hi: frac,
        }
    }
}

/// The old batch `ExpectedWidths::compute` (bracket-hoisted,
/// reachability-pruned, Eq. 1 attenuation), verbatim.
fn reference_expected_widths(
    circuit: &Circuit,
    probs: &[f64],
    pij: &SensitizationMatrix,
    delays: &[f64],
    grid: &[f64],
) -> Vec<f64> {
    let outputs = pij.outputs().to_vec();
    let n_pos = outputs.len();
    let k_n = grid.len();
    let n = circuit.node_count();
    let mut ws = vec![0.0f64; n * k_n * n_pos];

    let mut po_col = vec![usize::MAX; n];
    for (j, &po) in outputs.iter().enumerate() {
        po_col[po.index()] = j;
    }

    let mut brackets = Vec::with_capacity(n * k_n);
    for &delay in delays {
        for &g in grid {
            brackets.push(ref_bracket_for(grid, attenuate(g, delay), n_pos));
        }
    }

    for &id in circuit.topological_order().iter().rev() {
        let base = id.index() * k_n * n_pos;
        let self_col = po_col[id.index()];
        if self_col != usize::MAX {
            for k in 0..k_n {
                ws[base + k * n_pos + self_col] = grid[k];
            }
        }
        let successors = successor_sensitizations(circuit, probs, id);
        if successors.is_empty() {
            continue;
        }
        for &col in pij.reachable_columns(id) {
            let j = col as usize;
            let p_ij = pij.p(id, j);
            if p_ij <= 0.0 {
                continue;
            }
            let pis = pi_weights(&successors, p_ij, |s| pij.p(s, j));
            if pis.iter().all(|&x| x == 0.0) {
                continue;
            }
            for k in 0..k_n {
                let mut sum = 0.0;
                for (&(s, _), &pi_w) in successors.iter().zip(&pis) {
                    if pi_w == 0.0 {
                        continue;
                    }
                    let b = brackets[s.index() * k_n + k];
                    let s_base = s.index() * k_n * n_pos;
                    let we =
                        ws[s_base + b.off_lo + j] * b.w_lo + ws[s_base + b.off_hi + j] * b.w_hi;
                    sum += pi_w * we;
                }
                ws[base + k * n_pos + j] += sum;
            }
        }
    }
    ws
}

/// Interpolation of one node's `[k][j]` table (the old `interp_width`).
fn ref_interp(ws: &[f64], node_base: usize, n_pos: usize, j: usize, grid: &[f64], w: f64) -> f64 {
    let k_n = grid.len();
    if w <= grid[0] {
        return ws[node_base + j];
    }
    if w >= grid[k_n - 1] {
        return ws[node_base + (k_n - 1) * n_pos + j];
    }
    let mut lo = 0usize;
    let mut hi = k_n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if grid[mid] <= w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let frac = (w - grid[lo]) / (grid[lo + 1] - grid[lo]);
    let a = ws[node_base + lo * n_pos + j];
    let b = ws[node_base + (lo + 1) * n_pos + j];
    a * (1.0 - frac) + b * frac
}

/// The pre-refactor `analyze` pipeline, captured verbatim over public APIs.
fn reference_analyze(
    circuit: &Circuit,
    cells: &CircuitCells,
    library: &mut Library,
    pij: &SensitizationMatrix,
    cfg: &AsertaConfig,
) -> ReferenceReport {
    let loads_model = soft_error::aserta::LoadModel {
        wire_cap_per_pin: cfg.wire_cap_per_pin,
        po_load: cfg.po_load,
    };
    let timing = soft_error::aserta::timing_view(circuit, cells, library, loads_model, cfg.pi_ramp);
    let probs = soft_error::logicsim::probability::static_probabilities_analytic(
        circuit,
        cfg.pi_probability,
    );

    let mut generated = vec![0.0f64; circuit.node_count()];
    for id in circuit.gates() {
        let p = cells.get(id).expect("gates carry parameters");
        let cell = library.get_or_characterize(p);
        generated[id.index()] = cell.glitch_width_at(timing.loads[id.index()], cfg.charge);
    }

    let grid = cfg.sample_width_grid();
    let ws = reference_expected_widths(circuit, &probs, pij, &timing.delays, &grid);
    let n_pos = pij.outputs().len();
    let k_n = grid.len();

    let mut per_gate = vec![0.0f64; circuit.node_count()];
    let mut total = 0.0;
    for id in circuit.gates() {
        let z = cells.get(id).expect("gates carry parameters").size;
        let base = id.index() * k_n * n_pos;
        let row_total: f64 = (0..n_pos)
            .map(|j| ref_interp(&ws, base, n_pos, j, &grid, generated[id.index()]))
            .sum();
        let u = z * row_total;
        per_gate[id.index()] = u;
        total += u;
    }

    ReferenceReport {
        unreliability: total,
        per_gate_unreliability: per_gate,
        generated_widths: generated,
        ws,
        loads: timing.loads,
        delays: timing.delays,
    }
}

fn lib() -> Library {
    Library::new(soft_error::spice::Technology::ptm70(), CharGrids::coarse())
}

/// Pins `try_analyze` (new: cold session) against the captured old pipeline,
/// field by field, bit for bit.
fn assert_bitwise_equal(circuit: &Circuit, cells: &CircuitCells, cfg: &AsertaConfig) {
    let e = EngineConfig::new();
    let pij = sensitization_probabilities_cfg(
        circuit,
        cfg.sensitization_vectors,
        cfg.seed,
        e.threads(),
        e.cone_chunk(),
        &e.pij(),
    );
    let mut old_lib = lib();
    let want = reference_analyze(circuit, cells, &mut old_lib, &pij, cfg);
    let mut new_lib = lib();
    let got = try_analyze(circuit, cells, &mut new_lib, &pij, cfg).unwrap();

    assert_eq!(got.timing.loads, want.loads, "loads");
    assert_eq!(got.timing.delays, want.delays, "delays");
    assert_eq!(got.generated_widths, want.generated_widths, "generated");
    let n_pos = pij.outputs().len();
    let k_n = cfg.sample_widths;
    for id in circuit.node_ids() {
        for j in 0..n_pos {
            for k in 0..k_n {
                let w = want.ws[(id.index() * k_n + k) * n_pos + j];
                let g = got.expected_widths.at_sample(id, j, k);
                assert!(
                    g == w,
                    "W table node {id} col {j} k {k}: {g:e} vs {w:e} (must be bitwise)"
                );
            }
        }
    }
    assert_eq!(
        got.per_gate_unreliability, want.per_gate_unreliability,
        "per-gate U"
    );
    assert_eq!(got.unreliability, want.unreliability, "total U");
}

fn cfg() -> AsertaConfig {
    let mut c = AsertaConfig::fast();
    c.sensitization_vectors = 512;
    c
}

#[test]
fn new_engine_matches_old_pipeline_on_sec32() {
    let c = sec32("sec32");
    let mut cells = CircuitCells::nominal(&c);
    // An off-nominal assignment so the oracle sees non-trivial timing.
    for (step, g) in c.gates().enumerate() {
        let mut p = *cells.get(g).unwrap();
        p.size = [1.0, 2.0, 4.0][step % 3];
        p.vth = [0.2, 0.25][step % 2];
        cells.set(g, p);
    }
    assert_bitwise_equal(&c, &cells, &cfg());
}

#[test]
fn new_engine_matches_old_pipeline_on_layered1k() {
    let c = layered(&LayeredSpec::new("layered1k", 40, 12, 1000));
    let cells = CircuitCells::nominal(&c);
    let mut fast = cfg();
    fast.sensitization_vectors = 256;
    assert_bitwise_equal(&c, &cells, &fast);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn new_engine_matches_old_pipeline_on_random_circuits(
        shape in (2usize..8, 1usize..5, 8usize..60, 0u64..5000),
        knobs in proptest::collection::vec((0u8..3, 0u8..2, 0u8..2), 1..8),
    ) {
        let (pi, po, gates, seed) = shape;
        let mut spec = LayeredSpec::new("prop", pi, po, gates.max(po));
        spec.seed = seed;
        let c = layered(&spec);
        let mut cells = CircuitCells::nominal(&c);
        let gate_ids: Vec<_> = c.gates().collect();
        for (t, &(s, v, l)) in knobs.iter().enumerate() {
            let g = gate_ids[(t * 31) % gate_ids.len()];
            let mut p: GateParams = *cells.get(g).unwrap();
            p.size = [1.0, 2.0, 8.0][s as usize];
            p.vdd = [1.0, 0.8][v as usize];
            p.l_nm = [70.0, 150.0][l as usize];
            cells.set(g, p);
        }
        let mut fast = cfg();
        fast.sensitization_vectors = 192;
        assert_bitwise_equal(&c, &cells, &fast);
    }
}
