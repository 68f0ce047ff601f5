//! Delay-assignment realization: the paper's reverse-topological matching
//! of target delays to library cells.
//!
//! "To find the circuit parameters (gate sizes, lengths, VDDs, Vths) that
//! are needed to match a delay assignment, SERTOPT traverses the circuit
//! from POs to PIs in reverse topological order. The capacitive loads of
//! the gates at the POs are known … From these loads and the delay
//! assignments …, the best matching sizes, lengths, VDDs, Vths … that
//! yield delays closest to the assigned delays are found … The only
//! constraint … is that only VDD values greater than or equal to
//! successor VDD values are allowed" (no level shifters).

use aserta::{CircuitCells, LoadModel};
use ser_cells::{CharacterizedCell, Library};
use ser_netlist::{Circuit, GateKind, NodeId};
use ser_spice::GateParams;

use crate::allowed::AllowedParams;
use crate::error::EvalError;

/// Matching knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingConfig {
    /// The allowed discrete parameter grid.
    pub allowed: AllowedParams,
    /// Load model (wire + latch capacitance).
    pub load_model: LoadModel,
    /// Input ramp assumed during the first matching pass, seconds.
    pub assumed_ramp: f64,
    /// Refinement passes re-running the match with ramps computed from
    /// the previous assignment (0 = single pass).
    pub refine_passes: usize,
    /// Weight of energy in the tie-break (delay mismatch dominates; among
    /// near-equal matches, prefer low leakage+switching energy).
    pub energy_tiebreak: f64,
}

impl MatchingConfig {
    /// Defaults: 30 ps assumed ramp, one refinement pass, mild energy
    /// tie-break.
    pub fn new(allowed: AllowedParams) -> Self {
        MatchingConfig {
            allowed,
            load_model: LoadModel {
                wire_cap_per_pin: 0.05e-15,
                po_load: 2.0e-15,
            },
            assumed_ramp: 30.0e-12,
            refine_passes: 1,
            energy_tiebreak: 0.05,
        }
    }
}

/// A precompiled matcher — the **only** matching engine: every allowed
/// candidate's parameters and characterized cell are folded into flat
/// tables, so realizing a delay assignment never touches the library —
/// no hashing and no characterization. A one-off match builds a plan and
/// realizes it once.
///
/// With a `reference` anchor the pass-1 loads/ramps come from the
/// reference assignment's timing view and every candidate's pass-1
/// delay/tie-break is precomputed; without one, pass 1 matches "from
/// scratch", deriving each gate's load from the successors already
/// chosen in the same reverse-topological sweep. With the baseline as
/// reference and targets equal to its own realized delays, matching
/// reproduces the baseline exactly — the fixed point SERTOPT's zero-move
/// must land on. Each refinement pass re-derives the loads/ramps of the
/// previous pass's choices from the pooled cells (exactly
/// [`aserta::timing_view`]'s arithmetic) and re-scans with live lookups.
/// Candidates are enumerated in the fixed grid order, scored with one shared expression and compared with
/// strict `<`, and the VDD-monotonicity floor is enforced in the same
/// reverse topological sweep — the `matching` test module pins both
/// anchor modes bitwise against the pre-consolidation implementation.
///
/// # Scan memo
///
/// The candidate tables never change after [`MatchPlan::build`], but the
/// plan remembers, per gate and per pass kind (pass 1, refinement), the
/// inputs of that gate's last scan and the candidate it chose. The
/// inputs are everything a gate's scan reads that varies between
/// realizations: the target delay, the VDD floor set by its successors'
/// choices and — in a from-scratch pass 1 or a refinement pass — its
/// (load, input ramp) operating point. A scan whose inputs all match the
/// memo bit for bit reuses the stored choice; any other scan runs over
/// the candidates and records its result. The choice is a pure function
/// of those inputs over the fixed tables, so reuse is exact: a plan
/// realizes every target vector to the same cells whatever it realized
/// before. Optimizer moves change a few targets at a time, so most
/// gates' scans are reused.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// Gate nodes in reverse topological order (primary inputs skipped).
    order: Vec<u32>,
    /// Per-node candidate table offsets (`n + 1`; empty for inputs).
    cand_off: Vec<u32>,
    cand_params: Vec<GateParams>,
    /// Candidate delay at the gate's pass-1 anchored (load, ramp); empty
    /// when the plan was built without a reference.
    cand_delay: Vec<f64>,
    /// `energy_tiebreak * e_norm * 1e-12` at the pass-1 anchor; empty
    /// when the plan was built without a reference.
    cand_tiebreak: Vec<f64>,
    /// Pool index of each candidate's characterized cell.
    cand_cell: Vec<u32>,
    /// One characterized cell per (template, grid point) — shared by all
    /// gates of the same template.
    pool: Vec<CharacterizedCell>,
    /// Whether pass 1 reads the precomputed anchor tables (`true`) or
    /// matches from scratch (`false`).
    anchored: bool,
    refine_passes: usize,
    load_model: LoadModel,
    assumed_ramp: f64,
    energy_tiebreak: f64,
    /// Per-node memo of the last pass-1 scan (`[0]`) and the last
    /// refinement scan (`[1]`).
    memo: [Vec<ScanMemo>; 2],
}

/// One gate's last scan in one pass kind: the bit patterns of its
/// inputs (target, VDD floor, load, input ramp; the anchored pass 1
/// reads its load and ramp from the tables and stores 0 for both) and
/// the candidate it chose.
#[derive(Debug, Clone, Copy)]
struct ScanMemo {
    key: [u64; 4],
    /// Chosen candidate (`u32::MAX`: never scanned).
    choice: u32,
}

impl ScanMemo {
    const EMPTY: ScanMemo = ScanMemo {
        key: [0; 4],
        choice: u32::MAX,
    };
}

/// How one matching pass derives each gate's (load, ramp) operating
/// point.
#[derive(Clone, Copy)]
enum ScanMode<'a> {
    /// Pass 1 with a reference anchor: read the precompiled tables.
    Anchored,
    /// Pass 1 without a reference: loads from the successors chosen so
    /// far in the same reverse-topological sweep, ramps at the assumed
    /// value.
    Scratch,
    /// Refinement: the `(loads, in_ramps)` of the previous pass's
    /// choices.
    Timing(&'a [f64], &'a [f64]),
}

impl MatchPlan {
    /// Compiles the plan: characterizes the allowed grid (bulk,
    /// parallel), pools the cells every pass interrogates and — when a
    /// `reference` is given — anchors pass-1 loads/ramps on its timing
    /// view and tabulates every candidate's delay/tie-break.
    pub fn build(
        circuit: &Circuit,
        library: &mut Library,
        cfg: &MatchingConfig,
        reference: Option<&CircuitCells>,
    ) -> Self {
        let spec = cfg.allowed.library_spec(circuit);
        library.characterize_spec(&spec, 0);
        let anchor = reference.map(|reference| {
            aserta::timing_view(
                circuit,
                reference,
                library,
                cfg.load_model,
                cfg.assumed_ramp,
            )
        });

        let n = circuit.node_count();
        let per_gate = cfg.allowed.variants_per_template();
        let mut cand_off = Vec::with_capacity(n + 1);
        let mut cand_params = Vec::with_capacity(circuit.gate_count() * per_gate);
        let mut cand_delay = Vec::with_capacity(cand_params.capacity());
        let mut cand_tiebreak = Vec::with_capacity(cand_params.capacity());
        let mut cand_cell = Vec::with_capacity(cand_params.capacity());
        let mut pool: Vec<CharacterizedCell> = Vec::new();
        let mut templates: Vec<((GateKind, usize), u32)> = Vec::new();
        cand_off.push(0u32);
        for id in circuit.node_ids() {
            let node = circuit.node(id);
            if !node.is_input() {
                let template = (node.kind, node.fanin.len());
                let base = match templates.iter().find(|(t, _)| *t == template) {
                    Some(&(_, base)) => base,
                    None => {
                        let base = pool.len() as u32;
                        for p in grid_points(&cfg.allowed, node.kind, node.fanin.len()) {
                            pool.push(library.get_or_characterize(&p).clone());
                        }
                        templates.push((template, base));
                        base
                    }
                };
                for (k, p) in grid_points(&cfg.allowed, node.kind, node.fanin.len()).enumerate() {
                    let cell = &pool[base as usize + k];
                    debug_assert_eq!(cell.params, p);
                    cand_params.push(p);
                    cand_cell.push(base + k as u32);
                    if let Some(tv) = &anchor {
                        let load = tv.loads[id.index()];
                        let e_norm = cell.leak_power * 1e9 + cell.dynamic_energy(load) * 1e12;
                        cand_delay.push(cell.delay_at(load, tv.in_ramps[id.index()]));
                        cand_tiebreak.push(cfg.energy_tiebreak * e_norm * 1.0e-12);
                    }
                }
            }
            cand_off.push(cand_params.len() as u32);
        }
        let order: Vec<u32> = circuit
            .topological_order()
            .iter()
            .rev()
            .filter(|id| !circuit.node(**id).is_input())
            .map(|id| id.index() as u32)
            .collect();

        MatchPlan {
            order,
            cand_off,
            cand_params,
            cand_delay,
            cand_tiebreak,
            cand_cell,
            pool,
            anchored: anchor.is_some(),
            refine_passes: cfg.refine_passes,
            load_model: cfg.load_model,
            assumed_ramp: cfg.assumed_ramp,
            energy_tiebreak: cfg.energy_tiebreak,
            memo: [vec![ScanMemo::EMPTY; n], vec![ScanMemo::EMPTY; n]],
        }
    }

    /// Realizes `target_delays` (per node, seconds) against the
    /// precompiled tables (see the type docs for the equivalence
    /// contract). The realized delays differ from the targets by the
    /// library's quantization (the paper: "the timing constraint might
    /// still be exceeded slightly because of the finite size library");
    /// [`aserta::timing_view`] recovers them.
    ///
    /// The only state a realization changes is the scan memo (see the
    /// type docs), and every entry it records is the exact choice for
    /// its inputs — so a failed realization leaves nothing to corrupt,
    /// and later realizations are bitwise those of a fresh plan.
    ///
    /// # Errors
    ///
    /// [`EvalError::Match`] for malformed targets (wrong count,
    /// non-finite entries) or an unsatisfiable candidate grid.
    pub fn try_realize(
        &mut self,
        circuit: &Circuit,
        target_delays: &[f64],
    ) -> Result<CircuitCells, EvalError> {
        ser_netlist::failpoint!(
            "sertopt::match_realize",
            return Err(EvalError::FaultInjected("sertopt::match_realize"))
        );
        if target_delays.len() != circuit.node_count() {
            return Err(EvalError::Match {
                reason: "one target delay per node",
            });
        }
        if target_delays.iter().any(|d| !d.is_finite()) {
            return Err(EvalError::Match {
                reason: "target delays must be finite",
            });
        }
        let mut choice = vec![u32::MAX; circuit.node_count()];
        let pass1 = if self.anchored {
            ScanMode::Anchored
        } else {
            ScanMode::Scratch
        };
        self.scan(circuit, target_delays, pass1, &mut choice)?;
        for _ in 0..self.refine_passes {
            ser_netlist::failpoint!(
                "sertopt::match_refine",
                return Err(EvalError::FaultInjected("sertopt::match_refine"))
            );
            let (loads, in_ramps) = self.anchor_timing(circuit, &choice);
            self.scan(
                circuit,
                target_delays,
                ScanMode::Timing(&loads, &in_ramps),
                &mut choice,
            )?;
        }
        let mut cells = CircuitCells::nominal(circuit);
        for &i in &self.order {
            let id = NodeId::new(i as usize);
            cells.set(id, self.cand_params[choice[i as usize] as usize]);
        }
        Ok(cells)
    }

    /// One reverse-topological matching pass (see [`ScanMode`] for how
    /// the per-gate operating point is derived).
    ///
    /// Each gate first consults its memo for this pass kind and scans the
    /// candidates only on a miss.
    fn scan(
        &mut self,
        circuit: &Circuit,
        target_delays: &[f64],
        mode: ScanMode<'_>,
        choice: &mut [u32],
    ) -> Result<(), EvalError> {
        let slot = match mode {
            ScanMode::Anchored | ScanMode::Scratch => 0,
            ScanMode::Timing(..) => 1,
        };
        let mut chosen_vdd: Vec<f64> = vec![f64::NAN; circuit.node_count()];
        for &i in &self.order {
            let id = NodeId::new(i as usize);
            let vdd_floor = circuit
                .fanout(id)
                .iter()
                .filter_map(|&s| {
                    let v = chosen_vdd[s.index()];
                    if v.is_nan() {
                        None
                    } else {
                        Some(v)
                    }
                })
                .fold(0.0, f64::max);
            let (load, ramp) = match mode {
                // The anchor (load, ramp) is folded into the tables.
                ScanMode::Anchored => (0.0, 0.0),
                // The load comes from the successors chosen so far
                // (fan-outs precede their drivers in reverse topological
                // order, so every successor already has a pooled cell).
                ScanMode::Scratch => {
                    let mut load = 0.0;
                    for &s in circuit.fanout(id) {
                        load += self.load_model.wire_cap_per_pin;
                        let c = choice[s.index()];
                        if c != u32::MAX {
                            load += self.pool[self.cand_cell[c as usize] as usize].input_cap;
                        }
                    }
                    if circuit.is_primary_output(id) {
                        load += self.load_model.po_load;
                    }
                    (load, self.assumed_ramp)
                }
                ScanMode::Timing(loads, in_ramps) => (loads[i as usize], in_ramps[i as usize]),
            };
            let target = target_delays[i as usize];
            let key = [
                target.to_bits(),
                vdd_floor.to_bits(),
                load.to_bits(),
                ramp.to_bits(),
            ];
            let memo = self.memo[slot][i as usize];
            if memo.choice != u32::MAX && memo.key == key {
                chosen_vdd[i as usize] = self.cand_params[memo.choice as usize].vdd;
                choice[i as usize] = memo.choice;
                continue;
            }
            let lo = self.cand_off[i as usize] as usize;
            let hi = self.cand_off[i as usize + 1] as usize;
            let mut best: Option<(f64, usize)> = None;
            for c in lo..hi {
                if self.cand_params[c].vdd + 1e-12 < vdd_floor {
                    continue;
                }
                let score = match mode {
                    ScanMode::Anchored => {
                        (self.cand_delay[c] - target).abs() + self.cand_tiebreak[c]
                    }
                    ScanMode::Scratch | ScanMode::Timing(..) => {
                        let cell = &self.pool[self.cand_cell[c] as usize];
                        let d = cell.delay_at(load, ramp);
                        let e_norm = cell.leak_power * 1e9 + cell.dynamic_energy(load) * 1e12;
                        (d - target).abs() + self.energy_tiebreak * e_norm * 1.0e-12
                    }
                };
                let better = match &best {
                    Some((s, _)) => score < *s,
                    None => true,
                };
                if better {
                    best = Some((score, c));
                }
            }
            let Some((_, c)) = best else {
                return Err(EvalError::Match {
                    reason: "allowed grid is empty or the VDD floor is unsatisfiable",
                });
            };
            chosen_vdd[i as usize] = self.cand_params[c].vdd;
            choice[i as usize] = c as u32;
            self.memo[slot][i as usize] = ScanMemo {
                key,
                choice: c as u32,
            };
        }
        Ok(())
    }

    /// The loads and input ramps of the current choices — exactly
    /// [`aserta::timing_view`]'s arithmetic over the pooled cells, which
    /// is what the tests' reference matcher anchors its refinement
    /// passes on.
    fn anchor_timing(&self, circuit: &Circuit, choice: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let n = circuit.node_count();
        let cell_of = |i: usize| &self.pool[self.cand_cell[choice[i] as usize] as usize];
        let mut loads = vec![0.0f64; n];
        for id in circuit.node_ids() {
            loads[id.index()] = aserta::node_load(circuit, id, self.load_model, |s| {
                if choice[s.index()] != u32::MAX {
                    Some(cell_of(s.index()).input_cap)
                } else {
                    None
                }
            });
        }
        let mut in_ramps = vec![self.assumed_ramp; n];
        let mut out_ramps = vec![self.assumed_ramp; n];
        for &id in circuit.topological_order() {
            let node = circuit.node(id);
            if node.is_input() {
                continue;
            }
            let ramp_in = aserta::gate_input_ramp(node, &out_ramps);
            in_ramps[id.index()] = ramp_in;
            out_ramps[id.index()] = cell_of(id.index()).out_ramp_at(loads[id.index()], ramp_in);
        }
        (loads, in_ramps)
    }
}

/// The allowed grid of one template, in the tests' reference matcher's
/// exact enumeration order (sizes, then lengths, then VDDs, then Vths).
fn grid_points<'a>(
    allowed: &'a AllowedParams,
    kind: GateKind,
    fanin: usize,
) -> impl Iterator<Item = GateParams> + 'a {
    allowed.sizes.iter().flat_map(move |&size| {
        allowed.lengths_nm.iter().flat_map(move |&l| {
            allowed.vdds.iter().flat_map(move |&vdd| {
                allowed.vths.iter().map(move |&vth| {
                    GateParams::new(kind, fanin)
                        .with_size(size)
                        .with_length(l)
                        .with_vdd(vdd)
                        .with_vth(vth)
                })
            })
        })
    })
}

/// Checks the no-level-shifter invariant on an assignment: every gate's
/// VDD is ≥ each of its fan-out gates' VDD. Returns offending pairs.
pub fn vdd_violations(circuit: &Circuit, cells: &CircuitCells) -> Vec<(NodeId, NodeId)> {
    let mut bad = Vec::new();
    for id in circuit.gates() {
        let Some(p) = cells.get(id) else {
            panic!("gates carry parameters")
        };
        let v = p.vdd;
        for &s in circuit.fanout(id) {
            if let Some(ps) = cells.get(s) {
                if v + 1e-12 < ps.vdd {
                    bad.push((id, s));
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use aserta::timing_view;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn lib() -> Library {
        Library::new(Technology::ptm70(), CharGrids::coarse())
    }

    /// A one-off match: a fresh plan realized once.
    fn realize_once(
        circuit: &Circuit,
        target_delays: &[f64],
        library: &mut Library,
        cfg: &MatchingConfig,
        reference: Option<&CircuitCells>,
    ) -> CircuitCells {
        MatchPlan::build(circuit, library, cfg, reference)
            .try_realize(circuit, target_delays)
            .unwrap()
    }

    #[test]
    fn matching_tracks_targets() {
        let c = generate::c17();
        let mut l = lib();
        let cfg = MatchingConfig::new(AllowedParams::tiny());
        // Aim everything at a mid-range delay.
        let targets = vec![25.0e-12; c.node_count()];
        let cells = realize_once(&c, &targets, &mut l, &cfg, None);
        let tv = timing_view(&c, &cells, &mut l, cfg.load_model, cfg.assumed_ramp);
        for g in c.gates() {
            let realized = tv.delays[g.index()];
            assert!(
                realized > 5.0e-12 && realized < 120.0e-12,
                "gate {g}: {realized:e} wildly off 25 ps"
            );
        }
    }

    #[test]
    fn slower_targets_produce_slower_cells() {
        let c = generate::c17();
        let mut l = lib();
        let cfg = MatchingConfig::new(AllowedParams::tiny());
        let fast = realize_once(&c, &vec![5.0e-12; c.node_count()], &mut l, &cfg, None);
        let slow = realize_once(&c, &vec![120.0e-12; c.node_count()], &mut l, &cfg, None);
        let t_fast = timing_view(&c, &fast, &mut l, cfg.load_model, 30e-12).critical_path_delay(&c);
        let t_slow = timing_view(&c, &slow, &mut l, cfg.load_model, 30e-12).critical_path_delay(&c);
        assert!(t_fast < t_slow, "{t_fast:e} vs {t_slow:e}");
    }

    #[test]
    fn vdd_monotonicity_holds_with_multi_vdd() {
        let c = generate::iscas85("c432").unwrap();
        let mut l = lib();
        let mut allowed = AllowedParams::tiny();
        allowed.vdds = vec![0.8, 1.0];
        let cfg = MatchingConfig::new(allowed);
        // Mixed targets to push the matcher around.
        let targets: Vec<f64> = (0..c.node_count())
            .map(|i| 10.0e-12 + (i % 7) as f64 * 15.0e-12)
            .collect();
        let cells = realize_once(&c, &targets, &mut l, &cfg, None);
        assert!(vdd_violations(&c, &cells).is_empty());
    }

    /// The pre-consolidation matcher, captured verbatim as the bitwise
    /// oracle for both [`MatchPlan`] anchor modes: a reverse-topological
    /// pass with live library lookups, loads from the anchor timing view
    /// (or from the successors chosen so far when matching from
    /// scratch), and `timing_view`-anchored refinement passes.
    fn reference_match_delays(
        circuit: &Circuit,
        target_delays: &[f64],
        library: &mut Library,
        cfg: &MatchingConfig,
        reference: Option<&CircuitCells>,
    ) -> CircuitCells {
        fn one_pass(
            circuit: &Circuit,
            target_delays: &[f64],
            library: &mut Library,
            cfg: &MatchingConfig,
            in_ramps: &[f64],
            fixed_loads: Option<&[f64]>,
        ) -> CircuitCells {
            let mut cells = CircuitCells::nominal(circuit);
            let mut chosen_vdd: Vec<f64> = vec![f64::NAN; circuit.node_count()];
            let order: Vec<NodeId> = circuit.topological_order().to_vec();
            for &id in order.iter().rev() {
                let node = circuit.node(id);
                if node.is_input() {
                    continue;
                }
                let load = match fixed_loads {
                    Some(loads) => loads[id.index()],
                    None => {
                        let mut load = 0.0;
                        for &s in circuit.fanout(id) {
                            load += cfg.load_model.wire_cap_per_pin;
                            if let Some(p) = cells.get(s) {
                                load += library.get_or_characterize(p).input_cap;
                            }
                        }
                        if circuit.is_primary_output(id) {
                            load += cfg.load_model.po_load;
                        }
                        load
                    }
                };
                let vdd_floor = circuit
                    .fanout(id)
                    .iter()
                    .filter_map(|&s| {
                        let v = chosen_vdd[s.index()];
                        if v.is_nan() {
                            None
                        } else {
                            Some(v)
                        }
                    })
                    .fold(0.0, f64::max);
                let target = target_delays[id.index()];
                let ramp = in_ramps[id.index()];
                let mut best: Option<(f64, GateParams)> = None;
                for &size in &cfg.allowed.sizes {
                    for &l in &cfg.allowed.lengths_nm {
                        for &vdd in &cfg.allowed.vdds {
                            if vdd + 1e-12 < vdd_floor {
                                continue;
                            }
                            for &vth in &cfg.allowed.vths {
                                let p = GateParams::new(node.kind, node.fanin.len())
                                    .with_size(size)
                                    .with_length(l)
                                    .with_vdd(vdd)
                                    .with_vth(vth);
                                let cell = library.get_or_characterize(&p);
                                let d = cell.delay_at(load, ramp);
                                let e_norm =
                                    cell.leak_power * 1e9 + cell.dynamic_energy(load) * 1e12;
                                let score =
                                    (d - target).abs() + cfg.energy_tiebreak * e_norm * 1.0e-12;
                                let better = match &best {
                                    Some((s, _)) => score < *s,
                                    None => true,
                                };
                                if better {
                                    best = Some((score, p));
                                }
                            }
                        }
                    }
                }
                let (_, p) = best.expect("allowed grid is non-empty");
                chosen_vdd[id.index()] = p.vdd;
                cells.set(id, p);
            }
            cells
        }

        let spec = cfg.allowed.library_spec(circuit);
        library.characterize_spec(&spec, 0);
        let mut cells = match reference {
            Some(reference) => {
                let tv = aserta::timing_view(
                    circuit,
                    reference,
                    library,
                    cfg.load_model,
                    cfg.assumed_ramp,
                );
                one_pass(
                    circuit,
                    target_delays,
                    library,
                    cfg,
                    &tv.in_ramps,
                    Some(&tv.loads),
                )
            }
            None => {
                let ramps = vec![cfg.assumed_ramp; circuit.node_count()];
                one_pass(circuit, target_delays, library, cfg, &ramps, None)
            }
        };
        for _ in 0..cfg.refine_passes {
            let tv =
                aserta::timing_view(circuit, &cells, library, cfg.load_model, cfg.assumed_ramp);
            cells = one_pass(
                circuit,
                target_delays,
                library,
                cfg,
                &tv.in_ramps,
                Some(&tv.loads),
            );
        }
        cells
    }

    #[test]
    fn plan_matches_reference_matcher_bitwise() {
        for (circuit, allowed) in [
            (generate::c17(), AllowedParams::tiny()),
            (generate::iscas85("c432").unwrap(), {
                let mut a = AllowedParams::tiny();
                a.vdds = vec![0.8, 1.0]; // exercise the VDD floor
                a
            }),
        ] {
            for refine_passes in [0usize, 1, 2] {
                for with_reference in [false, true] {
                    let mut l = lib();
                    let mut cfg = MatchingConfig::new(allowed.clone());
                    cfg.refine_passes = refine_passes;
                    let nominal = aserta::CircuitCells::nominal(&circuit);
                    let reference = with_reference.then_some(&nominal);
                    let mut plan = MatchPlan::build(&circuit, &mut l, &cfg, reference);
                    for round in 0..3u32 {
                        let targets: Vec<f64> = (0..circuit.node_count())
                            .map(|i| 8.0e-12 + ((i as u32 * 7 + round * 13) % 11) as f64 * 9.0e-12)
                            .collect();
                        let want =
                            reference_match_delays(&circuit, &targets, &mut l, &cfg, reference);
                        let got = plan.try_realize(&circuit, &targets).unwrap();
                        let wrapped = realize_once(&circuit, &targets, &mut l, &cfg, reference);
                        for g in circuit.gates() {
                            assert_eq!(
                                got.get(g),
                                want.get(g),
                                "gate {g} round {round} refine {refine_passes} ref {with_reference}"
                            );
                            assert_eq!(wrapped.get(g), want.get(g), "fresh plan, gate {g}");
                        }
                    }
                }
            }
        }
    }

    /// The optimizer's access pattern: one plan realizes a sequence of
    /// target vectors that differ in a few gates, so most scans reuse
    /// the memo. Each round retargets three gates across 4–150 ps, which
    /// moves their VDD choices (their fan-ins' VDD floor) and, in
    /// refinement passes, their fan-ins' loads and their fan-outs' input
    /// ramps. Every round must still match the reference bitwise; a memo
    /// key without the VDD floor, or without the ramp, fails here.
    #[test]
    fn memoized_plan_tracks_sparse_target_changes_bitwise() {
        let circuit = generate::iscas85("c432").unwrap();
        let mut allowed = AllowedParams::tiny();
        allowed.vdds = vec![0.8, 1.0];
        let gates: Vec<NodeId> = circuit.gates().collect();
        for refine_passes in [0usize, 1, 2] {
            for with_reference in [false, true] {
                let mut l = lib();
                let mut cfg = MatchingConfig::new(allowed.clone());
                cfg.refine_passes = refine_passes;
                let nominal = aserta::CircuitCells::nominal(&circuit);
                let reference = with_reference.then_some(&nominal);
                let mut plan = MatchPlan::build(&circuit, &mut l, &cfg, reference);
                let mut targets: Vec<f64> = (0..circuit.node_count())
                    .map(|i| 60.0e-12 + ((i * 7) % 11) as f64 * 9.0e-12)
                    .collect();
                let levels_ps = [4.0, 12.0, 20.0, 30.0, 45.0, 70.0, 100.0, 150.0];
                let mut state = 0x9e37_79b9_7f4a_7c15u64;
                for round in 0..16 {
                    if round > 0 {
                        for _ in 0..3 {
                            state = state
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            let g = gates[(state >> 33) as usize % gates.len()].index();
                            targets[g] =
                                levels_ps[(state >> 20) as usize % levels_ps.len()] * 1e-12;
                        }
                    }
                    let want = reference_match_delays(&circuit, &targets, &mut l, &cfg, reference);
                    let got = plan.try_realize(&circuit, &targets).unwrap();
                    for &g in &gates {
                        assert_eq!(
                            got.get(g),
                            want.get(g),
                            "gate {g} round {round} refine {refine_passes} ref {with_reference}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chosen_cells_stay_in_allowed_grid() {
        let c = generate::c17();
        let mut l = lib();
        let cfg = MatchingConfig::new(AllowedParams::tiny());
        let cells = realize_once(&c, &vec![20.0e-12; c.node_count()], &mut l, &cfg, None);
        for g in c.gates() {
            assert!(cfg.allowed.contains(cells.get(g).unwrap()));
        }
    }
}
