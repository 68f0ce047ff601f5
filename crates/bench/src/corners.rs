//! Multi-corner scenario sweeps: the Fig. 1/2/Table 1 parameter grids
//! (VDD × Vth × strike-charge spectrum) evaluated over a whole circuit.
//!
//! The paper's figures sweep one knob of one inverter; production
//! soft-error sign-off sweeps *operating corners* of a whole design. A
//! corner only moves cell parameters and the injected charge — the
//! circuit's logic (and therefore `P_ij`, the static probabilities and
//! the Eq. 2 weight cache) is corner-invariant. [`try_sweep_session`]
//! therefore expresses each corner as a batch of per-gate deltas
//! against one warm [`AnalysisSession`]: the Monte-Carlo estimate, the
//! CSR/cone artifacts and the characterized-cell cache are paid once
//! for the whole grid, and corners are dealt round-robin over per-thread
//! session replicas exactly like
//! [`sertopt::DelayProblem::evaluate_batch`] deals candidates.
//!
//! [`sweep_fresh`] is the baseline: one full [`try_analyze_fresh`] — a
//! cold-start session plus a Monte-Carlo `P_ij` re-estimate — per
//! corner. Both produce **bitwise identical** points for every thread
//! count (each corner's session state equals a fresh analysis by the
//! session's fidelity contract), so the wall-time ratio recorded by
//! `perf_snapshot` measures warm-session reuse against the cold-start
//! path.

use aserta::{try_analyze_fresh, AnalysisError, AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_netlist::Circuit;

/// One operating corner: every gate moved to the given supply and
/// threshold voltage, with strikes injecting the given charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Threshold voltage, volts.
    pub vth: f64,
    /// Injected strike charge, coulombs (the flux-spectrum axis).
    pub charge: f64,
}

impl Corner {
    /// Human-readable corner label (`vdd=1.00V vth=0.20V q=16fC`).
    pub fn label(&self) -> String {
        format!(
            "vdd={:.2}V vth={:.2}V q={:.0}fC",
            self.vdd,
            self.vth,
            self.charge * 1e15
        )
    }

    /// The corner's cell assignment: `base` with every gate's VDD/Vth
    /// moved to the corner point (sizes and lengths stay as assigned).
    pub fn cells(&self, circuit: &Circuit, base: &CircuitCells) -> CircuitCells {
        CircuitCells::from_fn(circuit, |id| {
            let Some(&(mut p)) = base.get(id) else {
                panic!("gates carry parameters")
            };
            p.vdd = self.vdd;
            p.vth = self.vth;
            p
        })
    }
}

/// A full corner grid (cartesian product, VDD-major then Vth then
/// charge).
#[derive(Debug, Clone, PartialEq)]
pub struct CornerGrid {
    /// Supply voltages to visit, volts.
    pub vdds: Vec<f64>,
    /// Threshold voltages to visit, volts.
    pub vths: Vec<f64>,
    /// Strike charges to visit, coulombs.
    pub charges: Vec<f64>,
}

impl CornerGrid {
    /// The paper-flavoured grid: the Fig. 1/2 VDD and Vth axes crossed
    /// with a 3-point charge spectrum around the paper's fixed 16 fC
    /// (27 corners).
    pub fn table1_style() -> Self {
        CornerGrid {
            vdds: vec![0.8, 1.0, 1.2],
            vths: vec![0.15, 0.20, 0.25],
            charges: vec![8.0e-15, 16.0e-15, 32.0e-15],
        }
    }

    /// A small CI grid (6 corners).
    pub fn smoke() -> Self {
        CornerGrid {
            vdds: vec![0.9, 1.1],
            vths: vec![0.20],
            charges: vec![8.0e-15, 16.0e-15, 32.0e-15],
        }
    }

    /// The grid flattened into corner points.
    pub fn corners(&self) -> Vec<Corner> {
        let mut out = Vec::with_capacity(self.len());
        for &vdd in &self.vdds {
            for &vth in &self.vths {
                for &charge in &self.charges {
                    out.push(Corner { vdd, vth, charge });
                }
            }
        }
        out
    }

    /// Number of corners in the grid.
    pub fn len(&self) -> usize {
        self.vdds.len() * self.vths.len() * self.charges.len()
    }

    /// Whether the grid is empty along any axis.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why one corner of a sweep failed to evaluate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// The session rejected the corner or poisoned itself on it (the
    /// replica heals with a full rebuild before its next corner).
    Analysis(aserta::AnalysisError),
    /// A corner evaluation panicked; the panic was caught at the
    /// thread-scope boundary and the replica was rebuilt at the base
    /// assignment.
    Panicked,
    /// A `fail-points` test hook fired.
    FaultInjected(&'static str),
}

impl From<aserta::AnalysisError> for SweepError {
    fn from(e: aserta::AnalysisError) -> Self {
        SweepError::Analysis(e)
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Analysis(e) => write!(f, "corner analysis failed: {e}"),
            SweepError::Panicked => write!(f, "corner evaluation panicked (caught)"),
            SweepError::FaultInjected(name) => write!(f, "fault injected at `{name}`"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

/// One evaluated corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerPoint {
    /// The corner evaluated.
    pub corner: Corner,
    /// Circuit unreliability `U` (Eq. 4) at the corner.
    pub unreliability: f64,
    /// Critical PI→PO path delay at the corner, seconds.
    pub critical_delay: f64,
}

/// The fresh baseline: one full [`try_analyze_fresh`] (including the
/// Monte-Carlo `P_ij` re-estimate) per corner.
///
/// # Errors
///
/// The first corner's [`AnalysisError`], if any corner fails.
pub fn sweep_fresh(
    circuit: &Circuit,
    base: &CircuitCells,
    library: &mut Library,
    cfg: &AsertaConfig,
    corners: &[Corner],
) -> Result<Vec<CornerPoint>, AnalysisError> {
    corners
        .iter()
        .map(|corner| {
            let cells = corner.cells(circuit, base);
            let mut corner_cfg = cfg.clone();
            corner_cfg.charge = corner.charge;
            let report = try_analyze_fresh(circuit, &cells, library, &corner_cfg)?;
            Ok(CornerPoint {
                corner: *corner,
                unreliability: report.unreliability,
                critical_delay: report.timing.critical_path_delay(circuit),
            })
        })
        .collect()
}

/// The session engine: one warm [`AnalysisSession`] (cloned into up to
/// `threads` replicas; 0 = the `SER_SIM_THREADS`/available-parallelism
/// default), each corner applied as a cell-delta batch plus a charge
/// move, with one `Result` per corner in grid order. Results are bitwise
/// identical to [`sweep_fresh`] and to every other thread count.
///
/// A corner the session rejects or poisons on (or that a `fail-points`
/// hook fails) surfaces as a typed [`SweepError`]; the replica heals
/// itself with a full rebuild before its next corner, so one bad corner
/// never taints the rest of the grid. Panics inside a corner evaluation
/// are caught per corner at the [`std::thread::scope`] boundary. When
/// the session cannot be built at all, every corner carries that build
/// error.
pub fn try_sweep_session(
    circuit: &Circuit,
    base: &CircuitCells,
    library: Library,
    cfg: &AsertaConfig,
    corners: &[Corner],
    threads: usize,
) -> Vec<Result<CornerPoint, SweepError>> {
    let mut session =
        match AnalysisSession::builder(circuit, base.clone(), library, cfg.clone()).build() {
            Ok(s) => s,
            Err(e) => return corners.iter().map(|_| Err(e.clone().into())).collect(),
        };
    let workers = if threads == 0 {
        session.engine().threads()
    } else {
        threads
    }
    .min(corners.len())
    .max(1);
    if workers == 1 {
        return corners
            .iter()
            .map(|c| eval_corner_caught(&mut session, circuit, base, c))
            .collect();
    }
    let mut replicas: Vec<AnalysisSession<'_>> =
        (0..workers - 1).map(|_| session.clone()).collect();
    replicas.push(session);
    let n_corners = corners.len();
    let mut tagged: Vec<(usize, Result<CornerPoint, SweepError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = replicas
            .iter_mut()
            .enumerate()
            .map(|(w, replica)| {
                scope.spawn(move || {
                    corners
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(idx, c)| (idx, eval_corner_caught(replica, circuit, base, c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .flat_map(|(w, h)| match h.join() {
                Ok(out) => out,
                // Backstop for a panic outside the per-corner catch
                // (none is known): report the worker's whole stride
                // failed rather than unwinding out of the sweep.
                Err(_) => (w..n_corners)
                    .step_by(workers)
                    .map(|idx| (idx, Err(SweepError::Panicked)))
                    .collect(),
            })
            .collect()
    });
    tagged.sort_by_key(|&(idx, _)| idx);
    tagged.into_iter().map(|(_, p)| p).collect()
}

/// [`eval_corner`] with a per-corner panic catch; a caught panic leaves
/// the replica rebuilt at the base assignment so later corners stay
/// exact.
fn eval_corner_caught(
    session: &mut AnalysisSession<'_>,
    circuit: &Circuit,
    base: &CircuitCells,
    corner: &Corner,
) -> Result<CornerPoint, SweepError> {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eval_corner(session, circuit, base, corner)
    }));
    match attempt {
        Ok(r) => r,
        Err(_) => {
            let _ = session.recover_with(base.clone());
            Err(SweepError::Panicked)
        }
    }
}

/// Moves a session to one corner and reads the point. Exact regardless
/// of the replica's prior state (the session fidelity contract), which
/// is what makes the round-robin deal thread-count-invariant. A
/// poisoned replica heals itself first with a full rebuild at the
/// corner's own assignment.
fn eval_corner(
    session: &mut AnalysisSession<'_>,
    circuit: &Circuit,
    base: &CircuitCells,
    corner: &Corner,
) -> Result<CornerPoint, SweepError> {
    ser_netlist::failpoint!(
        "ser_bench::corner_eval",
        return Err(SweepError::FaultInjected("ser_bench::corner_eval"))
    );
    if session.is_poisoned() {
        session.recover_with(corner.cells(circuit, base))?;
    }
    // Charge first: the cell-delta pass then derives its generated
    // widths directly at the corner's charge instead of deriving them at
    // the previous corner's charge only for set_charge to redo them all.
    session.try_set_charge(corner.charge)?;
    session.try_set_cells(&corner.cells(circuit, base))?;
    Ok(CornerPoint {
        corner: *corner,
        unreliability: session.unreliability(),
        critical_delay: session.critical_delay(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_cells::CharGrids;
    use ser_netlist::generate;
    use ser_spice::Technology;

    fn lib() -> Library {
        Library::new(Technology::ptm70(), CharGrids::coarse())
    }

    fn cfg() -> AsertaConfig {
        let mut c = AsertaConfig::fast();
        c.sensitization_vectors = 256;
        c
    }

    /// [`try_sweep_session`] with every corner required to succeed.
    fn sweep_ok(
        circuit: &Circuit,
        base: &CircuitCells,
        library: Library,
        cfg: &AsertaConfig,
        corners: &[Corner],
        threads: usize,
    ) -> Vec<CornerPoint> {
        try_sweep_session(circuit, base, library, cfg, corners, threads)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn grid_is_cartesian_in_declared_order() {
        let grid = CornerGrid::smoke();
        let corners = grid.corners();
        assert_eq!(corners.len(), grid.len());
        assert_eq!(corners[0].vdd, grid.vdds[0]);
        assert_eq!(corners[0].charge, grid.charges[0]);
        assert_eq!(corners[1].charge, grid.charges[1]);
        assert_eq!(corners.last().unwrap().vdd, *grid.vdds.last().unwrap());
    }

    #[test]
    fn session_sweep_matches_fresh_bitwise() {
        let c = generate::sec32("s");
        let base = CircuitCells::nominal(&c);
        let corners = CornerGrid::smoke().corners();
        let mut fresh_lib = lib();
        let fresh = sweep_fresh(&c, &base, &mut fresh_lib, &cfg(), &corners).unwrap();
        let warm = sweep_ok(&c, &base, lib(), &cfg(), &corners, 1);
        assert_eq!(fresh, warm, "fresh and session sweeps must agree bitwise");
        // Corners must actually differ (the sweep is not degenerate).
        assert!(fresh
            .windows(2)
            .any(|w| w[0].unreliability != w[1].unreliability));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let c = generate::c17();
        let base = CircuitCells::nominal(&c);
        let corners = CornerGrid::table1_style().corners();
        let one = sweep_ok(&c, &base, lib(), &cfg(), &corners, 1);
        for threads in [2usize, 3, 8] {
            let t = sweep_ok(&c, &base, lib(), &cfg(), &corners, threads);
            assert_eq!(one, t, "{threads} threads");
        }
    }

    #[test]
    fn lower_vdd_raises_unreliability() {
        // Fig. 1's direction at circuit scale: a slower corner (low VDD)
        // generates wider glitches; with weak electrical masking the
        // circuit gets less reliable.
        let c = generate::c17();
        let base = CircuitCells::nominal(&c);
        let corners = [
            Corner {
                vdd: 0.8,
                vth: 0.2,
                charge: 16.0e-15,
            },
            Corner {
                vdd: 1.2,
                vth: 0.2,
                charge: 16.0e-15,
            },
        ];
        let pts = sweep_ok(&c, &base, lib(), &cfg(), &corners, 1);
        assert!(
            pts[0].unreliability > pts[1].unreliability,
            "{:e} vs {:e}",
            pts[0].unreliability,
            pts[1].unreliability
        );
    }

    #[test]
    fn more_charge_does_not_reduce_unreliability() {
        let c = generate::sec32("q");
        let base = CircuitCells::nominal(&c);
        let corners = [
            Corner {
                vdd: 1.0,
                vth: 0.2,
                charge: 8.0e-15,
            },
            Corner {
                vdd: 1.0,
                vth: 0.2,
                charge: 32.0e-15,
            },
        ];
        let pts = sweep_ok(&c, &base, lib(), &cfg(), &corners, 1);
        assert!(pts[1].unreliability >= pts[0].unreliability);
    }

    #[test]
    fn unbuildable_session_fails_every_corner() {
        let c = generate::c17();
        let base = CircuitCells::nominal(&c);
        let corners = CornerGrid::smoke().corners();
        let mut bad = cfg();
        bad.sensitization_vectors = 0;
        let pts = try_sweep_session(&c, &base, lib(), &bad, &corners, 2);
        assert_eq!(pts.len(), corners.len());
        for p in pts {
            assert!(
                matches!(
                    p,
                    Err(SweepError::Analysis(AnalysisError::InvalidConfig { .. }))
                ),
                "{p:?}"
            );
        }
    }
}
