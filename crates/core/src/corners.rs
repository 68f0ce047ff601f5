//! Multi-corner scenario sweeps: the Fig. 1/2/Table 1 parameter grids
//! (VDD × Vth × strike-charge spectrum) evaluated over a whole circuit.
//!
//! A corner only moves cell parameters and the injected charge; the
//! circuit's logic (and so `P_ij`, the static probabilities and the
//! Eq. 2 weight cache) is corner-invariant. [`sweep`] therefore applies
//! each corner as a batch of per-gate deltas to one warm
//! [`AnalysisSession`], dealt over per-thread replicas by
//! [`deal`](crate::deal). Every point is bitwise identical to a fresh
//! analysis at the corner (the session's fidelity contract), whatever
//! the thread count.

use ser_netlist::Circuit;

use crate::binding::CircuitCells;
use crate::error::AnalysisError;
use crate::session::AnalysisSession;

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
    ///
    /// # Panics
    ///
    /// When `base` misses a gate of `circuit`.
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
    Analysis(AnalysisError),
    /// A corner evaluation panicked; the panic was caught for that
    /// corner alone and the replica was rebuilt at the base assignment.
    Panicked,
    /// A `fail-points` test hook fired.
    FaultInjected(&'static str),
}

impl From<AnalysisError> for SweepError {
    fn from(e: AnalysisError) -> Self {
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

/// Evaluates every corner on the warm `session`, one `Result` per
/// corner in input order. `base` is the assignment each corner moves
/// VDD/Vth from. The corners are dealt over up to `threads` replicas (0
/// = the session's engine thread count): `session` itself is the first,
/// the rest are clones dropped on return. `session` is left at whichever
/// corner it evaluated last.
///
/// A corner the session rejects or poisons on (or that a `fail-points`
/// hook fails) surfaces as a typed [`SweepError`]; the replica heals
/// itself with a full rebuild before its next corner, so one bad corner
/// never taints the rest of the grid. A panic inside a corner is caught
/// for that corner ([`SweepError::Panicked`]) and its replica is rebuilt
/// at `base`.
pub fn sweep(
    session: &mut AnalysisSession<'_>,
    base: &CircuitCells,
    corners: &[Corner],
    threads: usize,
) -> Vec<Result<CornerPoint, SweepError>> {
    let threads = if threads == 0 {
        session.engine().threads()
    } else {
        threads
    };
    let workers = threads.min(corners.len());
    let mut clones: Vec<_> = (1..workers).map(|_| session.clone()).collect();
    let mut replicas: Vec<&mut AnalysisSession<'_>> =
        std::iter::once(session).chain(&mut clones).collect();
    crate::deal(
        &mut replicas,
        corners,
        |replica, corner| eval_corner(replica, base, corner),
        |replica| {
            let _ = replica.recover_with(base.clone());
            Err(SweepError::Panicked)
        },
    )
}

/// Moves a session to one corner and reads the point. Exact regardless
/// of the replica's prior state (the session fidelity contract), which
/// is what makes the deal thread-count-invariant. A poisoned replica
/// heals itself first with a full rebuild at the corner's own
/// assignment.
fn eval_corner(
    session: &mut AnalysisSession<'_>,
    base: &CircuitCells,
    corner: &Corner,
) -> Result<CornerPoint, SweepError> {
    ser_netlist::failpoint!(
        "aserta::corner_eval",
        return Err(SweepError::FaultInjected("aserta::corner_eval"))
    );
    let cells = corner.cells(session.circuit(), base);
    if session.is_poisoned() {
        session.recover_with(cells.clone())?;
    }
    // Charge first: the cell-delta pass then derives its generated
    // widths directly at the corner's charge instead of deriving them at
    // the previous corner's charge only for set_charge to redo them all.
    session.try_set_charge(corner.charge)?;
    session.try_set_cells(&cells)?;
    Ok(CornerPoint {
        corner: *corner,
        unreliability: session.unreliability(),
        critical_delay: session.critical_delay(),
    })
}
