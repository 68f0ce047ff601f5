//! The fresh reference for multi-corner sweeps.
//!
//! The sweep types and the warm-session engine live in
//! [`aserta::corners`] and are re-exported here. [`sweep_fresh`] is the
//! baseline that engine is measured against: one full
//! [`try_analyze_fresh`] — a cold-start session plus a Monte-Carlo
//! `P_ij` re-estimate — per corner. Both produce **bitwise identical**
//! points, so the wall-time ratio recorded by `perf_snapshot` measures
//! warm-session reuse against the cold-start path.

use aserta::{try_analyze_fresh, AnalysisError, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_netlist::Circuit;

pub use aserta::corners::{Corner, CornerGrid, CornerPoint, SweepError};

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

#[cfg(test)]
mod tests {
    use super::*;
    use aserta::corners::sweep;
    use aserta::AnalysisSession;
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

    /// A fresh session swept with every corner required to succeed.
    fn sweep_ok(
        circuit: &Circuit,
        base: &CircuitCells,
        library: Library,
        cfg: &AsertaConfig,
        corners: &[Corner],
        threads: usize,
    ) -> Vec<CornerPoint> {
        let mut session = AnalysisSession::builder(circuit, base.clone(), library, cfg.clone())
            .build()
            .unwrap();
        sweep(&mut session, base, corners, threads)
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
}
