//! Running a multi-corner scenario sweep through the warm session
//! engine.
//!
//! Sweeps a VDD × Vth × strike-charge grid over the 32-bit SEC circuit
//! twice — once fresh (a full `try_analyze_fresh`, including the Monte-Carlo
//! `P_ij` re-estimate, per corner) and once through a shared
//! `AnalysisSession` that applies each corner as a batch of per-gate
//! deltas — then prints the identical corner table and the wall-time
//! ratio.
//!
//! ```text
//! cargo run --release --example corner_sweep
//! ```

use ser_bench::corners::{sweep_fresh, try_sweep_session, CornerGrid};
use ser_bench::timed;
use soft_error::aserta::{AsertaConfig, CircuitCells};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::generate;
use soft_error::spice::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generate::sec32("sec32");
    let base = CircuitCells::nominal(&circuit);
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = 2048;
    let grid = CornerGrid::table1_style();
    let corners = grid.corners();
    println!(
        "sweeping {} corners ({} VDD x {} Vth x {} charges) over {} ({} gates)\n",
        corners.len(),
        grid.vdds.len(),
        grid.vths.len(),
        grid.charges.len(),
        circuit.name(),
        circuit.gate_count()
    );

    // Warm the library once (corner variants plus the base point the
    // session boots from) so neither engine times first-touch cell
    // characterization.
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    soft_error::aserta::try_analyze_fresh(&circuit, &base, &mut library, &cfg)?;
    sweep_fresh(&circuit, &base, &mut library, &cfg, &corners)?;
    let session_library = library.clone();

    let (fresh, fresh_s) = timed(|| sweep_fresh(&circuit, &base, &mut library, &cfg, &corners));
    let (warm, session_s) = timed(|| {
        // threads = 0: one replica per available core, corners dealt
        // round-robin; the result is identical for every thread count.
        try_sweep_session(&circuit, &base, session_library, &cfg, &corners, 0)
    });
    let fresh = fresh?;
    let warm = warm.into_iter().collect::<Result<Vec<_>, _>>()?;
    assert_eq!(fresh, warm, "the engines agree bitwise");

    println!(
        "{:<28} {:>14} {:>12}",
        "corner", "U (size*s)", "T_crit (ps)"
    );
    for point in &warm {
        println!(
            "{:<28} {:>14.3e} {:>12.2}",
            point.corner.label(),
            point.unreliability,
            point.critical_delay * 1e12
        );
    }
    println!(
        "\nfresh {:.3} s vs session {:.3} s -> {:.1}x speedup",
        fresh_s,
        session_s,
        fresh_s / session_s
    );
    Ok(())
}
