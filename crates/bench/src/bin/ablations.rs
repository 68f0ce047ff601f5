//! The one open ablation: an **optimizer shootout** running all four
//! SERTOPT search algorithms on c432 under an identical budget.
//!
//! The answered ablations (LUT interpolation vs nearest-neighbour,
//! Eq. 1 vs a smooth attenuation law, tension space vs exact nullspace)
//! are recorded in README's "Answered ablations" table.
//!
//! ```text
//! cargo run --release -p ser-bench --bin ablations
//! ```

use ser_cells::{CharGrids, Library};
use ser_spice::Technology;
use sertopt::{optimize, Algorithm, AllowedParams, OptimizeRequest, OptimizerConfig};

fn main() {
    println!("## optimizer shootout (c432, dual VDD/Vth grid, 8 iterations)");
    println!(
        "{:<18} {:>8} {:>7} {:>7} {:>9}",
        "algorithm", "dU", "delay", "energy", "evals"
    );
    for algo in [
        Algorithm::Sqp,
        Algorithm::CoordinateDescent,
        Algorithm::Anneal,
        Algorithm::Genetic,
    ] {
        let circuit = ser_bench::bundled_iscas85("c432");
        let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
        let mut cfg = OptimizerConfig::fast();
        cfg.algorithm = algo;
        cfg.iterations = 8;
        cfg.allowed = AllowedParams::table1_dual();
        cfg.aserta.sensitization_vectors = 1024;
        let o = optimize(&circuit, &mut library, &OptimizeRequest::new(cfg));
        println!(
            "{:<18} {:>7.1}% {:>6.2}X {:>6.2}X {:>9}",
            format!("{algo:?}"),
            100.0 * o.unreliability_decrease(),
            o.delay_ratio(),
            o.energy_ratio(),
            o.evaluations
        );
    }
}
