//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **LUT linear interpolation vs nearest-neighbour** — error against
//!    direct transistor-level simulation at off-grid points;
//! 2. **Eq. 1 vs a smooth attenuation law** — how sensitive the
//!    unreliability ranking is to the piecewise-linear shape;
//! 3. **tension space vs exact nullspace** — dimensions of the
//!    zero-overhead move space on small circuits;
//! 4. **optimizer shootout** — all four search algorithms on c432.
//!
//! ```text
//! cargo run --release -p ser-bench --bin ablations
//! ```

use aserta::electrical::ExpectedWidths;
use aserta::glitch::AttenuationModel;
use aserta::AsertaConfig;
use ser_cells::{characterize_cell, CharGrids, Library};
use ser_logicsim::probability::static_probabilities_analytic;
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::EngineConfig;
use ser_netlist::GateKind;
use ser_spice::measure::pearson_correlation;
use ser_spice::transient::{gate_delay, TransientConfig};
use ser_spice::units::{FF, PS};
use ser_spice::{GateParams, Technology};
use sertopt::nullspace::{exact_nullspace, TensionSpace};
use sertopt::topology::TopologyMatrix;
use sertopt::{optimize, Algorithm, AllowedParams, OptimizeRequest, OptimizerConfig};

fn main() {
    let tech = Technology::ptm70();
    ablate_interpolation(&tech);
    ablate_attenuation_model();
    ablate_nullspace();
    ablate_optimizers();
}

/// 1. Interpolated vs nearest-neighbour delay lookups against direct
///    simulation at off-grid (load, ramp) points.
fn ablate_interpolation(tech: &Technology) {
    println!("## ablation 1: LUT interpolation vs nearest-neighbour (NAND2 delay)");
    let params = GateParams::new(GateKind::Nand, 2);
    let cell = characterize_cell(tech, &params, &CharGrids::standard());
    let gate = cell.electrical(tech);
    let cfg = TransientConfig::default();
    let mut err_interp = 0.0;
    let mut err_nearest = 0.0;
    let mut n = 0usize;
    for i in 0..6 {
        for j in 0..4 {
            // Deliberately off-grid probe points.
            let load = (0.7 + 2.3 * i as f64) * FF;
            let ramp = (7.0 + 19.0 * j as f64) * PS;
            let Some(truth) = gate_delay(tech, &gate, load, ramp, &cfg) else {
                continue;
            };
            err_interp += (cell.delay.eval(load, ramp) - truth.tpd).abs();
            err_nearest += (cell.delay.eval_nearest(load, ramp) - truth.tpd).abs();
            n += 1;
        }
    }
    println!(
        "mean |error| over {n} off-grid points: interpolated {:.2} ps, nearest {:.2} ps",
        err_interp / n as f64 / PS,
        err_nearest / n as f64 / PS
    );
    println!("(the paper's choice of linear interpolation should win)\n");
}

/// 2. Eq. 1 vs the smooth logistic law: correlation of per-gate
///    unreliability rankings on c432.
fn ablate_attenuation_model() {
    println!("## ablation 2: Eq. 1 vs smooth attenuation (c432 U_i correlation)");
    let circuit = ser_bench::bundled_iscas85("c432");
    let cfg = AsertaConfig::default();
    let e = EngineConfig::new();
    let pij = sensitization_probabilities_cfg(
        &circuit,
        4096,
        cfg.seed,
        e.threads(),
        e.cone_chunk(),
        &e.pij(),
    );
    let probs = static_probabilities_analytic(&circuit, 0.5);
    let delays = vec![18.0 * PS; circuit.node_count()];
    let grid = cfg.sample_width_grid();
    // Probe near the attenuation knee (w ≈ 2d) where the two laws differ
    // the most; far above it both are transparent and trivially agree.
    let w_gen = 30.0 * PS;

    let u_for = |model: AttenuationModel| -> Vec<f64> {
        let ew = ExpectedWidths::compute_with_model(
            &circuit,
            &probs,
            &pij,
            &delays,
            grid.clone(),
            model,
        );
        circuit
            .gates()
            .map(|g| ew.total_expected_width(g, w_gen))
            .collect()
    };
    let eq1 = u_for(AttenuationModel::PaperEq1);
    let smooth = u_for(AttenuationModel::SmoothLogistic);
    let corr = pearson_correlation(&eq1, &smooth).unwrap_or(0.0);
    println!("U_i correlation Eq.1 vs smooth: {corr:.4}");
    println!("(high correlation = the analysis is robust to the law's exact shape)\n");
}

/// 3. Exact nullspace vs tension-space dimensions.
fn ablate_nullspace() {
    println!("## ablation 3: zero-overhead move-space dimension");
    println!(
        "{:<10} {:>7} {:>12} {:>13}",
        "circuit", "gates", "exact dim", "tension dim"
    );
    // Exact nullspace enumeration only scales to the smallest benchmark.
    {
        let name = "c17";
        let c = ser_bench::bundled_iscas85(name);
        let exact = TopologyMatrix::build(&c, 200_000).map(|t| exact_nullspace(&t).len());
        let tension = TensionSpace::build(&c).dim();
        println!(
            "{:<10} {:>7} {:>12} {:>13}",
            name,
            c.gate_count(),
            exact.map(|d| d.to_string()).unwrap_or_else(|| "--".into()),
            tension
        );
    }
    for (pi, po, gates, seed) in [(4, 2, 14, 3u64), (6, 3, 24, 5), (8, 3, 40, 9)] {
        let mut spec = ser_netlist::generate::LayeredSpec::new("rand", pi, po, gates);
        spec.seed = seed;
        let c = ser_netlist::generate::layered(&spec);
        let exact = TopologyMatrix::build(&c, 200_000).map(|t| exact_nullspace(&t).len());
        let tension = TensionSpace::build(&c).dim();
        println!(
            "{:<10} {:>7} {:>12} {:>13}",
            format!("rand{gates}"),
            c.gate_count(),
            exact.map(|d| d.to_string()).unwrap_or_else(|| "--".into()),
            tension
        );
    }
    for name in ["c432", "c1908"] {
        let c = ser_bench::bundled_iscas85(name);
        let tension = TensionSpace::build(&c).dim();
        println!(
            "{:<10} {:>7} {:>12} {:>13}",
            name,
            c.gate_count(),
            "--",
            tension
        );
    }
    println!("(tension = exact on every circuit small enough to enumerate —");
    println!(" the scalable parameterization loses nothing there; its small");
    println!(" dimension is why SERTOPT also carries slack-bounded moves)\n");
}

/// 4. All four optimizers on c432 under an identical budget.
fn ablate_optimizers() {
    println!("## ablation 4: optimizer shootout (c432, dual VDD/Vth grid, 8 iterations)");
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
