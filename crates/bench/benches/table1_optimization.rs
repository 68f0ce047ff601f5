//! Criterion bench behind Table 1: one SERTOPT cost evaluation on c432
//! (tension move → matching → ASERTA → Eq. 5), the unit of work every
//! optimizer iteration repeats.

use aserta::AsertaConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use ser_cells::{CharGrids, Library};
use ser_netlist::generate;
use ser_spice::Technology;
use sertopt::matching::MatchingConfig;
use sertopt::{size_for_speed, AllowedParams, CostWeights, DelayProblem, EnergyModel};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let circuit = generate::iscas85("c432").expect("bundled benchmark");
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let allowed = AllowedParams::tiny();
    let matching = MatchingConfig::new(allowed);
    let baseline = size_for_speed(
        &circuit,
        &mut library,
        &[1.0, 2.0, 4.0],
        matching.load_model,
        2.0,
    );
    let mut aserta_cfg = AsertaConfig::fast();
    aserta_cfg.sensitization_vectors = 2048;
    let mut problem = DelayProblem::new(
        &circuit,
        &mut library,
        baseline,
        CostWeights::default(),
        matching,
        aserta_cfg,
        EnergyModel::default(),
    )
    .expect("c432 problem builds");
    let dim = problem.dim();
    let phi: Vec<f64> = (0..dim).map(|k| 5.0e-12 * ((k % 5) as f64 - 2.0)).collect();

    let mut group = c.benchmark_group("table1");
    group.sample_size(20);
    group.bench_function("cost_evaluation_c432", |b| {
        b.iter(|| black_box(problem.try_evaluate_phi(black_box(&phi)).map(|c| c.cost)))
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
