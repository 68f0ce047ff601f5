//! Criterion bench behind Fig. 3: the full ASERTA analysis of c432 (the
//! fast side of the correlation experiment; the transistor-level
//! reference side is measured in `runtime_scaling`).

use aserta::{try_analyze, AsertaConfig, CircuitCells};
use criterion::{criterion_group, criterion_main, Criterion};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::EngineConfig;
use ser_netlist::generate;
use ser_spice::Technology;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let circuit = generate::iscas85("c432").expect("bundled benchmark");
    let cells = CircuitCells::nominal(&circuit);
    let mut library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cfg = AsertaConfig::default();
    let e = EngineConfig::new();
    let estimate = |vectors, seed| {
        sensitization_probabilities_cfg(
            &circuit,
            vectors,
            seed,
            e.threads(),
            e.cone_chunk(),
            &e.pij(),
        )
    };
    let pij = estimate(cfg.sensitization_vectors, cfg.seed);
    // Warm the lazy library so the timer sees pure analysis.
    try_analyze(&circuit, &cells, &mut library, &pij, &cfg).expect("c432 analyzes");

    let mut group = c.benchmark_group("fig3");
    group.sample_size(20);
    group.bench_function("aserta_analyze_c432", |b| {
        b.iter(|| {
            black_box(try_analyze(
                black_box(&circuit),
                &cells,
                &mut library,
                &pij,
                &cfg,
            ))
        })
    });
    group.bench_function("pij_10000_vectors_c432", |b| {
        b.iter(|| black_box(estimate(10_000, 7)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
