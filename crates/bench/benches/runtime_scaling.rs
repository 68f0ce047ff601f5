//! Criterion bench behind the §5 runtime claims: ASERTA analysis time as
//! circuit size grows (the paper: 15 s on c432 → 200 s on c7552 in
//! MATLAB; "orders of magnitude less than SPICE"), plus one
//! transistor-level strike for the SPICE-side scale.

use aserta::{try_analyze, AsertaConfig, CircuitCells};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ser_cells::{CharGrids, Library};
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::EngineConfig;
use ser_netlist::generate;
use ser_spice::circuit_sim::{
    static_values, strike_po_widths, CircuitElectrical, CircuitSimConfig,
};
use ser_spice::Technology;
use std::hint::black_box;

fn bench_runtime(c: &mut Criterion) {
    let tech = Technology::ptm70();
    let mut group = c.benchmark_group("runtime/aserta_analyze");
    group.sample_size(10);
    for name in ["c17", "c432", "c880", "c1908"] {
        let circuit = generate::iscas85(name).expect("bundled benchmark");
        let cells = CircuitCells::nominal(&circuit);
        let mut library = Library::new(tech.clone(), CharGrids::coarse());
        let cfg = AsertaConfig {
            sensitization_vectors: 2048,
            ..AsertaConfig::default()
        };
        let e = EngineConfig::new();
        let pij = sensitization_probabilities_cfg(
            &circuit,
            cfg.sensitization_vectors,
            cfg.seed,
            e.threads(),
            e.cone_chunk(),
            &e.pij(),
        );
        try_analyze(&circuit, &cells, &mut library, &pij, &cfg).expect("bundled circuit analyzes");
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| black_box(try_analyze(&circuit, &cells, &mut library, &pij, &cfg)))
        });
    }
    group.finish();

    // One analog strike on c432 — multiply by gates × vectors for the
    // full SPICE-reference cost the paper contrasts against.
    let circuit = generate::iscas85("c432").expect("bundled benchmark");
    let sim_cfg = CircuitSimConfig::default();
    let elec = CircuitElectrical::nominal(&tech, &circuit, &sim_cfg);
    let statics = static_values(&circuit, &vec![true; circuit.primary_inputs().len()]);
    let struck = circuit.gates().next().expect("has gates");
    let mut group = c.benchmark_group("runtime/reference_strike");
    group.sample_size(10);
    group.bench_function("one_strike_c432", |b| {
        b.iter(|| {
            black_box(strike_po_widths(
                &tech, &circuit, &elec, &statics, struck, &sim_cfg,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
