//! Table 1: SERTOPT optimization results over the paper's seven ISCAS'85
//! circuits, with the paper's per-circuit VDD/Vth sets and all three
//! unreliability-decrease columns (ASERTA full-statistics, ASERTA with 50
//! random vectors, transistor-level reference with 50 random vectors).

use aserta::{try_analyze, AnalysisError, AsertaConfig, CircuitCells};
use ser_cells::Library;
use ser_logicsim::sensitize::sensitization_probabilities_cfg;
use ser_logicsim::EngineConfig;
use ser_netlist::Circuit;
use ser_spice::circuit_sim::{reference_unreliability, CircuitElectrical, CircuitSimConfig};
use ser_spice::{Strike, Technology};
use sertopt::{optimize, AllowedParams, OptimizeRequest, OptimizerConfig, Outcome};

/// One circuit's experimental setup, mirroring the paper's table rows.
#[derive(Debug, Clone)]
pub struct CircuitSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// The allowed cell grid (encodes the row's VDD/Vth sets).
    pub allowed: AllowedParams,
    /// Whether the paper ran the SPICE columns for this circuit ("the
    /// last 2 circuits were too big to be simulated by SPICE").
    pub spice_reference: bool,
}

/// The paper's seven rows: c432/c3540/c7552 with dual VDD{0.8,1}/
/// Vth{0.2,0.3}; c499 likewise (its row shows no improvement); c1908/
/// c2670/c5315 with triple VDD{0.8,1,1.2}/Vth{0.1,0.2,0.3}.
pub fn paper_specs() -> Vec<CircuitSpec> {
    let dual = AllowedParams::table1_dual;
    let triple = AllowedParams::table1_triple;
    vec![
        CircuitSpec {
            name: "c432",
            allowed: dual(),
            spice_reference: true,
        },
        CircuitSpec {
            name: "c499",
            allowed: dual(),
            spice_reference: true,
        },
        CircuitSpec {
            name: "c1908",
            allowed: triple(),
            spice_reference: true,
        },
        CircuitSpec {
            name: "c2670",
            allowed: triple(),
            spice_reference: true,
        },
        CircuitSpec {
            name: "c3540",
            allowed: dual(),
            spice_reference: true,
        },
        CircuitSpec {
            name: "c5315",
            allowed: triple(),
            spice_reference: false,
        },
        CircuitSpec {
            name: "c7552",
            allowed: dual(),
            spice_reference: false,
        },
    ]
}

/// One generated Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// VDD set used.
    pub vdds: Vec<f64>,
    /// Vth set used.
    pub vths: Vec<f64>,
    /// Area ratio (optimized / baseline).
    pub area_ratio: f64,
    /// Energy ratio.
    pub energy_ratio: f64,
    /// Delay ratio.
    pub delay_ratio: f64,
    /// Unreliability decrease by full-statistics ASERTA (fraction).
    pub aserta_decrease: f64,
    /// Decrease by ASERTA restricted to the reference vectors.
    pub aserta50_decrease: Option<f64>,
    /// Decrease by the transistor-level reference on the same vectors.
    pub spice50_decrease: Option<f64>,
    /// Wall-clock seconds for the optimization.
    pub optimize_seconds: f64,
    /// The raw optimizer outcome.
    pub outcome: Outcome,
}

impl Table1Row {
    /// Formats the row like the paper's table.
    pub fn format(&self) -> String {
        let fmt_set = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let opt_pct = |o: &Option<f64>| match o {
            Some(v) => format!("{:>4.0}%", 100.0 * v),
            None => "   --".to_owned(),
        };
        format!(
            "{:<7} {:<12} {:<12} {:>6.2}X {:>7.2}X {:>6.2}X {:>6.0}% {} {}",
            self.name,
            fmt_set(&self.vdds),
            fmt_set(&self.vths),
            self.area_ratio,
            self.energy_ratio,
            self.delay_ratio,
            100.0 * self.aserta_decrease,
            opt_pct(&self.aserta50_decrease),
            opt_pct(&self.spice50_decrease),
        )
    }

    /// The table header matching [`Table1Row::format`].
    pub fn header() -> String {
        format!(
            "{:<7} {:<12} {:<12} {:>7} {:>8} {:>7} {:>7} {:>5} {:>5}",
            "circuit", "VDDs", "Vths", "area", "energy", "delay", "dU", "dU50", "dUsp"
        )
    }
}

/// Settings for a Table 1 run.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Optimizer settings (algorithm, iterations, weights…). The allowed
    /// grid is overridden per circuit by the spec.
    pub optimizer: OptimizerConfig,
    /// Random vectors for the 50-vector columns (paper: 50).
    pub reference_vectors: usize,
    /// Compute the transistor-level column at all (it dominates the
    /// runtime).
    pub run_spice_reference: bool,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            optimizer: OptimizerConfig::default(),
            reference_vectors: 50,
            run_spice_reference: true,
        }
    }
}

/// Runs one circuit's row end to end.
///
/// # Errors
///
/// [`AnalysisError::InvalidConfig`] for unusable ASERTA settings and
/// [`AnalysisError::Engine`] for a malformed `SER_*` variable, both
/// checked before the optimizer runs, and any error an ASERTA run of
/// the 50-vector column reports.
pub fn run_circuit(
    spec: &CircuitSpec,
    cfg: &Table1Config,
    library: &mut Library,
) -> Result<Table1Row, AnalysisError> {
    let circuit = crate::bundled_iscas85(spec.name);
    let mut opt_cfg = cfg.optimizer.clone();
    opt_cfg.allowed = spec.allowed.clone();
    opt_cfg.aserta.validate()?;
    let engine = EngineConfig::from_env()?;

    let (outcome, secs) =
        crate::timed(|| optimize(&circuit, library, &OptimizeRequest::new(opt_cfg.clone())));

    // 50-vector columns: ASERTA with a 50-vector P_ij, and the analog
    // reference, both on baseline and optimized assignments.
    let (aserta50, spice50) = if cfg.reference_vectors > 0 {
        let a50 = aserta_decrease_with_vectors(
            &circuit,
            &outcome,
            library,
            &opt_cfg.aserta,
            &engine,
            cfg.reference_vectors,
        )?;
        let s50 = if spec.spice_reference && cfg.run_spice_reference {
            Some(reference_decrease(
                &circuit,
                &outcome,
                library.tech().clone(),
                &opt_cfg.aserta,
                cfg.reference_vectors,
            ))
        } else {
            None
        };
        (Some(a50), s50)
    } else {
        (None, None)
    };

    Ok(Table1Row {
        name: spec.name.to_owned(),
        vdds: spec.allowed.vdds.clone(),
        vths: spec.allowed.vths.clone(),
        area_ratio: outcome.area_ratio(),
        energy_ratio: outcome.energy_ratio(),
        delay_ratio: outcome.delay_ratio(),
        aserta_decrease: outcome.unreliability_decrease(),
        aserta50_decrease: aserta50,
        spice50_decrease: spice50,
        optimize_seconds: secs,
        outcome,
    })
}

/// ASERTA unreliability decrease when `P_ij` is estimated from only the
/// reference vector count (the paper's "ASERTA, 50 random inputs"
/// column).
fn aserta_decrease_with_vectors(
    circuit: &Circuit,
    outcome: &Outcome,
    library: &mut Library,
    aserta_cfg: &AsertaConfig,
    engine: &EngineConfig,
    n_vectors: usize,
) -> Result<f64, AnalysisError> {
    let pij = sensitization_probabilities_cfg(
        circuit,
        n_vectors,
        aserta_cfg.seed ^ 0x50,
        engine.threads(),
        engine.cone_chunk(),
        &engine.pij(),
    );
    let u = |cells: &CircuitCells, library: &mut Library| {
        try_analyze(circuit, cells, library, &pij, aserta_cfg).map(|r| r.unreliability)
    };
    let u0 = u(&outcome.baseline_cells, library)?;
    let u1 = u(&outcome.optimized_cells, library)?;
    Ok(if u0 > 0.0 { (u0 - u1) / u0 } else { 0.0 })
}

/// Transistor-level unreliability decrease on the same vectors (the
/// paper's "SPICE, 50 random inputs" column).
fn reference_decrease(
    circuit: &Circuit,
    outcome: &Outcome,
    tech: Technology,
    aserta_cfg: &AsertaConfig,
    n_vectors: usize,
) -> f64 {
    let sim_cfg = CircuitSimConfig {
        strike: Strike::new(
            aserta_cfg.charge,
            Strike::DEFAULT_TAU_RISE,
            Strike::DEFAULT_TAU_FALL,
        ),
        wire_cap_per_pin: aserta_cfg.wire_cap_per_pin,
        po_load: aserta_cfg.po_load,
        ..CircuitSimConfig::default()
    };
    let vectors = ser_logicsim::random::random_vectors(
        circuit.primary_inputs().len(),
        n_vectors,
        0.5,
        aserta_cfg.seed ^ 0x51CE,
    );
    let total = |cells: &CircuitCells| -> f64 {
        let elec = CircuitElectrical::new(&tech, circuit, &sim_cfg, |id| {
            // Invariant: `CircuitCells` assigns parameters to every gate.
            #[allow(clippy::expect_used)]
            let p = *cells.get(id).expect("gates carry parameters");
            p
        });
        reference_unreliability(&tech, circuit, &elec, &vectors, &sim_cfg)
            .iter()
            .sum()
    };
    let u0 = total(&outcome.baseline_cells);
    let u1 = total(&outcome.optimized_cells);
    if u0 > 0.0 {
        (u0 - u1) / u0
    } else {
        0.0
    }
}
