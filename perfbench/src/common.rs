//! Shared pieces: the run report, statistics, the seeded generator, the
//! committed accuracy references and the pinned thread counts.

use std::collections::BTreeMap;
use std::time::Instant;

use aserta::{AsertaConfig, CircuitCells, EngineConfig};
use ser_cells::Library;
use ser_logicsim::sensitize::EstimateStats;
use ser_spice::GateParams;

/// Largest |U − U_ref| / U_ref an analysis may show before it counts as
/// a failed operation.
pub const U_TOLERANCE: f64 = 0.10;

/// Estimator worker threads (the load is sized for a two-core machine).
pub const THREADS: usize = 2;

/// Optimizer worker threads. On two cores the optimizer's parallel
/// candidate batches ran no faster than one thread, and joining both
/// workers after every batch doubled the run-to-run spread.
pub const OPTIMIZER_THREADS: usize = 1;

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_times: Vec<f64>,
    /// Wall time of every timed operation, seconds.
    pub op_times: Vec<f64>,
    /// Wall time the timed operations ran over, seconds.
    pub busy_s: f64,
    /// Largest relative U error against the references.
    pub u_rel_err: f64,
    /// Workload-specific figures, printed beside the result line.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of a traced run (totals until
    /// `layers_from_trace` turns them into per-operation figures).
    pub layers: BTreeMap<&'static str, f64>,
    /// Estimator stats of the traced `P_ij` estimates, with the node
    /// count (roots) of each.
    pub estimates: Vec<(EstimateStats, usize)>,
    /// Variants characterized in traced operations or set-ups, and how
    /// many of those there were.
    pub variants: (usize, usize),
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Checks a relative U error against [`U_TOLERANCE`], folding it into
    /// the run's largest error; an error beyond it fails the operation.
    pub fn check_u(&mut self, what: &str, u: f64, u_ref: f64) {
        let err = (u - u_ref).abs() / u_ref.abs();
        self.u_rel_err = self.u_rel_err.max(err);
        if err > U_TOLERANCE || !err.is_finite() {
            self.fail(format!(
                "{what}: U {u:e} vs reference {u_ref:e} (error {err:.4} > {U_TOLERANCE})"
            ));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident-set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::ffi::c_int;

    /// `mallopt` parameter numbers: the arena cap and the size from
    /// which allocations get their own mapping.
    pub const M_ARENA_MAX: c_int = -8;
    pub const M_MMAP_THRESHOLD: c_int = -3;
    pub const M_TRIM_THRESHOLD: c_int = -1;

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
        pub fn malloc_trim(pad: usize) -> c_int;
    }
}

/// Makes glibc's heap growth independent of thread timing and of the
/// order work ran in, before any thread starts: one malloc arena shared
/// by all threads, and a fixed 128 KiB mapping threshold (glibc
/// otherwise raises it as large blocks are freed, so later large blocks
/// stay on the heap). `peak_rss_mib` then follows the live data.
pub fn steady_allocator() {
    // SAFETY: `mallopt` only sets tuning parameters of the process
    // allocator from plain integers; it runs before this process starts
    // any other thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        glibc::mallopt(glibc::M_ARENA_MAX, 1);
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 128 << 10);
    }
}

/// Keeps freed memory in the heap for reuse, as a long-lived process's
/// heap ends up: blocks up to glibc's 32 MiB ceiling come from the heap
/// rather than from their own mappings, and the heap's top is not
/// returned to the system. Repeated builds then reuse their scratch
/// buffers instead of mapping and faulting them in afresh each time, so
/// their timings do not depend on how costly page faults are on the
/// host.
pub fn reuse_heap() {
    // SAFETY: as in `steady_allocator`: plain tuning parameters.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 32 << 20);
        glibc::mallopt(glibc::M_TRIM_THRESHOLD, 1 << 30);
    }
}

/// Returns the heap's free memory to the system between cold jobs, so
/// each one starts from a heap as small as a fresh process's and the
/// peak RSS does not depend on the order the jobs ran in.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` releases free heap pages and takes a plain
    // padding size; it does not touch memory still allocated.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        glibc::malloc_trim(0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deterministic generator for the workload inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The estimator engine every analysis in the benchmark uses: the
/// strict environment overlay with the worker count pinned.
pub fn engine() -> EngineConfig {
    let env = EngineConfig::from_env().unwrap_or_else(|e| die("reading SER_* settings", e));
    EngineConfig::new().with_threads(THREADS).overlay(&env)
}

/// The distinct cell variants an assignment needs, in gate order.
pub fn needed_variants(circuit: &ser_netlist::Circuit, cells: &CircuitCells) -> Vec<GateParams> {
    let mut seen: Vec<GateParams> = Vec::new();
    for g in circuit.gates() {
        if let Some(p) = cells.get(g) {
            if !seen.contains(p) {
                seen.push(*p);
            }
        }
    }
    seen
}

/// How many of `cells`' variants `library` does not hold yet — the
/// variants an analysis over that library would characterize.
pub fn missing_variants(
    circuit: &ser_netlist::Circuit,
    cells: &CircuitCells,
    library: &Library,
) -> usize {
    needed_variants(circuit, cells)
        .iter()
        .filter(|p| library.cell_exact(p).is_none())
        .count()
}

/// Analysis settings of the paper (and the CLI default), at `charge`.
pub fn cfg_at(charge: f64) -> AsertaConfig {
    AsertaConfig {
        charge,
        ..AsertaConfig::default()
    }
}

pub fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(2);
}

/// Committed high-budget U references, keyed `circuit/grid/charge_fC`.
pub struct References {
    map: BTreeMap<String, f64>,
}

pub fn ref_key(circuit: &str, grid: &str, charge: f64) -> String {
    format!("{circuit}/{grid}/{:.1}", charge * 1e15)
}

impl References {
    pub const PATH: &'static str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs.json");

    pub fn load() -> Self {
        let text = std::fs::read_to_string(Self::PATH)
            .unwrap_or_else(|e| die(&format!("reading {}", Self::PATH), e));
        let doc: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("parsing {}", Self::PATH), e));
        let mut map = BTreeMap::new();
        let entries = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "u"))
            .map(|(_, v)| v)
            .and_then(serde_json::Value::as_object)
            .unwrap_or_else(|| die(Self::PATH, "missing the `u` object"));
        for (key, value) in entries {
            if let serde_json::Value::Number(n) = value {
                map.insert(key.clone(), n.as_f64());
            }
        }
        References { map }
    }

    pub fn get(&self, circuit: &str, grid: &str, charge: f64) -> f64 {
        let key = ref_key(circuit, grid, charge);
        *self
            .map
            .get(&key)
            .unwrap_or_else(|| die(Self::PATH, format!("no reference for {key}")))
    }
}
