use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use ser_netlist::{Circuit, GateKind};
use ser_spice::{GateParams, Technology};
use serde::{Deserialize, Serialize};

use crate::cell::CharacterizedCell;
use crate::characterize::{characterize_cell, CharGrids};
use crate::lut::Axis;

/// Exact-match key for a cell variant (bit-exact on the parameter floats;
/// variants always come from explicit grids, so this is well-defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: GateKind,
    fanin: usize,
    size: u64,
    l_nm: u64,
    vdd: u64,
    vth: u64,
}

impl Key {
    fn of(p: &GateParams) -> Self {
        Key {
            kind: p.kind,
            fanin: p.fanin,
            size: p.size.to_bits(),
            l_nm: p.l_nm.to_bits(),
            vdd: p.vdd.to_bits(),
            vth: p.vth.to_bits(),
        }
    }
}

/// A grid of cell variants to characterize: the Cartesian product of the
/// given sizes, lengths, VDDs and Vths for every `(kind, fanin)` pair.
///
/// This mirrors the paper's experimental setup: Table 1 allows lengths
/// {70, 100, 150, 250, 300} nm and circuit-specific VDD/Vth sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibrarySpec {
    /// Gate templates to cover.
    pub kinds_fanins: Vec<(GateKind, usize)>,
    /// Drive strengths in unit widths.
    pub sizes: Vec<f64>,
    /// Channel lengths, nanometres.
    pub lengths_nm: Vec<f64>,
    /// Supply voltages, volts.
    pub vdds: Vec<f64>,
    /// Threshold voltages, volts.
    pub vths: Vec<f64>,
}

impl LibrarySpec {
    /// The templates needed to map `circuit`, with the given parameter
    /// grids.
    pub fn for_circuit(
        circuit: &Circuit,
        sizes: Vec<f64>,
        lengths_nm: Vec<f64>,
        vdds: Vec<f64>,
        vths: Vec<f64>,
    ) -> Self {
        let mut kinds_fanins: Vec<(GateKind, usize)> = circuit
            .gates()
            .map(|id| {
                let node = circuit.node(id);
                (node.kind, node.fanin.len())
            })
            .collect();
        kinds_fanins.sort();
        kinds_fanins.dedup();
        LibrarySpec {
            kinds_fanins,
            sizes,
            lengths_nm,
            vdds,
            vths,
        }
    }

    /// Enumerates every parameter point in the spec.
    pub fn points(&self) -> Vec<GateParams> {
        let mut out = Vec::new();
        for &(kind, fanin) in &self.kinds_fanins {
            for &size in &self.sizes {
                for &l in &self.lengths_nm {
                    for &vdd in &self.vdds {
                        for &vth in &self.vths {
                            out.push(
                                GateParams::new(kind, fanin)
                                    .with_size(size)
                                    .with_length(l)
                                    .with_vdd(vdd)
                                    .with_vth(vth),
                            );
                        }
                    }
                }
            }
        }
        out
    }
}

/// A characterized cell library.
///
/// Variants are added either lazily ([`Library::get_or_characterize`]) or
/// in bulk. Both bulk paths — a [`LibrarySpec`] grid
/// ([`Library::characterize_spec`]) and a session's missing variants
/// (`aserta`'s session construction) — go through
/// [`Library::characterize_all`], the one parallel characterization
/// loop. Libraries persist as JSON so expensive characterization runs
/// once per parameter set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Library {
    tech: Technology,
    grids: CharGrids,
    cells: Vec<CharacterizedCell>,
    #[serde(skip)]
    index: HashMap<Key, usize>,
}

impl Library {
    /// An empty library over a technology and characterization grids.
    pub fn new(tech: Technology, grids: CharGrids) -> Self {
        Library {
            tech,
            grids,
            cells: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The library's technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The characterization grids in force.
    pub fn grids(&self) -> &CharGrids {
        &self.grids
    }

    /// Number of characterized variants.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library holds no variants yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All characterized variants.
    pub fn cells(&self) -> &[CharacterizedCell] {
        &self.cells
    }

    /// Exact-match lookup of a variant.
    pub fn cell_exact(&self, params: &GateParams) -> Option<&CharacterizedCell> {
        self.index.get(&Key::of(params)).map(|&i| &self.cells[i])
    }

    /// All variants implementing a `(kind, fanin)` template — the
    /// candidate set for SERTOPT's delay matching.
    pub fn variants(&self, kind: GateKind, fanin: usize) -> Vec<&CharacterizedCell> {
        self.cells
            .iter()
            .filter(|c| c.params.kind == kind && c.params.fanin == fanin)
            .collect()
    }

    /// Returns the variant for `params`, characterizing and caching it on
    /// first use.
    pub fn get_or_characterize(&mut self, params: &GateParams) -> &CharacterizedCell {
        let key = Key::of(params);
        if let Some(&i) = self.index.get(&key) {
            return &self.cells[i];
        }
        let cell = characterize_cell(&self.tech, params, &self.grids);
        self.push(cell);
        self.cells.last().expect("just pushed")
    }

    /// Characterizes every point of `spec` not already present on
    /// `threads` threads (0 = available cores); see
    /// [`Library::characterize_all`]. Returns how many new variants were
    /// added.
    pub fn characterize_spec(&mut self, spec: &LibrarySpec, threads: usize) -> usize {
        self.characterize_all(&spec.points(), threads)
    }

    /// Characterizes the distinct variants of `params` the library lacks
    /// on `threads` scoped threads (0 = available cores, capped at the
    /// number of variants) and returns how many were added.
    ///
    /// Workers pull the next variant from a shared counter, so one slow
    /// variant never idles the rest; results are inserted in
    /// first-occurrence order, so the library ends up bitwise identical
    /// to calling [`Library::get_or_characterize`] on each variant in
    /// turn. With one thread or one variant the work runs inline. A
    /// panicking worker's payload is re-raised on the caller.
    pub fn characterize_all(&mut self, params: &[GateParams], threads: usize) -> usize {
        let mut seen = HashSet::new();
        let todo: Vec<&GateParams> = params
            .iter()
            .filter(|p| {
                let key = Key::of(p);
                !self.index.contains_key(&key) && seen.insert(key)
            })
            .collect();
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(todo.len());
        if threads <= 1 {
            for p in &todo {
                let cell = characterize_cell(&self.tech, p, &self.grids);
                self.push(cell);
            }
            return todo.len();
        }

        let (tech, grids, todo) = (&self.tech, &self.grids, &todo);
        let next = AtomicUsize::new(0);
        let done: Vec<std::thread::Result<Vec<(usize, CharacterizedCell)>>> =
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(p) = todo.get(i) else { break out };
                                out.push((i, characterize_cell(tech, p, grids)));
                            }
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join()).collect()
            });
        let mut cells = Vec::with_capacity(todo.len());
        for worker in done {
            match worker {
                Ok(part) => cells.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        cells.sort_unstable_by_key(|&(i, _)| i);
        for (_, cell) in cells {
            self.push(cell);
        }
        todo.len()
    }

    fn push(&mut self, cell: CharacterizedCell) {
        let key = Key::of(&cell.params);
        let idx = self.cells.len();
        self.cells.push(cell);
        self.index.insert(key, idx);
    }

    /// Inserts (or replaces) a variant directly, bypassing
    /// characterization. The cell is stored **as given** — including
    /// tables a fault-injection test deliberately filled with NaN — so
    /// downstream consumers must validate
    /// ([`CharacterizedCell::validate`]) before trusting it.
    pub fn insert(&mut self, cell: CharacterizedCell) {
        let key = Key::of(&cell.params);
        if let Some(&i) = self.index.get(&key) {
            self.cells[i] = cell;
        } else {
            self.push(cell);
        }
    }

    /// Serializes the library to JSON.
    ///
    /// # Errors
    ///
    /// Any `serde_json` error (effectively never for this data model).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a library from JSON, rebuilding the lookup index.
    /// The JSON is untrusted (a file, a session snapshot): every cell
    /// table is rebuilt through [`Lut2::new`](crate::lut::Lut2::new), and
    /// the characterization grids are checked as characterization will
    /// use them.
    ///
    /// # Errors
    ///
    /// Any `serde_json` parse error; a malformed table (an axis that is
    /// empty, unsorted or non-finite, or a value array of the wrong
    /// shape); grids whose loads, ramps or charges are not a valid axis,
    /// a non-positive charge, or a `dt` or `max_window` that is not
    /// positive and finite.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        let mut lib: Library = serde_json::from_str(json)?;
        check_grids(&lib.grids).map_err(serde_json::Error::custom)?;
        lib.rebuild_index();
        Ok(lib)
    }

    /// Saves to a file (JSON).
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = self.to_json().map_err(io::Error::other)?;
        fs::write(path, json)
    }

    /// Loads from a file written by [`Library::save`].
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for malformed JSON.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        Library::from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (Key::of(&c.params), i))
            .collect();
    }
}

/// Checks decoded grids before characterization builds an axis from
/// each grid, strikes with each charge and integrates at `dt` over
/// `max_window`.
fn check_grids(g: &CharGrids) -> Result<(), String> {
    for (name, grid) in [
        ("loads", &g.loads),
        ("ramps", &g.ramps),
        ("charges", &g.charges),
    ] {
        Axis::new(grid.clone()).map_err(|e| format!("grids.{name}: {e}"))?;
    }
    // The axis is strictly increasing, so its first point is the least.
    if g.charges[0] <= 0.0 {
        return Err("grids.charges: charges must be positive".into());
    }
    for (name, x) in [("dt", g.dt), ("max_window", g.max_window)] {
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("grids.{name} must be positive and finite, got {x}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lib() -> Library {
        Library::new(Technology::ptm70(), CharGrids::coarse())
    }

    #[test]
    fn lazy_characterization_caches() {
        let mut lib = tiny_lib();
        let p = GateParams::new(GateKind::Not, 1);
        let d1 = lib.get_or_characterize(&p).delay_at(1e-15, 10e-12);
        assert_eq!(lib.len(), 1);
        let d2 = lib.get_or_characterize(&p).delay_at(1e-15, 10e-12);
        assert_eq!(lib.len(), 1, "second call must hit the cache");
        assert_eq!(d1, d2);
    }

    #[test]
    fn spec_points_cover_product() {
        let spec = LibrarySpec {
            kinds_fanins: vec![(GateKind::Nand, 2), (GateKind::Not, 1)],
            sizes: vec![1.0, 2.0],
            lengths_nm: vec![70.0],
            vdds: vec![1.0],
            vths: vec![0.2, 0.3],
        };
        // kinds × sizes × lengths × vdds × vths = 2 × 2 × 1 × 1 × 2.
        assert_eq!(spec.points().len(), 8);
    }

    #[test]
    fn characterize_spec_parallel_adds_all() {
        let mut lib = tiny_lib();
        let spec = LibrarySpec {
            kinds_fanins: vec![(GateKind::Not, 1)],
            sizes: vec![1.0, 2.0],
            lengths_nm: vec![70.0],
            vdds: vec![1.0],
            vths: vec![0.2],
        };
        let added = lib.characterize_spec(&spec, 2);
        assert_eq!(added, 2);
        // Idempotent.
        assert_eq!(lib.characterize_spec(&spec, 2), 0);
        assert_eq!(lib.variants(GateKind::Not, 1).len(), 2);
    }

    #[test]
    fn characterize_spec_skips_repeated_grid_values() {
        let mut lib = tiny_lib();
        let spec = LibrarySpec {
            kinds_fanins: vec![(GateKind::Not, 1)],
            sizes: vec![1.0, 1.0],
            lengths_nm: vec![70.0],
            vdds: vec![1.0],
            vths: vec![0.2],
        };
        assert_eq!(lib.characterize_spec(&spec, 2), 1);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.variants(GateKind::Not, 1).len(), 1);
    }

    #[test]
    fn worker_panic_is_reraised_with_its_payload() {
        let mut lib = tiny_lib();
        let mut input = GateParams::new(GateKind::Not, 1);
        input.kind = GateKind::Input;
        input.fanin = 0;
        let variants = [GateParams::new(GateKind::Not, 1), input];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lib.characterize_all(&variants, 2)
        }))
        .expect_err("an input has no cell to characterize");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("inputs have no cell"), "payload: {msg:?}");
    }

    #[test]
    fn exact_lookup_distinguishes_vth() {
        let mut lib = tiny_lib();
        let p1 = GateParams::new(GateKind::Not, 1).with_vth(0.2);
        let p2 = GateParams::new(GateKind::Not, 1).with_vth(0.3);
        lib.get_or_characterize(&p1);
        assert!(lib.cell_exact(&p1).is_some());
        assert!(lib.cell_exact(&p2).is_none());
    }

    #[test]
    fn json_round_trip_preserves_index() {
        let mut lib = tiny_lib();
        let p = GateParams::new(GateKind::Nand, 2);
        lib.get_or_characterize(&p);
        let json = lib.to_json().unwrap();
        let back = Library::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.cell_exact(&p).is_some());
    }

    #[test]
    fn json_with_a_misshapen_table_is_rejected() {
        let mut lib = tiny_lib();
        lib.get_or_characterize(&GateParams::new(GateKind::Not, 1));
        let json = lib.to_json().unwrap();
        // Drop the first load point of the delay table's axis: the value
        // array no longer matches the axes' shape.
        let head = "\"delay\":{\"axis0\":{\"values\":[";
        let at = json.find(head).expect("a delay table") + head.len();
        let comma = at + json[at..].find(',').unwrap();
        let tampered = format!("{}{}", &json[..at], &json[comma + 1..]);
        let err = Library::from_json(&tampered).unwrap_err().to_string();
        assert!(err.contains("entries, axes imply"), "{err}");
    }

    #[test]
    fn json_with_bad_grids_is_rejected() {
        let unsorted = CharGrids {
            loads: vec![8e-15, 1e-15],
            ..CharGrids::coarse()
        };
        let json = Library::new(Technology::ptm70(), unsorted)
            .to_json()
            .unwrap();
        let err = Library::from_json(&json).unwrap_err().to_string();
        assert!(err.contains("grids.loads"), "{err}");
        for grids in [
            CharGrids {
                charges: vec![0.0, 8e-15],
                ..CharGrids::coarse()
            },
            CharGrids {
                dt: 0.0,
                ..CharGrids::coarse()
            },
        ] {
            let json = Library::new(Technology::ptm70(), grids).to_json().unwrap();
            assert!(Library::from_json(&json).is_err());
        }
    }

    #[test]
    fn for_circuit_extracts_templates() {
        let c17 = ser_netlist::generate::c17();
        let spec = LibrarySpec::for_circuit(&c17, vec![1.0], vec![70.0], vec![1.0], vec![0.2]);
        assert_eq!(spec.kinds_fanins, vec![(GateKind::Nand, 2)]);
    }
}
