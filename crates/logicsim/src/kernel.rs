//! CSR-based 64-way packed simulation kernels — the **only**
//! gate-evaluation implementation in the workspace.
//!
//! Everything that evaluates logic runs through these kernels: the
//! `P_ij` estimator's base evaluation and cone replay
//! ([`crate::sensitize`], on the row primitives below), sampled signal
//! probabilities ([`crate::probability`]) and the multi-upset studies
//! ([`eval_word_with_flips`]). Callers flatten a pointer `Circuit` into
//! a [`CsrView`] once and evaluate over it. Gate kinds and adjacency
//! live in flat `u32` arrays, and the overwhelmingly common 1- and
//! 2-input gates are evaluated by specialized match arms with no
//! per-gate heap traffic. The workspace property suite
//! (`tests/csr_hot_path_equiv.rs`) pins the kernels bit-for-bit against
//! independent in-test scalar references.
//!
//! Flatten once, outside the loop, and reuse the view and output buffer
//! for every word:
//!
//! ```
//! use ser_logicsim::kernel;
//! use ser_netlist::csr::CsrView;
//! use ser_netlist::generate;
//!
//! let c17 = generate::c17();
//! let csr = CsrView::build(&c17); // O(V + E), once
//! let mut out = vec![0u64; c17.node_count()];
//! for pattern in [0u64, !0] {
//!     let words = vec![pattern; c17.primary_inputs().len()];
//!     kernel::eval_word(&csr, &words, &mut out);
//!     let g10 = c17.find("10").unwrap(); // 10 = NAND(1, 3)
//!     assert_eq!(out[g10.index()], !pattern);
//! }
//! ```

use ser_netlist::csr::CsrView;
use ser_netlist::GateKind;

/// Evaluates one gate over packed words read straight from the CSR
/// fan-in slice.
///
/// Callers guarantee `fanin` is non-empty (circuit validation enforces
/// arity) and that `kind` is not [`GateKind::Input`].
#[inline(always)]
pub(crate) fn eval_gate(kind: GateKind, fanin: &[u32], words: &[u64]) -> u64 {
    match *fanin {
        [a] => {
            let x = words[a as usize];
            if kind.is_inverting() {
                !x
            } else {
                x
            }
        }
        [a, b] => {
            let x = words[a as usize];
            let y = words[b as usize];
            match kind {
                GateKind::And => x & y,
                GateKind::Nand => !(x & y),
                GateKind::Or => x | y,
                GateKind::Nor => !(x | y),
                GateKind::Xor => x ^ y,
                GateKind::Xnor => !(x ^ y),
                // NOT/BUF are strictly unary and inputs carry no function;
                // circuit validation rules both out here.
                GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
            }
        }
        _ => {
            let mut it = fanin.iter().map(|&f| words[f as usize]);
            let first = it.next().expect("gates have at least one fan-in");
            let acc = match kind {
                GateKind::And | GateKind::Nand => it.fold(first, |acc, w| acc & w),
                GateKind::Or | GateKind::Nor => it.fold(first, |acc, w| acc | w),
                GateKind::Xor | GateKind::Xnor => it.fold(first, |acc, w| acc ^ w),
                GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
            };
            if kind.is_inverting() {
                !acc
            } else {
                acc
            }
        }
    }
}

/// Evaluates the whole circuit for one word of 64 input vectors, writing
/// one word per node into `words`.
///
/// This is the canonical full-circuit evaluation; the workspace property
/// suite pins it against an independent scalar reference.
///
/// # Example
///
/// ```
/// use ser_logicsim::kernel;
/// use ser_netlist::csr::CsrView;
/// use ser_netlist::generate;
///
/// let c17 = generate::c17();
/// let csr = CsrView::build(&c17); // once, outside any loop
/// // Two vectors in one word: all-zeros (bit 0) and all-ones (bit 1).
/// let words: Vec<u64> = vec![0b10; 5];
/// let mut out = vec![0u64; c17.node_count()];
/// kernel::eval_word(&csr, &words, &mut out);
/// let g10 = c17.find("10").unwrap(); // 10 = NAND(1, 3)
/// assert_eq!(out[g10.index()] & 0b11, 0b01); // NAND(0,0)=1, NAND(1,1)=0
/// ```
///
/// # Panics
///
/// Panics if `pi_words` does not hold one word per primary input or
/// `words` one slot per node.
pub fn eval_word(csr: &CsrView, pi_words: &[u64], words: &mut [u64]) {
    assert_eq!(
        pi_words.len(),
        csr.inputs().len(),
        "one word per primary input"
    );
    assert_eq!(words.len(), csr.node_count(), "one word per node");
    for (k, &pi) in csr.inputs().iter().enumerate() {
        words[pi as usize] = pi_words[k];
    }
    for &id in csr.topo() {
        let i = id as usize;
        let kind = csr.kind(i);
        if kind.is_input() {
            continue;
        }
        words[i] = eval_gate(kind, csr.fanin_of(i), words);
    }
}

/// Evaluates the whole circuit with the flagged nodes **forced to the
/// complement of their fault-free value** — the multi-node upset kernel
/// (the paper's c499 discussion of simultaneous multiple-error
/// injection). `golden` must hold the fault-free evaluation of the same
/// `pi_words` (see [`eval_word`]); `flip` holds one flag per node.
///
/// A flagged node is forced *after* its own evaluation, so upsets also
/// apply to primary inputs and to nodes inside other upsets' cones.
///
/// # Panics
///
/// Panics if `pi_words`, `golden`, `flip` or `words` have the wrong
/// length.
pub fn eval_word_with_flips(
    csr: &CsrView,
    pi_words: &[u64],
    golden: &[u64],
    flip: &[bool],
    words: &mut [u64],
) {
    assert_eq!(
        pi_words.len(),
        csr.inputs().len(),
        "one word per primary input"
    );
    assert_eq!(golden.len(), csr.node_count(), "one golden word per node");
    assert_eq!(flip.len(), csr.node_count(), "one flip flag per node");
    assert_eq!(words.len(), csr.node_count(), "one word per node");
    for (k, &pi) in csr.inputs().iter().enumerate() {
        words[pi as usize] = pi_words[k];
    }
    for &id in csr.topo() {
        let i = id as usize;
        let kind = csr.kind(i);
        if !kind.is_input() {
            words[i] = eval_gate(kind, csr.fanin_of(i), words);
        }
        if flip[i] {
            words[i] = !golden[i];
        }
    }
}

// --------------------------------------------------------- wide rows
//
// Row primitives for the cone-replay interpreter in
// [`crate::sensitize`]: each operates on whole rows of packed words,
// hand-unrolled `L` words at a time (the interpreter runs `L = 4`).
// Every operation is a pure per-word bitwise function, so the result
// is bitwise identical for every `L` — the `L = 1` instantiation is the
// in-test scalar reference, and the wide form exists only to keep the
// interpreter's inner loops in straight-line register code the
// compiler can turn into SIMD.

/// `dst[k] = f(a[k])` over a whole row, `L` words per step.
#[inline(always)]
fn zip1_row<const L: usize>(dst: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    debug_assert_eq!(dst.len(), a.len());
    let main = dst.len() - dst.len() % L;
    let (dm, dt) = dst.split_at_mut(main);
    let (am, at) = a.split_at(main);
    for (d, x) in dm.chunks_exact_mut(L).zip(am.chunks_exact(L)) {
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = f(x[l]);
        }
        d.copy_from_slice(&out);
    }
    for (d, &x) in dt.iter_mut().zip(at) {
        *d = f(x);
    }
}

/// `dst[k] = f(a[k], b[k])` over a whole row, `L` words per step.
#[inline(always)]
fn zip2_row<const L: usize>(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let main = dst.len() - dst.len() % L;
    let (dm, dt) = dst.split_at_mut(main);
    let (am, at) = a.split_at(main);
    let (bm, bt) = b.split_at(main);
    for ((d, x), y) in dm
        .chunks_exact_mut(L)
        .zip(am.chunks_exact(L))
        .zip(bm.chunks_exact(L))
    {
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = f(x[l], y[l]);
        }
        d.copy_from_slice(&out);
    }
    for ((d, &x), &y) in dt.iter_mut().zip(at).zip(bt) {
        *d = f(x, y);
    }
}

/// Unary row op: copy or complement `a` into `dst`.
#[inline(always)]
pub(crate) fn unary_row<const L: usize>(dst: &mut [u64], a: &[u64], invert: bool) {
    if invert {
        zip1_row::<L>(dst, a, |x| !x);
    } else {
        dst.copy_from_slice(a);
    }
}

/// Binary row op for the specialized 2-input gates.
#[inline(always)]
pub(crate) fn binary_row<const L: usize>(kind: GateKind, dst: &mut [u64], a: &[u64], b: &[u64]) {
    match kind {
        GateKind::And => zip2_row::<L>(dst, a, b, |x, y| x & y),
        GateKind::Nand => zip2_row::<L>(dst, a, b, |x, y| !(x & y)),
        GateKind::Or => zip2_row::<L>(dst, a, b, |x, y| x | y),
        GateKind::Nor => zip2_row::<L>(dst, a, b, |x, y| !(x | y)),
        GateKind::Xor => zip2_row::<L>(dst, a, b, |x, y| x ^ y),
        GateKind::Xnor => zip2_row::<L>(dst, a, b, |x, y| !(x ^ y)),
        GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
    }
}

/// Fold step of the 3+-input gates: `dst[k] op= src[k]` with the gate's
/// base connective (inversion is applied once at the end via
/// [`invert_row`]).
#[inline(always)]
pub(crate) fn accumulate_row<const L: usize>(kind: GateKind, dst: &mut [u64], src: &[u64]) {
    match kind {
        GateKind::And | GateKind::Nand => zip2_in_place::<L>(dst, src, |x, y| x & y),
        GateKind::Or | GateKind::Nor => zip2_in_place::<L>(dst, src, |x, y| x | y),
        GateKind::Xor | GateKind::Xnor => zip2_in_place::<L>(dst, src, |x, y| x ^ y),
        GateKind::Not | GateKind::Buf | GateKind::Input => unreachable!(),
    }
}

/// `dst[k] = f(dst[k], src[k])` over a whole row, `L` words per step.
#[inline(always)]
fn zip2_in_place<const L: usize>(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(dst.len(), src.len());
    let main = dst.len() - dst.len() % L;
    let (dm, dt) = dst.split_at_mut(main);
    let (sm, st) = src.split_at(main);
    for (d, s) in dm.chunks_exact_mut(L).zip(sm.chunks_exact(L)) {
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = f(d[l], s[l]);
        }
        d.copy_from_slice(&out);
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d = f(*d, s);
    }
}

/// In-place complement of a whole row.
#[inline(always)]
pub(crate) fn invert_row<const L: usize>(dst: &mut [u64]) {
    let main = dst.len() - dst.len() % L;
    let (dm, dt) = dst.split_at_mut(main);
    for d in dm.chunks_exact_mut(L) {
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = !d[l];
        }
        d.copy_from_slice(&out);
    }
    for d in dt {
        *d = !*d;
    }
}

/// Evaluates one gate over whole rows: `dst = kind(row(args[0]), …)`.
/// `row` resolves an operand to its value row. The 1- and 2-input gates
/// take the specialized arms; wider gates fold with [`accumulate_row`]
/// and invert once at the end.
///
/// Callers guarantee `args` is non-empty and `kind` is not
/// [`GateKind::Input`].
#[inline]
pub(crate) fn gate_row<'a, const L: usize>(
    kind: GateKind,
    dst: &mut [u64],
    args: &[u32],
    row: impl Fn(u32) -> &'a [u64],
) {
    match *args {
        [a] => unary_row::<L>(dst, row(a), kind.is_inverting()),
        [a, b] => binary_row::<L>(kind, dst, row(a), row(b)),
        [a, ref more @ ..] => {
            dst.copy_from_slice(row(a));
            for &m in more {
                accumulate_row::<L>(kind, dst, row(m));
            }
            if kind.is_inverting() {
                invert_row::<L>(dst);
            }
        }
        [] => unreachable!("gates have at least one fan-in"),
    }
}

/// Diff-and-count row: XORs the faulty row `v` against the fault-free
/// row `p`, ORs the difference into `union_buf` and returns the total
/// popcount — the per-output hit counting step of the replay loop.
#[inline(always)]
pub(crate) fn diff_count_union_row<const L: usize>(
    v: &[u64],
    p: &[u64],
    union_buf: &mut [u64],
) -> u64 {
    debug_assert_eq!(v.len(), p.len());
    debug_assert_eq!(v.len(), union_buf.len());
    let mut hits = 0u64;
    let main = v.len() - v.len() % L;
    let (vm, vt) = v.split_at(main);
    let (pm, pt) = p.split_at(main);
    let (um, ut) = union_buf.split_at_mut(main);
    for ((x, y), u) in vm
        .chunks_exact(L)
        .zip(pm.chunks_exact(L))
        .zip(um.chunks_exact_mut(L))
    {
        let mut out = [0u64; L];
        for l in 0..L {
            let d = x[l] ^ y[l];
            out[l] = u[l] | d;
            hits += d.count_ones() as u64;
        }
        u.copy_from_slice(&out);
    }
    for ((&x, &y), u) in vt.iter().zip(pt).zip(ut) {
        let d = x ^ y;
        *u |= d;
        hits += d.count_ones() as u64;
    }
    hits
}

/// A `u64` scratch buffer whose live window starts on a 64-byte
/// boundary — cache-line-aligned rows for the wide kernels. `Vec<u64>`
/// only guarantees 8-byte alignment, so the buffer over-allocates by up
/// to 7 words and offsets the window.
#[derive(Default)]
pub(crate) struct AlignedWords {
    buf: Vec<u64>,
    off: usize,
    len: usize,
}

impl AlignedWords {
    /// Resizes the live window to `len` words without zeroing on the
    /// reuse path — for callers that overwrite every word before
    /// reading. Reallocates (and re-derives the alignment offset) only
    /// on growth.
    pub(crate) fn ensure(&mut self, len: usize) {
        if self.buf.len() < len + 7 {
            self.buf = vec![0u64; len + 7];
        }
        self.off = (self.buf.as_ptr() as usize).wrapping_neg() % 64 / 8;
        self.len = len;
    }

    /// Resizes the live window to `len` zeroed words, reallocating only
    /// on growth.
    #[cfg(test)]
    pub(crate) fn reset(&mut self, len: usize) {
        let fresh = self.buf.len() < len + 7;
        self.ensure(len);
        if !fresh {
            self.buf.iter_mut().for_each(|w| *w = 0);
        }
    }

    /// The aligned live window.
    pub(crate) fn words(&self) -> &[u64] {
        &self.buf[self.off..self.off + self.len]
    }

    /// The aligned live window, mutable.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::generate::{self, LayeredSpec};
    use ser_netlist::{Circuit, CircuitBuilder, NodeId};

    /// Independent scalar reference over the pointer circuit —
    /// deliberately *not* the production kernels, so these tests stay a
    /// real oracle.
    fn ref_gate(kind: GateKind, pins: &[u64]) -> u64 {
        let mut it = pins.iter().copied();
        let first = it.next().expect("gates have at least one fan-in");
        match kind {
            GateKind::And => it.fold(first, |a, w| a & w),
            GateKind::Nand => !it.fold(first, |a, w| a & w),
            GateKind::Or => it.fold(first, |a, w| a | w),
            GateKind::Nor => !it.fold(first, |a, w| a | w),
            GateKind::Xor => it.fold(first, |a, w| a ^ w),
            GateKind::Xnor => !it.fold(first, |a, w| a ^ w),
            GateKind::Not => !first,
            GateKind::Buf => first,
            GateKind::Input => unreachable!("inputs carry no function"),
        }
    }

    fn ref_eval_word(c: &Circuit, pi_words: &[u64]) -> Vec<u64> {
        let mut words = vec![0u64; c.node_count()];
        for (k, &pi) in c.primary_inputs().iter().enumerate() {
            words[pi.index()] = pi_words[k];
        }
        for &id in c.topological_order() {
            let node = c.node(id);
            if node.is_input() {
                continue;
            }
            let pins: Vec<u64> = node.fanin.iter().map(|f| words[f.index()]).collect();
            words[id.index()] = ref_gate(node.kind, &pins);
        }
        words
    }

    #[test]
    fn csr_eval_matches_reference_on_c17() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        let n = c.primary_inputs().len();
        let pi_words: Vec<u64> = (0..n as u64)
            .map(|k| 0x9E3779B97F4A7C15 ^ (k * 31))
            .collect();
        let want = ref_eval_word(&c, &pi_words);
        let mut got = vec![0u64; c.node_count()];
        eval_word(&csr, &pi_words, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn eval_vector_on_buffer_chain() {
        // c17 has no unary gates; a BUF→NOT chain covers both unary arms.
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g = b.gate(GateKind::Buf, "g", &[a]).unwrap();
        let h = b.gate(GateKind::Not, "h", &[g]).unwrap();
        b.mark_output(h);
        let c = b.finish().unwrap();
        let csr = CsrView::build(&c);
        // Lane 0 drives `a` high, lane 1 low.
        let mut got = vec![0u64; c.node_count()];
        eval_word(&csr, &[0b01], &mut got);
        assert_eq!(got[a.index()] & 0b11, 0b01);
        assert_eq!(got[g.index()] & 0b11, 0b01);
        assert_eq!(got[h.index()] & 0b11, 0b10);
        assert_eq!(got, ref_eval_word(&c, &[0b01]));
    }

    #[test]
    fn csr_eval_matches_reference_on_layered() {
        // Exercises the 3+-input fold path and every gate kind.
        let c = generate::layered(&LayeredSpec::new("k", 9, 4, 70));
        let csr = CsrView::build(&c);
        let n = c.primary_inputs().len();
        let pi_words: Vec<u64> = (0..n as u64)
            .map(|k| 0xDEADBEEF ^ (k * 0x5DEECE66D))
            .collect();
        let want = ref_eval_word(&c, &pi_words);
        let mut got = vec![0u64; c.node_count()];
        eval_word(&csr, &pi_words, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn flip_kernel_matches_reference() {
        let c = generate::layered(&LayeredSpec::new("k", 6, 3, 40));
        let csr = CsrView::build(&c);
        let n = c.primary_inputs().len();
        let pi_words: Vec<u64> = (0..n as u64).map(|k| 0xABCDEF ^ (k * 1301)).collect();
        let golden = ref_eval_word(&c, &pi_words);
        let gates: Vec<NodeId> = c.node_ids().collect();
        for pair in gates.windows(2).step_by(7) {
            let mut flip = vec![false; c.node_count()];
            flip[pair[0].index()] = true;
            flip[pair[1].index()] = true;
            // Reference: forced complements folded into the scalar pass.
            let mut want = vec![0u64; c.node_count()];
            for (k, &pi) in c.primary_inputs().iter().enumerate() {
                want[pi.index()] = pi_words[k];
            }
            for &id in c.topological_order() {
                let node = c.node(id);
                if !node.is_input() {
                    let pins: Vec<u64> = node.fanin.iter().map(|f| want[f.index()]).collect();
                    want[id.index()] = ref_gate(node.kind, &pins);
                }
                if flip[id.index()] {
                    want[id.index()] = !golden[id.index()];
                }
            }
            let mut got = vec![0u64; c.node_count()];
            eval_word_with_flips(&csr, &pi_words, &golden, &flip, &mut got);
            assert_eq!(got, want, "flips {pair:?}");
        }
    }

    #[test]
    fn ecc_corrects_single_but_not_all_double_flips() {
        // The paper's c499 story at the logic level: single data upsets
        // are corrected, simultaneous double upsets are not always.
        let ecc = generate::sec32("c499");
        let csr = CsrView::build(&ecc);
        let pi_words = vec![0u64; ecc.primary_inputs().len()];
        let mut golden = vec![0u64; ecc.node_count()];
        eval_word(&csr, &pi_words, &mut golden);
        // Number of primary outputs whose vector-0 bit the upset set
        // `nodes` corrupts.
        let corrupted = |nodes: &[NodeId]| -> usize {
            let mut flip = vec![false; ecc.node_count()];
            for id in nodes {
                flip[id.index()] = true;
            }
            let mut faulty = vec![0u64; ecc.node_count()];
            eval_word_with_flips(&csr, &pi_words, &golden, &flip, &mut faulty);
            ecc.primary_outputs()
                .iter()
                .filter(|po| (faulty[po.index()] ^ golden[po.index()]) & 1 == 1)
                .count()
        };
        // Strike syndrome-tree gates: single flips may corrupt (they sit
        // behind the corrector); pairs of adjacent gates must witness at
        // least as much corruption.
        let gates: Vec<NodeId> = ecc.gates().collect();
        let single: usize = gates.iter().take(64).map(|&g| corrupted(&[g])).sum();
        let double: usize = gates.windows(2).take(64).map(corrupted).sum();
        assert!(
            double >= single,
            "double upsets must corrupt at least as much: {double} vs {single}"
        );
    }

    #[test]
    #[should_panic(expected = "one word per primary input")]
    fn csr_eval_checks_pi_count() {
        let c = generate::c17();
        let csr = CsrView::build(&c);
        let mut out = vec![0u64; c.node_count()];
        eval_word(&csr, &[0, 0], &mut out);
    }

    /// Every wide row primitive must be bitwise identical to its L=1
    /// form at every supported lane width, including rows whose length
    /// is not a multiple of the lane count (remainder path).
    #[test]
    fn wide_rows_match_scalar_at_every_lane_width() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        // 13 words: exercises both the unrolled body and the tail for
        // L ∈ {2, 4, 8}.
        let a: Vec<u64> = (0..13u64)
            .map(|k| k.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let b: Vec<u64> = (0..13u64)
            .map(|k| k.wrapping_mul(0xD1B54A32D192ED03))
            .collect();

        fn run<const L: usize>(kinds: &[GateKind], a: &[u64], b: &[u64]) -> Vec<Vec<u64>> {
            let mut out = Vec::new();
            for &kind in kinds {
                let mut d = vec![0u64; a.len()];
                binary_row::<L>(kind, &mut d, a, b);
                out.push(d.clone());
                accumulate_row::<L>(kind, &mut d, a);
                out.push(d.clone());
                invert_row::<L>(&mut d);
                out.push(d.clone());
                let mut u = vec![0u64; a.len()];
                let hits = diff_count_union_row::<L>(&d, b, &mut u);
                out.push(u);
                out.push(vec![hits]);
            }
            let mut d = vec![0u64; a.len()];
            unary_row::<L>(&mut d, a, true);
            out.push(d.clone());
            unary_row::<L>(&mut d, b, false);
            out.push(d);
            out
        }

        let scalar = run::<1>(&kinds, &a, &b);
        assert_eq!(scalar, run::<2>(&kinds, &a, &b));
        assert_eq!(scalar, run::<4>(&kinds, &a, &b));
        assert_eq!(scalar, run::<8>(&kinds, &a, &b));
    }

    #[test]
    fn aligned_words_window_is_cache_line_aligned() {
        let mut w = AlignedWords::default();
        for len in [1usize, 7, 64, 1000] {
            w.reset(len);
            assert_eq!(w.words().len(), len);
            assert!(w.words().iter().all(|&x| x == 0));
            assert_eq!(w.words().as_ptr() as usize % 64, 0);
            w.words_mut().iter_mut().for_each(|x| *x = !0);
        }
    }
}
