//! The paper's Eq. 1: linear-ramp glitch attenuation through a gate.

/// Expected output glitch width for an input glitch of width `w_in`
/// passing through a gate of propagation delay `delay` (both seconds):
///
/// ```text
/// w_out = 0            if w_in <  d
/// w_out = 2(w_in − d)  if d ≤ w_in ≤ 2d
/// w_out = w_in         if w_in >  2d
/// ```
///
/// Slow gates (large `d`) filter more: the gate cannot respond to pulses
/// shorter than its delay, partially transmits pulses up to twice its
/// delay, and passes wide pulses unattenuated.
///
/// # Example
///
/// ```
/// use aserta::glitch::attenuate;
///
/// let d = 10.0; // any consistent time unit
/// assert_eq!(attenuate(5.0, d), 0.0);   // filtered
/// assert_eq!(attenuate(15.0, d), 10.0); // partially transmitted
/// assert_eq!(attenuate(40.0, d), 40.0); // passes unattenuated
/// ```
#[inline]
pub fn attenuate(w_in: f64, delay: f64) -> f64 {
    debug_assert!(
        w_in >= 0.0 && delay >= 0.0,
        "widths and delays are non-negative"
    );
    if w_in < delay {
        0.0
    } else if w_in <= 2.0 * delay {
        2.0 * (w_in - delay)
    } else {
        w_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes() {
        let d = 10.0;
        assert_eq!(attenuate(0.0, d), 0.0);
        assert_eq!(attenuate(9.999, d), 0.0);
        assert!((attenuate(12.0, d) - 4.0).abs() < 1e-12);
        assert!((attenuate(20.0, d) - 20.0).abs() < 1e-12);
        assert_eq!(attenuate(50.0, d), 50.0);
    }

    #[test]
    fn continuous_at_breakpoints() {
        let d = 7.0;
        // At w = d: 0 vs 2(w−d) = 0.
        assert!((attenuate(d - 1e-9, d) - attenuate(d + 1e-9, d)).abs() < 1e-6);
        // At w = 2d: 2(w−d) = 2d vs w = 2d.
        assert!((attenuate(2.0 * d - 1e-9, d) - attenuate(2.0 * d + 1e-9, d)).abs() < 1e-6);
    }

    #[test]
    fn monotone_in_input_width() {
        let d = 13.0;
        let mut last = 0.0;
        for i in 0..1000 {
            let w = i as f64 * 0.1;
            let out = attenuate(w, d);
            assert!(out + 1e-12 >= last, "nonmonotone at {w}");
            last = out;
        }
    }

    #[test]
    fn monotone_decreasing_in_delay() {
        let w = 30.0;
        let mut last = f64::INFINITY;
        for i in 0..100 {
            let d = i as f64 * 0.5;
            let out = attenuate(w, d);
            assert!(out <= last + 1e-12, "nonmonotone at d={d}");
            last = out;
        }
    }

    #[test]
    fn zero_delay_gate_is_transparent() {
        for w in [0.0, 5.0, 100.0] {
            assert_eq!(attenuate(w, 0.0), w);
        }
    }

    #[test]
    fn chain_kills_or_passes() {
        let chain = |w: f64| [10.0; 3].iter().fold(w, |w, &d| attenuate(w, d));
        // Three 10-unit gates: a 50-wide glitch passes unattenuated.
        assert_eq!(chain(50.0), 50.0);
        // A 12-wide glitch dies at the second gate: 12→4→0.
        assert_eq!(chain(12.0), 0.0);
    }
}
