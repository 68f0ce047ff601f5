//! Sampled voltage waveforms and analytic stimulus shapes (ramps and
//! trapezoidal glitches).

use serde::{Deserialize, Serialize};

/// A uniformly-sampled voltage waveform.
///
/// Samples start at `t0` with spacing `dt`; evaluation outside the sampled
/// window clamps to the first/last sample (waveforms settle to rails).
///
/// # Example
///
/// ```
/// use ser_spice::Waveform;
///
/// let w = Waveform::from_samples(0.0, 1.0e-12, vec![0.0, 0.5, 1.0]);
/// assert_eq!(w.value_at(0.5e-12), 0.25);
/// assert_eq!(w.value_at(-1.0), 0.0);  // clamped
/// assert_eq!(w.value_at(1.0), 1.0);   // clamped
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Waveform {
    t0: f64,
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Wraps raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or `samples` is empty.
    pub fn from_samples(t0: f64, dt: f64, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0, "sample spacing must be positive");
        assert!(!samples.is_empty(), "waveform needs at least one sample");
        Waveform { t0, dt, samples }
    }

    /// Samples a function over `[t0, t0 + dt·(n−1)]`.
    pub fn sample(t0: f64, dt: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        let samples = (0..n).map(|i| f(t0 + dt * i as f64)).collect();
        Waveform::from_samples(t0, dt, samples)
    }

    /// A constant waveform (single sample).
    pub fn constant(level: f64) -> Self {
        Waveform::from_samples(0.0, 1.0, vec![level])
    }

    /// Start time of the first sample.
    #[inline]
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sample spacing in seconds.
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// End time of the last sample.
    pub fn t_end(&self) -> f64 {
        self.t0 + self.dt * (self.samples.len() - 1) as f64
    }

    /// The raw samples.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Linear interpolation with clamped extension.
    pub fn value_at(&self, t: f64) -> f64 {
        let n = self.samples.len();
        let x = (t - self.t0) / self.dt;
        if x <= 0.0 {
            return self.samples[0];
        }
        if x >= (n - 1) as f64 {
            return self.samples[n - 1];
        }
        let i = x.floor() as usize;
        let frac = x - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Maximum absolute excursion from `level`.
    pub fn max_excursion_from(&self, level: f64) -> f64 {
        self.samples
            .iter()
            .map(|&v| (v - level).abs())
            .fold(0.0, f64::max)
    }

    /// Pointwise map, preserving sampling.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Waveform {
        Waveform {
            t0: self.t0,
            dt: self.dt,
            samples: self.samples.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// An ideal saturated-ramp transition between rails: starts at `v_from`,
/// ramps linearly from `t_start` over `ramp` seconds to `v_to`.
pub fn ramp(v_from: f64, v_to: f64, t_start: f64, ramp: f64) -> impl Fn(f64) -> f64 {
    move |t: f64| {
        if t <= t_start {
            v_from
        } else if t >= t_start + ramp {
            v_to
        } else {
            v_from + (v_to - v_from) * (t - t_start) / ramp
        }
    }
}

/// A trapezoidal glitch: ramps to `v_peak` in `edge`, holds so the total
/// duration at 50% amplitude equals `width_50`, ramps back. Used to drive
/// gate inputs with a glitch of defined 50%-width (the paper's `w_i`).
pub fn trapezoid_glitch(
    v_base: f64,
    v_peak: f64,
    t_start: f64,
    width_50: f64,
    edge: f64,
) -> impl Fn(f64) -> f64 {
    move |t: f64| {
        if width_50 <= 0.0 {
            return v_base;
        }
        // 50% crossings happen mid-edge, so the base width is width_50 + edge.
        let hold = (width_50 - edge).max(0.0);
        let x = t - t_start;
        if x <= 0.0 {
            v_base
        } else if x < edge {
            v_base + (v_peak - v_base) * (x / edge)
        } else if x < edge + hold {
            v_peak
        } else if x < edge + hold + edge {
            v_peak + (v_base - v_peak) * ((x - edge - hold) / edge)
        } else {
            v_base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_samples() {
        let w = Waveform::from_samples(1.0, 2.0, vec![0.0, 4.0, 8.0]);
        assert_eq!(w.value_at(2.0), 2.0);
        assert_eq!(w.value_at(4.0), 6.0);
    }

    #[test]
    fn clamps_outside_window() {
        let w = Waveform::from_samples(0.0, 1.0, vec![3.0, 7.0]);
        assert_eq!(w.value_at(-5.0), 3.0);
        assert_eq!(w.value_at(99.0), 7.0);
    }

    #[test]
    fn constant_is_flat() {
        let w = Waveform::constant(0.8);
        assert_eq!(w.value_at(0.0), 0.8);
        assert_eq!(w.value_at(1e9), 0.8);
    }

    #[test]
    fn ramp_shape() {
        let f = ramp(0.0, 1.0, 10.0, 4.0);
        assert_eq!(f(9.0), 0.0);
        assert_eq!(f(12.0), 0.5);
        assert_eq!(f(15.0), 1.0);
    }

    #[test]
    fn trapezoid_width_at_half_amplitude() {
        let width_50 = 50.0;
        let edge = 10.0;
        let f = trapezoid_glitch(0.0, 1.0, 0.0, width_50, edge);
        // 50% crossings at edge/2 and edge/2 + width_50.
        assert!((f(5.0) - 0.5).abs() < 1e-9);
        assert!((f(55.0) - 0.5).abs() < 1e-9);
        assert_eq!(f(30.0), 1.0);
    }

    #[test]
    fn sample_matches_function() {
        let w = Waveform::sample(0.0, 0.5, 5, |t| t * t);
        assert_eq!(w.samples().len(), 5);
        assert!((w.value_at(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample spacing")]
    fn rejects_zero_dt() {
        let _ = Waveform::from_samples(0.0, 0.0, vec![1.0]);
    }
}
