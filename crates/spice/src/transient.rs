//! Transient simulation: RK4 integration of gate output nodes, plus the
//! single-gate experiment drivers used for characterization (delay, glitch
//! generation, glitch propagation).

use crate::error::TransientError;
use crate::gate_model::{GateElectrical, Stage};
use crate::measure;
use crate::strike::Strike;
use crate::tech::Technology;
use crate::units::{NS, PS};
use crate::waveform::{ramp, trapezoid_glitch, Waveform};

/// Step-halving levels tried before a non-finite RK4 step is reported as
/// [`TransientError::NonConvergence`]: the failing step is re-integrated
/// with 2, 4, … up to 2⁶ substeps.
pub const MAX_STEP_HALVINGS: u32 = 6;

/// Integration settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Fixed RK4 step, seconds. The fastest node time constants in the
    /// ptm70 set are ≈1–2 ps, so the 0.25 ps default is comfortably
    /// stable.
    pub dt: f64,
    /// Hard simulation horizon, seconds.
    pub max_window: f64,
    /// Early-stop: simulation ends once input and output have been still
    /// (|Δv| below this, volts) for 64 consecutive steps.
    pub settle_band: f64,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            dt: 0.25 * PS,
            max_window: 3.0 * NS,
            settle_band: 1e-5,
        }
    }
}

/// Integrates one stage's output node:
/// `dv/dt = (I_stage(vin, v) + I_inj) / (C_self + c_ext)`.
///
/// `strike` is `(pulse, sign, onset)`: `sign=+1` injects (pulls the node
/// up), `sign=−1` removes charge. Voltages are clamped to
/// `[−0.5, vdd+0.5]` (diode clamps abstracted).
pub fn simulate_stage(
    tech: &Technology,
    stage: &Stage,
    vin: &dyn Fn(f64) -> f64,
    c_ext: f64,
    strike: Option<(&Strike, f64, f64)>,
    v0: f64,
    cfg: &TransientConfig,
) -> Waveform {
    match try_simulate_stage(tech, stage, vin, c_ext, strike, v0, cfg) {
        Ok(w) => w,
        Err(e) => panic!("{e}"),
    }
}

/// One (possibly clamped) RK4 step of size `h` from `(t, v)`.
#[inline]
fn rk4_step(f: &dyn Fn(f64, f64) -> f64, t: f64, v: f64, h: f64, lo: f64, hi: f64) -> f64 {
    let k1 = f(t, v);
    let k2 = f(t + 0.5 * h, v + 0.5 * h * k1);
    let k3 = f(t + 0.5 * h, v + 0.5 * h * k2);
    let k4 = f(t + h, v + h * k3);
    (v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).clamp(lo, hi)
}

/// Re-integrates the failing step `[t, t+h]` with 2, 4, … up to
/// 2^[`MAX_STEP_HALVINGS`] substeps; returns NaN when every refinement
/// level still diverges.
fn refine_step(f: &dyn Fn(f64, f64) -> f64, t: f64, v: f64, h: f64, lo: f64, hi: f64) -> f64 {
    let mut parts = 2u32;
    for _ in 0..MAX_STEP_HALVINGS {
        let hs = h / f64::from(parts);
        let mut vv = v;
        let mut diverged = false;
        for k in 0..parts {
            vv = rk4_step(f, t + f64::from(k) * hs, vv, hs, lo, hi);
            ser_netlist::failpoint!("spice::transient_step", vv = f64::NAN);
            if !vv.is_finite() {
                diverged = true;
                break;
            }
        }
        if !diverged {
            return vv;
        }
        parts *= 2;
    }
    f64::NAN
}

/// Fallible form of [`simulate_stage`]: validates the configuration with
/// typed [`TransientError::BadConfig`] errors, and recovers a non-finite
/// RK4 step by bounded step-halving (up to [`MAX_STEP_HALVINGS`] levels)
/// before reporting [`TransientError::NonConvergence`].
pub fn try_simulate_stage(
    tech: &Technology,
    stage: &Stage,
    vin: &dyn Fn(f64) -> f64,
    c_ext: f64,
    strike: Option<(&Strike, f64, f64)>,
    v0: f64,
    cfg: &TransientConfig,
) -> Result<Waveform, TransientError> {
    if !(cfg.dt > 0.0 && cfg.dt.is_finite()) {
        return Err(TransientError::BadConfig {
            reason: "time step must be positive and finite",
        });
    }
    if !(cfg.max_window > 0.0 && cfg.max_window.is_finite()) {
        return Err(TransientError::BadConfig {
            reason: "simulation window must be positive and finite",
        });
    }
    if !(c_ext >= 0.0 && c_ext.is_finite()) {
        return Err(TransientError::BadConfig {
            reason: "external load cannot be negative",
        });
    }
    let c_total = stage.c_self + c_ext;
    if !(c_total > 0.0 && c_total.is_finite()) {
        return Err(TransientError::BadConfig {
            reason: "node needs some capacitance",
        });
    }
    if !v0.is_finite() {
        return Err(TransientError::BadConfig {
            reason: "initial node voltage must be finite",
        });
    }

    let inj = |t: f64| -> f64 {
        match strike {
            Some((s, sign, onset)) => sign * s.current_at(t - onset),
            None => 0.0,
        }
    };
    let f =
        |t: f64, v: f64| -> f64 { (stage.current_into_output(tech, vin(t), v) + inj(t)) / c_total };

    let n_max = (cfg.max_window / cfg.dt).ceil() as usize;
    let mut samples = Vec::with_capacity(n_max.min(1 << 16));
    let mut v = v0;
    samples.push(v);
    let mut still = 0usize;
    let lo = -0.5;
    let hi = stage.vdd + 0.5;

    // The input is an arbitrary closure, so "input has settled" cannot be
    // inferred from a local window (a glitch's flat top looks settled).
    // Scan it once for its last activity instead.
    let scan_step = 4.0 * cfg.dt;
    let mut last_activity = 0.0f64;
    let mut t_scan = 0.0;
    let mut prev = vin(0.0);
    while t_scan < cfg.max_window {
        t_scan += scan_step;
        let cur = vin(t_scan);
        if (cur - prev).abs() > cfg.settle_band {
            last_activity = t_scan;
        }
        prev = cur;
    }
    // Strikes may start later than input activity; don't stop before the
    // pulse has fully happened.
    let t_floor = match strike {
        Some((s, _, onset)) => (onset + s.horizon()).max(last_activity),
        None => (20.0 * PS).max(last_activity),
    };

    for i in 0..n_max {
        let t = i as f64 * cfg.dt;
        let h = cfg.dt;
        let mut v_next = rk4_step(&f, t, v, h, lo, hi);
        ser_netlist::failpoint!("spice::transient_step", v_next = f64::NAN);
        if !v_next.is_finite() {
            // A diverging step on a stiff node: retry the same interval
            // with progressively halved substeps before giving up.
            v_next = refine_step(&f, t, v, h, lo, hi);
            if !v_next.is_finite() {
                return Err(TransientError::NonConvergence {
                    time: t,
                    step: h,
                    halvings: MAX_STEP_HALVINGS,
                });
            }
        }

        let output_still = (v_next - v).abs() < cfg.settle_band;
        v = v_next;
        samples.push(v);
        if output_still && t > t_floor {
            still += 1;
            if still >= 64 {
                break;
            }
        } else {
            still = 0;
        }
    }
    Ok(Waveform::from_samples(0.0, cfg.dt, samples))
}

/// DC rail for a stage given a static input: high output for input below
/// mid-rail, low otherwise (single-stage cells invert).
fn dc_output(stage: &Stage, vin: f64) -> f64 {
    if vin < stage.vdd * 0.5 {
        stage.vdd
    } else {
        0.0
    }
}

/// Response of a whole cell (one or two stages) to an input waveform on
/// its switching pin; returns the final-output waveform.
///
/// Side pins are assumed non-controlling (the sensitized case); callers
/// model a logically non-inverting path through an inverting cell by
/// pre-inverting the input (`invert_input`).
pub fn simulate_gate(
    tech: &Technology,
    gate: &GateElectrical,
    vin: &dyn Fn(f64) -> f64,
    invert_input: bool,
    c_load: f64,
    cfg: &TransientConfig,
) -> Waveform {
    match try_simulate_gate(tech, gate, vin, invert_input, c_load, cfg) {
        Ok(w) => w,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`simulate_gate`] (see [`try_simulate_stage`]).
pub fn try_simulate_gate(
    tech: &Technology,
    gate: &GateElectrical,
    vin: &dyn Fn(f64) -> f64,
    invert_input: bool,
    c_load: f64,
    cfg: &TransientConfig,
) -> Result<Waveform, TransientError> {
    let vdd = gate.params().vdd;
    let stages = gate.stages();
    let first_in: Box<dyn Fn(f64) -> f64> = if invert_input {
        let f = move |t: f64| vdd - vin(t);
        Box::new(f)
    } else {
        Box::new(move |t: f64| vin(t))
    };

    if stages.len() == 1 {
        let v0 = dc_output(&stages[0], first_in(0.0));
        return try_simulate_stage(tech, &stages[0], &*first_in, c_load, None, v0, cfg);
    }

    let inter_cap = gate.interstage_cap(tech);
    let v0_1 = dc_output(&stages[0], first_in(0.0));
    let w1 = try_simulate_stage(tech, &stages[0], &*first_in, inter_cap, None, v0_1, cfg)?;
    let v0_2 = dc_output(&stages[1], w1.value_at(0.0));
    let w1_fn = move |t: f64| w1.value_at(t);
    try_simulate_stage(tech, &stages[1], &w1_fn, c_load, None, v0_2, cfg)
}

/// Simulates a particle strike at the cell's **output** node while its
/// input is static, returning the output waveform.
///
/// `output_high` selects the struck node's logic state; charge is removed
/// from a high node and injected into a low one (the only two cases that
/// produce a glitch, per the paper).
pub fn simulate_strike(
    tech: &Technology,
    gate: &GateElectrical,
    output_high: bool,
    c_load: f64,
    strike: &Strike,
    cfg: &TransientConfig,
) -> Waveform {
    match try_simulate_strike(tech, gate, output_high, c_load, strike, cfg) {
        Ok(w) => w,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`simulate_strike`] (see [`try_simulate_stage`]).
pub fn try_simulate_strike(
    tech: &Technology,
    gate: &GateElectrical,
    output_high: bool,
    c_load: f64,
    strike: &Strike,
    cfg: &TransientConfig,
) -> Result<Waveform, TransientError> {
    let Some(out_stage) = gate.stages().last() else {
        return Err(TransientError::BadConfig {
            reason: "cell has no stages",
        });
    };
    let vdd = out_stage.vdd;
    // Static input of the output stage that produces the requested state.
    let vin_static = if output_high { 0.0 } else { vdd };
    let v0 = if output_high { vdd } else { 0.0 };
    let sign = if output_high { -1.0 } else { 1.0 };
    let onset = 10.0 * PS;
    let vin = move |_t: f64| vin_static;
    try_simulate_stage(
        tech,
        out_stage,
        &vin,
        c_load,
        Some((strike, sign, onset)),
        v0,
        cfg,
    )
}

/// A measured delay point: propagation delay and output transition time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayMeasurement {
    /// 50%-to-50% propagation delay, seconds.
    pub tpd: f64,
    /// Output transition (slew) time, 20–80% scaled to full swing,
    /// seconds.
    pub out_transition: f64,
}

/// Characterizes propagation delay for a rail-to-rail input ramp of the
/// given transition time, averaged over rising and falling inputs.
///
/// Returns `None` if the output never completes a transition inside the
/// window (pathologically slow cells into huge loads).
pub fn gate_delay(
    tech: &Technology,
    gate: &GateElectrical,
    c_load: f64,
    input_ramp: f64,
    cfg: &TransientConfig,
) -> Option<DelayMeasurement> {
    let vdd = gate.params().vdd;
    let t_start = 20.0 * PS;
    let mut tpds = Vec::with_capacity(2);
    let mut slews = Vec::with_capacity(2);
    for rising in [true, false] {
        let (v_from, v_to) = if rising { (0.0, vdd) } else { (vdd, 0.0) };
        let vin = ramp(v_from, v_to, t_start, input_ramp.max(1.0 * PS));
        let out = simulate_gate(tech, gate, &vin, false, c_load, cfg);
        let t_in_50 = t_start + 0.5 * input_ramp.max(1.0 * PS);
        let t_out_50 = measure::main_crossing(&out, vdd * 0.5, t_in_50)?;
        tpds.push(t_out_50 - t_in_50);
        slews.push(measure::transition_time(&out, vdd)?);
    }
    Some(DelayMeasurement {
        tpd: 0.5 * (tpds[0] + tpds[1]),
        out_transition: 0.5 * (slews[0] + slews[1]),
    })
}

/// Characterizes the width of the glitch a strike of `strike` generates at
/// the cell output into `c_load`, for the given struck state. Width is
/// time spent beyond mid-rail, seconds (0 when the glitch never reaches
/// mid-rail).
pub fn generated_glitch_width(
    tech: &Technology,
    gate: &GateElectrical,
    output_high: bool,
    c_load: f64,
    strike: &Strike,
    cfg: &TransientConfig,
) -> f64 {
    let vdd = gate.params().vdd;
    let out = simulate_strike(tech, gate, output_high, c_load, strike, cfg);
    let nominal = if output_high { vdd } else { 0.0 };
    measure::glitch_width(&out, nominal, vdd)
}

/// Characterizes the width of the output glitch when a glitch of
/// `input_width_50` (width at 50% amplitude) arrives at a sensitized
/// input — the paper's electrical-masking primitive (its Eq. 1 is the
/// analytic approximation of this experiment).
pub fn propagated_glitch_width(
    tech: &Technology,
    gate: &GateElectrical,
    input_width_50: f64,
    input_edge: f64,
    c_load: f64,
    cfg: &TransientConfig,
) -> f64 {
    let vdd = gate.params().vdd;
    if input_width_50 <= 0.0 {
        return 0.0;
    }
    let vin = trapezoid_glitch(0.0, vdd, 20.0 * PS, input_width_50, input_edge);
    let out = simulate_gate(tech, gate, &vin, false, c_load, cfg);
    // Input base low → (final) output nominal is its DC response to low.
    let nominal = out.value_at(0.0);
    measure::glitch_width(&out, nominal, vdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_model::GateParams;
    use crate::units::FF;
    use ser_netlist::GateKind;

    fn tech() -> Technology {
        Technology::ptm70()
    }

    fn inv(size: f64) -> GateElectrical {
        GateElectrical::from_params(&tech(), &GateParams::new(GateKind::Not, 1).with_size(size))
    }

    #[test]
    fn inverter_inverts_a_step() {
        let t = tech();
        let g = inv(1.0);
        let vin = ramp(0.0, 1.0, 20.0 * PS, 10.0 * PS);
        let out = simulate_gate(&t, &g, &vin, false, 2.0 * FF, &TransientConfig::default());
        assert!(out.value_at(0.0) > 0.9, "starts high");
        assert!(out.value_at(out.t_end()) < 0.1, "ends low");
    }

    #[test]
    fn buffer_preserves_polarity() {
        let t = tech();
        let g = GateElectrical::from_params(&t, &GateParams::new(GateKind::Buf, 1));
        let vin = ramp(0.0, 1.0, 20.0 * PS, 10.0 * PS);
        let out = simulate_gate(&t, &g, &vin, false, 2.0 * FF, &TransientConfig::default());
        assert!(out.value_at(0.0) < 0.1);
        assert!(out.value_at(out.t_end()) > 0.9);
    }

    #[test]
    fn delay_is_70nm_scale() {
        let t = tech();
        let g = inv(1.0);
        let d = gate_delay(&t, &g, 1.0 * FF, 20.0 * PS, &TransientConfig::default()).unwrap();
        assert!(
            d.tpd > 1.0 * PS && d.tpd < 100.0 * PS,
            "tpd = {:.1} ps",
            d.tpd / PS
        );
        assert!(d.out_transition > 0.0);
    }

    #[test]
    fn delay_grows_with_load() {
        let t = tech();
        let g = inv(1.0);
        let cfg = TransientConfig::default();
        let d1 = gate_delay(&t, &g, 1.0 * FF, 20.0 * PS, &cfg).unwrap().tpd;
        let d4 = gate_delay(&t, &g, 4.0 * FF, 20.0 * PS, &cfg).unwrap().tpd;
        assert!(d4 > 2.0 * d1, "{} vs {}", d4 / PS, d1 / PS);
    }

    #[test]
    fn delay_shrinks_with_size() {
        let t = tech();
        let cfg = TransientConfig::default();
        let d1 = gate_delay(&t, &inv(1.0), 4.0 * FF, 20.0 * PS, &cfg)
            .unwrap()
            .tpd;
        let d4 = gate_delay(&t, &inv(4.0), 4.0 * FF, 20.0 * PS, &cfg)
            .unwrap()
            .tpd;
        assert!(d4 < d1 / 2.0, "{} vs {}", d4 / PS, d1 / PS);
    }

    #[test]
    fn strike_on_low_node_glitches_up() {
        let t = tech();
        let g = inv(1.0);
        let out = simulate_strike(
            &t,
            &g,
            false,
            2.0 * FF,
            &Strike::charge_fc(16.0),
            &TransientConfig::default(),
        );
        assert!(out.max_excursion_from(0.0) > 0.5, "visible glitch");
        // Node recovers.
        assert!(out.value_at(out.t_end()) < 0.05);
    }

    #[test]
    fn strike_on_high_node_glitches_down() {
        let t = tech();
        let g = inv(1.0);
        let out = simulate_strike(
            &t,
            &g,
            true,
            2.0 * FF,
            &Strike::charge_fc(16.0),
            &TransientConfig::default(),
        );
        assert!(out.max_excursion_from(1.0) > 0.5);
        assert!(out.value_at(out.t_end()) > 0.95);
    }

    #[test]
    fn bigger_gate_generates_narrower_glitch() {
        // Fig. 1's headline trend; a strong enough gate kills the glitch
        // entirely (width 0), which is physical.
        let t = tech();
        let cfg = TransientConfig::default();
        let s = Strike::charge_fc(16.0);
        let w1 = generated_glitch_width(&t, &inv(1.0), false, 2.0 * FF, &s, &cfg);
        let w2 = generated_glitch_width(&t, &inv(2.0), false, 2.0 * FF, &s, &cfg);
        let w8 = generated_glitch_width(&t, &inv(8.0), false, 2.0 * FF, &s, &cfg);
        assert!(w1 > w2 && w2 > 0.0, "{} vs {}", w1 / PS, w2 / PS);
        assert!(w8 < w2);
    }

    #[test]
    fn small_charge_on_strong_gate_makes_no_glitch() {
        let t = tech();
        let cfg = TransientConfig::default();
        let s = Strike::charge_fc(0.5);
        let w = generated_glitch_width(&t, &inv(8.0), false, 8.0 * FF, &s, &cfg);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn wide_glitch_passes_narrow_glitch_dies() {
        // Eq. 1's qualitative regimes.
        let t = tech();
        let cfg = TransientConfig::default();
        let g = inv(1.0);
        let wide = propagated_glitch_width(&t, &g, 200.0 * PS, 10.0 * PS, 2.0 * FF, &cfg);
        let narrow = propagated_glitch_width(&t, &g, 4.0 * PS, 2.0 * PS, 2.0 * FF, &cfg);
        assert!(wide > 150.0 * PS, "wide in ≈ wide out, got {}", wide / PS);
        assert_eq!(narrow, 0.0, "narrow glitch must be filtered");
    }

    #[test]
    fn two_stage_gate_attenuates_more() {
        let t = tech();
        let cfg = TransientConfig::default();
        let nand = GateElectrical::from_params(&t, &GateParams::new(GateKind::Nand, 2));
        let and = GateElectrical::from_params(&t, &GateParams::new(GateKind::And, 2));
        let w_in = 40.0 * PS;
        let w_nand = propagated_glitch_width(&t, &nand, w_in, 10.0 * PS, 2.0 * FF, &cfg);
        let w_and = propagated_glitch_width(&t, &and, w_in, 10.0 * PS, 2.0 * FF, &cfg);
        assert!(
            w_and <= w_nand + 2.0 * PS,
            "{} vs {}",
            w_and / PS,
            w_nand / PS
        );
    }

    #[test]
    fn bad_config_is_a_typed_error_not_a_panic() {
        let t = tech();
        let g = inv(1.0);
        let vin = ramp(0.0, 1.0, 20.0 * PS, 10.0 * PS);
        let cfg = TransientConfig {
            dt: 0.0,
            ..TransientConfig::default()
        };
        let err = try_simulate_gate(&t, &g, &vin, false, 2.0 * FF, &cfg).unwrap_err();
        assert!(matches!(err, TransientError::BadConfig { .. }));
        let cfg = TransientConfig {
            dt: f64::NAN,
            ..TransientConfig::default()
        };
        assert!(try_simulate_gate(&t, &g, &vin, false, 2.0 * FF, &cfg).is_err());
        assert!(try_simulate_gate(&t, &g, &vin, false, -FF, &TransientConfig::default()).is_err());
    }

    #[test]
    fn charge_conservation_glitch_scales_with_q() {
        let t = tech();
        let cfg = TransientConfig::default();
        let g = inv(1.0);
        let w8 = generated_glitch_width(&t, &g, false, 2.0 * FF, &Strike::charge_fc(8.0), &cfg);
        let w16 = generated_glitch_width(&t, &g, false, 2.0 * FF, &Strike::charge_fc(16.0), &cfg);
        let w32 = generated_glitch_width(&t, &g, false, 2.0 * FF, &Strike::charge_fc(32.0), &cfg);
        assert!(w8 < w16 && w16 < w32);
    }
}
