//! Single-tone closed-loop transfer measurement.
//!
//! Reproduces the paper's §5 verification procedure: inject a small
//! sinusoidal reference phase modulation, simulate until the loop's
//! periodic steady state, record an integer number of modulation cycles,
//! and extract the complex ratio `θ/θ_ref` at the tone — one point of
//! the measured `H₀,₀(jω)` curve (the "marks" in Fig. 6).
//!
//! ```no_run
//! use htmpll_core::PllDesign;
//! use htmpll_sim::engine::{SimConfig, SimParams};
//! use htmpll_sim::measure::{measure_h00, MeasureOptions};
//!
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let m = measure_h00(
//!     &SimParams::from_design(&d),
//!     &SimConfig::default(),
//!     0.8, // rad/s
//!     &MeasureOptions::default(),
//! );
//! assert!((m.h.abs() - 1.0).abs() < 0.3); // in-band: near unity
//! ```

use crate::engine::{PllSim, SimConfig, SimParams};
use htmpll_num::Complex;
use htmpll_spectral::goertzel::tone_transfer;

/// Options controlling the tone measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Modulation amplitude as a fraction of the reference period
    /// (small-signal: keep ≪ 1).
    pub amplitude_frac: f64,
    /// Number of modulation cycles to discard while the loop settles.
    pub settle_cycles: usize,
    /// Number of modulation cycles to record and analyze.
    pub measure_cycles: usize,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            // Small enough that the finite-pulse-width deviation from
            // the impulse model (paper Fig. 4) is below the Fig.-6
            // agreement target; error scales linearly with this value.
            amplitude_frac: 1e-3,
            settle_cycles: 12,
            measure_cycles: 16,
        }
    }
}

/// One measured transfer-function point.
#[derive(Debug, Clone, Copy)]
pub struct ToneMeasurement {
    /// The angular frequency actually probed (snapped so the record
    /// spans an integer number of modulation cycles *and* samples).
    pub omega: f64,
    /// Measured complex transfer `θ/θ_ref` at `omega`.
    pub h: Complex,
    /// Peak |θ| during the measurement window (small-signal sanity
    /// check).
    pub peak_theta: f64,
}

/// Measures the closed-loop baseband transfer `H₀,₀(jω)` of the loop
/// described by `params` at (approximately) `omega` rad/s.
///
/// The requested tone is snapped to the nearest frequency whose period
/// is an integer number of output samples, making the Goertzel
/// extraction leakage-free; the snapped value is returned in
/// [`ToneMeasurement::omega`].
///
/// # Panics
///
/// Panics when `omega <= 0` or the options request zero cycles.
pub fn measure_h00(
    params: &SimParams,
    config: &SimConfig,
    omega: f64,
    opts: &MeasureOptions,
) -> ToneMeasurement {
    assert!(omega > 0.0, "probe frequency must be positive");
    assert!(
        opts.measure_cycles > 0,
        "need at least one measurement cycle"
    );
    let dt = params.t_ref / config.samples_per_ref as f64;
    // Snap: one modulation period = integer number of samples.
    let samples_per_cycle = ((2.0 * std::f64::consts::PI / omega) / dt).round().max(2.0);
    let omega_snapped = 2.0 * std::f64::consts::PI / (samples_per_cycle * dt);
    let period = samples_per_cycle * dt;

    let amp = opts.amplitude_frac * params.t_ref;
    let modulation = move |t: f64| amp * (omega_snapped * t).sin();

    let mut sim = PllSim::new(params.clone(), *config);
    if opts.settle_cycles > 0 {
        let _ = sim.run(opts.settle_cycles as f64 * period, &modulation);
    }
    let trace = sim.run(opts.measure_cycles as f64 * period, &modulation);

    // Reference the tone phases to the same absolute time origin: the
    // recorded samples start at t0; rebuild the stimulus on exactly the
    // recorded grid.
    let stim: Vec<f64> = (0..trace.theta_ref.len())
        .map(|k| modulation(trace.t0 + k as f64 * trace.dt))
        .collect();
    let h = tone_transfer(&stim, &trace.theta_vco, omega_snapped, trace.dt);
    let peak_theta = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    ToneMeasurement {
        omega: omega_snapped,
        h,
        peak_theta,
    }
}

/// Measures a **band-conversion** transfer of the closed loop: inject a
/// reference tone at `omega` and read the output phase content at the
/// *shifted* frequency `omega + band·ω₀` — the time-domain counterpart
/// of the HTM element `H_{band,0}(jω)`.
///
/// This goes beyond the paper's §5 verification (which only checked the
/// baseband element): the sampling PFD genuinely creates sidebands at
/// every reference harmonic of the modulation, with complex amplitudes
/// the HTM predicts.
///
/// The probe must keep `2ω/ω₀` away from integers: the image of the
/// real input tone (at `−ω + mω₀`) would otherwise land on the readout
/// frequency and the single-tone measurement becomes degenerate.
///
/// # Panics
///
/// Panics when `omega <= 0`, the readout frequency is non-positive, or
/// the options request zero cycles.
pub fn measure_band_transfer(
    params: &SimParams,
    config: &SimConfig,
    omega: f64,
    band: i64,
    opts: &MeasureOptions,
) -> ToneMeasurement {
    assert!(omega > 0.0, "probe frequency must be positive");
    assert!(
        opts.measure_cycles > 0,
        "need at least one measurement cycle"
    );
    let w0 = 2.0 * std::f64::consts::PI / params.t_ref;
    let dt = params.t_ref / config.samples_per_ref as f64;
    // Snap the *probe* so that both the probe and the readout land on
    // exact DFT-orthogonal frequencies of the record: pick the record
    // length as a whole number of reference periods and a probe with an
    // integer number of cycles in it.
    let cycles = opts.measure_cycles.max(1) as f64;
    // Whole reference periods so the readout at ω + band·ω₀ is also
    // orthogonal over the record.
    let spr = config.samples_per_ref as f64;
    let record = ((cycles * 2.0 * std::f64::consts::PI / omega / dt / spr)
        .round()
        .max(1.0))
        * spr;
    let omega_snapped = 2.0 * std::f64::consts::PI * cycles / (record * dt);
    let readout = omega_snapped + band as f64 * w0;
    assert!(
        readout.abs() > 1e-12 * w0,
        "readout frequency collapsed to DC"
    );

    let amp = opts.amplitude_frac * params.t_ref;
    let modulation = move |t: f64| amp * (omega_snapped * t).sin();

    let mut sim = PllSim::new(params.clone(), *config);
    let period = 2.0 * std::f64::consts::PI / omega_snapped;
    if opts.settle_cycles > 0 {
        let _ = sim.run(opts.settle_cycles as f64 * period, &modulation);
    }
    let trace = sim.run(record * dt, &modulation);

    // Complex amplitude of the *input* tone at ω and the *output* tone
    // at ω + band·ω₀, both referenced to the record's absolute origin.
    let stim: Vec<f64> = (0..trace.theta_vco.len())
        .map(|k| modulation(trace.t0 + k as f64 * trace.dt))
        .collect();
    // `tone_amplitude` references phases to the first sample (absolute
    // time t0); rotate both back to the t = 0 frame so the ratio is the
    // HTM element.
    let u = htmpll_spectral::tone_amplitude(&stim, omega_snapped, trace.dt)
        * Complex::cis(-omega_snapped * trace.t0);
    // Negative readout (band below DC): the content of a real signal at
    // −|f| is the conjugate of its content at +|f|.
    let y = if readout > 0.0 {
        htmpll_spectral::tone_amplitude(&trace.theta_vco, readout, trace.dt)
            * Complex::cis(-readout * trace.t0)
    } else {
        (htmpll_spectral::tone_amplitude(&trace.theta_vco, -readout, trace.dt)
            * Complex::cis(readout * trace.t0))
        .conj()
    };
    let peak_theta = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    ToneMeasurement {
        omega: omega_snapped,
        h: y / u,
        peak_theta,
    }
}

/// Measures `H₀,₀` at many frequencies in a **single** simulation run
/// using an orthogonal multitone (Schroeder-phased multisine) stimulus:
/// for a linear small-signal loop the tones superpose, so one settle +
/// one record replaces a full sweep — an order-of-magnitude speedup for
/// the Fig.-6 style curves.
///
/// The requested frequencies are snapped to distinct DFT bins of the
/// common record (whole reference periods, so band images stay
/// orthogonal too); duplicates after snapping are merged. Schroeder
/// phases `φ_k = −π·k(k−1)/K` keep the crest factor low so the summed
/// stimulus stays in the small-signal regime.
///
/// # Panics
///
/// Panics when `omegas` is empty or contains non-positive entries, or
/// the options request zero cycles.
pub fn measure_h00_multitone(
    params: &SimParams,
    config: &SimConfig,
    omegas: &[f64],
    opts: &MeasureOptions,
) -> Vec<ToneMeasurement> {
    assert!(!omegas.is_empty(), "need at least one probe frequency");
    assert!(
        omegas.iter().all(|&w| w > 0.0),
        "probe frequencies must be positive"
    );
    assert!(
        opts.measure_cycles > 0,
        "need at least one measurement cycle"
    );
    let dt = params.t_ref / config.samples_per_ref as f64;
    let w_min = omegas.iter().cloned().fold(f64::INFINITY, f64::min);
    // Record: enough whole reference periods that the lowest tone
    // completes `measure_cycles` cycles.
    let spr = config.samples_per_ref as f64;
    let record = ((opts.measure_cycles as f64 * 2.0 * std::f64::consts::PI / w_min / dt / spr)
        .ceil()
        .max(1.0))
        * spr;
    let bin = |w: f64| {
        ((w * record * dt) / (2.0 * std::f64::consts::PI))
            .round()
            .max(1.0)
    };
    let mut bins: Vec<f64> = omegas.iter().map(|&w| bin(w)).collect();
    bins.sort_by(f64::total_cmp);
    bins.dedup();
    let tones: Vec<f64> = bins
        .iter()
        .map(|&b| 2.0 * std::f64::consts::PI * b / (record * dt))
        .collect();

    // Schroeder phases for a low crest factor.
    let k_tones = tones.len();
    let phases: Vec<f64> = (0..k_tones)
        .map(|k| -std::f64::consts::PI * (k * k.saturating_sub(1)) as f64 / k_tones as f64)
        .collect();
    let amp = opts.amplitude_frac * params.t_ref / (k_tones as f64).sqrt();
    let tones_cl = tones.clone();
    let phases_cl = phases.clone();
    let modulation = move |t: f64| {
        tones_cl
            .iter()
            .zip(&phases_cl)
            .map(|(&w, &ph)| amp * (w * t + ph).sin())
            .sum::<f64>()
    };

    let mut sim = PllSim::new(params.clone(), *config);
    if opts.settle_cycles > 0 {
        let settle = opts.settle_cycles as f64 * 2.0 * std::f64::consts::PI / w_min;
        let _ = sim.run(settle, &modulation);
    }
    let trace = sim.run(record * dt, &modulation);
    let stim: Vec<f64> = (0..trace.theta_vco.len())
        .map(|k| modulation(trace.t0 + k as f64 * trace.dt))
        .collect();
    let peak_theta = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    tones
        .iter()
        .map(|&w| ToneMeasurement {
            omega: w,
            h: tone_transfer(&stim, &trace.theta_vco, w, trace.dt),
            peak_theta,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_core::{PllDesign, PllModel};

    #[test]
    fn matches_htm_prediction_in_band() {
        // The paper's Fig.-6 agreement claim (within a few percent).
        let d = PllDesign::reference_design(0.1).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let params = SimParams::from_design(&d);
        let cfg = SimConfig::default();
        for w in [0.3, 1.0] {
            let m = measure_h00(&params, &cfg, w, &MeasureOptions::default());
            let predict = model.h00(m.omega);
            let err = (m.h - predict).abs() / predict.abs();
            assert!(
                err < 0.05,
                "w={w}: sim {} vs htm {predict} (err {err})",
                m.h
            );
        }
    }

    #[test]
    fn lti_model_fails_where_htm_succeeds() {
        // At a fast ratio the LTI prediction misses the simulated
        // response while the HTM one tracks it — the paper's headline.
        let d = PllDesign::reference_design(0.25).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let params = SimParams::from_design(&d);
        let cfg = SimConfig::default();
        let w = 1.4; // near the passband edge where peaking appears
        let m = measure_h00(&params, &cfg, w, &MeasureOptions::default());
        let htm = model.h00(m.omega);
        let lti = model.h00_lti(m.omega);
        let err_htm = (m.h - htm).abs() / m.h.abs();
        let err_lti = (m.h - lti).abs() / m.h.abs();
        assert!(err_htm < 0.1, "HTM should match: {err_htm}");
        assert!(
            err_lti > 3.0 * err_htm,
            "LTI should be much worse: {err_lti} vs {err_htm}"
        );
    }

    #[test]
    fn measurement_is_small_signal() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let params = SimParams::from_design(&d);
        let m = measure_h00(
            &params,
            &SimConfig::default(),
            0.5,
            &MeasureOptions::default(),
        );
        assert!(m.peak_theta < 0.05 * params.t_ref);
    }

    #[test]
    fn band_transfer_matches_htm_prediction() {
        // The off-diagonal validation the paper did not run: sidebands
        // at ω ± ω₀ of the modulation, amplitude AND phase, vs H_{±1,0}.
        let d = PllDesign::reference_design(0.2).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let params = SimParams::from_design(&d);
        let cfg = SimConfig::default();
        let opts = MeasureOptions {
            amplitude_frac: 2e-4,
            settle_cycles: 16,
            measure_cycles: 24,
        };
        let w = 0.7; // 2ω/ω₀ = 0.28: far from the degenerate integers
        for band in [1i64, -1, 2] {
            let m = measure_band_transfer(&params, &cfg, w, band, &opts);
            let predict = model.h_band(band, m.omega);
            let err = (m.h - predict).abs() / predict.abs();
            assert!(
                err < 0.05,
                "band {band}: sim {} vs htm {predict} (err {err:.4})",
                m.h
            );
        }
    }

    #[test]
    fn band_zero_reduces_to_h00_measurement() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let params = SimParams::from_design(&d);
        let m = measure_band_transfer(
            &params,
            &SimConfig::default(),
            0.6,
            0,
            &MeasureOptions::default(),
        );
        let predict = model.h00(m.omega);
        assert!(
            (m.h - predict).abs() < 0.03 * predict.abs(),
            "{} vs {predict}",
            m.h
        );
    }

    #[test]
    fn multitone_matches_single_tone_sweep() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let params = SimParams::from_design(&d);
        let cfg = SimConfig::default();
        let opts = MeasureOptions {
            amplitude_frac: 5e-4,
            settle_cycles: 10,
            measure_cycles: 12,
        };
        let omegas = [0.3, 0.8, 1.7, 3.1];
        let multi = measure_h00_multitone(&params, &cfg, &omegas, &opts);
        assert_eq!(multi.len(), omegas.len());
        for m in &multi {
            let predict = model.h00(m.omega);
            let err = (m.h - predict).abs() / predict.abs();
            assert!(
                err < 0.05,
                "w={}: multi {} vs htm {predict} (err {err:.4})",
                m.omega,
                m.h
            );
        }
    }

    #[test]
    fn multitone_dedupes_colliding_bins() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let params = SimParams::from_design(&d);
        let opts = MeasureOptions {
            settle_cycles: 1,
            measure_cycles: 2,
            ..MeasureOptions::default()
        };
        // Two requests that snap to the same bin collapse to one tone.
        let res = measure_h00_multitone(&params, &SimConfig::default(), &[1.0, 1.0000001], &opts);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn frequency_snapping() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let params = SimParams::from_design(&d);
        let cfg = SimConfig::default();
        let dt = params.t_ref / cfg.samples_per_ref as f64;
        let m = measure_h00(
            &params,
            &cfg,
            0.73,
            &MeasureOptions {
                settle_cycles: 2,
                measure_cycles: 2,
                ..MeasureOptions::default()
            },
        );
        let samples_per_cycle = 2.0 * std::f64::consts::PI / (m.omega * dt);
        assert!((samples_per_cycle - samples_per_cycle.round()).abs() < 1e-9);
        assert!((m.omega - 0.73).abs() < 0.05);
    }
}
