//! Sample-by-sample waveform validation: the closed-loop HTM predicts
//! the **entire periodic steady-state waveform** (all sidebands), not
//! just scalar transfer magnitudes. Synthesize it and hold it against
//! the raw simulator trace.

use htmpll::core::{PllDesign, PllModel};
use htmpll::htm::{tone_response, Truncation};
use htmpll::num::Complex;
use htmpll::sim::{PllSim, SimConfig, SimParams};

#[test]
fn htm_synthesized_waveform_matches_simulator_trace() {
    let ratio = 0.2;
    let design = PllDesign::reference_design(ratio).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let params = SimParams::from_design(&design);
    let cfg = SimConfig::default();
    let t_ref = params.t_ref;

    // Stimulus: a small reference phase tone, commensurate with the
    // sample grid so the steady state is strictly periodic over the
    // record.
    let dt = t_ref / cfg.samples_per_ref as f64;
    let w = {
        let samples_per_cycle = ((2.0 * std::f64::consts::PI / 0.9) / dt).round();
        2.0 * std::f64::consts::PI / (samples_per_cycle * dt)
    };
    let amp = 2e-4 * t_ref;
    let modulation = move |t: f64| amp * (w * t).sin();

    let mut sim = PllSim::new(params, cfg);
    let _ = sim.run(400.0 * t_ref, &modulation); // settle to periodic SS
    let trace = sim.run(60.0 * t_ref, &modulation);

    // HTM synthesis: input sin(ωt) has positive-frequency amplitude
    // amp/(2j) in band 0; the output's analytic half is the HTM column.
    let (htm, _) = model
        .closed_loop_htm(Complex::from_im(w), Truncation::new(24))
        .unwrap();
    let u = Complex::from_re(amp) / Complex::new(0.0, 2.0);
    let spec = tone_response(&htm, w, 0, u);

    let ts: Vec<f64> = (0..trace.theta_vco.len())
        .map(|k| trace.t0 + k as f64 * trace.dt)
        .collect();
    let predicted = spec.waveform_real(&ts);

    // Pointwise comparison across ~1900 samples: the HTM comb must
    // reproduce the simulated waveform including its once-per-period
    // ripple, to within the truncation + pulse-width budget.
    let rms_sim = (trace.theta_vco.iter().map(|v| v * v).sum::<f64>() / ts.len() as f64).sqrt();
    let rms_err = (trace
        .theta_vco
        .iter()
        .zip(&predicted)
        .map(|(s, p)| (s - p) * (s - p))
        .sum::<f64>()
        / ts.len() as f64)
        .sqrt();
    assert!(
        rms_err < 0.05 * rms_sim,
        "waveform RMS error {rms_err:.3e} vs signal RMS {rms_sim:.3e}"
    );

    // And the ripple is genuinely there: the waveform is NOT the pure
    // baseband sinusoid (the LTI picture); sidebands carry visible power.
    let baseband_only: Vec<f64> = ts
        .iter()
        .map(|&t| 2.0 * (spec.amplitude(0) * Complex::cis(w * t)).re)
        .collect();
    let rms_ripple = (trace
        .theta_vco
        .iter()
        .zip(&baseband_only)
        .map(|(s, p)| (s - p) * (s - p))
        .sum::<f64>()
        / ts.len() as f64)
        .sqrt();
    assert!(
        rms_ripple > 3.0 * rms_err,
        "sideband ripple {rms_ripple:.3e} should dominate the residual {rms_err:.3e}"
    );
}
