//! Validation of the §3.3 time-varying-VCO machinery against the
//! behavioral simulator — the experiment the paper itself skipped
//! (its §5 uses a time-invariant VCO).
//!
//! The simulator modulates the VCO gain over its cycle,
//! `K(Φ) = K_vco·(1 + a₁·cos(2πΦ))`; with `N = 1` and the loop locked,
//! the paper's ISF model maps this to the Fourier coefficients
//! `v₀ = K_vco/ω₀`, `v_{±1} = v₀·a₁/2` of `v(t)` — the inputs to
//! `PllModel::with_vco_isf`.

use htmpll::core::{PllDesign, PllModel};
use htmpll::num::Complex;
use htmpll::sim::{measure_band_transfer, measure_h00, MeasureOptions, SimConfig, SimParams};

fn tv_setup(ratio: f64, a1: f64) -> (PllModel, SimParams) {
    let design = PllDesign::reference_design(ratio).unwrap();
    let v0 = design.v0();
    let model = PllModel::builder(design.clone())
        .vco_isf(vec![
            Complex::from_re(0.5 * a1 * v0),
            Complex::from_re(v0),
            Complex::from_re(0.5 * a1 * v0),
        ])
        .build()
        .unwrap();
    let mut params = SimParams::from_design(&design);
    params.isf_cosine = vec![a1];
    (model, params)
}

/// The time-varying λ (truncated Ṽ column sum) against the simulated
/// baseband transfer.
#[test]
fn tv_vco_h00_matches_simulation() {
    let (model, params) = tv_setup(0.15, 0.6);
    let cfg = SimConfig::default();
    let opts = MeasureOptions {
        amplitude_frac: 2e-4,
        settle_cycles: 16,
        measure_cycles: 24,
    };
    let trunc = htmpll::htm::Truncation::new(30);
    for &w in &[0.4, 1.0, 2.0] {
        let m = measure_h00(&params, &cfg, w, &opts);
        let predict = model
            .closed_loop_htm(Complex::from_im(m.omega), trunc)
            .unwrap()
            .0
            .band(0, 0);
        let err = (m.h - predict).abs() / predict.abs();
        assert!(
            err < 0.05,
            "w={w}: sim {} vs htm {predict} (err {err:.4})",
            m.h
        );
    }
}

/// The ISF's ±1 harmonics open extra band-conversion paths; their
/// measured amplitudes must track the TV model and *differ* from the
/// time-invariant model's.
#[test]
fn tv_vco_band_conversion_matches_model() {
    let ratio = 0.15;
    let a1 = 0.6;
    let (model, params) = tv_setup(ratio, a1);
    let ti_model = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
        .build()
        .unwrap();
    let cfg = SimConfig::default();
    let opts = MeasureOptions {
        amplitude_frac: 2e-4,
        settle_cycles: 16,
        measure_cycles: 24,
    };
    let w = 0.7;
    let trunc = htmpll::htm::Truncation::new(30);
    for band in [1i64, -1] {
        let m = measure_band_transfer(&params, &cfg, w, band, &opts);
        let htm = model
            .closed_loop_htm(Complex::from_im(m.omega), trunc)
            .unwrap()
            .0
            .band(band, 0);
        let ti = ti_model
            .closed_loop_htm(Complex::from_im(m.omega), trunc)
            .unwrap()
            .0
            .band(band, 0);
        let err = (m.h - htm).abs() / htm.abs();
        assert!(
            err < 0.07,
            "band {band}: sim {} vs tv-htm {htm} (err {err:.4})",
            m.h
        );
        // The TV path must be a materially better prediction than the
        // TI one.
        let err_ti = (m.h - ti).abs() / m.h.abs();
        assert!(
            err_ti > 3.0 * err,
            "band {band}: TI model should be much worse ({err_ti:.4} vs {err:.4})"
        );
    }
}

/// Sanity: with a zero ISF modulation the TV-configured simulator
/// reduces exactly to the time-invariant one.
#[test]
fn zero_isf_modulation_is_time_invariant() {
    let design = PllDesign::reference_design(0.1).unwrap();
    let mut params = SimParams::from_design(&design);
    params.isf_cosine = vec![0.0, 0.0];
    let m = measure_h00(
        &params,
        &SimConfig::default(),
        0.8,
        &MeasureOptions::default(),
    );
    let model = PllModel::builder(design).build().unwrap();
    let predict = model.h00(m.omega);
    assert!((m.h - predict).abs() < 0.02 * predict.abs());
}

/// `lambda_tv` sums the ISF model's `Ṽ` column: at `ω_UG = 0.1·ω₀` it
/// departs from the `v₀`-only `lambda()` by more than 5 %, and its
/// truncation tail shrinks at least like O(1/K).
#[test]
fn lambda_tv_sums_the_time_varying_column() {
    let (model, _) = tv_setup(0.1, 0.6);
    let s = Complex::from_im(0.1 * model.design().omega_ref());
    let tv = |k: usize| model.lambda_tv(s, htmpll::htm::Truncation::new(k));
    let ti = model.lambda().eval(s).abs();
    let at200 = tv(200).abs();
    assert!(
        (at200 - ti).abs() > 0.05 * ti,
        "|λ_tv(200)| = {at200} vs |λ| = {ti}"
    );
    let steps: Vec<f64> = [50, 100, 200]
        .iter()
        .map(|&k| (tv(k) - tv(2 * k)).abs())
        .collect();
    for pair in steps.windows(2) {
        assert!(
            pair[1] <= 0.6 * pair[0],
            "tail steps {steps:?} shrink slower than O(1/K)"
        );
    }
}
