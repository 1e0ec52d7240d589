//! Integration tests: the paper's core claims, end to end.
//!
//! Each test ties at least two workspace crates together and checks one
//! of the DATE-2003 paper's experimental claims at the system level.

use htmpll::core::{analyze, AnalysisReport, PllDesign, PllModel};
use htmpll::htm::Truncation;
use htmpll::num::Complex;
use htmpll::par::{Deadline, ThreadBudget};
use htmpll::sim::{measure_h00, MeasureOptions, SimConfig, SimParams};
use htmpll::zdomain::{reference_design_stability_limit, CpPllZModel};

fn reference_report(ratio: f64) -> AnalysisReport {
    let m = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
        .build()
        .unwrap();
    analyze(&m, ThreadBudget::Auto, &Deadline::none()).unwrap()
}

/// Paper §5 / Fig. 6: HTM closed-loop prediction vs time-marching
/// simulation, "within 2 %", across ratios and frequencies.
#[test]
fn htm_vs_simulation_agreement() {
    for &ratio in &[0.1, 0.2] {
        let design = PllDesign::reference_design(ratio).unwrap();
        let model = PllModel::builder(design.clone()).build().unwrap();
        let params = SimParams::from_design(&design);
        let cfg = SimConfig::default();
        for &w in &[0.4, 1.0, 2.0] {
            let m = measure_h00(&params, &cfg, w, &MeasureOptions::default());
            let predict = model.h00(m.omega);
            let err = (m.h - predict).abs() / predict.abs();
            assert!(
                err < 0.03,
                "ratio {ratio}, w {w}: sim {h} vs htm {predict} (err {err:.4})",
                h = m.h
            );
        }
    }
}

/// Fig. 6 qualitative shape: as ω_UG/ω₀ grows, the effective bandwidth
/// shifts right and passband-edge peaking worsens.
#[test]
fn fig6_shape_bandwidth_and_peaking() {
    // Peaking is flat (slightly dipping) for very slow loops and blows
    // up approaching the sampling stability limit — the paper's Fig.-6
    // claim concerns the fast-loop regime, so start the sweep at 0.1.
    let ratios = [0.1, 0.2, 0.25];
    let reports: Vec<_> = ratios.iter().map(|&r| reference_report(r)).collect();
    // "The effective bandwidth shifts to the right": every fast loop's
    // −3 dB point sits well above the LTI prediction (which is
    // ratio-independent for this fixed shape). The crossing itself is
    // not monotone point-to-point because the band-edge notch moves;
    // the monotone quantity is ω_UG,eff, asserted in the Fig.-7 test.
    let lti_model = PllModel::builder(PllDesign::reference_design(0.01).unwrap())
        .build()
        .unwrap();
    let bw_lti = htmpll::lti::bandwidth_3db(|w| lti_model.h00_lti(w), 1e-4, 1e-4, 100.0)
        .expect("LTI bandwidth");
    for (r, rep) in ratios.iter().zip(&reports) {
        let bw = rep.bandwidth_3db.expect("bandwidth");
        assert!(
            bw > 1.1 * bw_lti,
            "ratio {r}: bandwidth {bw} not right-shifted vs LTI {bw_lti}"
        );
    }
    // "Peaking at the passband's edge becomes worse."
    for pair in reports.windows(2) {
        assert!(
            pair[1].peaking_db > pair[0].peaking_db,
            "peaking must worsen: {} then {}",
            pair[0].peaking_db,
            pair[1].peaking_db
        );
    }
}

/// Fig. 7 shape: ω_UG,eff/ω_UG ≥ 1 and grows; the phase margin of λ
/// degrades rapidly while the LTI line stays flat.
#[test]
fn fig7_shape_effective_margins() {
    let ratios = [0.05, 0.1, 0.15, 0.2, 0.25];
    let reports: Vec<_> = ratios.iter().map(|&r| reference_report(r)).collect();
    for (r, rep) in ratios.iter().zip(&reports) {
        assert!(
            rep.omega_ug_eff >= 0.999 * rep.omega_ug_lti,
            "ratio {r}: eff crossover below LTI"
        );
        assert!((rep.phase_margin_lti_deg - reports[0].phase_margin_lti_deg).abs() < 1e-6);
    }
    for pair in reports.windows(2) {
        assert!(pair[1].phase_margin_eff_deg < pair[0].phase_margin_eff_deg);
        assert!(
            pair[1].omega_ug_eff / pair[1].omega_ug_lti
                >= pair[0].omega_ug_eff / pair[0].omega_ug_lti - 1e-9
        );
    }
    // The paper's calibration point: around ω_UG/ω₀ = 0.1 the margin is
    // already visibly (≳5 %) worse than the LTI prediction.
    let at_01 = &reports[1];
    assert!(
        at_01.phase_margin_degradation_rel() > 0.05,
        "degradation at 0.1: {}",
        at_01.phase_margin_degradation_rel()
    );
}

/// The HTM strip-Nyquist verdict and the Hein–Scott z-domain Jury
/// verdict describe the same sampled system: their stability boundaries
/// must coincide.
#[test]
fn htm_and_zdomain_stability_boundaries_agree() {
    let z_limit = reference_design_stability_limit(0.05, 0.6, 1e-3);
    // HTM verdicts straddle the z-domain boundary.
    let below = reference_report(z_limit - 0.01);
    let above = reference_report(z_limit + 0.01);
    assert!(
        below.nyquist_stable,
        "HTM should agree stable below {z_limit}"
    );
    assert!(
        !above.nyquist_stable,
        "HTM should agree unstable above {z_limit}"
    );
}

/// The z-domain closed-loop response at the sampling instants agrees
/// with the HTM baseband response at low frequencies (both models track
/// DC perfectly and roll off together in-band).
#[test]
fn zdomain_and_htm_responses_agree_in_band() {
    let design = PllDesign::reference_design(0.1).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let zm = CpPllZModel::from_design(&design).unwrap();
    for &w in &[0.01, 0.05, 0.2] {
        let h_htm = model.h00(w);
        let h_z = zm.h_sampled(w).unwrap();
        assert!(
            (h_htm - h_z).abs() < 0.05 * h_htm.abs(),
            "w={w}: htm {h_htm} vs z {h_z}"
        );
    }
}

/// LTI limit: for a very slow loop every model in the workspace
/// collapses to the textbook answer.
#[test]
fn all_models_collapse_in_the_slow_loop_limit() {
    let design = PllDesign::reference_design(0.01).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let zm = CpPllZModel::from_design(&design).unwrap();
    for &w in &[0.1, 0.5, 1.0] {
        let lti = model.h00_lti(w);
        let htm = model.h00(w);
        let z = zm.h_sampled(w).unwrap();
        assert!(
            (htm - lti).abs() < 0.03 * lti.abs(),
            "w={w}: {htm} vs {lti}"
        );
        assert!((z - lti).abs() < 0.05 * lti.abs(), "w={w}: {z} vs {lti}");
    }
}

/// The rank-one (Sherman–Morrison) closed form and the dense LU path
/// agree on the full closed-loop HTM, for both time-invariant and
/// time-varying VCOs — paper eq. 31–34 against eq. 28.
#[test]
fn closed_forms_match_dense_inversion() {
    let design = PllDesign::reference_design(0.2).unwrap();
    let v0 = design.v0();
    let models = [
        PllModel::builder(design.clone()).build().unwrap(),
        PllModel::builder(design)
            .vco_isf(vec![
                Complex::new(0.3 * v0, 0.1 * v0),
                Complex::from_re(v0),
                Complex::new(0.3 * v0, -0.1 * v0),
            ])
            .build()
            .unwrap(),
    ];
    let t = Truncation::new(7);
    for model in &models {
        for &(re, im) in &[(0.0, 0.35), (0.01, 1.2)] {
            let s = Complex::new(re, im);
            let (fast, _) = model.closed_loop_htm(s, t).unwrap();
            let dense = model.open_loop_htm(s, t).closed_loop().unwrap();
            assert!(fast.as_matrix().max_diff(dense.as_matrix()) < 1e-10);
        }
    }
}

/// Truncation convergence: the HTM-element estimate of H₀,₀ approaches
/// the exact lattice-sum value as the truncation order grows.
#[test]
fn truncation_convergence_to_exact_lambda() {
    let model = PllModel::builder(PllDesign::reference_design(0.15).unwrap())
        .build()
        .unwrap();
    let w = 0.7;
    let exact = model.h00(w);
    let mut last_err = f64::INFINITY;
    for k in [5usize, 20, 80] {
        let (htm, _) = model
            .closed_loop_htm(Complex::from_im(w), Truncation::new(k))
            .unwrap();
        let err = (htm.band(0, 0) - exact).abs();
        assert!(
            err < last_err + 1e-12,
            "K={k}: err {err} vs previous {last_err}"
        );
        last_err = err;
    }
    assert!(last_err < 5e-3 * exact.abs());
}

/// Third-order loop filter end to end: the HTM prediction built from a
/// generic filter transfer function must match the behavioral simulator
/// (which integrates the same filter in state-space form).
#[test]
fn third_order_filter_htm_vs_simulation() {
    use htmpll::core::LoopFilter;
    use htmpll::lti::ChargePumpFilter3;

    // Third-order filter with the same zero/pole backbone as the
    // reference design, plus a smoothing section well above crossover.
    let base = htmpll::lti::ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0).unwrap();
    // Light smoothing section: 2 % capacitive loading, pole at 50 rad/s
    // (50× the crossover) so the loop stays essentially the reference
    // design.
    let filt = ChargePumpFilter3::new(base.r(), base.c1(), base.c2(), 1.0, 0.02).unwrap();
    let ratio = 0.1;
    let omega0 = 1.0 / ratio;
    let design = PllDesign::builder()
        .f_ref(omega0 / (2.0 * std::f64::consts::PI))
        .icp(PllDesign::reference_design(ratio).unwrap().icp())
        .kvco(1.0)
        .divider(1.0)
        .filter(LoopFilter::ThirdOrder(filt))
        .build()
        .unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let params = SimParams::from_design(&design);
    for &w in &[0.4, 1.1] {
        let m = measure_h00(
            &params,
            &SimConfig::default(),
            w,
            &MeasureOptions::default(),
        );
        let predict = model.h00(m.omega);
        let err = (m.h - predict).abs() / predict.abs();
        assert!(
            err < 0.03,
            "w={w}: sim {} vs htm {predict} (err {err:.4})",
            m.h
        );
    }
}

/// Exact delay HTM block vs the Padé-rationalized model: the dense
/// closed loop built with `DelayHtm` must agree with the rank-one
/// closed form of `PllModel::with_loop_delay`.
#[test]
fn delay_block_dense_path_matches_pade_rank_one() {
    use htmpll::htm::{DelayHtm, HtmBlock, LtiHtm, SamplerHtm, VcoHtm};

    let design = PllDesign::reference_design(0.15).unwrap();
    let w0 = design.omega_ref();
    let tau = 0.2 / design.f_ref(); // 0.2·T of loop latency
    let pade_model = PllModel::builder(design.clone())
        .loop_delay(tau, 6)
        .build()
        .unwrap();

    let pfd = SamplerHtm::new(w0);
    let lf = LtiHtm::new(design.loop_filter_tf(), w0);
    let vco = VcoHtm::time_invariant(design.v0(), w0);
    let delay = DelayHtm::new(tau, w0);
    let err_at = |k: usize, w: f64| {
        let t = Truncation::new(k);
        let s = Complex::from_im(w);
        let g = &(&(&vco.htm(s, t) * &delay.htm(s, t)) * &lf.htm(s, t)) * &pfd.htm(s, t);
        let dense = g.closed_loop().unwrap();
        let (fast, _) = pade_model.closed_loop_htm(s, t).unwrap();
        dense.as_matrix().max_diff(fast.as_matrix())
    };
    for &w in &[0.3, 1.0] {
        // The two paths agree down to the Padé-vs-exact-delay floor in
        // the high aliases (|u|τ past the approximant order), ~1e−3 for
        // order 6 at this τ; λ-truncation differences sit below that.
        for k in [10usize, 40] {
            let err = err_at(k, w);
            assert!(err < 5e-3, "w={w}, K={k}: dense-vs-pade err {err}");
        }
    }
}

/// Noise folding end to end: drive the simulator with white reference
/// edge jitter and compare the measured output phase PSD against the
/// HTM-shaped prediction `|H₀,₀(jω)|²·S_in` across the loop band.
#[test]
fn jitter_psd_matches_htm_shaping() {
    use htmpll::sim::PllSim;
    use htmpll::spectral::{welch, Window};

    let design = PllDesign::reference_design(0.15).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let t_ref = 1.0 / design.f_ref();
    let jitter_rms = 1e-4 * t_ref;
    let cfg = SimConfig {
        ref_jitter_rms: jitter_rms,
        ..SimConfig::default()
    };
    let mut sim = PllSim::new(SimParams::from_design(&design), cfg);
    let _ = sim.run(300.0 * t_ref, &|_| 0.0);
    let trace = sim.run(6000.0 * t_ref, &|_| 0.0);
    let psd = welch(&trace.theta_vco, 1.0 / trace.dt, 4096, Window::Hann).expect("psd");

    // White edge jitter sampled once per T: one-sided input PSD 2σ²T.
    let s_in = 2.0 * jitter_rms * jitter_rms * t_ref;
    let band = |f_lo: f64, f_hi: f64| -> (f64, f64) {
        let mut meas = 0.0;
        let mut pred = 0.0;
        let mut n = 0usize;
        for &(f, p) in &psd {
            if f >= f_lo && f <= f_hi {
                meas += p;
                pred += model.h00(2.0 * std::f64::consts::PI * f).norm_sqr() * s_in;
                n += 1;
            }
        }
        (meas / n as f64, pred / n as f64)
    };
    // Three bands spanning in-band, the peaking region, and the rolloff.
    for (lo, hi) in [(0.01, 0.05), (0.12, 0.25), (0.3, 0.45)] {
        let (meas, pred) = band(lo, hi);
        let ratio = meas / pred;
        assert!(
            (0.6..1.7).contains(&ratio),
            "band {lo}-{hi} Hz: measured {meas:.3e} vs predicted {pred:.3e} (×{ratio:.2})"
        );
    }
}

/// Fractional-N: a MASH-driven divider locks the loop to (N+frac)·f_ref
/// with the sigma-delta quantization noise shaped up in frequency and
/// cut by the closed loop.
#[test]
fn fractional_n_locks_and_shapes_noise() {
    use htmpll::sim::{Mash111, PllSim};
    use htmpll::spectral::{welch, Window};

    let base = PllDesign::reference_design(0.1).unwrap();
    let n_int = 256.0;
    let design = PllDesign::builder()
        .f_ref(base.f_ref())
        .icp(base.icp() * n_int)
        .kvco(base.kvco())
        .divider(n_int)
        .filter(base.filter().clone())
        .build()
        .unwrap();
    let mut mash = Mash111::new(0.37, 1 << 20, 0x9e37).unwrap();
    let mut params = SimParams::from_design(&design);
    params.div_sequence = Some(mash.sequence(1 << 14));
    params.f_center = (n_int + mash.realized_fraction()) * design.f_ref();

    let t_ref = params.t_ref;
    let mut sim = PllSim::new(params.clone(), SimConfig::default());
    let _ = sim.run(400.0 * t_ref, &|_| 0.0);
    let trace = sim.run(3000.0 * t_ref, &|_| 0.0);

    // Exact fractional lock: θ (referenced to integer N) ramps at frac/N.
    let n_s = trace.theta_vco.len();
    let drift = (trace.theta_vco[n_s - 1] - trace.theta_vco[0]) / (n_s as f64 * trace.dt);
    let expect = mash.realized_fraction() / n_int;
    assert!(
        (drift - expect).abs() < 0.05 * expect,
        "{drift} vs {expect}"
    );

    // Detrended PSD shows the shaped-noise rise: ≥ factor 100 from the
    // 0.02 band to the 0.1 band (ideal third-order shaping: 625).
    let centered = trace.detrended_theta();
    let psd = welch(&centered, 1.0 / trace.dt, 2048, Window::Hann).expect("psd");
    let f_ref = 1.0 / t_ref;
    let band = |lo: f64, hi: f64| {
        let sel: Vec<f64> = psd
            .iter()
            .filter(|(f, _)| *f > lo * f_ref && *f < hi * f_ref)
            .map(|&(_, p)| p)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    let low = band(0.015, 0.025);
    let high = band(0.08, 0.12);
    assert!(
        high / low > 100.0,
        "shaped-noise rise too weak: {low:.3e} → {high:.3e} ({}×)",
        high / low
    );
}

/// The analytic leakage-spur closed form `θ̃_k = −A(jkω₀)·θ_static`
/// (core::spurs) against the measured spur line in the simulated phase
/// PSD — agreement to ~1 %.
#[test]
fn leakage_spur_prediction_matches_sim() {
    use htmpll::core::LeakageSpurs;
    use htmpll::sim::PllSim;
    use htmpll::spectral::{band_power, periodogram, Window};

    for &ratio in &[0.1, 0.2] {
        let d = PllDesign::reference_design(ratio).unwrap();
        let model = PllModel::builder(d.clone()).build().unwrap();
        let mut params = SimParams::from_design(&d);
        params.leakage = 1e-3 * params.i_cp;
        let t_ref = params.t_ref;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let _ = sim.run(500.0 * t_ref, &|_| 0.0);
        let trace = sim.run(2048.0 * t_ref, &|_| 0.0);
        let mean = trace.theta_vco.iter().sum::<f64>() / trace.theta_vco.len() as f64;
        let centered: Vec<f64> = trace.theta_vco.iter().map(|v| v - mean).collect();
        let psd = periodogram(&centered, 1.0 / trace.dt, Window::Hann).expect("psd");
        let f_ref = 1.0 / t_ref;
        let measured = band_power(&psd, 0.97 * f_ref, 1.03 * f_ref);
        let predicted = LeakageSpurs::new(&model, params.leakage).line_power(1);
        let err = (measured / predicted - 1.0).abs();
        assert!(
            err < 0.05,
            "ratio {ratio}: sim {measured:.4e} vs predicted {predicted:.4e} (err {err:.3})"
        );
    }
}

/// Generalized-Nyquist reduction: the PLL open-loop HTM's eigenvalue
/// spectrum contains exactly one nonzero locus, and it equals the
/// (truncated) effective gain λ(jω) — the matrix-level fact behind the
/// paper's scalar closed forms.
#[test]
fn open_loop_htm_eigenvalues_reduce_to_lambda() {
    use htmpll::htm::{HtmBlock, LtiHtm, SamplerHtm, VcoHtm};

    let design = PllDesign::reference_design(0.2).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let w0 = design.omega_ref();
    let t = Truncation::new(8);
    let pfd = SamplerHtm::new(w0);
    let lf = LtiHtm::new(design.loop_filter_tf(), w0);
    let vco = VcoHtm::time_invariant(design.v0(), w0);
    for &w in &[0.3, 1.0, 2.0] {
        let s = Complex::from_im(w);
        let g = &(&vco.htm(s, t) * &lf.htm(s, t)) * &pfd.htm(s, t);
        let evs = g.eigenvalues().unwrap();
        let lambda_truncated: Complex = model.v_column(s, t).iter().copied().sum();
        let nonzero: Vec<_> = evs
            .iter()
            .filter(|e| e.abs() > 1e-8 * (1.0 + lambda_truncated.abs()))
            .collect();
        assert_eq!(nonzero.len(), 1, "w={w}: {evs:?}");
        assert!(
            (*nonzero[0] - lambda_truncated).abs() < 1e-8 * (1.0 + lambda_truncated.abs()),
            "w={w}: eig {} vs λ {lambda_truncated}",
            nonzero[0]
        );
    }
}

/// VCO-noise validation: drive the simulator's oscillator with white FM
/// noise (Brownian phase) and compare the closed-loop output phase PSD
/// against the noise model's VCO path (high-pass `|1 − H₀,₀|²` shaping
/// plus folding).
#[test]
fn vco_noise_psd_matches_htm_shaping() {
    use htmpll::core::NoiseModel;
    use htmpll::sim::PllSim;
    use htmpll::spectral::{welch, Window};

    let design = PllDesign::reference_design(0.1).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let t_ref = 1.0 / design.f_ref();
    let s_ff = 1e-7; // one-sided white-FM PSD, Hz²/Hz
    let cfg = SimConfig {
        vco_fm_psd: s_ff,
        ..SimConfig::default()
    };
    let mut sim = PllSim::new(SimParams::from_design(&design), cfg);
    let _ = sim.run(300.0 * t_ref, &|_| 0.0);
    let trace = sim.run(6000.0 * t_ref, &|_| 0.0);
    let psd = welch(&trace.theta_vco, 1.0 / trace.dt, 4096, Window::Hann).expect("psd");

    // Free-running VCO phase in time units: Brownian of rate S/2
    // (cycles²/s) scaled by (T/N)² ⇒ S_θ(ω) = (T/N)²·S/ω².
    let n_div = design.divider();
    let vco_shape = move |w: f64| (t_ref / n_div).powi(2) * s_ff / (w * w).max(1e-12);
    let noise = NoiseModel::new(&model, 8);

    let band = |f_lo: f64, f_hi: f64| -> (f64, f64) {
        let mut meas = 0.0;
        let mut pred = 0.0;
        let mut n = 0usize;
        for &(f, p) in &psd {
            if f >= f_lo && f <= f_hi {
                meas += p;
                pred += noise.output_psd(2.0 * std::f64::consts::PI * f, &|_| 0.0, &vco_shape);
                n += 1;
            }
        }
        (meas / n as f64, pred / n as f64)
    };
    // In-band (loop suppresses), near crossover, and pass-through region.
    for (lo, hi) in [(0.02, 0.06), (0.12, 0.2), (0.3, 0.45)] {
        let (meas, pred) = band(lo, hi);
        let ratio = meas / pred;
        assert!(
            (0.6..1.7).contains(&ratio),
            "band {lo}-{hi} Hz: measured {meas:.3e} vs predicted {pred:.3e} (×{ratio:.2})"
        );
    }
}

/// Broadband measurement: one simulator run driven by a dense random
/// multisine recovers the entire `H₀,₀(jω)` curve at once via the H1
/// cross-spectral estimator, matching the HTM prediction wherever
/// coherence is high.
#[test]
fn broadband_tf_estimate_matches_htm() {
    use htmpll::sim::PllSim;
    use htmpll::spectral::tf_estimate;

    let design = PllDesign::reference_design(0.1).unwrap();
    let model = PllModel::builder(design.clone()).build().unwrap();
    let params = SimParams::from_design(&design);
    let cfg = SimConfig::default();
    let t_ref = params.t_ref;
    let dt = t_ref / cfg.samples_per_ref as f64;

    // Dense deterministic multisine on even bins of a 4096-sample block
    // (128 reference periods, so ω₀ sits at bin 128): all tones below
    // 0.45·ω₀ keeps their ±ω₀ band images OFF the tone set — otherwise
    // the images alias onto other tones and bias the estimate (genuine
    // LPTV physics, not an estimator artifact).
    let block = 4096usize;
    let tones: Vec<(f64, f64)> = (1..=28)
        .map(|i| {
            let k = 2 * i;
            let w = 2.0 * std::f64::consts::PI * k as f64 / (block as f64 * dt);
            let phase = (k as f64 * 2.399963).rem_euclid(2.0 * std::f64::consts::PI);
            (w, phase)
        })
        .filter(|(w, _)| *w < 0.45 * design.omega_ref())
        .collect();
    let amp = 1e-4 * t_ref / (tones.len() as f64).sqrt();
    let tones_cl = tones.clone();
    let modulation = move |t: f64| {
        tones_cl
            .iter()
            .map(|&(w, ph)| amp * (w * t + ph).sin())
            .sum::<f64>()
    };

    let mut sim = PllSim::new(params, cfg);
    let _ = sim.run(300.0 * t_ref, &modulation);
    let trace = sim.run((8 * block) as f64 * dt, &modulation);
    let stim: Vec<f64> = (0..trace.theta_vco.len())
        .map(|k| modulation(trace.t0 + k as f64 * trace.dt))
        .collect();
    let est = tf_estimate(&stim, &trace.theta_vco, 1.0 / trace.dt, block);

    // Evaluate only at the *exact* tone bins: neighbors of a tone are
    // coherent through window leakage but carry the neighbor's H.
    let mut checked = 0usize;
    for bin in &est {
        let w = 2.0 * std::f64::consts::PI * bin.frequency;
        let is_tone = tones.iter().any(|&(tw, _)| (tw - w).abs() < 1e-9 * tw);
        if !is_tone {
            continue;
        }
        assert!(
            bin.coherence > 0.99,
            "tone bin f={} incoherent",
            bin.frequency
        );
        let predict = model.h00(w);
        let err = (bin.h - predict).abs() / predict.abs();
        assert!(
            err < 0.05,
            "f={:.4}: est {} vs htm {predict} (err {err:.4})",
            bin.frequency,
            bin.h
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} tone bins evaluated");
}
