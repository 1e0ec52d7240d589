//! The paper's reproduction (Vanassche/Gielen/Sansen, DATE'03): one
//! driver per reproduced figure or extension study, and the text that
//! `plltool figures <id>` prints for it.
//!
//! | id | driver | paper artifact |
//! |---|---|---|
//! | `fig5` | [`fig5_open_loop_bode`] | Fig. 5 — typical `A(jω)` characteristic |
//! | `fig2` | [`fig2_band_transfers`] | Fig. 2 — signal transfer between frequency bands |
//! | `fig4` | [`fig4_pulse_width_error`] | Fig. 4 — pulse-train vs impulse-train PFD model |
//! | `fig6` | [`fig6_closed_loop`] | Fig. 6 — `H₀,₀(jω)` curves + simulation marks |
//! | `fig7` | [`fig7_margin_sweep`] | Fig. 7 — `ω_UG,eff/ω_UG` and phase margin vs `ω_UG/ω₀` |
//! | `shape` | [`shape_ablation`] | stability limit vs designed LTI margin |
//! | `pfd` | [`pfd_comparison`] | "arbitrary PFDs": impulse vs sample-and-hold |
//! | `spur` | [`leakage_spur_study`] | charge-pump leakage offset and reference spur |
//! | `poles` | [`pole_locus`] | closed-loop strip poles vs `ω_UG/ω₀` |
//! | `lock` | [`lock_study`] | lock acquisition vs VCO detuning |
//! | `trunc` | [`truncation_study`] | convergence of the truncated HTM machinery |
//! | `timing` | [`timing_comparison`] | §5 — "seconds vs minutes" HTM vs time-marching |
//!
//! [`render`]`("all")` prints every id but `timing`, in table order, and
//! is deterministic: `tests/figures.rs` pins it byte for byte against
//! the committed `figures_output.txt`. `timing` measures wall-clock, so
//! it runs only on request.

use crate::core::{analyze, PllDesign, PllModel};
use crate::lti::{bode_tf, stability_margins};
use crate::num::optim::{lin_grid, log_grid};
use crate::num::Complex;
use crate::par::{Deadline, ThreadBudget};
use crate::sim::{measure_h00, measure_h00_multitone, MeasureOptions, SimConfig, SimParams};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

/// A driver's result: any stack's error, boxed.
pub type FigResult<T> = Result<T, Box<dyn Error>>;

type Printer = fn(&mut String) -> FigResult<()>;

/// The ids of `all`, in print order, with their printers.
const ALL: [(&str, Printer); 11] = [
    ("fig5", fig5),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("shape", shape),
    ("pfd", pfd),
    ("spur", spur),
    ("poles", poles),
    ("lock", lock),
    ("trunc", trunc),
];

/// Renders figure `id` (one of the ids in the module table, or `all`)
/// as text.
///
/// # Errors
///
/// An unknown id, listing the valid ones; or the first driver failure,
/// prefixed with its id.
pub fn render(id: &str) -> Result<String, String> {
    let chosen: Vec<(&str, Printer)> = match id {
        "all" => ALL.to_vec(),
        "timing" => vec![("timing", timing)],
        _ => match ALL.iter().find(|(name, _)| *name == id) {
            Some(&entry) => vec![entry],
            None => {
                let ids: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown figure `{id}`; use {}|timing|all",
                    ids.join("|")
                ));
            }
        },
    };
    let mut out = String::new();
    for (name, print) in chosen {
        print(&mut out).map_err(|e| format!("figures {name}: {e}"))?;
    }
    Ok(out)
}

fn reference_model(ratio: f64) -> FigResult<PllModel> {
    Ok(PllModel::builder(PllDesign::reference_design(ratio)?).build()?)
}

/// One row of the Fig.-5 Bode table.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Normalized frequency `ω/ω_UG`.
    pub w_over_wug: f64,
    /// `|A(jω)|` in dB.
    pub mag_db: f64,
    /// Unwrapped phase of `A(jω)` in degrees.
    pub phase_deg: f64,
}

/// Fig. 5: the reference loop's open-loop gain over `ω/ω_UG ∈ [1e−2, 1e2]`.
pub fn fig5_open_loop_bode(points: usize) -> FigResult<Vec<Fig5Row>> {
    let design = PllDesign::reference_design(0.1)?;
    let a = design.open_loop_gain();
    let wug = design.omega_ug_nominal();
    Ok(bode_tf(&a, &log_grid(1e-2 * wug, 1e2 * wug, points))
        .into_iter()
        .map(|p| Fig5Row {
            w_over_wug: p.omega / wug,
            mag_db: p.mag_db,
            phase_deg: p.phase_deg,
        })
        .collect())
}

/// One point of a Fig.-6 curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Normalized frequency `ω/ω_UG`.
    pub w_over_wug: f64,
    /// HTM prediction `|H₀,₀(jω)|` in dB (eq. 38, exact `λ`).
    pub htm_db: f64,
    /// Classical LTI prediction `|A/(1+A)|` in dB.
    pub lti_db: f64,
    /// Time-marching measurement in dB (the paper's "marks"), when run.
    pub sim_db: Option<f64>,
    /// Relative |error| between simulation and HTM prediction, when run.
    pub sim_vs_htm_err: Option<f64>,
}

/// One Fig.-6 curve (one `ω_UG/ω₀` ratio).
#[derive(Debug, Clone)]
pub struct Fig6Curve {
    /// The loop-speed ratio `ω_UG/ω₀`.
    pub ratio: f64,
    /// The sampled curve.
    pub points: Vec<Fig6Point>,
}

/// Fig. 6: closed-loop baseband transfer for several `ω_UG/ω₀`, with
/// optional time-domain verification marks at `sim_marks` frequencies
/// per curve.
pub fn fig6_closed_loop(
    ratios: &[f64],
    points: usize,
    sim_marks: usize,
) -> FigResult<Vec<Fig6Curve>> {
    ratios
        .iter()
        .map(|&ratio| -> FigResult<Fig6Curve> {
            let design = PllDesign::reference_design(ratio)?;
            let model = PllModel::builder(design.clone()).build()?;
            let wug = design.omega_ug_nominal();
            let grid = log_grid(0.1 * wug, 10.0 * wug, points);
            // Single-tone measurements are degenerate at multiples of
            // ω₀/2: the image of the real tone (at −ω + kω₀) folds onto
            // the probe frequency and interferes with the direct
            // response. Keep the verification marks away from those
            // points.
            let w0 = design.omega_ref();
            let mark_grid: Vec<f64> = if sim_marks > 0 {
                log_grid(0.2 * wug, 5.0 * wug, sim_marks)
                    .into_iter()
                    .filter(|&w| {
                        let frac = (w / (0.5 * w0)).fract();
                        frac.min(1.0 - frac) > 0.08
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let params = SimParams::from_design(&design);
            let cfg = SimConfig::default();
            // Small amplitude keeps the finite-pulse-width products (the
            // Fig.-4 effect) below the curve in the deep-stopband region;
            // extra cycles buy back the SNR.
            let opts = MeasureOptions {
                amplitude_frac: 2e-4,
                settle_cycles: 16,
                measure_cycles: 32,
            };

            let mut pts: Vec<Fig6Point> = grid
                .iter()
                .map(|&w| Fig6Point {
                    w_over_wug: w / wug,
                    htm_db: 20.0 * model.h00(w).abs().log10(),
                    lti_db: 20.0 * model.h00_lti(w).abs().log10(),
                    sim_db: None,
                    sim_vs_htm_err: None,
                })
                .collect();
            // All in-band marks come from ONE multitone run; out-of-band
            // marks (ω > ω₀/2 would alias multitone images) run
            // individually.
            let (in_band, out_band): (Vec<f64>, Vec<f64>) =
                mark_grid.into_iter().partition(|&w| w < 0.44 * w0);
            let mut measured = if in_band.is_empty() {
                Vec::new()
            } else {
                measure_h00_multitone(&params, &cfg, &in_band, &opts)
            };
            for &w in &out_band {
                measured.push(measure_h00(&params, &cfg, w, &opts));
            }
            for m in measured {
                let predict = model.h00(m.omega);
                let err = (m.h - predict).abs() / predict.abs();
                pts.push(Fig6Point {
                    w_over_wug: m.omega / wug,
                    htm_db: 20.0 * predict.abs().log10(),
                    lti_db: 20.0 * model.h00_lti(m.omega).abs().log10(),
                    sim_db: Some(20.0 * m.h.abs().log10()),
                    sim_vs_htm_err: Some(err),
                });
            }
            pts.sort_by(|a, b| a.w_over_wug.total_cmp(&b.w_over_wug));
            Ok(Fig6Curve { ratio, points: pts })
        })
        .collect()
}

/// One row of the Fig.-7 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Loop-speed ratio `ω_UG/ω₀`.
    pub ratio: f64,
    /// Effective unity-gain frequency normalized to the LTI one.
    pub wug_eff_over_wug: f64,
    /// Phase margin of the effective gain `λ(jω)` (degrees).
    pub pm_eff_deg: f64,
    /// LTI phase margin (the horizontal line).
    pub pm_lti_deg: f64,
    /// True when `|λ|` never crossed 0 dB inside the band (at/beyond the
    /// sampling stability limit).
    pub beyond_limit: bool,
}

/// Fig. 7: sweep of `ω_UG,eff/ω_UG` and the effective phase margin over
/// `ω_UG/ω₀ ∈ [lo, hi]`.
pub fn fig7_margin_sweep(lo: f64, hi: f64, points: usize) -> FigResult<Vec<Fig7Row>> {
    lin_grid(lo, hi, points)
        .into_iter()
        .map(|ratio| -> FigResult<Fig7Row> {
            let r = analyze(
                &reference_model(ratio)?,
                ThreadBudget::Auto,
                &Deadline::none(),
            )?;
            Ok(Fig7Row {
                ratio,
                wug_eff_over_wug: r.omega_ug_eff / r.omega_ug_lti,
                pm_eff_deg: r.phase_margin_eff_deg,
                pm_lti_deg: r.phase_margin_lti_deg,
                beyond_limit: r.beyond_sampling_limit,
            })
        })
        .collect()
}

/// The Fig.-2 band-transfer map: `|H_{n,m}(jω)|` of the closed loop.
#[derive(Debug, Clone)]
pub struct Fig2Map {
    /// Probe frequency (rad/s, inside the baseband).
    pub omega: f64,
    /// Band indices covered (−K..K).
    pub bands: Vec<i64>,
    /// `|H_{n,m}|` with rows = output band `n`, columns = input band `m`.
    pub magnitudes: Vec<Vec<f64>>,
}

/// Fig. 2: how signal content moves between frequency bands, shown as
/// the magnitude map of the closed-loop HTM at one in-band frequency.
pub fn fig2_band_transfers(ratio: f64, omega: f64, k: usize) -> FigResult<Fig2Map> {
    let model = reference_model(ratio)?;
    let trunc = crate::htm::Truncation::new(k);
    let htm = model.closed_loop_htm(Complex::from_im(omega), trunc);
    let bands: Vec<i64> = trunc.harmonics().collect();
    let magnitudes = bands
        .iter()
        .map(|&n| bands.iter().map(|&m| htm.band(n, m).abs()).collect())
        .collect();
    Ok(Fig2Map {
        omega,
        bands,
        magnitudes,
    })
}

/// One row of the Fig.-4 pulse-width study.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Modulation amplitude (≈ peak pulse width) as a fraction of `T`.
    pub pulse_width_frac: f64,
    /// Relative error between the simulated response (finite-width
    /// pulses) and the HTM impulse-train prediction.
    pub rel_error: f64,
}

/// Fig. 4 (quantified): the impulse-train approximation error grows
/// with the width of the charge-pump pulses. Probes `H₀,₀` at `omega`
/// for increasing modulation amplitudes.
pub fn fig4_pulse_width_error(ratio: f64, omega: f64, amps: &[f64]) -> FigResult<Vec<Fig4Row>> {
    let design = PllDesign::reference_design(ratio)?;
    let model = PllModel::builder(design.clone()).build()?;
    let params = SimParams::from_design(&design);
    let cfg = SimConfig::default();
    Ok(amps
        .iter()
        .map(|&amp| {
            let opts = MeasureOptions {
                amplitude_frac: amp,
                ..MeasureOptions::default()
            };
            let m = measure_h00(&params, &cfg, omega, &opts);
            let predict = model.h00(m.omega);
            Fig4Row {
                pulse_width_frac: amp,
                rel_error: (m.h - predict).abs() / predict.abs(),
            }
        })
        .collect())
}

/// Result of the §5 timing comparison.
#[derive(Debug, Clone, Copy)]
pub struct TimingResult {
    /// Frequency points evaluated.
    pub points: usize,
    /// Wall-clock seconds for the HTM (eq. 38) curve.
    pub htm_seconds: f64,
    /// Wall-clock seconds for the time-marching curve.
    pub sim_seconds: f64,
}

impl TimingResult {
    /// Speedup factor of the HTM evaluation.
    pub fn speedup(&self) -> f64 {
        self.sim_seconds / self.htm_seconds
    }
}

/// §5 timing claim: evaluating one Fig.-6 curve through the closed-form
/// HTM expression vs. measuring it by time-marching simulation.
pub fn timing_comparison(ratio: f64, points: usize) -> FigResult<TimingResult> {
    let design = PllDesign::reference_design(ratio)?;
    let model = PllModel::builder(design.clone()).build()?;
    let wug = design.omega_ug_nominal();
    let grid = log_grid(0.2 * wug, 5.0 * wug, points);

    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for &w in &grid {
        acc += model.h00(w).abs();
    }
    let htm_seconds = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);

    let params = SimParams::from_design(&design);
    let cfg = SimConfig::default();
    let opts = MeasureOptions::default();
    let t1 = Instant::now();
    for &w in &grid {
        std::hint::black_box(measure_h00(&params, &cfg, w, &opts));
    }
    let sim_seconds = t1.elapsed().as_secs_f64();

    Ok(TimingResult {
        points,
        htm_seconds,
        sim_seconds,
    })
}

/// The classical LTI margins `(ω_UG, phase margin in degrees)` of the
/// reference loop (the Fig.-5 header).
pub fn reference_lti_margins() -> FigResult<(f64, f64)> {
    let design = PllDesign::reference_design(0.1)?;
    let a = design.open_loop_gain();
    let m = stability_margins(|w| a.eval_jw(w), 1e-4, 1e3)?;
    Ok((m.omega_ug, m.phase_margin_deg))
}

/// One row of the loop-shape ablation.
#[derive(Debug, Clone, Copy)]
pub struct ShapeRow {
    /// Zero/pole spread factor (zero at `ω_UG/spread`, pole at
    /// `spread·ω_UG`).
    pub spread: f64,
    /// LTI phase margin of the shape (degrees).
    pub pm_lti_deg: f64,
    /// Sampling stability limit `(ω_UG/ω₀)_max` from the exact HTM
    /// period-strip verdict.
    pub limit_ratio: f64,
}

/// Loop-shape ablation: how much LTI phase margin must a design carry
/// to survive a given loop speed? Sweeps the zero/pole spread of the
/// reference family and bisects each shape's sampling stability limit.
pub fn shape_ablation(spreads: &[f64]) -> FigResult<Vec<ShapeRow>> {
    spreads
        .iter()
        .map(|&spread| -> FigResult<ShapeRow> {
            let pm = spread.atan().to_degrees() - (1.0 / spread).atan().to_degrees();
            let stable_at = |ratio: f64| -> FigResult<bool> {
                let d = PllDesign::reference_design_shaped(ratio, spread)?;
                Ok(PllModel::builder(d).build()?.lambda().strip_stable())
            };
            let (mut lo, mut hi) = (0.01, 0.6);
            if !stable_at(lo)? {
                return Err(format!("spread {spread}: low bracket unstable").into());
            }
            if stable_at(hi)? {
                // Extremely robust shape: report the bracket edge.
                return Ok(ShapeRow {
                    spread,
                    pm_lti_deg: pm,
                    limit_ratio: hi,
                });
            }
            while hi - lo > 1e-3 {
                let mid = 0.5 * (lo + hi);
                if stable_at(mid)? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Ok(ShapeRow {
                spread,
                pm_lti_deg: pm,
                limit_ratio: 0.5 * (lo + hi),
            })
        })
        .collect()
}

/// One row of the PFD-architecture comparison.
#[derive(Debug, Clone, Copy)]
pub struct PfdRow {
    /// Loop-speed ratio `ω_UG/ω₀`.
    pub ratio: f64,
    /// Effective phase margin with the impulse-sampling charge pump.
    pub pm_impulse_deg: f64,
    /// Effective phase margin with the sample-and-hold PFD.
    pub pm_sample_hold_deg: f64,
}

/// "Extension to arbitrary PFDs": impulse-sampling charge pump vs
/// sample-and-hold detector — the hold's half-period delay costs margin
/// on top of the aliasing.
pub fn pfd_comparison(ratios: &[f64]) -> FigResult<Vec<PfdRow>> {
    use crate::core::SampleHoldModel;
    ratios
        .iter()
        .map(|&ratio| -> FigResult<PfdRow> {
            let design = PllDesign::reference_design(ratio)?;
            let imp = analyze(
                &PllModel::builder(design.clone()).build()?,
                ThreadBudget::Auto,
                &Deadline::none(),
            )?;
            let sh = SampleHoldModel::new(design)?;
            let pm_sh = sh.margins().map(|m| m.phase_margin_deg).unwrap_or(0.0);
            Ok(PfdRow {
                ratio,
                pm_impulse_deg: imp.phase_margin_eff_deg,
                pm_sample_hold_deg: pm_sh,
            })
        })
        .collect()
}

/// One row of the leakage-spur study.
#[derive(Debug, Clone, Copy)]
pub struct SpurRow {
    /// Leakage current as a fraction of `I_cp`.
    pub leakage_frac: f64,
    /// Static phase offset measured in simulation, in fractions of `T`.
    pub static_offset_frac: f64,
    /// First-order prediction `I_leak/I_cp`.
    pub predicted_offset_frac: f64,
    /// Reference-spur level from the simulated phase PSD, dB relative
    /// to the spur at the smallest leakage in the sweep.
    pub spur_rel_db: f64,
    /// Analytic spur line power from `core::spurs`
    /// (`θ̃₁ = −A(jω₀)·θ_static`), same relative dB scale.
    pub spur_rel_db_predicted: f64,
    /// Absolute ratio simulated/predicted line power.
    pub sim_over_predicted: f64,
}

/// Charge-pump leakage study: static phase offset (vs the first-order
/// prediction `θ/T = I_leak/I_cp`) and the reference spur it creates,
/// which scales 20 dB/decade with leakage.
pub fn leakage_spur_study(ratio: f64, leakage_fracs: &[f64]) -> FigResult<Vec<SpurRow>> {
    use crate::core::LeakageSpurs;
    use crate::sim::PllSim;
    use crate::spectral::{band_power, periodogram, Window};
    let design = PllDesign::reference_design(ratio)?;
    let model = PllModel::builder(design.clone()).build()?;
    let mut spur_abs = Vec::new();
    let mut pred_abs = Vec::new();
    let mut rows = Vec::new();
    for &frac in leakage_fracs {
        let mut params = SimParams::from_design(&design);
        params.leakage = frac * params.i_cp;
        let t_ref = params.t_ref;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let _ = sim.run(500.0 * t_ref, &|_| 0.0);
        let trace = sim.run(1024.0 * t_ref, &|_| 0.0);
        let mean = trace.theta_vco.iter().sum::<f64>() / trace.theta_vco.len() as f64;
        let centered: Vec<f64> = trace.theta_vco.iter().map(|v| v - mean).collect();
        let psd = periodogram(&centered, 1.0 / trace.dt, Window::Hann)?;
        let f_ref = 1.0 / t_ref;
        let spur = band_power(&psd, 0.97 * f_ref, 1.03 * f_ref);
        let predicted = LeakageSpurs::new(&model, params.leakage).line_power(1);
        spur_abs.push(spur);
        pred_abs.push(predicted);
        rows.push(SpurRow {
            leakage_frac: frac,
            static_offset_frac: mean / t_ref,
            predicted_offset_frac: frac,
            spur_rel_db: 0.0,
            spur_rel_db_predicted: 0.0,
            sim_over_predicted: spur / predicted,
        });
    }
    let (Some(&base), Some(&pbase)) = (spur_abs.first(), pred_abs.first()) else {
        return Ok(rows);
    };
    for ((row, s), p) in rows.iter_mut().zip(&spur_abs).zip(&pred_abs) {
        row.spur_rel_db = 10.0 * (s / base).log10();
        row.spur_rel_db_predicted = 10.0 * (p / pbase).log10();
    }
    Ok(rows)
}

/// One row of the closed-loop pole locus.
#[derive(Debug, Clone)]
pub struct PoleRow {
    /// Loop-speed ratio `ω_UG/ω₀`.
    pub ratio: f64,
    /// Strip poles `(Re, Im/(ω₀/2))`, least damped first.
    pub poles: Vec<(f64, f64)>,
}

/// Closed-loop pole locus of the time-varying loop vs `ω_UG/ω₀`:
/// Newton on `1 + λ(s) = 0` with exact derivatives. Shows the
/// subharmonic (Im = ω₀/2) pole pair being born from colliding real
/// poles and marching into the right half plane at the stability limit.
pub fn pole_locus(ratios: &[f64]) -> FigResult<Vec<PoleRow>> {
    use crate::core::dominant_poles;
    ratios
        .iter()
        .map(|&ratio| -> FigResult<PoleRow> {
            let model = reference_model(ratio)?;
            let w0 = model.design().omega_ref();
            let poles = dominant_poles(&model)?
                .into_iter()
                .map(|p| (p.re, p.im / (0.5 * w0)))
                .collect();
            Ok(PoleRow { ratio, poles })
        })
        .collect()
}

/// One row of the lock-acquisition study.
#[derive(Debug, Clone, Copy)]
pub struct LockRow {
    /// Fractional VCO detuning at t = 0.
    pub detune_frac: f64,
    /// Whether lock was declared within the horizon.
    pub locked: bool,
    /// Lock time in reference periods (NaN when not locked).
    pub lock_periods: f64,
}

/// Lock acquisition vs initial frequency detuning — the large-signal
/// behavior (PFD frequency detection) the small-signal HTM analysis
/// deliberately leaves out, covered by the behavioral simulator.
pub fn lock_study(ratio: f64, detunings: &[f64]) -> FigResult<Vec<LockRow>> {
    use crate::sim::{acquire_lock, LockOptions};
    let design = PllDesign::reference_design(ratio)?;
    let params = SimParams::from_design(&design);
    let cfg = SimConfig::default();
    let opts = LockOptions::default();
    Ok(detunings
        .iter()
        .map(|&detune| {
            let r = acquire_lock(&params, &cfg, detune, &opts);
            LockRow {
                detune_frac: detune,
                locked: r.locked,
                lock_periods: r.lock_time * design.f_ref(),
            }
        })
        .collect())
}

/// One row of the truncation-convergence study.
#[derive(Debug, Clone, Copy)]
pub struct TruncRow {
    /// Truncation order `K` (matrix dimension `2K+1`).
    pub k: usize,
    /// Relative error of the truncated λ against the exact lattice sum.
    pub lambda_err: f64,
    /// Max-element relative error of the truncated closed-loop HTM
    /// against the exact-λ rank-one form.
    pub htm_err: f64,
}

/// Truncation ablation: how fast the truncated harmonic machinery
/// converges to the exact (lattice-sum) results — the data behind the
/// `Truncation::default()` choice.
pub fn truncation_study(ratio: f64, omega: f64, ks: &[usize]) -> FigResult<Vec<TruncRow>> {
    use crate::htm::Truncation;
    let model = reference_model(ratio)?;
    let s = Complex::from_im(omega);
    let lam_exact = model.lambda().eval(s);
    let h_exact = model.h00(omega);
    Ok(ks
        .iter()
        .map(|&k| {
            let t = Truncation::new(k);
            let lam_k: Complex = model.v_column(s, t).iter().copied().sum();
            let htm = model.closed_loop_htm(s, t);
            TruncRow {
                k,
                lambda_err: (lam_k - lam_exact).abs() / lam_exact.abs(),
                htm_err: (htm.band(0, 0) - h_exact).abs() / h_exact.abs(),
            }
        })
        .collect())
}

fn header(out: &mut String, title: &str) -> FigResult<()> {
    writeln!(
        out,
        "\n================================================================"
    )?;
    writeln!(out, "{title}")?;
    writeln!(
        out,
        "================================================================"
    )?;
    Ok(())
}

fn fig5(out: &mut String) -> FigResult<()> {
    header(
        out,
        "FIG 5 — open-loop gain A(jω) of the reference loop (3 poles, 2 at DC, 1 zero)",
    )?;
    let (wug, pm) = reference_lti_margins()?;
    writeln!(out, "# LTI: ω_UG = {wug:.4} rad/s, phase margin = {pm:.2}°")?;
    writeln!(out, "{:>12} {:>12} {:>12}", "w/w_UG", "mag_dB", "phase_deg")?;
    for row in fig5_open_loop_bode(41)? {
        writeln!(
            out,
            "{:12.4} {:12.3} {:12.2}",
            row.w_over_wug, row.mag_db, row.phase_deg
        )?;
    }
    Ok(())
}

fn fig2(out: &mut String) -> FigResult<()> {
    header(
        out,
        "FIG 2 — signal transfer between frequency bands: |H_{n,m}(jω)| map",
    )?;
    let map = fig2_band_transfers(0.2, 0.3, 2)?;
    writeln!(
        out,
        "# closed loop at ω = {:.2} rad/s, ω_UG/ω₀ = 0.2",
        map.omega
    )?;
    writeln!(out, "# rows: output band n; columns: input band m")?;
    write!(out, "{:>8}", "n\\m")?;
    for m in &map.bands {
        write!(out, "{m:>10}")?;
    }
    writeln!(out)?;
    for (n, row) in map.bands.iter().zip(&map.magnitudes) {
        write!(out, "{n:>8}")?;
        for v in row {
            write!(out, "{v:>10.4}")?;
        }
        writeln!(out)?;
    }
    writeln!(out, "# all columns equal: the sampling PFD aliases every input band identically (rank-one loop)")?;
    Ok(())
}

fn fig4(out: &mut String) -> FigResult<()> {
    header(
        out,
        "FIG 4 — pulse-train vs impulse-train PFD: model error vs pulse width",
    )?;
    writeln!(
        out,
        "# reference loop at ω_UG/ω₀ = 0.2, probed at ω = 2 rad/s (band edge region)"
    )?;
    writeln!(out, "{:>18} {:>14}", "pulse_width/T", "rel_error")?;
    let amps = [2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2];
    for row in fig4_pulse_width_error(0.2, 2.0, &amps)? {
        writeln!(out, "{:18.5} {:14.5}", row.pulse_width_frac, row.rel_error)?;
    }
    writeln!(
        out,
        "# error ∝ width: narrow pulses act as impulses (paper Fig. 4 equivalence)"
    )?;
    Ok(())
}

fn fig6(out: &mut String) -> FigResult<()> {
    header(
        out,
        "FIG 6 — closed-loop |H00(jω)| (dB): HTM (eq. 38) vs LTI vs time simulation",
    )?;
    for curve in fig6_closed_loop(&[0.1, 0.2, 0.25], 25, 14)? {
        writeln!(out, "\n## ω_UG/ω₀ = {}", curve.ratio)?;
        writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10} {:>12}",
            "w/w_UG", "HTM_dB", "LTI_dB", "sim_dB", "sim_vs_htm"
        )?;
        let mut worst: f64 = 0.0;
        for p in &curve.points {
            let sim = p
                .sim_db
                .map(|v| format!("{v:10.3}"))
                .unwrap_or_else(|| format!("{:>10}", "-"));
            let err = p
                .sim_vs_htm_err
                .map(|v| {
                    worst = worst.max(v);
                    format!("{:11.2}%", 100.0 * v)
                })
                .unwrap_or_else(|| format!("{:>12}", "-"));
            writeln!(
                out,
                "{:10.4} {:10.3} {:10.3} {sim} {err}",
                p.w_over_wug, p.htm_db, p.lti_db
            )?;
        }
        writeln!(
            out,
            "# worst sim-vs-HTM deviation on this curve: {:.2} %",
            100.0 * worst
        )?;
    }
    Ok(())
}

fn fig7(out: &mut String) -> FigResult<()> {
    header(
        out,
        "FIG 7 — effective unity-gain frequency and phase margin vs ω_UG/ω₀",
    )?;
    writeln!(
        out,
        "{:>8} {:>16} {:>12} {:>12} {:>8}",
        "ratio", "wUG_eff/wUG", "PM_eff_deg", "PM_LTI_deg", "limit?"
    )?;
    for row in fig7_margin_sweep(0.02, 0.34, 17)? {
        writeln!(
            out,
            "{:8.3} {:16.4} {:12.2} {:12.2} {:>8}",
            row.ratio,
            row.wug_eff_over_wug,
            row.pm_eff_deg,
            row.pm_lti_deg,
            if row.beyond_limit { "YES" } else { "" }
        )?;
    }
    writeln!(
        out,
        "# PM_LTI is the horizontal line of the paper's Fig. 7 (lower plot)"
    )?;
    Ok(())
}

fn shape(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: LOOP SHAPE — sampling stability limit vs designed LTI phase margin",
    )?;
    writeln!(
        out,
        "{:>8} {:>12} {:>16}",
        "spread", "PM_LTI_deg", "(wUG/w0)_max"
    )?;
    for row in shape_ablation(&[2.0, 3.0, 4.0, 6.0, 8.0])? {
        writeln!(
            out,
            "{:8.1} {:12.2} {:16.4}",
            row.spread, row.pm_lti_deg, row.limit_ratio
        )?;
    }
    writeln!(
        out,
        "# measured finding: the limit is remarkably INSENSITIVE to the designed"
    )?;
    writeln!(
        out,
        "# LTI margin (0.27–0.29 across 37°–76°) — it is set by the aliased gain"
    )?;
    writeln!(
        out,
        "# magnitude, not the phase shape: a constraint continuous-time analysis"
    )?;
    writeln!(out, "# cannot even express")?;
    Ok(())
}

fn pfd(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: ARBITRARY PFDs — impulse charge pump vs sample-and-hold detector",
    )?;
    writeln!(
        out,
        "{:>8} {:>16} {:>18}",
        "ratio", "PM_impulse_deg", "PM_sample_hold_deg"
    )?;
    for row in pfd_comparison(&[0.02, 0.05, 0.1, 0.15, 0.2])? {
        writeln!(
            out,
            "{:8.2} {:16.2} {:18.2}",
            row.ratio, row.pm_impulse_deg, row.pm_sample_hold_deg
        )?;
    }
    writeln!(
        out,
        "# the hold's −ωT/2 delay costs extra margin on top of aliasing"
    )?;
    Ok(())
}

fn spur(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: CHARGE-PUMP LEAKAGE — static offset and reference spur (simulated)",
    )?;
    writeln!(
        out,
        "{:>14} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "I_leak/I_cp", "offset/T", "predicted", "spur_rel_dB", "analytic_dB", "sim/pred"
    )?;
    for row in leakage_spur_study(0.1, &[1e-4, 3e-4, 1e-3, 3e-3])? {
        writeln!(
            out,
            "{:14.1e} {:14.2e} {:14.2e} {:12.2} {:12.2} {:10.3}",
            row.leakage_frac,
            row.static_offset_frac,
            row.predicted_offset_frac,
            row.spur_rel_db,
            row.spur_rel_db_predicted,
            row.sim_over_predicted
        )?;
    }
    writeln!(
        out,
        "# spur power rises 20 dB/decade; the closed form θ̃₁ = −A(jω₀)·θ_static"
    )?;
    writeln!(
        out,
        "# predicts the absolute line power to ~1 % (sim/pred column)"
    )?;
    Ok(())
}

fn poles(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: CLOSED-LOOP POLES — the subharmonic mode's march to instability",
    )?;
    writeln!(
        out,
        "# strip poles of 1 + λ(s) = 0 (Newton, exact dλ/ds); Im normalized to ω₀/2"
    )?;
    writeln!(out, "{:>8}   poles (Re, Im/(ω₀/2))", "ratio")?;
    for row in pole_locus(&[0.1, 0.15, 0.18, 0.2, 0.22, 0.25, 0.27, 0.29])? {
        write!(out, "{:8.2}  ", row.ratio)?;
        for (re, imn) in &row.poles {
            write!(out, " ({re:+.4}, {imn:.3})")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "# around ratio ≈ 0.19 two real poles collide and lock onto Im = ω₀/2:"
    )?;
    writeln!(
        out,
        "# the loop rings at HALF THE REFERENCE RATE; that subharmonic pole"
    )?;
    writeln!(
        out,
        "# crosses into the RHP at the stability limit ≈ 0.276 — Gardner's"
    )?;
    writeln!(
        out,
        "# granularity instability, recovered from the continuous-time HTM model"
    )?;
    Ok(())
}

fn lock(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: LOCK ACQUISITION — pull-in vs initial VCO detuning (simulated)",
    )?;
    writeln!(
        out,
        "{:>12} {:>8} {:>14}",
        "detune", "locked", "lock_periods"
    )?;
    for row in lock_study(0.1, &[1e-3, 5e-3, 1e-2, 3e-2, 1e-1])? {
        writeln!(
            out,
            "{:12.0e} {:>8} {:>14.1}",
            row.detune_frac, row.locked, row.lock_periods
        )?;
    }
    writeln!(
        out,
        "# the tri-state PFD's frequency detection pulls the loop in even from"
    )?;
    writeln!(out, "# detunings far beyond the small-signal capture range")?;
    Ok(())
}

fn trunc(out: &mut String) -> FigResult<()> {
    header(
        out,
        "EXT: TRUNCATION — convergence of the truncated HTM machinery",
    )?;
    writeln!(
        out,
        "# reference loop at ω_UG/ω₀ = 0.2, probed at ω = 0.8 rad/s"
    )?;
    writeln!(out, "{:>6} {:>14} {:>14}", "K", "lambda_err", "htm_err")?;
    for row in truncation_study(0.2, 0.8, &[2, 4, 8, 16, 32, 64, 128])? {
        writeln!(
            out,
            "{:>6} {:14.3e} {:14.3e}",
            row.k, row.lambda_err, row.htm_err
        )?;
    }
    writeln!(
        out,
        "# both errors fall like 1/K (the simple-pole alias tail); the exact"
    )?;
    writeln!(out, "# coth lattice sums sidestep the truncation entirely")?;
    Ok(())
}

fn timing(out: &mut String) -> FigResult<()> {
    header(
        out,
        "TIMING — §5 claim: HTM evaluation vs time-marching simulation",
    )?;
    let r = timing_comparison(0.1, 12)?;
    writeln!(
        out,
        "{} frequency points: HTM {:.4} s, simulation {:.2} s  → speedup {:.0}×",
        r.points,
        r.htm_seconds,
        r.sim_seconds,
        r.speedup()
    )?;
    Ok(())
}
