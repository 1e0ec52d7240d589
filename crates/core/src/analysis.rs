//! Loop analysis: LTI vs time-varying margins, bandwidth and peaking.
//!
//! [`analyze`] produces the quantities the paper's Figs. 6–7 are built
//! from:
//!
//! * the classical margins of `A(jω)` (what LTI analysis predicts),
//! * the margins of the **effective** open-loop gain `λ(jω)` (what the
//!   loop actually sees once sampling is accounted for),
//! * closed-loop −3 dB bandwidth and passband peaking of `H₀,₀(jω)`,
//! * the HTM-Nyquist stability verdict on `λ`, decided exactly by the
//!   Jury test on `1 + λ`'s characteristic polynomial in
//!   `z = e^{2πs/ω₀}` ([`EffectiveGain::strip_stable`](crate::EffectiveGain::strip_stable)).
//!
//! ```
//! use htmpll_core::{analyze, PllDesign, PllModel};
//! use htmpll_par::{Deadline, ThreadBudget};
//!
//! let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let r = analyze(&m, ThreadBudget::Auto, &Deadline::none()).unwrap();
//! // Sampling always erodes the phase margin relative to LTI.
//! assert!(r.phase_margin_eff_deg < r.phase_margin_lti_deg);
//! assert!(r.omega_ug_eff >= r.omega_ug_lti);
//! ```

use crate::closed_loop::PllModel;
use crate::error::CoreError;
use crate::quality::{PointQuality, QualitySummary};
use crate::sweep::{compute_dense, KernelPolicy};
use htmpll_lti::{
    bandwidth_3db_precomputed, margin_scan_grid, peaking_db_precomputed,
    stability_margins_precomputed, MarginError, Margins,
};
use htmpll_num::Complex;
use htmpll_par::{par_map_cancellable, Deadline, ThreadBudget};

/// Analysis products for one PLL model.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Ratio `ω_UG/ω₀` of LTI crossover to reference frequency — the
    /// paper's fast-loop knob.
    pub omega_ug_ratio: f64,
    /// LTI unity-gain frequency of `A(jω)` (rad/s).
    pub omega_ug_lti: f64,
    /// LTI phase margin of `A(jω)` (degrees) — the horizontal line in
    /// Fig. 7.
    pub phase_margin_lti_deg: f64,
    /// Unity-gain frequency of the effective gain `λ(jω)` (rad/s) —
    /// `ω_UG,eff`, upper plot of Fig. 7.
    pub omega_ug_eff: f64,
    /// Phase margin of `λ(jω)` (degrees) — lower plot of Fig. 7.
    pub phase_margin_eff_deg: f64,
    /// Closed-loop −3 dB bandwidth of `H₀,₀(jω)` (rad/s), if found.
    pub bandwidth_3db: Option<f64>,
    /// Passband peaking of `H₀,₀(jω)` in dB relative to DC.
    pub peaking_db: f64,
    /// Closed-loop peaking predicted by the LTI approximation, dB.
    pub peaking_lti_db: f64,
    /// HTM-Nyquist verdict on the effective gain: `1 + λ(s)` has no
    /// zero in the closed right half of the period strip.
    pub nyquist_stable: bool,
    /// True when `|λ(jω)|` never fell below unity inside the first
    /// Nyquist band: the loop is at or beyond the sampling stability
    /// limit and the reported effective margins are the band-edge
    /// values (`ω_UG,eff = ω₀/2`, phase margin from `arg λ(jω₀/2)`).
    pub beyond_sampling_limit: bool,
    /// Numerical-quality roll-up of every scan point behind this report
    /// (the λ margin scan and the closed-loop `H₀,₀` scan — non-finite
    /// values count as failed) plus a dense closed-loop probe at
    /// `s = jω_UG,eff`, whose condition estimate and verdict gauge how
    /// trustworthy the truncated `I + G̃` solves are at crossover.
    pub quality: QualitySummary,
}

impl AnalysisReport {
    /// Phase-margin degradation caused by time-varying (sampling)
    /// effects, in degrees: `PM_LTI − PM_eff`.
    pub fn phase_margin_degradation_deg(&self) -> f64 {
        self.phase_margin_lti_deg - self.phase_margin_eff_deg
    }

    /// Relative phase-margin degradation, as a fraction of the LTI
    /// prediction (the paper quotes "9 % worse" in this metric).
    pub fn phase_margin_degradation_rel(&self) -> f64 {
        self.phase_margin_degradation_deg() / self.phase_margin_lti_deg
    }
}

/// Frequency scan range used by margin extraction, relative to the LTI
/// unity-gain frequency.
const SCAN_DECADES_DOWN: f64 = 1e-4;

/// Collapses one cancellable scan into its values, or the deadline
/// error naming the phase that ran out of budget.
fn scan_or_deadline<T>(slots: Vec<Option<T>>, phase: &'static str) -> Result<Vec<T>, CoreError> {
    let n = slots.len();
    let vals: Vec<T> = slots.into_iter().flatten().collect();
    if vals.len() < n {
        Err(CoreError::DeadlineExceeded { phase })
    } else {
        Ok(vals)
    }
}

/// Analyzes a PLL model.
///
/// The scan window spans from `ω_UG·10⁻⁴` to just below `ω₀/2` for the
/// effective gain — `λ(jω)` is `ω₀`-periodic along the axis, so its
/// margins live in the first Nyquist band — and up to `100·ω_UG` for the
/// LTI gain.
///
/// Every scan grid is evaluated on the `htmpll-par` pool under
/// `threads` and the extractors run over the precomputed values, so the
/// report is **bitwise-identical for any thread count**.
///
/// The one dense closed-loop probe at the effective crossover is solved
/// uncached: on the rank-one sampling-PFD loop it is a Sherman–Morrison
/// closed form of a few microseconds, and distinct designs never share
/// a probe point (repeated requests are answered whole by serve's
/// response cache), so a cache here would only add a lookup.
///
/// Every scan is cancellable under `deadline`. The margin extractors
/// need the *whole* scan to bracket crossings, so analysis has no
/// partial-result mode: the deadline either leaves enough budget for a
/// full report or the analysis fails retryably. [`Deadline::none`]
/// never expires.
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] (naming the scan phase) when the
/// budget expires mid-scan; otherwise propagates margin-extraction
/// failures (e.g. a loop so slow/fast that no unity crossing exists in
/// the scan window).
pub fn analyze(
    model: &PllModel,
    threads: ThreadBudget,
    deadline: &Deadline,
) -> Result<AnalysisReport, CoreError> {
    let _span = htmpll_obs::span("core", "analyze");
    let a = model.open_loop().clone();
    let w0 = model.design().omega_ref();

    // Scan window scaled to the reference frequency so designs in
    // physical units (MHz references) and normalized units both work:
    // any practical loop crossover sits within [1e-7, 1e2]·ω₀.
    let lti_grid = margin_scan_grid(1e-7 * w0, 100.0 * w0);
    let lti_vals = scan_or_deadline(
        par_map_cancellable(threads, &lti_grid, deadline, |_, &w| a.eval_jw(w)),
        "LTI margin",
    )?;
    let lti = stability_margins_precomputed(|w| a.eval_jw(w), &lti_grid, &lti_vals)?;
    // λ has a pole at every multiple of ω₀ on the jω axis (the aliased
    // integrators); stay strictly inside the first band. Both λ scans
    // run on the axis, so they share the Re halves of its coth terms.
    let lam = model.lambda();
    let axis = lam.line(0.0);
    let band_edge = 0.499_999 * w0;
    let lam_grid = margin_scan_grid(lti.omega_ug * SCAN_DECADES_DOWN, band_edge);
    let lam_vals = scan_or_deadline(
        par_map_cancellable(threads, &lam_grid, deadline, |_, &w| axis.eval(w)),
        "effective-gain margin",
    )?;
    let (eff, beyond_limit) =
        match stability_margins_precomputed(|w| lam.eval_jw(w), &lam_grid, &lam_vals) {
            Ok(m) => (m, false),
            // |λ| ≥ 1 across the whole band: the loop has reached the
            // sampling stability limit. By the symmetry λ(j(ω₀−ω)) = λ̄(jω),
            // λ(jω₀/2) is real (and negative for these loops), so the
            // band-edge phase margin is the natural limiting value.
            Err(MarginError::NoUnityCrossing) => {
                let edge = lam.eval_jw(band_edge);
                (
                    Margins {
                        omega_ug: band_edge,
                        phase_margin_deg: 180.0 + edge.arg().to_degrees(),
                        omega_pc: Some(band_edge),
                        gain_margin_db: Some(-20.0 * edge.abs().log10()),
                    },
                    true,
                )
            }
            Err(e) => return Err(e.into()),
        };

    // H₀,₀(jω) = A(jω)/(1+λ(jω)) is a valid transfer function at any ω
    // (λ is entire along the axis except the aliased-integrator poles at
    // mω₀, where H₀,₀ has physical notches) — scan past the band edge so
    // wideband fast loops still report a −3 dB point. One grid, one
    // parallel evaluation, shared by the bandwidth and peaking
    // extractors (the legacy path evaluated it once per extractor).
    // The scan keeps each A(jω) — the same bits as `model.h00(ω)`'s
    // numerator — for the LTI closed loop A/(1+A) on the same grid.
    let w_ref = lti.omega_ug * SCAN_DECADES_DOWN;
    let h00_scan_hi = 100.0 * lti.omega_ug;
    let h_grid = margin_scan_grid(w_ref, h00_scan_hi);
    let (a_vals, h_vals): (Vec<Complex>, Vec<Complex>) = scan_or_deadline(
        par_map_cancellable(threads, &h_grid, deadline, |_, &w| {
            let aw = a.eval_jw(w);
            (aw, aw / (Complex::ONE + axis.eval(w)))
        }),
        "closed-loop",
    )?
    .into_iter()
    .unzip();
    let bw = bandwidth_3db_precomputed(|w| model.h00(w), w_ref, &h_grid, &h_vals);
    let pk = peaking_db_precomputed(|w| model.h00(w), w_ref, &h_vals);
    let hlti_vals = scan_or_deadline(
        par_map_cancellable(threads, &a_vals, deadline, |_, &aw| {
            aw / (Complex::ONE + aw)
        }),
        "LTI closed-loop",
    )?;
    let pk_lti = peaking_db_precomputed(|w| model.h00_lti(w), w_ref, &hlti_vals);

    // Quality roll-up: every scalar scan point (non-finite → failed),
    // plus one dense closed-loop probe at the effective crossover for a
    // representative condition estimate of the truncated I+G̃ solves.
    let mut quality = QualitySummary::default();
    for v in lam_vals.iter().chain(&h_vals) {
        let q = if v.re.is_finite() && v.im.is_finite() {
            PointQuality::Exact
        } else {
            PointQuality::Failed {
                reason: "non-finite scan value".into(),
            }
        };
        quality.absorb(&q, 0.0, 0.0);
    }
    let probe_trunc = model.resolve_truncation(htmpll_htm::TruncationSpec::default());
    match compute_dense(
        model,
        Complex::from_im(eff.omega_ug),
        probe_trunc,
        KernelPolicy::default(),
    ) {
        Ok(d) => quality.absorb(&d.quality, d.report.cond_estimate, d.report.residual),
        Err(reason) => quality.absorb(&PointQuality::Failed { reason }, 0.0, 0.0),
    }

    Ok(AnalysisReport {
        omega_ug_ratio: lti.omega_ug / w0,
        omega_ug_lti: lti.omega_ug,
        phase_margin_lti_deg: lti.phase_margin_deg,
        omega_ug_eff: eff.omega_ug,
        phase_margin_eff_deg: eff.phase_margin_deg,
        bandwidth_3db: bw,
        peaking_db: pk,
        peaking_lti_db: pk_lti,
        nyquist_stable: lam.strip_stable(),
        beyond_sampling_limit: beyond_limit,
        quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;

    fn report(ratio: f64) -> AnalysisReport {
        let m = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap();
        analyze(&m, ThreadBudget::Auto, &Deadline::none()).unwrap()
    }

    #[test]
    fn slow_loop_agrees_with_lti() {
        let r = report(0.02);
        assert!((r.omega_ug_eff / r.omega_ug_lti - 1.0).abs() < 0.02);
        assert!(r.phase_margin_degradation_deg() < 2.0);
        assert!(r.nyquist_stable);
        assert!((r.omega_ug_ratio - 0.02).abs() < 1e-4);
    }

    #[test]
    fn degradation_grows_with_ratio() {
        // The Fig.-7 monotonicity: faster loops lose more phase margin
        // and push ω_UG,eff further above ω_UG.
        let ratios = [0.05, 0.1, 0.15, 0.2, 0.25];
        let reports: Vec<AnalysisReport> = ratios.iter().map(|&r| report(r)).collect();
        for pair in reports.windows(2) {
            assert!(
                pair[1].phase_margin_eff_deg < pair[0].phase_margin_eff_deg,
                "PM must degrade: {} then {}",
                pair[0].phase_margin_eff_deg,
                pair[1].phase_margin_eff_deg
            );
            assert!(
                pair[1].omega_ug_eff / pair[1].omega_ug_lti
                    >= pair[0].omega_ug_eff / pair[0].omega_ug_lti - 1e-9
            );
        }
        // LTI margin is the same constant for every ratio (shape fixed).
        for r in &reports {
            assert!((r.phase_margin_lti_deg - reports[0].phase_margin_lti_deg).abs() < 1e-6);
        }
    }

    #[test]
    fn peaking_worsens_with_ratio() {
        let slow = report(0.05);
        let fast = report(0.25);
        assert!(
            fast.peaking_db > slow.peaking_db + 1.0,
            "peaking {} vs {}",
            fast.peaking_db,
            slow.peaking_db
        );
        // The LTI prediction barely moves (it is ratio-independent up to
        // the shared shape).
        assert!((fast.peaking_lti_db - slow.peaking_lti_db).abs() < 0.5);
    }

    #[test]
    fn effective_crossover_exceeds_lti() {
        for ratio in [0.05, 0.1, 0.2] {
            let r = report(ratio);
            assert!(
                r.omega_ug_eff >= r.omega_ug_lti * 0.999,
                "ratio {ratio}: {} vs {}",
                r.omega_ug_eff,
                r.omega_ug_lti
            );
        }
    }

    #[test]
    fn bandwidth_found_and_reasonable() {
        let r = report(0.1);
        let bw = r.bandwidth_3db.expect("bandwidth in scan window");
        // Closed-loop bandwidth sits around ω_UG,eff (within a factor ~3).
        assert!(
            bw > 0.5 * r.omega_ug_eff && bw < 5.0 * r.omega_ug_eff,
            "{bw}"
        );
    }

    #[test]
    fn degradation_metrics() {
        let r = report(0.2);
        let d = r.phase_margin_degradation_deg();
        assert!((r.phase_margin_lti_deg - r.phase_margin_eff_deg - d).abs() < 1e-12);
        assert!(r.phase_margin_degradation_rel() > 0.0);
        assert!(r.phase_margin_degradation_rel() < 1.5);
    }

    #[test]
    fn deadline_surfaces_as_retryable_error() {
        let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let err = analyze(&m, ThreadBudget::Fixed(1), &Deadline::after_checks(10)).unwrap_err();
        assert!(
            err.to_string().starts_with(crate::quality::DEADLINE_REASON),
            "{err}"
        );
    }

    #[test]
    fn beyond_sampling_limit_detected() {
        // With this loop shape the effective gain stays above 0 dB across
        // the whole band for fast loops: the sampling stability limit.
        let fast = report(0.4);
        assert!(fast.beyond_sampling_limit);
        assert!(!fast.nyquist_stable);
        assert!(fast.phase_margin_eff_deg.abs() < 1.0); // band-edge arg ≈ −180°
        let slow = report(0.1);
        assert!(!slow.beyond_sampling_limit);
        assert!(slow.nyquist_stable);
    }
}
