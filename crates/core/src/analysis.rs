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
//! use htmpll_par::Deadline;
//!
//! let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let r = analyze(&m, &Deadline::none()).unwrap();
//! // Sampling always erodes the phase margin relative to LTI.
//! assert!(r.phase_margin_eff_deg < r.phase_margin_lti_deg);
//! assert!(r.omega_ug_eff >= r.omega_ug_lti);
//! ```

use crate::closed_loop::PllModel;
use crate::error::CoreError;
use crate::lambda::{strip_stable, EffectiveGain};
use crate::quality::{PointQuality, QualitySummary};
use crate::sweep::{compute_dense, KernelPolicy};
use htmpll_lti::{
    lti_crossings, margin_scan_grid, margin_scan_points, margins_near,
    stability_margins_precomputed, ClosedLoopScan, Crossings, MarginError, Margins,
};
use htmpll_num::{Complex, Poly};
use htmpll_par::Deadline;

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
    /// Numerical-quality roll-up of every closed-loop `H₀,₀` scan point
    /// behind this report (non-finite values count as failed) plus a
    /// dense closed-loop probe at
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

/// The margins [`analyze`] reports: the classical margins of `A(jω)`
/// and the effective margins of `λ(jω)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopMargins {
    /// Margins of the LTI open-loop gain `A(jω)`.
    pub lti: Margins,
    /// Margins of the effective gain `λ(jω)`; the band-edge values when
    /// `beyond_sampling_limit` is set.
    pub eff: Margins,
    /// `|λ(jω)|` never fell below unity inside the first Nyquist band
    /// (see [`AnalysisReport::beyond_sampling_limit`]).
    pub beyond_sampling_limit: bool,
}

/// The classical margins of the open-loop gain `A(jω)` over the window
/// `[10⁻⁷·ω₀, 100·ω₀]` — scaled to the reference frequency so designs in
/// physical units (MHz references) and normalized units both work,
/// since any practical loop crossover sits inside it. The crossings come
/// from the roots of [`lti_crossings`] and are bracketed and refined on
/// the 2,048-point [`margin_scan_grid`] exactly as the full scan would
/// ([`margins_near`]); the full scan runs only when root finding
/// fails. [`analyze`] reports these margins; a caller that needs only
/// the LTI crossover calls this alone.
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] (phase `"LTI margin"`) when the
/// budget has expired; otherwise the margin-extraction failure.
pub fn lti_margins(model: &PllModel, deadline: &Deadline) -> Result<Margins, CoreError> {
    lti_by(model, true, deadline)
}

/// The margins [`analyze`] reports, located by root finding:
/// [`lti_margins`] for `A(jω)`, and for `λ(jω)` the unit-circle roots
/// of two polynomials built from `λ`'s rational form in
/// `z = e^{j2πω/ω₀}` (THEORY.md §3.2), bracketed on the window
/// `[ω_UG·10⁻⁴, 0.499999·ω₀]` — `λ(jω)` is `ω₀`-periodic along the
/// axis, so its margins live in the first Nyquist band. Bitwise equal
/// to [`scan_margins`].
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] (naming the phase) when the budget
/// has expired; otherwise the margin-extraction failure.
pub fn loop_margins(model: &PllModel, deadline: &Deadline) -> Result<LoopMargins, CoreError> {
    let z = model.lambda().z_form();
    margins_by(model, Some(&z), deadline)
}

/// [`loop_margins`] from two full 2,048-point scans of
/// [`margin_scan_grid`] over the same windows, on the calling thread:
/// the oracle the root path is checked against (xcheck's
/// `margins-vs-scan` row).
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] (naming the scan phase) when the
/// budget expires mid-scan; otherwise the margin-extraction failure.
pub fn scan_margins(model: &PllModel, deadline: &Deadline) -> Result<LoopMargins, CoreError> {
    margins_by(model, None, deadline)
}

/// The margins of `A(jω)` by root finding (`roots`) or by scan.
fn lti_by(model: &PllModel, roots: bool, deadline: &Deadline) -> Result<Margins, CoreError> {
    let a = model.open_loop();
    let w0 = model.design().omega_ref();
    let crossings = roots.then(|| lti_crossings(a, w0));
    window_margins(
        |w| a.eval_jw(w),
        (1e-7 * w0, 100.0 * w0),
        crossings,
        deadline,
        "LTI margin",
    )?
    .map_err(CoreError::from)
}

/// Both margin sets, by root finding when `z` holds `λ`'s
/// [`z_form`](EffectiveGain::z_form) pair, by scan otherwise.
fn margins_by(
    model: &PllModel,
    z: Option<&(Poly, Poly)>,
    deadline: &Deadline,
) -> Result<LoopMargins, CoreError> {
    let lti = lti_by(model, z.is_some(), deadline)?;
    let lam = model.lambda();
    let w0 = lam.omega0();
    let axis = lam.line(0.0);
    let eff = window_margins(
        |w| axis.eval(w),
        (lti.omega_ug * SCAN_DECADES_DOWN, BAND_EDGE * w0),
        z.map(|(n, d)| lam.axis_crossings(n, d)),
        deadline,
        "effective-gain margin",
    )?;
    let (eff, beyond_sampling_limit) = band_edge_fallback(lam, eff)?;
    Ok(LoopMargins {
        lti,
        eff,
        beyond_sampling_limit,
    })
}

/// The margins of `f` over the scan window `(lo, hi)`. With
/// `crossings` from a successful root solve, `f` is evaluated only at
/// the grid points next to them ([`margins_near`]); a crossing the grid
/// cannot bracket counts `core.margins.hidden_crossings`. Otherwise —
/// no root solve asked for, or a failed one, which counts
/// `core.margins.scan_fallback` — every point of the scan grid is
/// evaluated in order, the deadline checked before each.
fn window_margins<F, E>(
    f: F,
    (lo, hi): (f64, f64),
    crossings: Option<Result<Crossings, E>>,
    deadline: &Deadline,
    phase: &'static str,
) -> Result<Result<Margins, MarginError>, CoreError>
where
    F: Fn(f64) -> Complex,
{
    match crossings {
        Some(Ok(c)) => {
            if deadline.expired() {
                return Err(CoreError::DeadlineExceeded { phase });
            }
            let (m, hidden) = margins_near(&f, lo, hi, &c);
            htmpll_obs::counter!("core", "margins.hidden_crossings").add(hidden as u64);
            return Ok(m);
        }
        Some(Err(_)) => htmpll_obs::counter!("core", "margins.scan_fallback").inc(),
        None => {}
    }
    let grid = margin_scan_grid(lo, hi);
    let mut vals = Vec::with_capacity(grid.len());
    for &w in &grid {
        if deadline.expired() {
            return Err(CoreError::DeadlineExceeded { phase });
        }
        vals.push(f(w));
    }
    Ok(stability_margins_precomputed(&f, &grid, &vals))
}

/// The upper end of the `λ` margin window as a fraction of `ω₀`: `λ`
/// has a pole at every multiple of `ω₀` on the jω axis (the aliased
/// integrators), so the window stays strictly inside the first band.
const BAND_EDGE: f64 = 0.499_999;

/// The effective margins, or — when `|λ| ≥ 1` across the whole band —
/// the band-edge values with the sampling-limit flag set: by the
/// symmetry `λ(j(ω₀−ω)) = λ̄(jω)`, `λ(jω₀/2)` is real (and negative for
/// these loops), so the band-edge phase margin is the natural limiting
/// value.
fn band_edge_fallback(
    lam: &EffectiveGain,
    eff: Result<Margins, MarginError>,
) -> Result<(Margins, bool), CoreError> {
    match eff {
        Ok(m) => Ok((m, false)),
        Err(MarginError::NoUnityCrossing) => {
            let band_edge = BAND_EDGE * lam.omega0();
            let edge = lam.eval_jw(band_edge);
            Ok((
                Margins {
                    omega_ug: band_edge,
                    phase_margin_deg: 180.0 + edge.arg().to_degrees(),
                    omega_pc: Some(band_edge),
                    gain_margin_db: Some(-20.0 * edge.abs().log10()),
                },
                true,
            ))
        }
        Err(e) => Err(e.into()),
    }
}

/// Analyzes a PLL model.
///
/// The margins come from [`loop_margins`], whose `z`-form of `λ` also
/// decides `nyquist_stable`; the closed-loop `H₀,₀` scan spans
/// `[ω_UG·10⁻⁴, 100·ω_UG]`.
///
/// The `H₀,₀` scan is one pass on the calling thread
/// ([`ClosedLoopScan`]): each of its 2,048 grid points evaluates
/// `A(jω)`, `λ(jω)` and `H₀,₀(jω)` once and feeds the bandwidth, the
/// peaking, the LTI peaking and the quality count, bitwise what the
/// two-pass extractors give over the full grid. Nothing here runs on
/// the `htmpll-par` pool (a margin scan after a failed root solve runs
/// on this thread too), so the report is the same bits whatever pool
/// the caller maps designs on.
///
/// `quality` counts each `H₀,₀` scan point (a non-finite value as
/// failed) plus one dense closed-loop probe at the effective crossover.
/// The probe is solved uncached: on the rank-one sampling-PFD loop it
/// is a Sherman–Morrison closed form of a few microseconds, and
/// distinct designs never share a probe point (repeated requests are
/// answered whole by serve's response cache), so a cache here would
/// only add a lookup.
///
/// `deadline` is checked once per margin set on the root path (or per
/// point of a fallback margin scan), then once per `H₀,₀` scan point
/// under the phase `"closed-loop"`. The extractors need the *whole*
/// scan to bracket crossings, so analysis has no partial-result mode:
/// the deadline either leaves enough budget for a full report or the
/// analysis fails retryably. [`Deadline::none`] never expires.
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] (naming the phase) when the budget
/// expires; otherwise propagates margin-extraction failures (e.g. a
/// loop so slow/fast that no unity crossing exists in the scan window).
pub fn analyze(model: &PllModel, deadline: &Deadline) -> Result<AnalysisReport, CoreError> {
    let _span = htmpll_obs::span("core", "analyze");
    let a = model.open_loop();
    let w0 = model.design().omega_ref();
    let lam = model.lambda();
    let z = lam.z_form();
    let LoopMargins {
        lti,
        eff,
        beyond_sampling_limit,
    } = margins_by(model, Some(&z), deadline)?;
    let axis = lam.line(0.0);

    // H₀,₀(jω) = A(jω)/(1+λ(jω)) is a valid transfer function at any ω
    // (λ is entire along the axis except the aliased-integrator poles at
    // mω₀, where H₀,₀ has physical notches) — scan past the band edge so
    // wideband fast loops still report a −3 dB point. One pass on this
    // thread evaluates each grid point once and feeds its A(jω) — the
    // same bits as `model.h00(ω)`'s numerator — and H₀,₀(jω) to the
    // bandwidth, both peakings and the quality count. One
    // `model.h00(w_ref)` sets both the −3 dB target and the peaking
    // reference.
    let w_ref = lti.omega_ug * SCAN_DECADES_DOWN;
    let mut scan = ClosedLoopScan::new(model.h00(w_ref));
    for w in margin_scan_points(w_ref, 100.0 * lti.omega_ug) {
        if deadline.expired() {
            return Err(CoreError::DeadlineExceeded {
                phase: "closed-loop",
            });
        }
        let aw = a.eval_jw(w);
        scan.push(w, aw, aw / (Complex::ONE + axis.eval(w)));
    }
    let cl = scan.finish(|w| model.h00(w), |w| model.h00_lti(w), w_ref);

    // Quality roll-up: every H₀,₀ scan point (non-finite → failed),
    // plus one dense closed-loop probe at the effective crossover for a
    // representative condition estimate of the truncated I+G̃ solves.
    let mut quality = QualitySummary {
        exact: cl.points - cl.non_finite,
        failed: cl.non_finite,
        ..QualitySummary::default()
    };
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
        bandwidth_3db: cl.bandwidth_3db,
        peaking_db: cl.peaking_db,
        peaking_lti_db: cl.peaking_lti_db,
        nyquist_stable: strip_stable(&z.0, &z.1),
        beyond_sampling_limit,
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
        analyze(&m, &Deadline::none()).unwrap()
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
        let err = analyze(&m, &Deadline::after_checks(10)).unwrap_err();
        assert!(
            err.to_string().starts_with(crate::quality::DEADLINE_REASON),
            "{err}"
        );
    }

    #[test]
    fn deadline_in_the_closed_loop_pass() {
        // One check per margin set (2), then one per H₀,₀ scan point
        // (2,048): a budget of 2 to 2,049 checks runs out in the pass,
        // and 2,050 is enough for the whole report.
        let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let run = |n| analyze(&m, &Deadline::after_checks(n));
        for n in [2, 1_000, 2_049] {
            match run(n) {
                Err(CoreError::DeadlineExceeded { phase }) => assert_eq!(phase, "closed-loop"),
                other => panic!("{n} checks: {other:?}"),
            }
        }
        // `{:?}` prints every f64 so that it reads back to the same bits.
        let full = analyze(&m, &Deadline::none()).unwrap();
        assert_eq!(format!("{:?}", run(2_050).unwrap()), format!("{full:?}"));
    }

    #[test]
    fn failed_root_solve_scans_the_whole_grid() {
        // The fallback evaluates every point of the 2,048-point grid on
        // this thread, checking the deadline before each, and gives the
        // full scan's margins.
        let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let a = m.open_loop();
        let w0 = m.design().omega_ref();
        let (lo, hi) = (1e-7 * w0, 100.0 * w0);
        let fallback = |deadline: &Deadline| {
            let failed: Option<Result<Crossings, ()>> = Some(Err(()));
            window_margins(|w| a.eval_jw(w), (lo, hi), failed, deadline, "LTI margin")
        };
        htmpll_obs::override_filter("core=info");
        let fallbacks = || -> u64 {
            htmpll_obs::snapshot()
                .iter()
                .filter(|s| s.key == "core.margins.scan_fallback")
                .map(|s| s.count)
                .sum()
        };
        let before = fallbacks();
        let got = fallback(&Deadline::none()).unwrap().unwrap();
        assert!(fallbacks() > before, "scan_fallback not counted");
        let grid = margin_scan_grid(lo, hi);
        let vals: Vec<Complex> = grid.iter().map(|&w| a.eval_jw(w)).collect();
        let scan = stability_margins_precomputed(|w| a.eval_jw(w), &grid, &vals).unwrap();
        // `{:?}` prints every f64 so that it reads back to the same bits.
        assert_eq!(format!("{got:?}"), format!("{scan:?}"));
        for n in [0, 1_000, 2_047] {
            match fallback(&Deadline::after_checks(n)) {
                Err(CoreError::DeadlineExceeded { phase }) => assert_eq!(phase, "LTI margin"),
                other => panic!("{n} checks: {other:?}"),
            }
        }
        assert_eq!(fallback(&Deadline::after_checks(2_048)).unwrap(), Ok(got));
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
