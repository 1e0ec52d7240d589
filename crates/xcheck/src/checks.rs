//! The cross-stack comparisons and the corpus driver.
//!
//! Each scenario is pushed through every overlapping observable of the
//! three stacks:
//!
//! | check | stacks reconciled | identity |
//! |---|---|---|
//! | `lambda-truncation` | exact `coth` λ vs `Σ_{\|m\|≤M}` | eq. 37, Richardson-bounded tail |
//! | `smw-vs-dense` | rank-one SMW closed loop vs dense LU | same matrix, two solvers |
//! | `structured-vs-dense` | structured kernel dispatch vs dense ladder | same matrix, two kernel families |
//! | `h00-vs-dense` | scalar `A/(1+λ)` vs HTM `(0,0)` band | eq. 38 vs truncated reference |
//! | `lambda-vs-ztf` | `λ(jω)` vs `G(e^{jωT})` | impulse invariance (exact, rel. deg. ≥ 2) |
//! | `half-sample-residual` | ditto, relative degree 1 | Poisson correction `T·c/2` |
//! | `closed-loop-sampled` | `λ/(1+λ)` vs `G/(1+G)` | sampled closed loop |
//! | `jury-vs-nyquist` | Jury test vs HTM-Nyquist verdict | same stability boundary |
//! | `strip-roots-vs-winding` | roots of `1 + λ` in `z` vs winding count of `1 + λ` | argument principle on the period strip |
//! | `crossing-consistency` | analysis margins vs direct λ | `\|λ(jω_UG,eff)\| = 1` |
//! | `sim-h00` | multitone simulation vs `H₀,₀` | paper Fig. 6 |
//! | `sim-spur` | Goertzel on sim trace vs `LeakageSpurs` | reference-spur closed form |
//! | `sim-psd-parseval` | PSD of sim record vs its mean square | Parseval |
//! | `nyquist-vs-jury-…`, `sim-lock-…` | all three at the stability limit | one shared boundary |
//!
//! Every comparison is graded on the [`crate::tolerance`] ladder with a
//! bound derived from the physics of the comparison — never a fudge
//! factor picked to make the corpus pass. The corpus driver runs
//! scenarios on the `htmpll-par` pool; all numerical work is
//! per-scenario deterministic, so the report digest is bitwise-stable
//! across thread counts.

use crate::corpus::{corpus, Scenario};
use crate::report::{CheckResult, ScenarioReport, Verdict, XcheckReport};
use crate::tolerance::{ladder, EXACT_TIER};
use htmpll_core::{
    analyze, AnalysisReport, CoreError, KernelPolicy, LeakageSpurs, PllDesign, PllModel, SweepCache,
};
use htmpll_htm::Truncation;
use htmpll_lti::TfError;
use htmpll_num::roots::find_roots_graded;
use htmpll_num::Complex;
use htmpll_par::{par_map, Deadline, ThreadBudget};
use htmpll_sim::{acquire_lock, measure_h00_multitone, LockOptions, MeasureOptions};
use htmpll_sim::{PllSim, SimConfig, SimParams};
use htmpll_spectral::goertzel::tone_amplitude;
use htmpll_spectral::{periodogram, Window};
use htmpll_zdomain::{impulse_invariant, jury_stable, reference_design_stability_limit, Zf};
use std::fmt;

/// Truncation order for the dense HTM reference path.
const DENSE_K: usize = 16;
/// Alias-sum length for the truncation cross-check (the Richardson
/// bound is computed from `M` and `2M`).
const TRUNC_M: usize = 10_000;
/// Probe frequencies as fractions of the Nyquist band edge `ω₀/2`.
const PROBE_FRACS: [f64; 5] = [0.08, 0.2, 0.4, 0.6, 0.85];

/// Failure to *run* the corpus (as opposed to a model discrepancy,
/// which is a [`Verdict::Mismatch`] in the report).
#[derive(Debug)]
pub enum XcheckError {
    /// No corpus with that name.
    UnknownCorpus(String),
    /// A model failed to build or analyze.
    Core(CoreError),
    /// A z-domain construction failed.
    ZDomain(String),
}

impl fmt::Display for XcheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcheckError::UnknownCorpus(n) => write!(f, "unknown corpus {n:?}"),
            XcheckError::Core(e) => write!(f, "model construction/analysis failed: {e}"),
            XcheckError::ZDomain(e) => write!(f, "z-domain construction failed: {e}"),
        }
    }
}

impl std::error::Error for XcheckError {}

impl From<CoreError> for XcheckError {
    fn from(e: CoreError) -> Self {
        XcheckError::Core(e)
    }
}

/// One graded probe point.
struct Pt {
    deviation: f64,
    bound: f64,
    values: (f64, f64),
}

/// Grades a set of probe points and keeps the worst: any mismatch wins,
/// otherwise the largest deviation.
fn grade(
    check: &'static str,
    stacks: &'static str,
    reason: &'static str,
    tier: f64,
    pts: &[Pt],
) -> CheckResult {
    let mut worst: Option<(u8, &Pt, Verdict)> = None;
    for p in pts {
        let v = ladder(p.deviation, tier, p.bound, reason, stacks, p.values);
        let rank = match v {
            Verdict::Agree => 0,
            Verdict::ToleratedDivergence { .. } => 1,
            Verdict::Mismatch { .. } => 2,
        };
        let replace = match &worst {
            None => true,
            Some((r, w, _)) => {
                rank > *r || (rank == *r && p.deviation.max(-1.0) > w.deviation.max(-1.0))
            }
        };
        if replace {
            worst = Some((rank, p, v));
        }
    }
    let (_, p, verdict) = worst.expect("at least one probe point");
    CheckResult {
        check,
        stacks,
        deviation: p.deviation,
        verdict,
    }
}

/// Grades a boolean agreement (stability verdicts, lock outcomes).
fn grade_bool(check: &'static str, stacks: &'static str, a: bool, b: bool) -> CheckResult {
    grade_exact(check, stacks, a as u8 as f64, b as u8 as f64)
}

/// Grades two discrete observables (flags, counts) that must be equal.
fn grade_exact(check: &'static str, stacks: &'static str, a: f64, b: f64) -> CheckResult {
    let deviation = if a == b { 0.0 } else { 1.0 };
    CheckResult {
        check,
        stacks,
        deviation,
        verdict: ladder(deviation, 0.5, 0.5, "exact", stacks, (a, b)),
    }
}

/// λ-stack internal consistency: the exact lattice-sum closed form vs
/// the truncated alias sum, with a Richardson error estimate. The tail
/// decays like `C/M^{d−1}` (`d ≥ 2`) or `C/M` for the symmetric
/// relative-degree-1 sum, so `e(M) − e(2M) ≥ e(2M)` and
/// `4·(e(M) − e(2M))` bounds `e(2M)` with margin.
fn check_lambda_truncation(model: &PllModel, probes: &[f64]) -> CheckResult {
    let lam = model.lambda();
    let pts: Vec<Pt> = probes
        .iter()
        .map(|&w| {
            let s = Complex::from_im(w);
            let exact = lam.eval(s);
            let scale = 1.0 + exact.abs();
            let t2m = lam.eval_truncated(s, 2 * TRUNC_M);
            let e1 = (lam.eval_truncated(s, TRUNC_M) - exact).abs();
            let e2 = (t2m - exact).abs();
            Pt {
                deviation: e2 / scale,
                bound: 4.0 * (e1 - e2).max(0.0) / scale + 1e-11,
                values: (exact.abs(), t2m.abs()),
            }
        })
        .collect();
    grade(
        "lambda-truncation",
        "core::λ exact vs Σ|m|≤M",
        "Richardson tail estimate 4(e(M)−e(2M))",
        EXACT_TIER,
        &pts,
    )
}

/// The full analysis on one thread with a fresh cache: xcheck reports
/// hold no timings and must not depend on the pool.
fn analyze_serial(model: &PllModel) -> Result<AnalysisReport, CoreError> {
    analyze(model, ThreadBudget::Fixed(1), &Deadline::none())
}

/// Two solvers, one matrix: the rank-one Sherman–Morrison closed loop
/// against the dense-LU reference at identical truncation. Differences
/// are pure linear-algebra roundoff, amplified by the conditioning of
/// `I + G̃` (worst near crossover where `|1+λ|` is small).
fn check_smw_vs_dense(model: &PllModel, probes: &[f64]) -> Result<CheckResult, XcheckError> {
    let k = Truncation::new(DENSE_K);
    let lam = model.lambda();
    let pts: Vec<Pt> = probes
        .iter()
        .map(|&w| {
            let s = Complex::from_im(w);
            let smw = model.closed_loop_htm(s, k);
            let dense = model
                .open_loop_htm(s, k)
                .closed_loop()
                .map_err(CoreError::from)?;
            let scale = dense
                .as_matrix()
                .as_slice()
                .iter()
                .fold(0.0f64, |a, z| a.max(z.abs()))
                .max(1e-300);
            let diff = smw.as_matrix().max_diff(dense.as_matrix());
            // Conditioning of the solve: `1/|1+λ_K|` is the rank-one
            // loop's exact inverse-amplification factor.
            let cond = (Complex::ONE + lam.eval_truncated(s, DENSE_K))
                .abs()
                .recip();
            Ok(Pt {
                deviation: diff / scale,
                bound: 1e-12 * (DENSE_K as f64) * (1.0 + cond),
                values: (scale, diff),
            })
        })
        .collect::<Result<_, XcheckError>>()?;
    Ok(grade(
        "smw-vs-dense",
        "core::SMW vs htm::LU",
        "solver roundoff × (1 + 1/|1+λ|)",
        EXACT_TIER,
        &pts,
    ))
}

/// The paper's eq.-38 scalar closed form `H₀,₀ = A/(1+λ)` (exact λ)
/// against the `(0,0)` band of the dense truncated reference. The only
/// legitimate gap is the λ truncation at order `K`, which is directly
/// computable: `t_K = |λ − λ_K|` enters through the resolvent as
/// `≈ |H₀,₀|·t_K/|1+λ_K|`.
fn check_h00_vs_dense(model: &PllModel, probes: &[f64]) -> Result<CheckResult, XcheckError> {
    let k = Truncation::new(DENSE_K);
    let lam = model.lambda();
    let pts: Vec<Pt> = probes
        .iter()
        .map(|&w| {
            let s = Complex::from_im(w);
            let h00 = model.h00(w);
            let d00 = model
                .open_loop_htm(s, k)
                .closed_loop()
                .map_err(CoreError::from)?
                .band(0, 0);
            let lam_exact = lam.eval(s);
            let lam_k = lam.eval_truncated(s, DENSE_K);
            let t_k = (lam_exact - lam_k).abs();
            let scale = 1.0 + h00.abs();
            Ok(Pt {
                deviation: (h00 - d00).abs() / scale,
                bound: 5.0 * h00.abs() * t_k / ((Complex::ONE + lam_k).abs().max(1e-300) * scale)
                    + 1e-9,
                values: (h00.abs(), d00.abs()),
            })
        })
        .collect::<Result<_, XcheckError>>()?;
    Ok(grade(
        "h00-vs-dense",
        "core::A/(1+λ) vs htm::band(0,0)",
        "λ truncation tail t_K through the resolvent",
        EXACT_TIER,
        &pts,
    ))
}

/// The structured kernel family (rank-one / diagonal dispatch with the
/// Sherman–Morrison fast path) against the forced dense escalating
/// ladder at identical truncation — same
/// closed-loop matrix, two kernel implementations, reconciled entry by
/// entry and on the `(0,0)` baseband element. Differences are pure
/// solver roundoff amplified by the conditioning of `I + G̃`.
fn check_structured_vs_dense(model: &PllModel, probes: &[f64]) -> Result<CheckResult, XcheckError> {
    let k = Truncation::new(DENSE_K);
    let lam = model.lambda();
    let cache = SweepCache::new();
    let solve = |w: f64, kernel: KernelPolicy| {
        cache
            .dense_robust(model, Complex::from_im(w), k, kernel)
            .map_err(|reason| XcheckError::Core(CoreError::SweepFailed { reason }))
    };
    let mut pts = Vec::with_capacity(2 * probes.len());
    for &w in probes {
        let fast = solve(w, KernelPolicy::Structured)?;
        let strict = solve(w, KernelPolicy::Dense)?;
        let dense = strict.htm.as_matrix();
        let scale = dense
            .as_slice()
            .iter()
            .fold(0.0f64, |a, z| a.max(z.abs()))
            .max(1e-300);
        let cond = (Complex::ONE + lam.eval_truncated(Complex::from_im(w), DENSE_K))
            .abs()
            .recip();
        pts.push(Pt {
            deviation: fast.htm.as_matrix().max_diff(dense) / scale,
            bound: 1e-12 * (DENSE_K as f64) * (1.0 + cond),
            values: (scale, fast.htm.as_matrix().max_diff(dense)),
        });
        let (f00, d00) = (fast.htm.band(0, 0), strict.htm.band(0, 0));
        pts.push(Pt {
            deviation: (f00 - d00).abs() / (1.0 + d00.abs()),
            bound: 1e-12 * (DENSE_K as f64) * (1.0 + cond),
            values: (f00.abs(), d00.abs()),
        });
    }
    Ok(grade(
        "structured-vs-dense",
        "core::structured kernels vs dense ladder",
        "solver roundoff × (1 + 1/|1+λ|)",
        EXACT_TIER,
        &pts,
    ))
}

/// Builds the discrete open-loop pulse transfer function from the
/// *delay-folded* continuous gain, so delay scenarios compare the same
/// loop on both sides.
fn z_open_loop(model: &PllModel) -> Result<(Zf, f64), XcheckError> {
    let t = 1.0 / model.design().f_ref();
    let plant = model.open_loop().scale(t);
    let g = impulse_invariant(&plant, t).map_err(|e| XcheckError::ZDomain(e.to_string()))?;
    Ok((g, t))
}

/// Impulse invariance: `G(e^{jωT}) = Σ_m A(jω + jmω₀) = λ(jω)` exactly
/// for relative degree ≥ 2. For relative degree 1 the one-sided sample
/// sum counts the impulse-response jump `p(0⁺) = T·c` fully instead of
/// half, so `G − λ = T·c/2` — checked separately as
/// `half-sample-residual`.
fn check_lambda_vs_ztf(
    model: &PllModel,
    g: &Zf,
    t_sample: f64,
    probes: &[f64],
) -> Vec<CheckResult> {
    let lam = model.lambda();
    let a = model.open_loop();
    let rel_deg_one = a.den().degree() == a.num().degree() + 1;
    // c = lim s·A(s): the impulse-response jump of A at t = 0⁺.
    let corr = if rel_deg_one {
        0.5 * t_sample * a.num().leading() / a.den().leading()
    } else {
        0.0
    };
    let mut out = Vec::new();
    let raw: Vec<Pt> = probes
        .iter()
        .map(|&w| {
            let gz = g.eval_jw(w, t_sample);
            let l = lam.eval(Complex::from_im(w));
            let scale = 1.0 + l.abs();
            Pt {
                deviation: (gz - l).abs() / scale,
                bound: if rel_deg_one {
                    1.05 * corr.abs() / scale + 3e-8
                } else {
                    3e-8
                },
                values: (gz.abs(), l.abs()),
            }
        })
        .collect();
    out.push(grade(
        "lambda-vs-ztf",
        "core::λ(jω) vs zdomain::G(e^{jωT})",
        if rel_deg_one {
            "half-sample Poisson correction T·c/2"
        } else {
            "pole-extraction roundoff"
        },
        EXACT_TIER,
        &raw,
    ));
    if rel_deg_one {
        // After subtracting the analytic correction the two routes must
        // agree to roundoff again.
        let residual: Vec<Pt> = probes
            .iter()
            .map(|&w| {
                let gz = g.eval_jw(w, t_sample);
                let l = lam.eval(Complex::from_im(w));
                let scale = 1.0 + l.abs();
                Pt {
                    deviation: (gz - l - Complex::from_re(corr)).abs() / scale,
                    bound: 3e-8,
                    values: ((gz - l).abs(), corr.abs()),
                }
            })
            .collect();
        out.push(grade(
            "half-sample-residual",
            "core::λ + T·c/2 vs zdomain::G",
            "pole-extraction roundoff",
            EXACT_TIER,
            &residual,
        ));
    }
    out
}

/// Sampled closed loop: `G/(1+G)` at `z = e^{jωT}` against the scalar
/// closed form `λ/(1+λ)`. Equality is inherited from impulse
/// invariance (relative degree ≥ 2 only), but the crossover region
/// amplifies roundoff by `1/|1+λ|`.
fn check_closed_loop_sampled(
    model: &PllModel,
    g: &Zf,
    t_sample: f64,
    probes: &[f64],
) -> Result<CheckResult, XcheckError> {
    let closed = g
        .feedback_unity()
        .map_err(|e| XcheckError::ZDomain(e.to_string()))?;
    let lam = model.lambda();
    let pts: Vec<Pt> = probes
        .iter()
        .map(|&w| {
            let hz = closed.eval_jw(w, t_sample);
            let l = lam.eval(Complex::from_im(w));
            let h = l / (Complex::ONE + l);
            let scale = 1.0 + h.abs();
            let amp = (Complex::ONE + l).abs().max(1e-300).recip();
            Pt {
                deviation: (hz - h).abs() / scale,
                bound: 3e-8 * (1.0 + amp),
                values: (hz.abs(), h.abs()),
            }
        })
        .collect();
    Ok(grade(
        "closed-loop-sampled",
        "core::λ/(1+λ) vs zdomain::G/(1+G)",
        "roundoff × (1 + 1/|1+λ|) at crossover",
        EXACT_TIER,
        &pts,
    ))
}

/// The analysis layer's crossover against the λ it was extracted from:
/// `|λ(jω_UG,eff)| = 1` to the margin scanner's refinement tolerance,
/// and the reported phase margin equals `180° + arg λ` there.
fn check_crossing(model: &PllModel, report: &AnalysisReport) -> Vec<CheckResult> {
    if report.beyond_sampling_limit {
        return Vec::new();
    }
    let l = model.lambda().eval(Complex::from_im(report.omega_ug_eff));
    let mag = Pt {
        deviation: (l.abs() - 1.0).abs(),
        bound: 1e-6,
        values: (l.abs(), 1.0),
    };
    let pm = 180.0 + l.arg().to_degrees();
    let pm_pt = Pt {
        deviation: (pm - report.phase_margin_eff_deg).abs() / 180.0,
        bound: 1e-6,
        values: (pm, report.phase_margin_eff_deg),
    };
    vec![
        grade(
            "crossing-magnitude",
            "core::analyze ω_UG,eff vs λ(jω)",
            "margin-scan refinement tolerance",
            EXACT_TIER,
            &[mag],
        ),
        grade(
            "crossing-phase-margin",
            "core::analyze PM_eff vs arg λ",
            "margin-scan refinement tolerance",
            EXACT_TIER,
            &[pm_pt],
        ),
    ]
}

/// Time-domain leg: multitone-simulated `H₀,₀` against the closed form.
/// Agreement is statistical — finite pulse width (the impulse-PFD
/// idealization, paper Fig. 4) and finite-record tone extraction bound
/// it at the few-percent level of the paper's own Fig.-6 claim.
fn check_sim_h00(model: &PllModel) -> CheckResult {
    let params = SimParams::from_design(model.design());
    let cfg = SimConfig::default();
    let tones = [0.2, 0.5, 1.0];
    let ms = measure_h00_multitone(&params, &cfg, &tones, &MeasureOptions::default());
    let pts: Vec<Pt> = ms
        .iter()
        .map(|m| {
            let predict = model.h00(m.omega);
            Pt {
                deviation: (m.h - predict).abs() / predict.abs().max(1e-300),
                bound: 0.08,
                values: (m.h.abs(), predict.abs()),
            }
        })
        .collect();
    grade(
        "sim-h00",
        "sim::multitone vs core::H₀,₀",
        "finite pulse width + finite-record extraction",
        EXACT_TIER,
        &pts,
    )
}

/// Reference-spur closed form vs a Goertzel line measurement on the
/// simulated locked loop with charge-pump leakage. The record spans an
/// integer number of reference periods, so the extraction itself is
/// leakage-free; the residual gap is the finite width of the correction
/// pulse (the closed form takes the narrow-pulse limit).
fn check_sim_spur(model: &PllModel) -> (CheckResult, CheckResult) {
    let mut params = SimParams::from_design(model.design());
    params.leakage = 1e-3 * params.i_cp;
    let t_ref = params.t_ref;
    let mut sim = PllSim::new(params.clone(), SimConfig::default());
    let _ = sim.run(400.0 * t_ref, &|_| 0.0);
    let trace = sim.run(512.0 * t_ref, &|_| 0.0);
    let mean = trace.theta_vco.iter().sum::<f64>() / trace.theta_vco.len() as f64;
    let centered: Vec<f64> = trace.theta_vco.iter().map(|v| v - mean).collect();
    let w0 = 2.0 * std::f64::consts::PI / t_ref;
    let measured = tone_amplitude(&centered, w0, trace.dt).abs();
    // The real waveform carries the conjugate pair: peak 2|θ̃₁|.
    let predicted = 2.0 * LeakageSpurs::new(model, params.leakage).sideband(1).abs();
    let spur = grade(
        "sim-spur",
        "sim::Goertzel@ω₀ vs core::spurs",
        "finite correction-pulse width",
        EXACT_TIER,
        &[Pt {
            deviation: (measured - predicted).abs() / predicted.max(1e-300),
            bound: 0.05,
            values: (measured, predicted),
        }],
    );

    // Parseval on the same record: the one-sided PSD rectangle sum must
    // reproduce the record's mean square exactly (rectangular window).
    let psd = periodogram(&centered, 1.0 / trace.dt, Window::Rectangular)
        .expect("non-empty record, positive fs");
    let df = psd[1].0 - psd[0].0;
    let total: f64 = psd.iter().map(|&(_, p)| p * df).sum();
    let msq = centered.iter().map(|v| v * v).sum::<f64>() / centered.len() as f64;
    let parseval = grade(
        "sim-psd-parseval",
        "spectral::periodogram vs sim record",
        "FFT roundoff",
        1e-9,
        &[Pt {
            deviation: (total - msq).abs() / msq.max(1e-300),
            bound: 1e-8,
            values: (total, msq),
        }],
    );
    (spur, parseval)
}

/// The roots behind `analyze`'s exact strip verdict against the
/// argument principle, both counted right of the strip contour
/// `Re s = ε = 10⁻⁴·ω_UG` (just right of the aliased integrator poles
/// on the axis). One count is the number of roots of the characteristic
/// polynomial `D + N` of `1 + λ` in `z = e^{2πs/ω₀}` outside the circle
/// `|z| = e^{2πε/ω₀}`; the other is the winding count of `1 + λ` over
/// 4,096 points of the contour. Like with like: a zero with
/// `0 < Re s < ε`, which the exact verdict rightly calls unstable, is
/// outside both counts. The winding count is zeros minus poles, so this
/// assumes no open-loop pole right of the contour, as in every corpus
/// design.
fn check_strip_roots_vs_winding(
    model: &PllModel,
    report: &AnalysisReport,
) -> Result<CheckResult, XcheckError> {
    let w0 = model.design().omega_ref();
    let eps = 1e-4 * report.omega_ug_lti;
    let lam = model.lambda();
    let line = lam.line(eps);
    let winding = strip_zero_count(|s| line.eval(s.im), w0, eps, 4096);
    let radius = (2.0 * std::f64::consts::PI * eps / w0).exp();
    let roots = find_roots_graded(&lam.characteristic())
        .map_err(|e| XcheckError::Core(CoreError::Tf(TfError::Roots(e))))?;
    let right = roots.iter().filter(|z| z.abs() > radius).count();
    Ok(grade_exact(
        "strip-roots-vs-winding",
        "core::characteristic vs htm::strip_zero_count",
        right as f64,
        winding as f64,
    ))
}

/// Counts the zeros of `1 + f(s)` inside the right-half period strip
/// `{Re s > eps, |Im s| < ω₀/2}` of an `ω₀`-periodic loop gain, by the
/// argument principle on the strip boundary: the oracle the exact
/// stability verdict is graded against (`strip-roots-vs-winding`).
///
/// Effective open-loop gains `λ(s) = Σ_m A(s + jmω₀)` are periodic
/// along the imaginary axis (so the classical infinite Nyquist contour
/// winds infinitely often) and have poles **on** the axis at every
/// `jmω₀` (aliased integrators), which the offset `eps > 0` side-steps.
/// Because `f` is periodic, the horizontal strip edges cancel exactly
/// and, for gains that decay as `Re s → ∞`, the right edge contributes
/// nothing: the count reduces to the winding about the origin of
/// `1 + f(eps + jω)` over `n + 1` samples, `ω` traversed **downward**
/// from `+ω₀/2` to `−ω₀/2` (counter-clockwise boundary orientation of
/// the strip).
///
/// Returns the number of unstable closed-loop poles per period strip —
/// `0` means stable.
///
/// # Panics
///
/// Panics when `omega0 <= 0`, `eps <= 0`, or `n < 8`.
pub fn strip_zero_count<F: FnMut(Complex) -> Complex>(
    mut f: F,
    omega0: f64,
    eps: f64,
    n: usize,
) -> isize {
    assert!(omega0 > 0.0, "omega0 must be positive");
    assert!(eps > 0.0, "contour offset must be positive");
    assert!(n >= 8, "need at least 8 contour samples");
    let mut total = 0.0f64;
    let mut prev: Option<Complex> = None;
    for k in 0..=n {
        let z = Complex::ONE + f(Complex::new(eps, omega0 * (0.5 - k as f64 / n as f64)));
        if let Some(p) = prev {
            let cross = p.re * z.im - p.im * z.re;
            let dot = p.re * z.re + p.im * z.im;
            total += cross.atan2(dot);
        }
        prev = Some(z);
    }
    (total / (2.0 * std::f64::consts::PI)).round() as isize
}

/// Runs every applicable comparison for one scenario.
///
/// # Errors
///
/// Propagates model construction, analysis and root-finding failures.
pub fn run_scenario(s: &Scenario) -> Result<ScenarioReport, XcheckError> {
    let _span = htmpll_obs::span_labeled("xcheck", "scenario", || s.name.clone());
    let model = s.model()?;
    let w0 = model.design().omega_ref();
    let probes: Vec<f64> = PROBE_FRACS.iter().map(|f| f * w0 / 2.0).collect();
    let mut checks = Vec::new();

    // λ stack internal.
    checks.push(check_lambda_truncation(&model, &probes));

    // HTM reference path.
    checks.push(check_smw_vs_dense(&model, &probes)?);
    checks.push(check_structured_vs_dense(&model, &probes)?);
    if !s.isf {
        // The scalar closed form assumes the time-invariant V-column.
        checks.push(check_h00_vs_dense(&model, &probes)?);
    }

    // Analysis crossover vs λ, and the two stability verdicts.
    let report = analyze_serial(&model)?;
    checks.extend(check_crossing(&model, &report));
    checks.push(check_strip_roots_vs_winding(&model, &report)?);

    // z-domain stack (scalar LTI model: skip for time-varying ISF).
    if !s.isf {
        let (g, t_sample) = z_open_loop(&model)?;
        checks.extend(check_lambda_vs_ztf(&model, &g, t_sample, &probes));
        if !s.relative_degree_one() {
            checks.push(check_closed_loop_sampled(&model, &g, t_sample, &probes)?);
        }
        let jury =
            jury_stable(&g.characteristic()).map_err(|e| XcheckError::ZDomain(e.to_string()))?;
        checks.push(grade_bool(
            "jury-vs-nyquist",
            "zdomain::Jury vs core::Nyquist",
            jury,
            report.nyquist_stable,
        ));
    }

    // Time-domain stack.
    if s.sim {
        checks.push(check_sim_h00(&model));
        let (spur, parseval) = check_sim_spur(&model);
        checks.push(spur);
        checks.push(parseval);
    }

    Ok(ScenarioReport {
        scenario: s.name.clone(),
        checks,
    })
}

/// The three stacks share one stability boundary: brackets the Jury
/// sampling limit and confirms the HTM-Nyquist verdict and the
/// behavioral simulator (lock vs divergence) land on the same side.
fn boundary_scenario() -> Result<ScenarioReport, XcheckError> {
    let mut checks = Vec::new();

    let limit = reference_design_stability_limit(0.05, 0.6, 1e-3);

    for (tag, factor, expect_stable) in [
        ("nyquist-vs-jury-below", 0.92, true),
        ("nyquist-vs-jury-above", 1.08, false),
    ] {
        let design = PllDesign::reference_design(factor * limit)?;
        let model = PllModel::builder(design).build()?;
        let report = analyze_serial(&model)?;
        let check: &'static str = tag;
        checks.push(grade_bool(
            check,
            "core::Nyquist vs zdomain::Jury limit",
            report.nyquist_stable,
            expect_stable,
        ));
    }

    for (tag, factor, expect_locked) in [
        ("sim-lock-below", 0.7, true),
        ("sim-lock-above", 1.25, false),
    ] {
        let design = PllDesign::reference_design(factor * limit)?;
        let params = SimParams::from_design(&design);
        let opts = LockOptions {
            threshold_frac: 0.02,
            hold_periods: 50,
            max_periods: 4000,
        };
        let r = acquire_lock(&params, &SimConfig::default(), 5e-3, &opts);
        checks.push(grade_bool(
            tag,
            "sim::acquire_lock vs zdomain::Jury limit",
            r.locked,
            expect_locked,
        ));
    }

    Ok(ScenarioReport {
        scenario: format!("stability-boundary-l{limit:.4}"),
        checks,
    })
}

/// Runs the named corpus and reconciles every overlapping observable.
///
/// Scenarios run in parallel on the `htmpll-par` pool; each scenario's
/// numerics are computed sequentially inside it, so the report (and its
/// digest) is **bitwise-identical for any thread count**.
///
/// # Errors
///
/// [`XcheckError::UnknownCorpus`] for an unknown name; construction
/// failures propagate. Model *disagreements* are not errors — they are
/// [`Verdict::Mismatch`] entries in the report.
pub fn run_corpus(name: &str, threads: ThreadBudget) -> Result<XcheckReport, XcheckError> {
    let _span = htmpll_obs::span_labeled("xcheck", "run_corpus", || name.to_string());
    let scenarios = corpus(name).ok_or_else(|| XcheckError::UnknownCorpus(name.to_string()))?;
    let results = par_map(threads, &scenarios, |_, s| run_scenario(s));

    let mut reports = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    reports.push(boundary_scenario()?);

    let report = XcheckReport {
        corpus: name.to_string(),
        scenarios: reports,
    };
    htmpll_obs::counter!("xcheck", "checks.agree").add(report.agreements() as u64);
    htmpll_obs::counter!("xcheck", "checks.tolerated").add(report.tolerated() as u64);
    htmpll_obs::counter!("xcheck", "checks.mismatch").add(report.mismatches() as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_corpus_is_an_error() {
        assert!(matches!(
            run_corpus("nope", ThreadBudget::Fixed(1)),
            Err(XcheckError::UnknownCorpus(_))
        ));
    }

    #[test]
    fn single_scenario_reconciles() {
        // One mid-range scenario end to end (no sim: keep the unit test
        // fast — the corpus integration test covers the rest).
        let s = Scenario {
            name: "unit-mid-2nd".into(),
            ratio: 0.1,
            filter: crate::corpus::FilterKind::Second { spread: 4.0 },
            delay: None,
            isf: false,
            sim: false,
        };
        let rep = run_scenario(&s).expect("scenario runs");
        assert!(rep.checks.len() >= 6);
        for c in &rep.checks {
            assert!(
                !matches!(c.verdict, Verdict::Mismatch { .. }),
                "{}: {:?} (deviation {:.3e})",
                c.check,
                c.verdict,
                c.deviation
            );
        }
    }
}
