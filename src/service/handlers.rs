//! Command handlers: the former `plltool` subcommand bodies, extracted
//! into pure(ish) functions from typed [`Request`] parameters to typed
//! response payloads. No handler prints, reads argv, or writes files —
//! that is front-end work — and every fallible step surfaces as a
//! `Result`, so a batch service can absorb failures per request.

use super::response::{
    AnalyzeOut, DoctorCheck, DoctorOut, ExploreOut, MetricsOut, Response, ServiceError, SpurOut,
    SweepOut, TransientOut,
};
use super::ServiceCtx;
use crate::core::{
    bode_grid, dominant_poles, optimize_loop, transient, Candidate, EffectiveGain, KernelPolicy,
    LeakageSpurs, NoiseModel, NoiseShape, NoiseSpec, OptimizeSpec, PllDesign, PllModel,
    PointQuality, QualitySummary, SampleHoldModel, SweepCache, SweepSpec, DEADLINE_REASON,
    MAX_AUTO_TRUNCATION,
};
use crate::htm::{Htm, HtmRepr, Truncation};
use crate::lti::{BodePoint, FrequencyGrid};
use crate::num::optim::lin_grid;
use crate::num::Complex;
use crate::par::{Deadline, ThreadBudget};
use crate::requests::{DesignSpec, Request};
use crate::sim::{acquire_lock, LockOptions, PllSim, SimConfig, SimParams};
use crate::spectral::{periodogram, Window};

/// Executes one request against the shared service context and returns
/// its response. Request-level failures come back as
/// [`Response::Error`]; this function itself never fails. (`stats` is
/// the one unservable-here variant: it describes a running server, so
/// outside `plltool serve` it reports a structured error.)
pub fn handle(req: &Request, ctx: &ServiceCtx) -> Response {
    // Fault site: a handler panic for scope-selected requests, proving
    // the serve worker's `catch_unwind` containment under chaos runs.
    htmpll_fault::panic_if("handler.panic", 0);
    let budget = req.budget();
    let deadline = ctx.begin_request();
    let result = match req {
        Request::Analyze {
            design,
            pfd_sh,
            symbolic,
            ..
        } => analyze(design, budget, *pfd_sh, *symbolic, &deadline).map(Response::Analyze),
        Request::Sweep {
            from, to, points, ..
        } => sweep(*from, *to, *points, budget, &deadline),
        Request::Bode {
            design,
            points,
            lambda,
            ..
        } => bode(design, *points, *lambda, budget, &deadline).map(Response::Bode),
        Request::Step {
            design,
            until,
            points,
        } => transient_out(design, *until, *points, false).map(Response::Step),
        Request::Hop {
            design,
            until,
            points,
        } => transient_out(design, *until, *points, true).map(Response::Hop),
        Request::Spur {
            design,
            leakage_frac,
            kmax,
            ..
        } => spur(design, *leakage_frac, *kmax, budget).map(Response::Spur),
        Request::Optimize {
            min_pm,
            from,
            to,
            points,
            ref_noise,
            vco_noise,
        } => optimize(*min_pm, *from, *to, *points, *ref_noise, *vco_noise).map(Response::Optimize),
        // The deadline shrinks the candidate budget (noted in the
        // report's degradation list); an expiry before any block lands
        // is a retryable `code:deadline` error through the
        // `DEADLINE_REASON` prefix.
        Request::Explore(spec) => crate::core::explore(spec, &deadline)
            .map(|report| {
                Response::Explore(ExploreOut {
                    seed: spec.seed,
                    report,
                })
            })
            .map_err(|e| e.to_string()),
        Request::Doctor { design, .. } => doctor(design.as_ref(), budget).map(Response::Doctor),
        Request::Xcheck { corpus, .. } => crate::xcheck::run_corpus(corpus, budget)
            .map(Response::Xcheck)
            .map_err(|e| e.to_string()),
        Request::Metrics {
            design, obs_spec, ..
        } => metrics(design.as_ref(), obs_spec, budget).map(Response::Metrics),
        Request::Profile(spec) => crate::profile::run_profile(spec).map(Response::Profile),
        Request::Stats => Err("stats is only available under `plltool serve`".to_string()),
    };
    result.unwrap_or_else(|message| {
        // A handler that ran out of budget reports a *retryable*
        // structured error, not a generic failure: the caller can raise
        // `--deadline-ms` (or drop load) and resubmit the same request.
        let err = if message.starts_with(DEADLINE_REASON) {
            ServiceError::deadline(req.command(), message, None)
        } else {
            ServiceError::failed(req.command(), message)
        };
        Response::Error(err)
    })
}

fn build_model(spec: &DesignSpec) -> Result<(PllDesign, PllModel), String> {
    let design = spec.build()?;
    let model = PllModel::builder(design.clone())
        .build()
        .map_err(|e| e.to_string())?;
    Ok((design, model))
}

fn analyze(
    spec: &DesignSpec,
    threads: ThreadBudget,
    pfd_sh: bool,
    symbolic: bool,
    deadline: &Deadline,
) -> Result<AnalyzeOut, String> {
    let (design, model) = build_model(spec)?;
    let report = crate::core::analyze(&model, threads, deadline).map_err(|e| e.to_string())?;
    let strip_poles = dominant_poles(&model).ok();
    let sample_hold = if pfd_sh {
        let sh = SampleHoldModel::new(model.design().clone()).map_err(|e| e.to_string())?;
        Some(sh.margins().map_err(|e| e.to_string()))
    } else {
        None
    };
    let symbolic = if symbolic {
        let lam = EffectiveGain::new(&design.open_loop_gain(), design.omega_ref())
            .map_err(|e| e.to_string())?;
        Some(lam.symbolic())
    } else {
        None
    };
    Ok(AnalyzeOut {
        design,
        report,
        strip_poles,
        sample_hold,
        symbolic,
    })
}

/// The ratio sweep with its graceful-degradation ladder. Under an armed
/// deadline the handler sheds work in order of increasing damage:
///
/// 1. **Reduce truncation** — the per-point solver already caps its
///    escalation ladder once the budget is half consumed (recorded by
///    the `core/robust.trunc_capped` counter).
/// 2. **Coarsen the grid** — once more than half the budget is gone
///    with more than half the ratios remaining, every other ratio is
///    skipped.
/// 3. **Partial result** — on expiry the completed rows are returned
///    as-is.
///
/// Every step taken is recorded in [`SweepOut::degradation`], so a
/// degraded response is always distinguishable from a full one. A
/// deadline that fires before *any* ratio completes becomes a
/// retryable `code:deadline` error carrying the (empty) quality
/// roll-up. The ladder consults only the deterministic deadline state,
/// so a given budget and fault plan always degrade the same way.
fn sweep(
    from: f64,
    to: f64,
    points: usize,
    threads: ThreadBudget,
    deadline: &Deadline,
) -> Result<Response, String> {
    let ratios = lin_grid(from, to, points.max(2));
    let total = ratios.len();
    let mut rows = Vec::new();
    let mut quality = QualitySummary::default();
    let mut degradation: Vec<String> = Vec::new();
    let mut stride = 1usize;
    let mut i = 0usize;
    while i < total {
        if deadline.expired() {
            if rows.is_empty() {
                return Ok(Response::Error(ServiceError::deadline(
                    "sweep",
                    format!("{DEADLINE_REASON} before the first of {total} ratios completed"),
                    Some(quality),
                )));
            }
            degradation.push(format!(
                "partial: deadline expired after {} of {} ratios",
                rows.len(),
                total
            ));
            break;
        }
        if stride == 1 && (total - i) * 2 > total && deadline.pressed(0.5) {
            stride = 2;
            degradation.push(format!(
                "coarsened: ratio stride doubled with {} of {} ratios remaining",
                total - i,
                total
            ));
        }
        let ratio = ratios[i];
        let model =
            PllModel::builder(PllDesign::reference_design(ratio).map_err(|e| e.to_string())?)
                .build()
                .map_err(|e| e.to_string())?;
        let r = match crate::core::analyze(&model, threads, deadline) {
            Ok(r) => r,
            Err(e) => {
                let message = e.to_string();
                if !message.starts_with(DEADLINE_REASON) {
                    return Err(message);
                }
                if rows.is_empty() {
                    return Ok(Response::Error(ServiceError::deadline(
                        "sweep",
                        format!("{message} (0 of {total} ratios completed)"),
                        Some(quality),
                    )));
                }
                degradation.push(format!(
                    "partial: {} after {} of {} ratios",
                    DEADLINE_REASON,
                    rows.len(),
                    total
                ));
                break;
            }
        };
        quality.merge(&r.quality);
        rows.push((ratio, r));
        i += stride;
    }
    Ok(Response::Sweep(SweepOut {
        rows,
        quality,
        degradation,
    }))
}

fn bode(
    spec: &DesignSpec,
    points: usize,
    lambda: bool,
    threads: ThreadBudget,
    deadline: &Deadline,
) -> Result<Vec<BodePoint>, String> {
    let (design, model) = build_model(spec)?;
    let wug = crate::core::lti_margins(&model, threads, deadline)
        .map_err(|e| e.to_string())?
        .omega_ug;
    let grid =
        FrequencyGrid::log(1e-2 * wug, 1e2 * wug, points.max(2)).map_err(|e| e.to_string())?;
    Ok(if lambda {
        let lam = EffectiveGain::new(&design.open_loop_gain(), design.omega_ref())
            .map_err(|e| e.to_string())?;
        // λ is only meaningful inside the first band.
        let spec =
            SweepSpec::new(grid.retain(|w| w < 0.4999 * design.omega_ref())).with_threads(threads);
        let axis = lam.line(0.0);
        bode_grid(|w| axis.eval(w), &spec)
    } else {
        let a = design.open_loop_gain();
        let spec = SweepSpec::new(grid).with_threads(threads);
        bode_grid(|w| a.eval_jw(w), &spec)
    })
}

fn transient_out(
    spec: &DesignSpec,
    until: f64,
    points: usize,
    hop: bool,
) -> Result<TransientOut, String> {
    let (_, model) = build_model(spec)?;
    let ts = lin_grid(until / points as f64, until, points.max(2));
    let ys = if hop {
        transient::frequency_step_error(&model, &ts)
    } else {
        transient::step_response(&model, &ts)
    };
    Ok(TransientOut { ts, ys })
}

fn spur(
    spec: &DesignSpec,
    leakage_frac: f64,
    kmax: usize,
    threads: ThreadBudget,
) -> Result<SpurOut, String> {
    let (design, model) = build_model(spec)?;
    let spurs = LeakageSpurs::new(&model, leakage_frac * design.icp());
    Ok(SpurOut {
        leakage_frac,
        static_offset: spurs.static_offset(),
        lines: spurs.scan(kmax as i64, threads),
        design,
    })
}

fn optimize(
    min_pm: f64,
    from: f64,
    to: f64,
    points: usize,
    ref_noise: f64,
    vco_noise: f64,
) -> Result<Candidate, String> {
    let spec = OptimizeSpec {
        min_pm_eff_deg: min_pm,
        ratios: (from, to, points),
        spreads: vec![3.0, 4.0, 6.0],
    };
    let noise = NoiseSpec {
        reference: NoiseShape::White { level: ref_noise },
        vco: NoiseShape::PowerLaw {
            level_at_ref: vco_noise,
            w_ref: 1.0,
            exponent: 2,
        },
        band: (1e-3, 0.45),
    };
    optimize_loop(&spec, &noise).map_err(|e| e.to_string())
}

/// Stress-evaluates a model at adversarial points — on-pole `s`, a loop
/// driven to `ω_UG ≈ ω₀`, (near-)singular `I + G̃`, extreme truncation
/// orders, NaN injection — and returns the health table. Every check
/// must complete without panicking AND land on its expected verdict
/// class; surprises surface through [`DoctorOut::failures`].
fn doctor(spec: Option<&DesignSpec>, threads: ThreadBudget) -> Result<DoctorOut, String> {
    let design = match spec {
        Some(spec) => spec.build()?,
        None => PllDesign::reference_design(0.1).map_err(|e| e.to_string())?,
    };
    let model = PllModel::builder(design.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let w0 = design.omega_ref();
    let cache = SweepCache::new();
    let trunc = Truncation::new(4);
    let mut checks: Vec<DoctorCheck> = Vec::new();

    // A dense-solve check: evaluate at `s`, expect one of `allowed`.
    let mut dense_check = |check: &'static str, s: Complex, k: Truncation, allowed: &[&str]| {
        let row = match cache.dense_robust(&model, s, k, KernelPolicy::default()) {
            Ok(d) => DoctorCheck {
                check: check.to_string(),
                verdict: d.quality.name().to_string(),
                cond: Some(d.report.cond_estimate),
                residual: Some(d.report.residual),
                ok: allowed.contains(&d.quality.name()),
                note: format!("stages {}", d.report.stages_tried.len()),
            },
            Err(reason) => DoctorCheck {
                check: check.to_string(),
                verdict: "failed".to_string(),
                cond: None,
                residual: None,
                ok: allowed.contains(&"failed"),
                note: reason.chars().take(48).collect(),
            },
        };
        checks.push(row);
    };

    // 1-2: exactly on the aliased-integrator poles of the open loop —
    // the entries are non-finite there; the engine must fail the point
    // gracefully, never panic or return NaN as a value.
    dense_check("on-pole s = j*w0", Complex::from_im(w0), trunc, &["failed"]);
    dense_check("integrator pole s = 0", Complex::ZERO, trunc, &["failed"]);
    // 3: NaN injection through the public API.
    dense_check(
        "NaN Laplace point",
        Complex::new(f64::NAN, 0.0),
        trunc,
        &["failed"],
    );
    // 4: a usable point at the band edge, where conditioning is worst.
    dense_check(
        "band edge s = j*0.499*w0",
        Complex::from_im(0.499 * w0),
        trunc,
        &["exact", "refined", "perturbed"],
    );
    // 5: on a closed-loop strip pole (if one is found): I+G~ is
    // near-singular; the ladder must still produce a usable value.
    if let Ok(poles) = dominant_poles(&model) {
        if let Some(p) = poles.first() {
            dense_check(
                "closed-loop pole s = p1",
                *p,
                trunc,
                &["exact", "refined", "perturbed"],
            );
        }
    }
    // 6-7: extreme truncation orders.
    dense_check(
        "truncation K = 1",
        Complex::from_im(0.3 * w0),
        Truncation::new(1),
        &["exact", "refined", "perturbed"],
    );
    dense_check(
        "truncation K = MAX",
        Complex::from_im(0.3 * w0),
        Truncation::new(MAX_AUTO_TRUNCATION),
        &["exact", "refined", "perturbed"],
    );

    // 8: exactly singular I+G~ (G~ = -I): the Tikhonov rung must kick
    // in and mark the result perturbed.
    let singular = Htm::identity(trunc, w0).scale(-Complex::ONE);
    checks.push(match singular.closed_loop_factored_robust() {
        Ok((cl, report)) => DoctorCheck {
            check: "singular I+G~ (G~ = -I)".to_string(),
            verdict: if report.perturbed {
                "perturbed".into()
            } else {
                "unexpected".into()
            },
            cond: Some(report.cond_estimate),
            residual: Some(report.residual),
            ok: report.perturbed && cl.as_matrix().is_finite(),
            note: format!("stages {}", report.stages_tried.len()),
        },
        Err(e) => DoctorCheck {
            check: "singular I+G~ (G~ = -I)".to_string(),
            verdict: "failed".into(),
            cond: None,
            residual: None,
            ok: false,
            note: e.to_string(),
        },
    });

    // 9: a banded-Toeplitz open loop whose I+G~ is a tridiagonal
    // Toeplitz matrix tuned to be singular to working precision
    // (smallest eigenvalue a + 2·cos(π/(n+1)) = 0). It takes the dense
    // ladder, whose first rung must refuse it at the conditioning gate
    // and escalate to a refined/perturbed value — never silently
    // return a wrong answer.
    let n = trunc.dim();
    let a0 = -2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
    let near_singular = Htm::from_repr(
        trunc,
        w0,
        HtmRepr::BandedToeplitz {
            coeffs: vec![Complex::ONE, Complex::from_re(a0 - 1.0), Complex::ONE],
            row_scale: None,
        },
    );
    checks.push(match near_singular.closed_loop_factored_robust() {
        Ok((cl, report)) => {
            let quality = PointQuality::from_report(&report);
            let escalated = report.stages_tried.len() > 1;
            DoctorCheck {
                check: "near-singular banded I+G~".to_string(),
                verdict: quality.name().to_string(),
                cond: Some(report.cond_estimate),
                residual: Some(report.residual),
                ok: escalated
                    && matches!(quality, PointQuality::Refined | PointQuality::Perturbed)
                    && cl.as_matrix().is_finite(),
                note: format!("stages {}", report.stages_tried.len()),
            }
        }
        Err(e) => DoctorCheck {
            check: "near-singular banded I+G~".to_string(),
            verdict: "failed".into(),
            cond: None,
            residual: None,
            ok: false,
            note: e.to_string(),
        },
    });

    // 10: a loop pushed to the sampling limit (ω_UG ≈ ω₀ regime) must
    // still analyze end to end and report its degraded-point counts.
    let fast_row = match PllDesign::reference_design(0.45)
        .map_err(|e| e.to_string())
        .and_then(|d| PllModel::builder(d).build().map_err(|e| e.to_string()))
        .and_then(|m| {
            crate::core::analyze(&m, threads, &Deadline::none()).map_err(|e| e.to_string())
        }) {
        Ok(r) => DoctorCheck {
            check: "fast loop w_UG ~ w0".to_string(),
            verdict: "completed".into(),
            cond: Some(r.quality.worst_cond),
            residual: Some(r.quality.worst_residual),
            ok: true,
            note: format!(
                "beyond_limit={} degraded={}",
                r.beyond_sampling_limit,
                r.quality.degraded()
            ),
        },
        Err(e) => DoctorCheck {
            check: "fast loop w_UG ~ w0".to_string(),
            verdict: "error".into(),
            cond: None,
            residual: None,
            ok: false,
            note: e.chars().take(48).collect(),
        },
    };
    checks.push(fast_row);

    // 11: eviction storm — two passes of a dense grid through a
    // 16-entry cache (far smaller than the grid, so entries churn
    // constantly) must match an uncapped cache bit for bit. Eviction
    // pressure is allowed to cost time, never correctness.
    let storm_row = (|| -> Result<DoctorCheck, String> {
        let grid = SweepSpec::log(1e-2 * w0, 0.49 * w0, 48)
            .map_err(|e| e.to_string())?
            .with_truncation(trunc)
            .with_threads(threads);
        let tiny = SweepCache::with_capacity(16);
        let roomy = SweepCache::new();
        let cold = model
            .closed_loop_htm_grid_robust(&grid, &tiny)
            .into_strict()
            .map_err(|e| e.to_string())?;
        let rerun = model
            .closed_loop_htm_grid_robust(&grid, &tiny)
            .into_strict()
            .map_err(|e| e.to_string())?;
        let reference = model
            .closed_loop_htm_grid_robust(&grid, &roomy)
            .into_strict()
            .map_err(|e| e.to_string())?;
        let same = |a: &[crate::htm::Htm], b: &[crate::htm::Htm]| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    let (xs, ys) = (x.as_matrix().as_slice(), y.as_matrix().as_slice());
                    xs.len() == ys.len()
                        && xs.iter().zip(ys).all(|(u, v)| {
                            u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits()
                        })
                })
        };
        let identical = same(&cold, &reference) && same(&rerun, &reference);
        let stats = tiny.stats();
        Ok(DoctorCheck {
            check: "cache eviction storm".to_string(),
            verdict: if identical {
                "identical".into()
            } else {
                "mismatch".into()
            },
            cond: None,
            residual: None,
            ok: identical && stats.evictions > 0,
            note: format!(
                "cap 16: {} evictions, {} hits, {} misses",
                stats.evictions, stats.hits, stats.misses
            ),
        })
    })();
    checks.push(storm_row.unwrap_or_else(|e| DoctorCheck {
        check: "cache eviction storm".to_string(),
        verdict: "error".into(),
        cond: None,
        residual: None,
        ok: false,
        note: e.chars().take(48).collect(),
    }));

    Ok(DoctorOut { design, checks })
}

/// Runs a representative slice of the whole pipeline — analysis, strip
/// poles, truncated/dense HTM closed loop, eigenvalues, parallel
/// frequency sweeps, behavioral simulation, lock acquisition, spectral
/// estimation — under the obs filter, then snapshots every metric the
/// run produced. Mutates the process-global obs filter and registry,
/// which is why this request is not servable.
fn metrics(
    spec: Option<&DesignSpec>,
    obs_spec: &str,
    threads: ThreadBudget,
) -> Result<MetricsOut, String> {
    crate::obs::override_filter(obs_spec);
    crate::obs::reset();

    let design = match spec {
        Some(spec) => spec.build()?,
        None => PllDesign::reference_design(0.1).map_err(|e| e.to_string())?,
    };
    let model = PllModel::builder(design.clone())
        .build()
        .map_err(|e| e.to_string())?;

    // Frequency-domain leg: margins, strip poles, λ truncation — all
    // scan grids run on the parallel pool.
    crate::core::analyze(&model, threads, &Deadline::none()).map_err(|e| e.to_string())?;
    let _ = dominant_poles(&model);
    let lam = model.lambda();
    let k = lam.suggest_truncation(1e-6);
    let s = Complex::from_im(0.3 * design.omega_ref());
    let _ = lam.eval_truncated(s, k.min(1000));

    // HTM leg: dense closed loop + generalized Nyquist eigenvalues.
    let trunc = Truncation::new(k.min(10));
    let cl = model
        .open_loop_htm(s, trunc)
        .closed_loop()
        .map_err(|e| e.to_string())?;
    cl.eigenvalues()
        .map_err(|e| format!("eigensolver: {e:?}"))?;

    // Parallel-sweep leg: λ grid, dense HTM grid (twice through one
    // cache, so the second pass is all hits), folded noise PSDs and a
    // spur table — exercises the pool and the sweep cache end to end.
    let w0 = design.omega_ref();
    let sweep_spec = SweepSpec::log(1e-3 * w0, 0.49 * w0, 512)
        .map_err(|e| e.to_string())?
        .with_threads(threads);
    let _ = lam.eval_grid(&sweep_spec);
    let htm_spec = SweepSpec::log(1e-2 * w0, 0.49 * w0, 96)
        .map_err(|e| e.to_string())?
        .with_truncation(trunc)
        .with_threads(threads);
    let cache = SweepCache::new();
    model
        .closed_loop_htm_grid_robust(&htm_spec, &cache)
        .into_strict()
        .map_err(|e| e.to_string())?;
    model
        .closed_loop_htm_grid_robust(&htm_spec, &cache)
        .into_strict()
        .map_err(|e| e.to_string())?;
    // Robustness leg: a grid with a deliberately on-pole point (ω = ω₀)
    // exercises the verdict/escalation path — robust.failed alongside
    // the healthy points' robust.exact.
    let adversarial = SweepSpec::new(vec![0.2 * w0, w0, 0.45 * w0])
        .with_truncation(trunc)
        .with_threads(threads);
    let robust = model.closed_loop_htm_grid_robust(&adversarial, &cache);
    let _ = robust.summary();
    let noise = NoiseModel::new(&model, 8);
    let _ = noise.output_psd_grid(&sweep_spec, &|_| 1e-12, &|f| 1e-12 / (1.0 + f * f));
    let _ = LeakageSpurs::new(&model, 1e-3 * design.icp()).scan(16, threads);

    // Time-domain leg: settle run, lock acquisition, PSD of the trace.
    let params = SimParams::from_design(&design);
    let config = SimConfig::default();
    let mut sim = PllSim::new(params.clone(), config);
    let trace = sim.run(30.0 * params.t_ref, &|_| 0.0);
    let _ = acquire_lock(&params, &config, 5e-3, &LockOptions::default());
    let fs = 1.0 / trace.dt;
    periodogram(&trace.v_ctrl, fs, Window::Hann).map_err(|e| e.to_string())?;

    Ok(MetricsOut {
        filter: obs_spec.to_string(),
        levels: crate::obs::describe_targets(&["num", "htm", "core", "sim", "spectral"]),
        table: crate::obs::export_table(),
        export_json: crate::obs::export_json(),
    })
}
