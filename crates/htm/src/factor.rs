//! Structured closed-loop factorizations.
//!
//! [`Htm::closed_loop_factored_robust`](crate::Htm::closed_loop_factored_robust)
//! dispatches on the open loop's [`HtmRepr`]:
//!
//! * **rank one** (`G = u·vᵀ`, the sampling-PFD loop) — Sherman–Morrison
//!   closed form, O(n): `(I+uvᵀ)⁻¹uvᵀ = u·vᵀ/(1+λ)` with `λ = vᵀu`;
//! * **diagonal** — per-band reciprocal `g/(1+g)`, O(n);
//! * **everything else** (banded Toeplitz, dense) — the classic
//!   escalating dense ladder, O(n³). With a sampling PFD the open loop
//!   is always rank one, so a modeled loop reaches this path only
//!   through a tripped gate or the forced dense kernel policy.
//!
//! Every structured shortcut is *gated*: a closed form is only accepted
//! when its condition estimate clears the same `COND_GATE` the dense
//! ladder uses; otherwise the point densifies and walks the full ladder,
//! with [`SolveStage::Structured`] prepended to `stages_tried` so the
//! report shows the escalation. A structured answer is therefore never
//! *wrong* — at worst it is slow.
//!
//! [`Htm::closed_loop`](crate::Htm::closed_loop) is the strict dense-LU
//! reference: it ignores the representation, and the cross-stack checks
//! compare these structured solves against it.

use crate::matrix::Htm;
use crate::repr::HtmRepr;
use htmpll_num::solve::COND_GATE;
use htmpll_num::{CMat, Complex, LuError, RobustLu, SolveReport, SolveStage};

type ClosedLoop = (Htm, SolveReport);

/// The dispatch behind `Htm::closed_loop_factored_robust`.
pub(crate) fn closed_loop_robust(g: &Htm) -> Result<ClosedLoop, LuError> {
    let n = g.truncation().dim();
    // Trace tier: this runs once per sweep point, and the structured
    // closed forms it dispatches to are cheaper than a labeled span.
    let _span = htmpll_obs::span_labeled_at(
        "htm",
        "closed_loop_robust",
        htmpll_obs::Level::Trace,
        || format!("dim={n}"),
    );
    if !g.is_finite() {
        return Err(LuError::NonFinite);
    }
    let path = match g.repr() {
        HtmRepr::RankOnePlus { shift, .. } if *shift == Complex::ZERO => "rank-one",
        HtmRepr::Diagonal(_) => "diagonal",
        _ => "dense",
    };
    htmpll_obs::instant_at("htm", htmpll_obs::Level::Trace, || {
        format!("dispatch{{path={path},dim={n}}}")
    });
    match g.repr() {
        HtmRepr::RankOnePlus { u, v, shift } if *shift == Complex::ZERO => rank_one_path(g, u, v),
        HtmRepr::Diagonal(d) => diagonal_path(g, d),
        _ => dense_path(g),
    }
}

fn max_abs(zs: &[Complex]) -> f64 {
    zs.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

/// Sherman–Morrison: `(I+uvᵀ)⁻¹(uvᵀ) = u·vᵀ/(1+λ)`, `λ = vᵀu` (plain
/// transpose — the HTM feedback algebra has no conjugation).
fn rank_one_path(g: &Htm, u: &[Complex], v: &[Complex]) -> Result<ClosedLoop, LuError> {
    let lambda: Complex = v.iter().zip(u).map(|(x, y)| *x * *y).sum();
    let denom = Complex::ONE + lambda;
    let nu = max_abs(u);
    let nv = max_abs(v);
    // ‖A‖·‖A⁻¹‖ proxy for A = I+uvᵀ: A⁻¹ = I − uvᵀ/denom.
    let da = denom.abs();
    let cond_est = if da == 0.0 {
        f64::INFINITY
    } else {
        (1.0 + nu * nv) * (1.0 + nu * nv / da)
    };
    if !cond_est.is_finite() || cond_est > COND_GATE {
        return structured_fallback(g, cond_est);
    }
    htmpll_obs::counter!("htm", "closed_loop.rank_one").inc();
    let scale = Complex::ONE / denom;
    let cl_u: Vec<Complex> = u.iter().map(|x| *x * scale).collect();
    // Honest O(1) backward error on the worst column j* = argmax|vⱼ|:
    // r = b − (I+uvᵀ)x has rᵢ = uᵢ·vⱼ*·(1 − scale·(1+λ)) exactly.
    let err = (Complex::ONE - scale * denom).abs();
    let rn = nv * nu * err;
    let xn = nu * scale.abs() * nv;
    let bn = nu * nv;
    let denom_resid = (1.0 + nu * nv) * xn + bn;
    let residual = if denom_resid == 0.0 {
        0.0
    } else {
        rn / denom_resid
    };
    let report = SolveReport {
        stages_tried: vec![SolveStage::Structured],
        residual,
        cond_estimate: cond_est,
        perturbed: false,
        refinement_kept: false,
        pivot_growth: 1.0,
    };
    let cl = Htm::from_repr(
        g.truncation(),
        g.omega0(),
        HtmRepr::RankOnePlus {
            u: cl_u,
            v: v.to_vec(),
            shift: Complex::ZERO,
        },
    );
    Ok((cl, report))
}

/// Diagonal open loop: per-band scalar feedback `g/(1+g)`.
fn diagonal_path(g: &Htm, d: &[Complex]) -> Result<ClosedLoop, LuError> {
    let denoms: Vec<Complex> = d.iter().map(|x| Complex::ONE + *x).collect();
    let dmax = denoms.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let dmin = denoms.iter().map(|z| z.abs()).fold(f64::INFINITY, f64::min);
    let cond_est = if dmin == 0.0 {
        f64::INFINITY
    } else {
        dmax / dmin
    };
    if !cond_est.is_finite() || cond_est > COND_GATE {
        return structured_fallback(g, cond_est);
    }
    htmpll_obs::counter!("htm", "closed_loop.diagonal").inc();
    let inv: Vec<Complex> = denoms.iter().map(|x| Complex::ONE / *x).collect();
    let cl_d: Vec<Complex> = d.iter().zip(&inv).map(|(gi, ri)| *gi * *ri).collect();
    // Per-entry backward error: |gᵢ − (1+gᵢ)·xᵢ|.
    let gmax = max_abs(d);
    let xmax = max_abs(&cl_d);
    let rn = d
        .iter()
        .zip(&denoms)
        .zip(&cl_d)
        .map(|((gi, di), xi)| (*gi - *di * *xi).abs())
        .fold(0.0, f64::max);
    let denom_resid = dmax * xmax + gmax;
    let residual = if denom_resid == 0.0 {
        0.0
    } else {
        rn / denom_resid
    };
    let report = SolveReport {
        stages_tried: vec![SolveStage::Structured],
        residual,
        cond_estimate: cond_est,
        perturbed: false,
        refinement_kept: false,
        pivot_growth: 1.0,
    };
    let cl = Htm::from_repr(g.truncation(), g.omega0(), HtmRepr::Diagonal(cl_d));
    Ok((cl, report))
}

/// The classic dense escalating ladder — bit-identical to the path all
/// HTMs took before structured storage existed.
fn dense_path(g: &Htm) -> Result<ClosedLoop, LuError> {
    let n = g.truncation().dim();
    let i_plus_g = &CMat::identity(n) + g.as_matrix();
    let (solved, report) = RobustLu::factor(&i_plus_g)?.solve_mat(g.as_matrix())?;
    Ok((Htm::from_matrix(g.truncation(), g.omega0(), solved), report))
}

/// A structured closed form whose condition gate tripped: densify, walk
/// the full dense ladder, and record the attempted structured rung at
/// the front of the stage list.
fn structured_fallback(g: &Htm, cond_est: f64) -> Result<ClosedLoop, LuError> {
    htmpll_obs::counter!("htm", "closed_loop.structured_fallback").inc();
    htmpll_obs::instant("htm", || {
        format!(
            "dispatch{{path=structured-fallback,dim={},cond={cond_est:.3e}}}",
            g.truncation().dim()
        )
    });
    let (cl, mut report) = dense_path(g)?;
    report.stages_tried.insert(0, SolveStage::Structured);
    // Keep the more pessimistic of the two condition views: the
    // structured estimate that tripped the gate, or the ladder's own.
    report.cond_estimate = report.cond_estimate.max(cond_est.min(f64::MAX));
    Ok((cl, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trunc::Truncation;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn rank_one_g(t: Truncation) -> Htm {
        let n = t.dim();
        Htm::from_repr(
            t,
            2.0,
            HtmRepr::RankOnePlus {
                u: (0..n).map(|i| c(0.2 * i as f64 + 0.1, 0.05)).collect(),
                v: (0..n).map(|i| c(0.6 - 0.1 * i as f64, -0.02)).collect(),
                shift: Complex::ZERO,
            },
        )
    }

    /// Ground truth: the same open loop pushed through the dense ladder.
    fn dense_reference(g: &Htm) -> Htm {
        let dense = g.densified();
        let (cl, report) = dense.closed_loop_factored_robust().unwrap();
        assert!(!report.perturbed);
        cl
    }

    #[test]
    fn rank_one_closed_form_matches_dense() {
        let t = Truncation::new(4);
        let g = rank_one_g(t);
        let (cl, report) = g.closed_loop_factored_robust().unwrap();
        assert_eq!(report.stages_tried, vec![SolveStage::Structured]);
        assert!(report.residual < 1e-12, "residual {}", report.residual);
        assert!(matches!(cl.repr(), HtmRepr::RankOnePlus { .. }));
        let reference = dense_reference(&g);
        assert!(cl.as_matrix().max_diff(reference.as_matrix()) < 1e-12);
    }

    #[test]
    fn diagonal_closed_form_matches_dense() {
        let t = Truncation::new(3);
        let n = t.dim();
        let g = Htm::from_repr(
            t,
            1.5,
            HtmRepr::Diagonal((0..n).map(|i| c(0.3 * i as f64, 0.4)).collect()),
        );
        let (cl, report) = g.closed_loop_factored_robust().unwrap();
        assert_eq!(report.stages_tried, vec![SolveStage::Structured]);
        assert!(report.residual < 1e-13);
        assert!(matches!(cl.repr(), HtmRepr::Diagonal(_)));
        let reference = dense_reference(&g);
        assert!(cl.as_matrix().max_diff(reference.as_matrix()) < 1e-12);
    }

    #[test]
    fn singular_rank_one_falls_back_and_reports_structured_first() {
        // λ = vᵀu = −1 makes I + uvᵀ exactly singular: the closed form
        // must refuse and escalate through the dense ladder.
        let t = Truncation::new(1);
        let n = t.dim();
        let u = vec![Complex::ONE; n];
        let mut v = vec![Complex::ZERO; n];
        v[0] = Complex::from_re(-1.0);
        let g = Htm::from_repr(
            t,
            1.0,
            HtmRepr::RankOnePlus {
                u,
                v,
                shift: Complex::ZERO,
            },
        );
        let (cl, report) = g.closed_loop_factored_robust().unwrap();
        assert_eq!(report.stages_tried.first(), Some(&SolveStage::Structured));
        assert!(report.stages_tried.len() > 1, "{:?}", report.stages_tried);
        assert!(report.perturbed);
        assert!(cl.as_matrix().is_finite());
    }

    #[test]
    fn singular_banded_falls_back_through_ladder() {
        // G̃ = −I as a (degenerate) banded Toeplitz: I + G̃ = 0, so the
        // dense ladder must climb past its first rung and perturb.
        let t = Truncation::new(2);
        let g = Htm::from_repr(
            t,
            1.0,
            HtmRepr::BandedToeplitz {
                coeffs: vec![Complex::from_re(-1.0)],
                row_scale: None,
            },
        );
        let (cl, report) = g.closed_loop_factored_robust().unwrap();
        assert_eq!(
            report.stages_tried.first(),
            Some(&SolveStage::RefinedPartial)
        );
        assert!(report.escalated(), "{:?}", report.stages_tried);
        assert!(report.perturbed, "{:?}", report.stages_tried);
        assert!(cl.as_matrix().is_finite());
    }
}
