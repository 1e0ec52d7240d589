//! Closed-loop poles of the time-varying loop.
//!
//! The closed loop `H̃ = Ṽ𝟙ᵀ/(1 + λ)` has its poles where
//! `1 + λ(s) = 0`. Because `λ` is `ω₀`-periodic along the imaginary
//! axis, each zero of `1 + λ` in the fundamental strip
//! `|Im s| ≤ ω₀/2` represents an infinite comb of closed-loop poles
//! `s* + jmω₀` — the time-varying analogue of a pole pair, carrying the
//! loop's true damping and ringing frequency.
//!
//! [`dominant_poles`] reads them off the roots of `1 + λ`'s
//! characteristic polynomial in `z = e^{2πs/ω₀}`
//! ([`EffectiveGain::characteristic`](crate::EffectiveGain::characteristic)):
//! every zero in the strip is one root `z*`, at `s* = (ω₀/2π)·ln z*`.
//! The polynomial is unit-free, so a design given in physical units finds
//! the same poles, scaled by `ω₀`. Each root is then polished by complex
//! Newton iteration on `1 + λ(s)` (the derivative is exact, from the
//! lattice-sum identity) when that lowers the residual.
//!
//! ```
//! use htmpll_core::{poles::dominant_poles, PllDesign, PllModel};
//!
//! let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let poles = dominant_poles(&model).unwrap();
//! // A stable loop: every strip pole in the left half plane.
//! assert!(poles.iter().all(|p| p.re < 0.0));
//! ```

use crate::closed_loop::PllModel;
use crate::error::CoreError;
use htmpll_lti::TfError;
use htmpll_num::roots::find_roots_graded;
use htmpll_num::Complex;

/// Newton refinement of a zero of `1 + λ(s)` from an initial guess.
///
/// Returns `None` when the iteration leaves the fundamental strip, dies
/// on a vanishing derivative, or fails to converge.
pub fn refine_pole(model: &PllModel, seed: Complex, tol: f64) -> Option<Complex> {
    let lam = model.lambda();
    let w0 = model.design().omega_ref();
    let mut s = seed;
    for iter in 0..80 {
        let f = Complex::ONE + lam.eval(s);
        let df = lam.eval_deriv(s);
        if !f.is_finite() || !df.is_finite() || df.abs() < 1e-300 {
            return None;
        }
        let step = f / df;
        s -= step;
        // Fold back into the fundamental strip (λ is ω₀-periodic, so the
        // zero set is too; keep the canonical representative).
        if s.im.abs() > 0.75 * w0 {
            s.im -= w0 * (s.im / w0).round();
        }
        if step.abs() < tol * (1.0 + s.abs()) {
            // Verify residual.
            if (Complex::ONE + lam.eval(s)).abs() < 1e-6 {
                htmpll_obs::counter!("core", "poles.refine.converged").inc();
                htmpll_obs::record!("core", "poles.refine.iters").record((iter + 1) as f64);
                return Some(s);
            }
            htmpll_obs::counter!("core", "poles.refine.rejected").inc();
            return None;
        }
    }
    htmpll_obs::counter!("core", "poles.refine.exhausted").inc();
    None
}

/// Locates every closed-loop pole of the time-varying loop in the upper
/// half of the fundamental strip `0 ≤ Im s ≤ ω₀/2`, including the
/// **alias-born pole pair** near `Im s = ω₀/2` that has *no LTI
/// counterpart* and carries the fast-loop ringing.
///
/// The poles are the nonzero roots `z*` of the characteristic polynomial
/// of `1 + λ` in `z = e^{2πs/ω₀}` (Aberth–Ehrlich,
/// [`find_roots_graded`]: far-left poles give roots many decades below
/// the others), taken on or above the real axis and mapped back by
/// `s = (ω₀/2π)·ln z*`. [`refine_pole`] polishes each one, and the
/// polished value, folded back into the upper half strip, replaces it
/// when its residual `|1 + λ|` is lower. Results are deduped and sorted
/// by decreasing real part (least damped first); conjugates are
/// implied.
///
/// # Errors
///
/// [`CoreError::Tf`] with [`TfError::Roots`] when the root iteration
/// fails to converge.
pub fn dominant_poles(model: &PllModel) -> Result<Vec<Complex>, CoreError> {
    let _span = htmpll_obs::span("core", "dominant_poles");
    let lam = model.lambda();
    let w0 = model.design().omega_ref();
    let roots =
        find_roots_graded(lam.characteristic()).map_err(|e| CoreError::Tf(TfError::Roots(e)))?;
    let residual = |s: Complex| (Complex::ONE + lam.eval(s)).abs();
    // Canonical representative: fold into |Im| ≤ ω₀/2, upper half.
    let fold = |mut p: Complex| {
        p.im -= w0 * (p.im / w0).round();
        if p.im < 0.0 {
            p.conj()
        } else {
            p
        }
    };
    let mut found: Vec<Complex> = Vec::new();
    // A root below the real axis is the conjugate of one above it (real
    // roots come back exactly real), so it names no new pole.
    for z in roots {
        if z == Complex::ZERO || z.im < 0.0 {
            continue;
        }
        let mut p = z.ln().scale(w0 / (2.0 * std::f64::consts::PI));
        if let Some(q) = refine_pole(model, p, 1e-12).map(fold) {
            if residual(q) < residual(p) {
                p = q;
            }
        }
        if !found
            .iter()
            .any(|q| (*q - p).abs() < 1e-6 * (1.0 + p.abs()))
        {
            found.push(p);
        }
    }
    found.sort_by(|a, b| b.re.partial_cmp(&a.re).unwrap_or(std::cmp::Ordering::Equal));
    Ok(found)
}

/// The effective damping ratio of a complex pole `p = −σ ± jω_d`:
/// `ζ = σ/|p|`. Real poles return 1.
pub fn damping_ratio(pole: Complex) -> f64 {
    if pole.im == 0.0 {
        1.0
    } else {
        (-pole.re / pole.abs()).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;

    fn model(ratio: f64) -> PllModel {
        PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn slow_loop_poles_match_lti() {
        let m = model(0.01);
        let tv = dominant_poles(&m).unwrap();
        let lti = m.open_loop().feedback_unity().unwrap().poles().unwrap();
        assert!(!tv.is_empty());
        for p in &tv {
            let nearest = lti
                .iter()
                .map(|q| (*q - *p).abs().min((q.conj() - *p).abs()))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 1e-2 * (1.0 + p.abs()),
                "pole {p} far from LTI set"
            );
        }
    }

    #[test]
    fn poles_satisfy_characteristic_equation() {
        let m = model(0.2);
        for p in dominant_poles(&m).unwrap() {
            let residual = (Complex::ONE + m.lambda().eval(p)).abs();
            assert!(residual < 1e-8, "residual {residual} at {p}");
        }
    }

    #[test]
    fn subharmonic_pole_marches_to_instability() {
        // The LTI closed loop of this shape has all-real poles. Around
        // ratio ≈ 0.19 two of them collide and lock onto the strip edge
        // Im = ω₀/2 — a subharmonic mode ringing at **half the reference
        // rate** — and its decay rate shrinks monotonically until it
        // crosses into the right half plane at the stability limit.
        let mut last_re = f64::NEG_INFINITY;
        for ratio in [0.2, 0.22, 0.25, 0.27] {
            let m = model(ratio);
            let w0 = m.design().omega_ref();
            let poles = dominant_poles(&m).unwrap();
            let edge = poles
                .iter()
                .filter(|p| (p.im - 0.5 * w0).abs() < 1e-6 * w0)
                .map(|p| p.re)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                edge.is_finite(),
                "no subharmonic pole at ratio {ratio}: {poles:?}"
            );
            assert!(edge < 0.0, "still stable at {ratio}: Re {edge}");
            assert!(
                edge > last_re,
                "ratio {ratio}: Re {edge} must increase toward 0 (was {last_re})"
            );
            last_re = edge;
        }
        // Within striking distance of the axis just below the limit.
        assert!(last_re > -0.1, "{last_re}");
    }

    #[test]
    fn unstable_loop_has_rhp_pole() {
        let m = model(0.3); // beyond the sampling limit
        let poles = dominant_poles(&m).unwrap();
        assert!(
            poles.iter().any(|p| p.re > 0.0),
            "expected an RHP pole, got {poles:?}"
        );
    }

    #[test]
    fn alias_pole_frequency_matches_peaking_frequency() {
        // The subharmonic pole's imaginary part must sit where |H00|
        // peaks (the band-edge resonance in Fig. 6).
        let m = model(0.25);
        let poles = dominant_poles(&m).unwrap();
        let w0 = m.design().omega_ref();
        let alias = poles.iter().find(|p| p.im > 0.25 * w0).expect("alias pole");
        // Peak of |H00| over a fine scan.
        let mut peak_w = 0.0;
        let mut peak = 0.0f64;
        let mut w = 0.5;
        while w < 0.5 * w0 {
            let h = m.h00(w).abs();
            if h > peak {
                peak = h;
                peak_w = w;
            }
            w += 0.002;
        }
        assert!(
            (alias.im - peak_w).abs() < 0.1 * peak_w,
            "pole Im {} vs peak at {peak_w}",
            alias.im
        );
    }

    #[test]
    fn damping_ratio_edges() {
        assert_eq!(damping_ratio(Complex::from_re(-2.0)), 1.0);
        let z = damping_ratio(Complex::new(-1.0, 1.0));
        assert!((z - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!(damping_ratio(Complex::new(1.0, 1.0)) < 0.0);
    }
}
