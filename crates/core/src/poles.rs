//! Closed-loop poles of the time-varying loop.
//!
//! The closed loop `H̃ = Ṽ𝟙ᵀ/(1 + λ)` has its poles where
//! `1 + λ(s) = 0`. Because `λ` is `ω₀`-periodic along the imaginary
//! axis, each zero of `1 + λ` in the fundamental strip
//! `|Im s| ≤ ω₀/2` represents an infinite comb of closed-loop poles
//! `s* + jmω₀` — the time-varying analogue of a pole pair, carrying the
//! loop's true damping and ringing frequency.
//!
//! [`dominant_poles`] locates them by complex Newton iteration on
//! `1 + λ(s)` (the derivative is exact, from the lattice-sum identity),
//! seeded from the LTI closed-loop poles — which the time-varying poles
//! continuously deform away from as `ω_UG/ω₀` grows.
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

/// Locates the dominant closed-loop poles of the time-varying loop in
/// the upper half of the fundamental strip: Newton on `1 + λ(s)` seeded
/// from (a) the LTI closed-loop poles and (b) the local minima of
/// `|1 + λ|` over a strip grid — the latter is what finds the
/// **alias-born pole pair** near `Im s ≈ ω₀/2` that has *no LTI
/// counterpart* and carries the fast-loop ringing. Results are deduped
/// and sorted by decreasing real part (least damped first); conjugates
/// are implied.
///
/// # Errors
///
/// Propagates LTI pole extraction failures; returns an empty vector when
/// no Newton run converges.
pub fn dominant_poles(model: &PllModel) -> Result<Vec<Complex>, CoreError> {
    let _span = htmpll_obs::span("core", "dominant_poles");
    let cl = model.open_loop().feedback_unity()?;
    let mut seeds: Vec<Complex> = cl
        .poles()?
        .into_iter()
        .map(|p| if p.im < 0.0 { p.conj() } else { p })
        .collect();

    // Strip grid: local minima of |1 + λ| over Re ∈ [−3ω_UG, +ω_UG],
    // Im ∈ [−0.1, 0.6]·ω₀ — deliberately past the strip edge ω₀/2, where
    // the alias-born pole pair lives for fast loops (results fold back
    // to the canonical strip inside the Newton refinement).
    let w0 = model.design().omega_ref();
    let lam = model.lambda();
    const NR: usize = 30;
    const NI: usize = 30;
    let mut grid = vec![[0.0f64; NI]; NR];
    let re_at = |i: usize| -3.0 + 4.0 * i as f64 / (NR - 1) as f64;
    let im_at = |j: usize| w0 * (-0.1 + 0.7 * j as f64 / (NI - 1) as f64);
    for (i, row) in grid.iter_mut().enumerate() {
        let line = lam.line(re_at(i));
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = (Complex::ONE + line.eval(im_at(j))).abs();
        }
    }
    for i in 1..NR - 1 {
        for j in 1..NI - 1 {
            let v = grid[i][j];
            if v < grid[i - 1][j] && v < grid[i + 1][j] && v < grid[i][j - 1] && v < grid[i][j + 1]
            {
                seeds.push(Complex::new(re_at(i), im_at(j)));
            }
        }
    }

    let mut found: Vec<Complex> = Vec::new();
    for seed in seeds {
        if let Some(p) = refine_pole(model, seed, 1e-12) {
            // Canonical representative: fold into |Im| ≤ ω₀/2, upper half.
            let mut p = p;
            p.im -= w0 * (p.im / w0).round();
            let p = if p.im < 0.0 { p.conj() } else { p };
            if !found
                .iter()
                .any(|q| (*q - p).abs() < 1e-6 * (1.0 + p.abs()))
            {
                found.push(p);
            }
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
