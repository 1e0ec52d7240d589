//! Nyquist-style encirclement analysis for scalar loop gains.
//!
//! For an open loop whose HTM is rank one, the generalized (HTM) Nyquist
//! criterion of Möllerstedt & Bernhardsson collapses to the scalar locus
//! of the effective open-loop gain `λ(jω)`: closed-loop stability is
//! read off the encirclements of `−1` exactly as in classical control.
//! This module provides the locus sampling and winding-number counting
//! used by that test.
//!
//! The locus is sampled on `ω ∈ [wmin, wmax]` with `wmin > 0`; the
//! negative-frequency half is completed by conjugate symmetry (valid for
//! real impulse responses) and the far ends are joined through the
//! origin-side closure appropriate for strictly proper gains that roll
//! off to zero.
//!
//! ```
//! use htmpll_htm::nyquist::{encirclements_of_minus_one, nyquist_locus};
//! use htmpll_lti::Tf;
//!
//! // Stable unity-feedback loop: G = 1/(s+1) never encircles −1.
//! let g = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
//! let locus = nyquist_locus(|w| g.eval_jw(w), 1e-3, 1e3, 4000);
//! assert_eq!(encirclements_of_minus_one(&locus), 0);
//! ```

use htmpll_num::optim::log_grid;
use htmpll_num::Complex;

/// Samples the positive-frequency Nyquist locus `f(jω)` on a log grid.
///
/// # Panics
///
/// Panics when `wmin <= 0`, `wmax <= wmin`, or `n < 2`.
pub fn nyquist_locus<F: FnMut(f64) -> Complex>(
    f: F,
    wmin: f64,
    wmax: f64,
    n: usize,
) -> Vec<Complex> {
    assert!(wmin > 0.0 && wmax > wmin, "need 0 < wmin < wmax");
    log_grid(wmin, wmax, n).into_iter().map(f).collect()
}

/// Counts encirclements of `−1` by the closed curve formed from the
/// positive-frequency locus plus its conjugate mirror, with the standard
/// Nyquist sign convention (**clockwise positive**, i.e. the count equals
/// `Z − P`, closed-loop minus open-loop RHP poles).
///
/// The curve is closed by joining the high-frequency ends (where a
/// strictly proper gain has rolled off near the origin, far from `−1`)
/// and the low-frequency ends through their conjugates. Accuracy
/// requires the locus to be sampled densely enough that consecutive
/// points subtend < 180° as seen from `−1`.
pub fn encirclements_of_minus_one(locus: &[Complex]) -> isize {
    if locus.len() < 2 {
        return 0;
    }
    // Full closed path: ω from −∞ → 0⁻ is the reversed conjugate locus,
    // then 0⁺ → +∞ is the locus itself, then closure back to the start.
    let mut path: Vec<Complex> = locus.iter().rev().map(|z| z.conj()).collect();
    path.extend_from_slice(locus);
    path.push(path[0]);

    let center = -Complex::ONE;
    let mut total = 0.0f64;
    for pair in path.windows(2) {
        let a = pair[0] - center;
        let b = pair[1] - center;
        // Signed angle from a to b in (−π, π].
        let cross = a.re * b.im - a.im * b.re;
        let dot = a.re * b.re + a.im * b.im;
        total += cross.atan2(dot);
    }
    // `total` accumulates counter-clockwise as positive; Nyquist counts
    // clockwise encirclements, so flip the sign.
    -(total / (2.0 * std::f64::consts::PI)).round() as isize
}

/// Counts the zeros of `1 + f(s)` inside the right-half period strip
/// `{Re s > eps, |Im s| < ω₀/2}` of an `ω₀`-periodic loop gain, by the
/// argument principle on the strip boundary.
///
/// This is the correct stability test for effective open-loop gains
/// `λ(s) = Σ_m A(s + jmω₀)`: they are periodic along the imaginary axis
/// (so the classical infinite Nyquist contour winds infinitely often)
/// and have poles **on** the axis at every `jmω₀` (aliased integrators),
/// which the offset `eps > 0` side-steps. Because `f` is periodic, the
/// horizontal strip edges cancel exactly and, for gains that decay as
/// `Re s → ∞`, the right edge contributes nothing: the count reduces to
/// the winding of `1 + f(eps + jω)` traversed **downward** along one
/// period (counter-clockwise boundary orientation of the strip).
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
    strip_winding(omega0, eps, n, |s| Complex::ONE + f(s))
}

/// Winding number about the origin of `h` along the strip contour:
/// `n + 1` samples of `eps + jω`, `ω` traversed **downward** from
/// `+ω₀/2` to `−ω₀/2` (the counter-clockwise strip-boundary
/// orientation).
fn strip_winding(omega0: f64, eps: f64, n: usize, mut h: impl FnMut(Complex) -> Complex) -> isize {
    assert!(omega0 > 0.0, "omega0 must be positive");
    assert!(eps > 0.0, "contour offset must be positive");
    assert!(n >= 8, "need at least 8 contour samples");
    let mut total = 0.0f64;
    let mut prev: Option<Complex> = None;
    for k in 0..=n {
        let z = h(Complex::new(eps, omega0 * (0.5 - k as f64 / n as f64)));
        if let Some(p) = prev {
            let cross = p.re * z.im - p.im * z.re;
            let dot = p.re * z.re + p.im * z.im;
            total += cross.atan2(dot);
        }
        prev = Some(z);
    }
    (total / (2.0 * std::f64::consts::PI)).round() as isize
}

/// Convenience wrapper: true when the scalar loop `1 + f(jω)` has no
/// encirclements of `−1` (the closed loop of an open-loop-stable gain is
/// stable).
///
/// Open-loop poles at the origin (type-1/type-2 loops) are assumed to be
/// handled by the caller starting `wmin` above zero; the standard
/// infinitesimal-indentation closure contributes no encirclement for
/// loops whose low-frequency phase stays above −180° − this is the case
/// for the charge-pump loops in this workspace, whose zero lifts the
/// phase before crossover.
pub fn is_nyquist_stable<F: FnMut(f64) -> Complex>(f: F, wmin: f64, wmax: f64) -> bool {
    let locus = nyquist_locus(f, wmin, wmax, 8192);
    encirclements_of_minus_one(&locus) == 0
}

/// Matrix version of [`strip_zero_count`]: counts the zeros of
/// `det(I + G̃(s))` inside the right-half period strip of an
/// `ω₀`-periodic **matrix** loop gain, by the argument principle on the
/// offset contour. This is the rigorous stability test for LPTV loops
/// that are *not* rank one (multiple detectors, auxiliary continuous
/// feedback paths), where no scalar `λ` exists.
///
/// `g` evaluates the truncated open-loop HTM matrix at a Laplace point.
/// Truncation must be generous enough that the determinant has
/// converged (the winding is integer-quantized, which makes it robust
/// to small truncation error).
///
/// Returns the number of unstable closed-loop poles per period strip.
///
/// # Panics
///
/// Panics when `omega0 <= 0`, `eps <= 0`, or `n < 8`.
pub fn strip_zero_count_matrix<F: FnMut(Complex) -> htmpll_num::CMat>(
    mut g: F,
    omega0: f64,
    eps: f64,
    n: usize,
) -> isize {
    strip_winding(omega0, eps, n, |s| {
        let m = g(s);
        let i_plus_g = &htmpll_num::CMat::identity(m.rows()) + &m;
        htmpll_num::Lu::factor(&i_plus_g)
            .map(|lu| lu.det())
            .unwrap_or(Complex::ZERO)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_lti::Tf;
    use htmpll_num::Poly;

    #[test]
    fn stable_first_order() {
        let g = Tf::from_coeffs(vec![10.0], vec![1.0, 1.0]).unwrap();
        assert!(is_nyquist_stable(|w| g.eval_jw(w), 1e-4, 1e4));
    }

    #[test]
    fn unstable_third_order_high_gain() {
        // G = k/(s+1)³ crosses −180° at ω = √3 where |G| = k/8: unstable
        // closed loop for k > 8.
        let den = Poly::from_real_roots(&[-1.0, -1.0, -1.0]);
        let g = Tf::new(Poly::constant(20.0), den.clone()).unwrap();
        let locus = nyquist_locus(|w| g.eval_jw(w), 1e-4, 1e4, 8192);
        assert_eq!(encirclements_of_minus_one(&locus), 2);
        assert!(!is_nyquist_stable(|w| g.eval_jw(w), 1e-4, 1e4));
        // Below the critical gain: stable.
        let g_ok = Tf::new(Poly::constant(4.0), den).unwrap();
        assert!(is_nyquist_stable(|w| g_ok.eval_jw(w), 1e-4, 1e4));
    }

    #[test]
    fn critical_gain_boundary() {
        let den = Poly::from_real_roots(&[-1.0, -1.0, -1.0]);
        for (k, stable) in [(7.5, true), (8.5, false)] {
            let g = Tf::new(Poly::constant(k), den.clone()).unwrap();
            assert_eq!(
                is_nyquist_stable(|w| g.eval_jw(w), 1e-4, 1e4),
                stable,
                "gain {k}"
            );
        }
    }

    #[test]
    fn winding_number_of_explicit_circles() {
        // A circle of radius 0.5 centered at −1 encircles −1 once (CCW).
        let n = 256;
        let circ: Vec<Complex> = (0..n)
            .map(|k| {
                let th = std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
                Complex::new(-1.0, 0.0) + Complex::from_polar(0.5, th)
            })
            .collect();
        // Upper half of the circle; the conjugate mirror completes it.
        // The mirrored traversal runs counter-clockwise, i.e. −1 in the
        // clockwise-positive Nyquist convention.
        assert_eq!(encirclements_of_minus_one(&circ), -1);

        // A small circle near the origin does not encircle −1.
        let far: Vec<Complex> = (0..n)
            .map(|k| {
                let th = std::f64::consts::PI * k as f64 / n as f64;
                Complex::from_polar(0.1, th)
            })
            .collect();
        assert_eq!(encirclements_of_minus_one(&far), 0);
    }

    #[test]
    fn matrix_strip_count_matches_scalar_for_rank_one() {
        use crate::blocks::{LtiHtm, SamplerHtm};
        use crate::ops::series;
        use crate::trunc::Truncation;
        use htmpll_lti::ChargePumpFilter2;

        // A charge-pump loop at two speeds: the det-winding of the full
        // matrix must agree with the scalar strip count on 1 + λ.
        // Loop gains chosen so |A(jω)| = 1 lands at ω_UG/ω₀ ≈ 0.08
        // (stable) and ≈ 0.9 (far beyond the sampling limit).
        let t = Truncation::new(12);
        for (gain, expect_unstable) in [(0.1, false), (12.0, true)] {
            let w0 = 5.0;
            let z = ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0)
                .unwrap()
                .impedance()
                .scale(gain * 2.0 * std::f64::consts::PI / w0);
            let lf = LtiHtm::new(z, w0);
            let vco = LtiHtm::new(Tf::integrator(), w0);
            let pfd = SamplerHtm::new(w0);
            let count = strip_zero_count_matrix(
                |s| series(&[&pfd, &lf, &vco], s, t).into_matrix(),
                w0,
                1e-4,
                4096,
            );
            assert_eq!(count > 0, expect_unstable, "gain {gain}: count {count}");
        }
    }

    #[test]
    fn matrix_strip_count_handles_non_rank_one_loop() {
        use crate::blocks::{HtmBlock, LtiHtm, SamplerHtm};
        use crate::ops::series;
        use crate::trunc::Truncation;
        use htmpll_lti::ChargePumpFilter2;

        // Hybrid loop: sampled PFD path in parallel with a continuous
        // auxiliary feedback path — genuinely rank > 1, no scalar λ.
        let w0 = 5.0;
        let t = Truncation::new(10);
        let z = ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0)
            .unwrap()
            .impedance()
            .scale(0.1 * 2.0 * std::f64::consts::PI / w0);
        let vco = LtiHtm::new(Tf::integrator(), w0);

        let eval = |aux_gain: f64, s: Complex| {
            let lf = LtiHtm::new(z.clone(), w0);
            let pfd = SamplerHtm::new(w0);
            let sampled = series(&[&pfd, &lf], s, t);
            // Continuous path: a broadband first-order detector.
            let aux = LtiHtm::new(Tf::first_order_lowpass(2.0).scale(aux_gain), w0);
            let fwd = parallel_htm(&sampled, &aux.htm(s, t));
            (&vco.htm(s, t) * &fwd).into_matrix()
        };
        fn parallel_htm(a: &crate::matrix::Htm, b: &crate::matrix::Htm) -> crate::matrix::Htm {
            a + b
        }

        // Rank check at one point: two significant singular directions
        // (cheap proxy: a 2×2 minor of the forward matrix is nonzero).
        let probe = eval(0.5, Complex::new(1e-3, 0.3));
        let det2 = probe[(0, 0)] * probe[(1, 1)] - probe[(0, 1)] * probe[(1, 0)];
        assert!(det2.abs() > 1e-9, "loop should not be rank one");

        // A modest auxiliary gain keeps the hybrid loop stable; a large
        // negative (positive-feedback) one destabilizes it — the PLL
        // path splits the pure-aux loop's single real RHP pole into a
        // complex pair, so the count is 2. Dense contour sampling is
        // required: the determinant spikes where the contour passes the
        // aliased integrator poles.
        let stable = strip_zero_count_matrix(|s| eval(0.5, s), w0, 1e-4, 8192);
        assert_eq!(stable, 0);
        let unstable = strip_zero_count_matrix(|s| eval(-40.0, s), w0, 1e-4, 8192);
        assert_eq!(unstable, 2, "count {unstable}");
        // Sanity anchor: with the sampled path removed the aux loop has
        // exactly one RHP pole (s² + 2s − 80 = 0 → s = 8).
        let z_tiny = ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0)
            .unwrap()
            .impedance()
            .scale(1e-9);
        let pure_aux = strip_zero_count_matrix(
            |s| {
                let lf = LtiHtm::new(z_tiny.clone(), w0);
                let pfd = SamplerHtm::new(w0);
                let sampled = series(&[&pfd, &lf], s, t);
                let aux = LtiHtm::new(Tf::first_order_lowpass(2.0).scale(-40.0), w0);
                let fwd = parallel_htm(&sampled, &aux.htm(s, t));
                (&vco.htm(s, t) * &fwd).into_matrix()
            },
            w0,
            1e-4,
            8192,
        );
        assert_eq!(pure_aux, 1);
    }

    #[test]
    fn degenerate_locus() {
        assert_eq!(encirclements_of_minus_one(&[]), 0);
        assert_eq!(encirclements_of_minus_one(&[Complex::ONE]), 0);
    }
}
