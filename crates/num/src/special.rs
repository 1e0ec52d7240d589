//! Lattice sums over shifted harmonics.
//!
//! The effective open-loop gain of a sampled PLL is
//! `λ(s) = Σ_{m∈ℤ} A(s + jmω₀)` (Vanassche et al., eq. 37). After partial
//! fraction expansion, every term reduces to the lattice sum
//!
//! ```text
//! S_r(z; ω₀) = Σ_{m∈ℤ} 1/(z + jmω₀)^r
//! ```
//!
//! which has the closed form `S₁(z) = (π/ω₀)·coth(πz/ω₀)` and, for
//! repeated poles, derivatives thereof: `S_{r+1} = −(1/r)·dS_r/dz`.
//! Expressing `S_r = (π/ω₀)^r · P_r(coth(πz/ω₀))` turns the recursion
//! into polynomial algebra in `c = coth`, using `dc/dx = 1 − c²`.
//!
//! ```
//! use htmpll_num::{special::lattice_sum, Complex};
//!
//! let z = Complex::new(0.3, 0.1);
//! let closed = lattice_sum(z, 1.0, 1);
//! // Compare against a brute-force truncated sum.
//! let mut brute = Complex::ZERO;
//! for m in -20000..=20000 {
//!     brute += (z + Complex::new(0.0, m as f64)).recip();
//! }
//! assert!((closed - brute).abs() < 1e-3);
//! ```

use crate::complex::Complex;

/// Maximum supported pole multiplicity for the closed-form lattice sum.
pub const MAX_LATTICE_ORDER: usize = 12;

/// Coefficients (ascending powers of `c = coth`) of the polynomial `P_r`
/// with `S_r(z) = (π/ω₀)^r · P_r(coth(πz/ω₀))`.
///
/// Public so the λ kernel can precompute the polynomial once per pole
/// instead of rebuilding it on every call; [`lattice_sum`] evaluates
/// exactly `(π/ω₀)^r · Horner(P_r, coth)`.
///
/// # Panics
///
/// Panics if `r` is 0 or exceeds [`MAX_LATTICE_ORDER`].
pub fn lattice_poly(r: usize) -> Vec<f64> {
    assert!(
        (1..=MAX_LATTICE_ORDER).contains(&r),
        "lattice sum order {r} outside 1..={MAX_LATTICE_ORDER}"
    );
    // P₁(c) = c.
    let mut p = vec![0.0, 1.0];
    for k in 1..r {
        // P_{k+1}(c) = −(1/k)·P_k'(c)·(1 − c²)
        let dp: Vec<f64> = p
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &a)| i as f64 * a)
            .collect();
        // multiply dp by (1 − c²): out[i] += dp[i]; out[i+2] −= dp[i]
        let mut out = vec![0.0; dp.len() + 2];
        for (i, &a) in dp.iter().enumerate() {
            out[i] += a;
            out[i + 2] -= a;
        }
        for a in out.iter_mut() {
            *a *= -1.0 / k as f64;
        }
        p = out;
    }
    p
}

/// Exact lattice sum `S_r(z; ω₀) = Σ_{m∈ℤ} (z + jmω₀)^{−r}`.
///
/// `z` must not sit on the lattice `{−jmω₀}` (the sum has poles there);
/// at such points the result is infinite/NaN as dictated by the
/// underlying `coth` evaluation.
///
/// # Panics
///
/// Panics if `r` is 0 or exceeds [`MAX_LATTICE_ORDER`], or if
/// `omega0 <= 0`.
pub fn lattice_sum(z: Complex, omega0: f64, r: usize) -> Complex {
    assert!(omega0 > 0.0, "omega0 must be positive");
    let poly = lattice_poly(r);
    let x = z.scale(std::f64::consts::PI / omega0);
    let c = x.coth();
    // Horner in c.
    let mut acc = Complex::ZERO;
    for &a in poly.iter().rev() {
        acc = acc * c + a;
    }
    let factor = Complex::from_re(std::f64::consts::PI / omega0).powi(r as i32);
    factor * acc
}

/// Brute-force truncated lattice sum `Σ_{|m| ≤ terms}` — the numerical
/// cross-check for [`lattice_sum`] and the fallback used to validate
/// truncation orders.
pub fn lattice_sum_truncated(z: Complex, omega0: f64, r: usize, terms: usize) -> Complex {
    let mut acc = z.powi(-(r as i32));
    for m in 1..=terms as i64 {
        let sh = Complex::from_im(m as f64 * omega0);
        acc += (z + sh).powi(-(r as i32)) + (z - sh).powi(-(r as i32));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn order_one_is_coth_identity() {
        let z = Complex::new(0.7, -0.2);
        let w0 = 2.0;
        let expect = Complex::from_re(PI / w0) * (z.scale(PI / w0)).coth();
        assert!((lattice_sum(z, w0, 1) - expect).abs() < 1e-14);
    }

    #[test]
    fn order_two_is_csch_squared() {
        // S₂(z) = (π/ω₀)² csch²(πz/ω₀) = (π/ω₀)²(coth² − 1)
        let z = Complex::new(0.4, 0.3);
        let w0 = 1.5;
        let x = z.scale(PI / w0);
        let c = x.coth();
        let expect = (c.sqr() - 1.0).scale((PI / w0) * (PI / w0));
        assert!((lattice_sum(z, w0, 2) - expect).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_truncated_orders_1_to_4() {
        let z = Complex::new(0.33, 0.21);
        let w0 = 1.0;
        // Truncated-sum tails scale like terms^{1−r}, so the comparison
        // tolerance must follow the brute-force truncation error.
        for (r, terms, tol) in [
            (1usize, 400_000usize, 1e-4),
            (2, 200_000, 1e-4),
            (3, 5_000, 1e-6),
            (4, 2_000, 1e-8),
        ] {
            let closed = lattice_sum(z, w0, r);
            let brute = lattice_sum_truncated(z, w0, r, terms);
            assert!(
                (closed - brute).abs() < tol,
                "order {r}: closed {closed} vs brute {brute}"
            );
        }
    }

    #[test]
    fn large_real_part_limit() {
        // For Re(z) ≫ ω₀ the m=0 term dominates but the closed form must
        // still track the full sum, which tends to (π/ω₀)·1 for order 1.
        let z = Complex::new(100.0, 0.0);
        let s = lattice_sum(z, 1.0, 1);
        assert!((s - Complex::from_re(PI)).abs() < 1e-10);
        assert!(s.is_finite());
    }

    #[test]
    fn odd_symmetry_order_one() {
        // S₁ is odd: S₁(−z) = −S₁(z).
        let z = Complex::new(0.2, 0.45);
        let a = lattice_sum(z, 1.0, 1);
        let b = lattice_sum(-z, 1.0, 1);
        assert!((a + b).abs() < 1e-12);
    }

    #[test]
    fn even_symmetry_order_two() {
        let z = Complex::new(0.2, 0.45);
        let a = lattice_sum(z, 1.0, 2);
        let b = lattice_sum(-z, 1.0, 2);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn periodicity_in_imaginary_direction() {
        // S_r(z + jω₀) = S_r(z): shifting by one lattice step is a
        // relabeling of the sum.
        let z = Complex::new(0.3, 0.1);
        let w0 = 0.7;
        for r in 1..=3 {
            let a = lattice_sum(z, w0, r);
            let b = lattice_sum(z + Complex::from_im(w0), w0, r);
            assert!((a - b).abs() < 1e-10, "order {r}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn order_zero_rejected() {
        let _ = lattice_sum(Complex::ONE, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_omega_rejected() {
        let _ = lattice_sum(Complex::ONE, 0.0, 1);
    }

    #[test]
    fn high_order_still_consistent() {
        let z = Complex::new(0.5, 0.2);
        let closed = lattice_sum(z, 1.0, 6);
        let brute = lattice_sum_truncated(z, 1.0, 6, 500);
        assert!((closed - brute).abs() < 1e-10);
    }
}
