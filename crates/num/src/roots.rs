//! Polynomial root finding by the Aberth–Ehrlich method.
//!
//! Transfer-function pole/zero extraction reduces to finding all complex
//! roots of a real polynomial. [`find_roots`] runs simultaneous
//! Aberth–Ehrlich iteration from perturbed-circle initial guesses, then
//! polishes each root with a few Newton steps.
//!
//! ```
//! use htmpll_num::{roots::find_roots, Poly};
//!
//! // x² + 1 → roots ±j
//! let p = Poly::new(vec![1.0, 0.0, 1.0]);
//! let r = find_roots(&p).expect("converged");
//! assert_eq!(r.len(), 2);
//! assert!(r.iter().all(|z| (z.abs() - 1.0).abs() < 1e-10));
//! ```

use crate::complex::Complex;
use crate::poly::Poly;
use std::fmt;

/// Error returned when root finding cannot proceed or fails to converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindRootsError {
    /// The zero polynomial has no well-defined roots.
    ZeroPolynomial,
    /// Iteration failed to converge within the internal budget.
    NoConvergence,
}

impl fmt::Display for FindRootsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindRootsError::ZeroPolynomial => write!(f, "zero polynomial has no roots"),
            FindRootsError::NoConvergence => write!(f, "root iteration did not converge"),
        }
    }
}

impl std::error::Error for FindRootsError {}

/// Finds all complex roots of a real polynomial.
///
/// Degree-0 polynomials return an empty root list. Exact zero roots
/// (trailing zero constant coefficients) are deflated out first so they
/// are returned exactly, which matters for transfer functions with poles
/// at DC.
///
/// # Errors
///
/// Returns [`FindRootsError::ZeroPolynomial`] for the zero polynomial and
/// [`FindRootsError::NoConvergence`] if the Aberth iteration stalls
/// (pathological inputs far outside the conditioning of PLL loop
/// polynomials).
pub fn find_roots(p: &Poly) -> Result<Vec<Complex>, FindRootsError> {
    if p.is_zero() {
        return Err(FindRootsError::ZeroPolynomial);
    }
    // Deflate exact roots at the origin.
    let mut coeffs = p.coeffs().to_vec();
    let mut zeros_at_origin = 0usize;
    while coeffs.first() == Some(&0.0) && coeffs.len() > 1 {
        coeffs.remove(0);
        zeros_at_origin += 1;
    }
    let reduced = Poly::new(coeffs);
    let mut roots = vec![Complex::ZERO; zeros_at_origin];
    if reduced.degree() == 0 {
        return Ok(roots);
    }
    roots.extend(aberth(&reduced)?);
    Ok(roots)
}

/// Upper bound on root magnitudes (Cauchy bound).
fn cauchy_bound(p: &Poly) -> f64 {
    let lead = p.leading().abs();
    let m = p
        .coeffs()
        .iter()
        .take(p.degree())
        .map(|c| c.abs())
        .fold(0.0, f64::max);
    1.0 + m / lead
}

/// The Aberth–Ehrlich correction of `z[i]`, given `pi = p(z[i])` and
/// the derivative `dp`: the Newton step deflated by the other
/// approximations.
fn aberth_step(dp: &Poly, z: &[Complex], i: usize, pi: Complex) -> Complex {
    let dpi = dp.eval_complex(z[i]);
    let newton = if dpi == Complex::ZERO {
        // Nudge off a critical point.
        Complex::new(1e-8, 1e-8)
    } else {
        pi / dpi
    };
    let mut repulse = Complex::ZERO;
    for (j, &zj) in z.iter().enumerate() {
        if j != i {
            let d = z[i] - zj;
            if d != Complex::ZERO {
                repulse += d.recip();
            }
        }
    }
    let denom = Complex::ONE - newton * repulse;
    if denom.abs() < 1e-300 {
        newton
    } else {
        newton / denom
    }
}

/// Finds all complex roots of a real polynomial whose roots may span
/// many decades in magnitude.
///
/// [`find_roots`] starts from one circle and stops at an absolute
/// residual scaled to the largest coefficient, so roots far smaller
/// than the others come back unresolved. Here the starting points sit
/// on the circles of the Newton polygon of `log|c_k|` (one circle per
/// edge, with as many points as the edge is long, at the radius its
/// slope gives), and each root moves until `|p(z)|` is within the
/// rounding error of evaluating `p` at `z`, `2n·ε·Σ|c_k|·|z|^k`. Exact
/// zero roots are deflated first and returned exactly; a root whose
/// imaginary part is below `10⁻¹⁰·|z|` is snapped onto the real axis
/// (relative to its own size, so tiny complex roots stay complex).
///
/// # Errors
///
/// As [`find_roots`].
pub fn find_roots_graded(p: &Poly) -> Result<Vec<Complex>, FindRootsError> {
    if p.is_zero() {
        return Err(FindRootsError::ZeroPolynomial);
    }
    let zeros = p.coeffs().iter().take_while(|&&c| c == 0.0).count();
    let q = Poly::new(p.coeffs()[zeros..].to_vec());
    let mut roots = vec![Complex::ZERO; zeros];
    let n = q.degree();
    if n == 0 {
        return Ok(roots);
    }
    // Upper convex hull of (k, log|c_k|) over the nonzero coefficients;
    // c_0 and c_n are nonzero, so the edges span 0..=n.
    let mut hull: Vec<(usize, f64)> = Vec::new();
    for (k, c) in q.coeffs().iter().enumerate().filter(|(_, c)| **c != 0.0) {
        let pt = (k, c.abs().ln());
        while let [.., a, b] = hull[..] {
            let cross = (b.0 - a.0) as f64 * (pt.1 - a.1) - (b.1 - a.1) * (pt.0 - a.0) as f64;
            if cross < 0.0 {
                break;
            }
            hull.pop();
        }
        hull.push(pt);
    }
    let mut z = Vec::with_capacity(n);
    for edge in hull.windows(2) {
        let ((k1, v1), (k2, v2)) = (edge[0], edge[1]);
        let m = k2 - k1;
        let r = ((v1 - v2) / m as f64).exp();
        for j in 0..m {
            let theta = 2.0 * std::f64::consts::PI * (j as f64 / m as f64 + k1 as f64 / n as f64);
            z.push(Complex::from_polar(r, theta + 0.4));
        }
    }
    let dq = q.derivative();
    let bound = Poly::new(q.coeffs().iter().map(|c| c.abs()).collect());
    let tol = 2.0 * n as f64 * f64::EPSILON;
    for iter in 0..200 + 20 * n {
        let mut moved = false;
        for i in 0..n {
            let qi = q.eval_complex(z[i]);
            if qi.abs() <= tol * bound.eval(z[i].abs()) {
                continue;
            }
            let step = aberth_step(&dq, &z, i, qi);
            if step.abs() > f64::EPSILON * z[i].abs() {
                z[i] -= step;
                moved = true;
            }
        }
        if !moved {
            htmpll_obs::record!("num", "roots.graded_iters").record((iter + 1) as f64);
            for zi in z.iter_mut() {
                if zi.im.abs() < 1e-10 * zi.abs() {
                    zi.im = 0.0;
                }
            }
            roots.extend(z);
            return Ok(roots);
        }
    }
    htmpll_obs::counter!("num", "roots.aberth_failures").inc();
    Err(FindRootsError::NoConvergence)
}

fn aberth(p: &Poly) -> Result<Vec<Complex>, FindRootsError> {
    let n = p.degree();
    let dp = p.derivative();
    let r = cauchy_bound(p);
    // Initial guesses: points on a circle of radius ~r/2 with an
    // irrational angular offset to break symmetry (a classic choice that
    // avoids the stalling fixed points of symmetric starting sets).
    let mut z: Vec<Complex> = (0..n)
        .map(|k| {
            let theta = 2.0 * std::f64::consts::PI * (k as f64) / (n as f64) + 0.4;
            Complex::from_polar(0.5 * r.max(1e-3), theta)
        })
        .collect();

    let scale = p
        .coeffs()
        .iter()
        .map(|c| c.abs())
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    let max_iter = 200 + 20 * n;
    for iter in 0..max_iter {
        let mut max_step = 0.0f64;
        for i in 0..n {
            let pi = p.eval_complex(z[i]);
            if pi.abs() <= tol {
                continue;
            }
            let step = aberth_step(&dp, &z, i, pi);
            z[i] -= step;
            max_step = max_step.max(step.abs());
        }
        if max_step < 1e-13 * (1.0 + r) {
            // Newton polish for final accuracy.
            for zi in z.iter_mut() {
                for _ in 0..3 {
                    let pv = p.eval_complex(*zi);
                    let dv = dp.eval_complex(*zi);
                    if dv == Complex::ZERO || pv.abs() <= tol {
                        break;
                    }
                    *zi -= pv / dv;
                }
            }
            snap_to_axes(&mut z);
            htmpll_obs::record!("num", "roots.aberth_iters").record((iter + 1) as f64);
            return Ok(z);
        }
    }
    htmpll_obs::counter!("num", "roots.aberth_failures").inc();
    Err(FindRootsError::NoConvergence)
}

/// Snaps tiny imaginary/real parts of roots to zero so real roots of real
/// polynomials come back exactly real (within conditioning).
fn snap_to_axes(roots: &mut [Complex]) {
    for z in roots.iter_mut() {
        let m = z.abs();
        let eps = 1e-10 * (1.0 + m);
        if z.im.abs() < eps {
            z.im = 0.0;
        }
        if z.re.abs() < eps {
            z.re = 0.0;
        }
    }
}

/// Groups nearly-equal roots into `(representative, multiplicity)` clusters.
///
/// Roots closer than `tol·(1 + |z|)` are merged; the representative is the
/// cluster mean. Partial-fraction expansion uses this to recognize
/// repeated poles (e.g. the double pole at DC of a charge-pump PLL).
pub fn cluster_roots(roots: &[Complex], tol: f64) -> Vec<(Complex, usize)> {
    let mut clusters: Vec<(Complex, usize)> = Vec::new();
    for &r in roots {
        let mut placed = false;
        for (rep, count) in clusters.iter_mut() {
            if (r - *rep).abs() <= tol * (1.0 + rep.abs()) {
                // Running mean keeps the representative centered.
                let n = *count as f64;
                *rep = (*rep * n + r) / (n + 1.0);
                *count += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push((r, 1));
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_contains_root(roots: &[Complex], target: Complex, tol: f64) {
        assert!(
            roots.iter().any(|z| (*z - target).abs() < tol),
            "no root near {target} in {roots:?}"
        );
    }

    #[test]
    fn quadratic_complex_pair() {
        // x² + 2x + 5 → −1 ± 2j
        let p = Poly::new(vec![5.0, 2.0, 1.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert_contains_root(&r, Complex::new(-1.0, 2.0), 1e-9);
        assert_contains_root(&r, Complex::new(-1.0, -2.0), 1e-9);
    }

    #[test]
    fn real_roots_are_real() {
        // (x−1)(x−2)(x−3)
        let p = Poly::from_real_roots(&[1.0, 2.0, 3.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 3);
        for target in [1.0, 2.0, 3.0] {
            assert_contains_root(&r, Complex::from_re(target), 1e-8);
        }
        assert!(
            r.iter().all(|z| z.im == 0.0),
            "roots should be snapped real"
        );
    }

    #[test]
    fn zeros_at_origin_are_exact() {
        // x²(x+3): double root at 0 must come back exactly.
        let p = Poly::new(vec![0.0, 0.0, 3.0, 1.0]);
        let r = find_roots(&p).unwrap();
        let zeros = r.iter().filter(|z| **z == Complex::ZERO).count();
        assert_eq!(zeros, 2);
        assert_contains_root(&r, Complex::from_re(-3.0), 1e-9);
    }

    #[test]
    fn constant_has_no_roots() {
        assert!(find_roots(&Poly::constant(5.0)).unwrap().is_empty());
    }

    #[test]
    fn zero_poly_rejected() {
        assert_eq!(
            find_roots(&Poly::zero()).unwrap_err(),
            FindRootsError::ZeroPolynomial
        );
    }

    #[test]
    fn repeated_roots_found() {
        // (x+1)³ — clustered triple root; Aberth loses some accuracy at
        // multiple roots (conditioning ∝ ε^{1/3}) so use a loose check.
        let p = Poly::from_real_roots(&[-1.0, -1.0, -1.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 3);
        for z in &r {
            assert!((z.re + 1.0).abs() < 1e-4 && z.im.abs() < 1e-4, "{z}");
        }
        let clusters = cluster_roots(&r, 1e-3);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].1, 3);
    }

    #[test]
    fn high_degree_wilkinson_like() {
        // Degree-8 polynomial with roots 1..8 scaled to avoid the worst
        // Wilkinson conditioning.
        let roots: Vec<f64> = (1..=8).map(|k| k as f64 / 8.0).collect();
        let p = Poly::from_real_roots(&roots);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 8);
        for target in roots {
            assert_contains_root(&r, Complex::from_re(target), 1e-6);
        }
    }

    #[test]
    fn residuals_are_small() {
        let p = Poly::new(vec![2.0, -3.0, 0.5, 1.0, 4.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 4);
        for z in r {
            assert!(p.eval_complex(z).abs() < 1e-8, "residual too large at {z}");
        }
    }

    #[test]
    fn graded_roots_span_decades() {
        // Roots from 2 down to 1e-40: the absolute stop of find_roots
        // cannot resolve the small ones, the relative stop does.
        let pair = Poly::new(vec![2e-80, -2e-40, 1.0]); // 1e-40·(1 ± j)
        let p = &(&Poly::from_real_roots(&[2.0, -0.3, 1e-12, -3e-25]) * &pair) * &Poly::x();
        let r = find_roots_graded(&p).unwrap();
        assert_eq!(r.len(), 7);
        assert_eq!(r.iter().filter(|z| **z == Complex::ZERO).count(), 1);
        for target in [
            Complex::from_re(2.0),
            Complex::from_re(-0.3),
            Complex::from_re(1e-12),
            Complex::from_re(-3e-25),
            Complex::new(1e-40, 1e-40),
            Complex::new(1e-40, -1e-40),
        ] {
            assert_contains_root(&r, target, 1e-9 * target.abs());
        }
        // Real roots come back exactly real.
        assert!(r.iter().filter(|z| z.re.abs() > 1e-30).all(|z| z.im == 0.0));
    }

    #[test]
    fn cluster_roots_groups_and_averages() {
        let roots = [
            Complex::new(1.0, 0.0),
            Complex::new(1.0 + 1e-9, 0.0),
            Complex::new(-2.0, 0.5),
        ];
        let c = cluster_roots(&roots, 1e-6);
        assert_eq!(c.len(), 2);
        let big = c.iter().find(|(_, n)| *n == 2).unwrap();
        assert!((big.0 - Complex::new(1.0, 0.0)).abs() < 1e-8);
    }

    #[test]
    fn error_display() {
        assert!(FindRootsError::ZeroPolynomial.to_string().contains("zero"));
        assert!(FindRootsError::NoConvergence
            .to_string()
            .contains("converge"));
    }
}
