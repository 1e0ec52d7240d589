//! Partial-fraction expansion with repeated poles.
//!
//! The exact effective open-loop gain `λ(s) = Σ_m A(s + jmω₀)` of a
//! sampled PLL is computed term-by-term from the partial fractions of
//! `A(s)` (see `htmpll_num::special`). Charge-pump loops have a **double
//! pole at DC**, so repeated poles are first-class here.
//!
//! The expansion is computed by Taylor-shifting numerator and reduced
//! denominator to each pole and dividing the resulting power series —
//! numerically robust compared to high-order numerical differentiation.
//!
//! ```
//! use htmpll_lti::{Pfe, Tf};
//! use htmpll_num::Complex;
//!
//! // H(s) = 1/(s²(s+1)) — double pole at 0, simple pole at −1.
//! let h = Tf::from_coeffs(vec![1.0], vec![0.0, 0.0, 1.0, 1.0]).unwrap();
//! let pfe = Pfe::expand(&h, 1e-6).unwrap();
//! let s = Complex::new(0.5, 0.3);
//! assert!((pfe.eval(s) - h.eval(s)).abs() < 1e-10);
//! ```

use crate::tf::{Tf, TfError};
use htmpll_num::{Complex, Poly};
use std::fmt;

/// One `c/(s − p)^order` term of a partial-fraction expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfeTerm {
    /// Pole location.
    pub pole: Complex,
    /// Power of the `(s − p)` factor, `≥ 1`.
    pub order: usize,
    /// Complex coefficient of the term.
    pub coeff: Complex,
}

/// A partial-fraction expansion `H(s) = direct(s) + Σ cᵢ/(s − pᵢ)^{rᵢ}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pfe {
    /// Polynomial (direct-feedthrough) part; zero for strictly proper
    /// inputs.
    pub direct: Poly,
    /// Pole terms, grouped by pole in ascending order of `order`.
    pub terms: Vec<PfeTerm>,
}

impl Pfe {
    /// Expands a transfer function into partial fractions.
    ///
    /// `cluster_tol` controls when nearby computed poles are merged into
    /// one repeated pole (relative to `1 + |p|`); `1e-6` suits the
    /// well-separated poles of PLL loop transfer functions while still
    /// catching exact multiple poles.
    ///
    /// # Errors
    ///
    /// Propagates pole-extraction failures.
    pub fn expand(tf: &Tf, cluster_tol: f64) -> Result<Pfe, TfError> {
        // Split off the direct polynomial part.
        let (direct, rem) = tf.num().div_rem(tf.den());
        let clusters = tf.pole_clusters(cluster_tol)?;
        let lead = tf.den().leading();

        let mut terms = Vec::new();
        for (ci, &(p, m)) in clusters.iter().enumerate() {
            // Taylor series of the numerator remainder at p, to order m−1.
            let n_taylor = taylor_shift(&rem, p, m);
            // Taylor series of Q(s) = den(s)/(s−p)^m at p: the product of
            // the other clusters' factors, truncated to order m−1.
            let mut q_taylor = vec![Complex::ZERO; m];
            q_taylor[0] = Complex::from_re(lead);
            for (cj, &(pj, mj)) in clusters.iter().enumerate() {
                if cj == ci {
                    continue;
                }
                for _ in 0..mj {
                    // Multiply the truncated series by (p + u − pj) = (p−pj) + u.
                    let base = p - pj;
                    let mut next = vec![Complex::ZERO; m];
                    for k in 0..m {
                        next[k] += q_taylor[k] * base;
                        if k + 1 < m {
                            next[k + 1] += q_taylor[k];
                        }
                    }
                    q_taylor = next;
                }
            }
            let a = series_div(&n_taylor, &q_taylor, m);
            // (s−p)^m·H ≈ Σ a_k u^k  ⇒  H ⊃ Σ a_k/(s−p)^{m−k}.
            for (k, &ak) in a.iter().enumerate() {
                let order = m - k;
                if ak.abs() > 0.0 {
                    terms.push(PfeTerm {
                        pole: p,
                        order,
                        coeff: ak,
                    });
                }
            }
        }
        // Deterministic ordering: by pole (re, im), then ascending order.
        terms.sort_by(|a, b| {
            (a.pole.re, a.pole.im, a.order)
                .partial_cmp(&(b.pole.re, b.pole.im, b.order))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(Pfe { direct, terms })
    }

    /// Evaluates the expansion at a complex point.
    pub fn eval(&self, s: Complex) -> Complex {
        let mut acc = self.direct.eval_complex(s);
        for t in &self.terms {
            acc += t.coeff * (s - t.pole).powi(-(t.order as i32));
        }
        acc
    }

    /// Evaluates the expansion with every singular distance `|s − pᵢ|`
    /// floored at `floor`: a point bitwise-on (or absurdly close to) a
    /// pole yields a huge-but-finite value of magnitude
    /// `~|cᵢ|/floor^{rᵢ}` instead of `inf`/`NaN`. The approach direction
    /// is preserved when there is one; bitwise-on-pole points are nudged
    /// along the positive real axis. Evaluation backends use this with a
    /// rounding-scale floor so the residue route saturates at the same
    /// magnitude as closed-form kernels (`coth`/`csch²`), whose argument
    /// never reaches the pole exactly in floating point.
    pub fn eval_floored(&self, s: Complex, floor: f64) -> Complex {
        let mut acc = self.direct.eval_complex(s);
        for t in &self.terms {
            let mut d = s - t.pole;
            let dist = d.abs();
            if dist < floor {
                d = if dist == 0.0 {
                    Complex::from_re(floor)
                } else {
                    d.scale(floor / dist)
                };
            }
            acc += t.coeff * d.powi(-(t.order as i32));
        }
        acc
    }

    /// Maximum pole multiplicity appearing in the expansion.
    pub fn max_order(&self) -> usize {
        self.terms.iter().map(|t| t.order).max().unwrap_or(0)
    }

    /// Distance from `s` to the nearest pole of the expansion
    /// (`+∞` when there are no pole terms). Evaluation backends use this
    /// to decide when direct polynomial evaluation of the underlying
    /// rational function loses precision and the residue expansion
    /// should be used instead.
    pub fn min_pole_distance(&self, s: Complex) -> f64 {
        self.terms
            .iter()
            .map(|t| (s - t.pole).abs())
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for Pfe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.direct.is_zero() {
            write!(f, "{} + ", self.direct)?;
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({:.4})/(s - {:.4})^{}", t.coeff, t.pole, t.order)?;
        }
        Ok(())
    }
}

/// Taylor coefficients of `P(p + u)` in powers of `u`, truncated to
/// `order` terms, computed by repeated synthetic division (Horner).
fn taylor_shift(p: &Poly, at: Complex, order: usize) -> Vec<Complex> {
    let n = p.coeffs().len();
    let mut c: Vec<Complex> = p.coeffs().iter().map(|&x| Complex::from_re(x)).collect();
    if n == 0 {
        return vec![Complex::ZERO; order];
    }
    for i in 0..n {
        for j in (i..n.saturating_sub(1)).rev() {
            let next = c[j + 1];
            c[j] += at * next;
        }
    }
    c.resize(order, Complex::ZERO);
    c.truncate(order);
    c
}

/// Leading `order` coefficients of the power series `N(u)/Q(u)` with
/// `Q(0) ≠ 0`.
fn series_div(n: &[Complex], q: &[Complex], order: usize) -> Vec<Complex> {
    let q0 = q[0];
    let mut a = vec![Complex::ZERO; order];
    for k in 0..order {
        let mut acc = n.get(k).copied().unwrap_or(Complex::ZERO);
        for j in 1..=k {
            acc -= q.get(j).copied().unwrap_or(Complex::ZERO) * a[k - j];
        }
        a[k] = acc / q0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The coefficient of the order-1 term at pole `p`.
    fn residue_at(pfe: &Pfe, p: Complex) -> Complex {
        let t = pfe
            .terms
            .iter()
            .find(|t| t.order == 1 && (t.pole - p).abs() < 1e-6);
        t.expect("order-1 term at p").coeff
    }

    fn check_reconstruction(tf: &Tf, tol: f64) {
        let pfe = Pfe::expand(tf, 1e-6).unwrap();
        for &(re, im) in &[(0.5, 0.3), (-0.2, 1.7), (2.0, -1.0), (0.01, 10.0)] {
            let s = Complex::new(re, im);
            let a = tf.eval(s);
            let b = pfe.eval(s);
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs()),
                "mismatch at {s}: tf={a} pfe={b}"
            );
        }
    }

    #[test]
    fn simple_poles() {
        // 1/((s+1)(s+2)) = 1/(s+1) − 1/(s+2).
        let h = Tf::new(Poly::constant(1.0), Poly::from_real_roots(&[-1.0, -2.0])).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        assert_eq!(pfe.terms.len(), 2);
        assert!(pfe.direct.is_zero());
        let r1 = residue_at(&pfe, Complex::from_re(-1.0));
        let r2 = residue_at(&pfe, Complex::from_re(-2.0));
        assert!(r1.approx_eq(Complex::ONE, 1e-10));
        assert!(r2.approx_eq(-Complex::ONE, 1e-10));
        check_reconstruction(&h, 1e-10);
    }

    #[test]
    fn double_pole_at_origin() {
        // The charge-pump prototype: (1+s)/(s²(1+s/10)).
        let num = Poly::new(vec![1.0, 1.0]);
        let den = Poly::new(vec![0.0, 0.0, 1.0, 0.1]);
        let h = Tf::new(num, den).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        assert_eq!(pfe.max_order(), 2);
        // Terms: c₂/s² + c₁/s + r/(s+10). Hand-compute: with
        // D = s²(1+s/10): s²H|₀ = 1 ⇒ c₂ = 1; d/ds[(1+s)/(1+s/10)]|₀ =
        // (1·(1+s/10) − (1+s)/10)/(1+s/10)²|₀ = 0.9 ⇒ c₁ = 0.9.
        let c2 = pfe
            .terms
            .iter()
            .find(|t| t.order == 2)
            .expect("order-2 term")
            .coeff;
        assert!(c2.approx_eq(Complex::ONE, 1e-9), "{c2}");
        let c1 = pfe
            .terms
            .iter()
            .find(|t| t.order == 1 && t.pole.abs() < 1e-9)
            .expect("order-1 term at origin")
            .coeff;
        assert!(c1.approx_eq(Complex::from_re(0.9), 1e-9), "{c1}");
        check_reconstruction(&h, 1e-9);
    }

    #[test]
    fn complex_pole_pair() {
        // 1/(s² + 2s + 5): poles −1 ± 2j, residues ∓ j/4.
        let h = Tf::from_coeffs(vec![1.0], vec![5.0, 2.0, 1.0]).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        assert_eq!(pfe.terms.len(), 2);
        let r = residue_at(&pfe, Complex::new(-1.0, 2.0));
        assert!(r.approx_eq(Complex::new(0.0, -0.25), 1e-9), "{r}");
        check_reconstruction(&h, 1e-10);
    }

    #[test]
    fn non_strictly_proper_gets_direct_part() {
        // (s² + 3s + 3)/(s+1) = (s + 2) + 1/(s+1).
        let h = Tf::from_coeffs(vec![3.0, 3.0, 1.0], vec![1.0, 1.0]).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        assert_eq!(pfe.direct.coeffs(), &[2.0, 1.0]);
        assert_eq!(pfe.terms.len(), 1);
        assert!(pfe.terms[0].coeff.approx_eq(Complex::ONE, 1e-10));
        check_reconstruction(&h, 1e-10);
    }

    #[test]
    fn triple_pole() {
        // 1/(s+2)³.
        let h = Tf::new(
            Poly::constant(1.0),
            Poly::from_real_roots(&[-2.0, -2.0, -2.0]),
        )
        .unwrap();
        // Aberth returns a loose cluster for the triple root, so use a
        // coarse cluster tolerance.
        let pfe = Pfe::expand(&h, 1e-3).unwrap();
        assert_eq!(pfe.max_order(), 3);
        let c3 = pfe.terms.iter().find(|t| t.order == 3).unwrap().coeff;
        assert!(c3.approx_eq(Complex::ONE, 1e-6), "{c3}");
        // Looser reconstruction tolerance for the ill-conditioned root.
        let s = Complex::new(0.5, 0.3);
        assert!((pfe.eval(s) - h.eval(s)).abs() < 1e-6);
    }

    #[test]
    fn high_order_loop_gain_shape() {
        // A(s) = k(1+s/ωz)/(s²(1+s/ωp)) — the paper's Fig.-5 shape.
        let wz = 0.4;
        let wp = 3.0;
        let num = Poly::new(vec![1.0, 1.0 / wz]);
        let den = Poly::new(vec![0.0, 0.0, 1.0, 1.0 / wp]);
        let a = Tf::new(num.scale(0.35), den).unwrap();
        check_reconstruction(&a, 1e-9);
        let pfe = Pfe::expand(&a, 1e-6).unwrap();
        assert_eq!(pfe.max_order(), 2);
        // Exactly three pole clusters: 0 (double) and −ωp (simple).
        let distinct: Vec<Complex> = {
            let mut v: Vec<Complex> = pfe.terms.iter().map(|t| t.pole).collect();
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            v
        };
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn min_pole_distance_tracks_nearest_pole() {
        let h = Tf::new(Poly::constant(1.0), Poly::from_real_roots(&[-1.0, -3.0])).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        let d = pfe.min_pole_distance(Complex::new(-1.0, 0.5));
        assert!((d - 0.5).abs() < 1e-9, "{d}");
        // Exactly on a pole: zero distance.
        assert!(pfe.min_pole_distance(Complex::from_re(-3.0)) < 1e-12);
        // No terms ⇒ infinite distance.
        let empty = Pfe {
            direct: Poly::constant(1.0),
            terms: Vec::new(),
        };
        assert_eq!(empty.min_pole_distance(Complex::ZERO), f64::INFINITY);
    }

    #[test]
    fn eval_floored_saturates_on_poles() {
        // 1/((s+1)(s+2)): on-pole evaluation is inf/NaN through the raw
        // form but saturates at ~1/floor through the floored expansion.
        let h = Tf::new(Poly::constant(1.0), Poly::from_real_roots(&[-1.0, -2.0])).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        let floor = 1e-12;
        let on_pole = pfe.eval_floored(Complex::from_re(-1.0), floor);
        assert!(on_pole.is_finite(), "{on_pole}");
        assert!(on_pole.abs() > 0.1 / floor, "{on_pole}");
        // Near-pole: the approach direction is preserved, so the floored
        // value points the same way as the limit from that side.
        let near = pfe.eval_floored(Complex::new(-1.0, 1e-15), floor);
        assert!(near.is_finite());
        assert!(near.im < 0.0, "1/(jδ) has negative imaginary part: {near}");
        // Far from every pole the floor is inert.
        let s = Complex::new(0.5, 0.3);
        assert!((pfe.eval_floored(s, floor) - pfe.eval(s)).abs() < 1e-14);
    }

    #[test]
    fn taylor_shift_matches_direct_expansion() {
        // P(x) = x³: P(1+u) = 1 + 3u + 3u² + u³.
        let p = Poly::new(vec![0.0, 0.0, 0.0, 1.0]);
        let t = taylor_shift(&p, Complex::ONE, 4);
        let expect = [1.0, 3.0, 3.0, 1.0];
        for (a, &e) in t.iter().zip(&expect) {
            assert!(a.approx_eq(Complex::from_re(e), 1e-13), "{a} vs {e}");
        }
    }

    #[test]
    fn series_div_geometric() {
        // 1/(1−u) = 1 + u + u² + …
        let n = [Complex::ONE];
        let q = [Complex::ONE, -Complex::ONE];
        let a = series_div(&n, &q, 5);
        for c in a {
            assert!(c.approx_eq(Complex::ONE, 1e-14));
        }
    }

    #[test]
    fn display_contains_terms() {
        let h = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        let pfe = Pfe::expand(&h, 1e-6).unwrap();
        let s = format!("{pfe}");
        assert!(s.contains("s -"), "{s}");
    }
}
