//! Real-coefficient polynomials.
//!
//! Transfer-function numerators and denominators are [`Poly`] values:
//! real coefficients in **ascending** power order (`coeffs[k]` multiplies
//! `x^k`). Evaluation supports complex arguments (Horner), which is what
//! Laplace-domain analysis needs.
//!
//! ```
//! use htmpll_num::{Complex, Poly};
//!
//! // p(x) = 1 + 2x + x²  =  (1 + x)²
//! let p = Poly::new(vec![1.0, 2.0, 1.0]);
//! assert_eq!(p.eval(-1.0), 0.0);
//! assert_eq!(p.degree(), 2);
//! let at_j = p.eval_complex(Complex::I); // (1+j)² = 2j
//! assert!((at_j - Complex::new(0.0, 2.0)).abs() < 1e-15);
//! ```

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A polynomial with real `f64` coefficients in ascending power order.
///
/// The zero polynomial is represented by an empty coefficient vector (or
/// any all-zero vector; [`Poly::new`] trims trailing zeros).
#[derive(Clone, PartialEq)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Creates a polynomial from ascending-order coefficients, trimming
    /// trailing (highest-order) zeros.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly::new(vec![c])
    }

    /// The monomial `x`.
    pub fn x() -> Self {
        Poly::new(vec![0.0, 1.0])
    }

    /// Builds the monic polynomial with the given real roots.
    pub fn from_real_roots(roots: &[f64]) -> Self {
        let mut p = Poly::constant(1.0);
        for &r in roots {
            p = &p * &Poly::new(vec![-r, 1.0]);
        }
        p
    }

    /// Builds a real monic polynomial from complex roots.
    ///
    /// Complex roots must come in conjugate pairs (within `tol` on the
    /// pairing); each pair contributes a real quadratic factor so the
    /// result has exactly real coefficients with no imaginary residue.
    ///
    /// # Errors
    ///
    /// Returns the unpaired root when a complex root has no conjugate
    /// partner within `tol`.
    pub fn from_complex_roots(roots: &[Complex], tol: f64) -> Result<Self, Complex> {
        let mut p = Poly::constant(1.0);
        let mut used = vec![false; roots.len()];
        for (i, &r) in roots.iter().enumerate() {
            if used[i] {
                continue;
            }
            if r.im.abs() <= tol {
                used[i] = true;
                p = &p * &Poly::new(vec![-r.re, 1.0]);
            } else {
                // Find the conjugate partner.
                let mut partner = None;
                for (k, &q) in roots.iter().enumerate().skip(i + 1) {
                    if !used[k] && (q - r.conj()).abs() <= tol * (1.0 + r.abs()) {
                        partner = Some(k);
                        break;
                    }
                }
                match partner {
                    Some(k) => {
                        used[i] = true;
                        used[k] = true;
                        // (x − r)(x − r̄) = x² − 2Re(r)x + |r|²
                        p = &p * &Poly::new(vec![r.norm_sqr(), -2.0 * r.re, 1.0]);
                    }
                    None => return Err(r),
                }
            }
        }
        Ok(p)
    }

    fn trim(&mut self) {
        while let Some(&last) = self.coeffs.last() {
            if last == 0.0 {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Ascending-order coefficient slice (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Coefficient of `x^k` (zero when `k` exceeds the degree).
    pub fn coeff(&self, k: usize) -> f64 {
        self.coeffs.get(k).copied().unwrap_or(0.0)
    }

    /// Degree of the polynomial; the zero polynomial has degree 0 by
    /// convention here (use [`Poly::is_zero`] to distinguish it).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Returns true for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The leading (highest-order) coefficient, or 0 for the zero polynomial.
    pub fn leading(&self) -> f64 {
        self.coeffs.last().copied().unwrap_or(0.0)
    }

    /// Evaluates at a real point by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates at a complex point by Horner's rule.
    pub fn eval_complex(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + c)
    }

    /// The formal derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        Poly::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &c)| k as f64 * c)
                .collect(),
        )
    }

    /// Multiplies by a real scalar.
    pub fn scale(&self, k: f64) -> Poly {
        Poly::new(self.coeffs.iter().map(|&c| c * k).collect())
    }

    /// Makes the polynomial monic (leading coefficient 1).
    ///
    /// Returns the zero polynomial unchanged.
    pub fn monic(&self) -> Poly {
        let l = self.leading();
        if l == 0.0 {
            self.clone()
        } else {
            self.scale(1.0 / l)
        }
    }

    /// Multiplies by `x^k` (shifts coefficients up).
    pub fn mul_xk(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![0.0; k];
        coeffs.extend_from_slice(&self.coeffs);
        Poly::new(coeffs)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient·divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics when dividing by the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.is_zero() || self.degree() < divisor.degree() {
            return (Poly::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let dlead = divisor.leading();
        let ddeg = divisor.degree();
        let qdeg = self.degree() - ddeg;
        let mut q = vec![0.0; qdeg + 1];
        for k in (0..=qdeg).rev() {
            let c = rem[k + ddeg] / dlead;
            q[k] = c;
            if c != 0.0 {
                for (j, &d) in divisor.coeffs.iter().enumerate() {
                    rem[k + j] -= c * d;
                }
            }
        }
        rem.truncate(ddeg);
        (Poly::new(q), Poly::new(rem))
    }

    /// Substitutes `x → a·x` (frequency scaling of a transfer polynomial).
    pub fn scale_arg(&self, a: f64) -> Poly {
        let mut pw = 1.0;
        Poly::new(
            self.coeffs
                .iter()
                .map(|&c| {
                    let v = c * pw;
                    pw *= a;
                    v
                })
                .collect(),
        )
    }
}

/// Product of two complex-coefficient polynomials given by their
/// ascending coefficients; empty when either factor is.
pub fn cpoly_mul(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![Complex::ZERO; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

impl Default for Poly {
    fn default() -> Self {
        Poly::zero()
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly{:?}", self.coeffs)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match k {
                0 => write!(f, "{a}")?,
                1 => {
                    if a == 1.0 {
                        write!(f, "x")?
                    } else {
                        write!(f, "{a}·x")?
                    }
                }
                _ => {
                    if a == 1.0 {
                        write!(f, "x^{k}")?
                    } else {
                        write!(f, "{a}·x^{k}")?
                    }
                }
            }
            first = false;
        }
        Ok(())
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::new((0..n).map(|k| self.coeff(k) + rhs.coeff(k)).collect())
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::new((0..n).map(|k| self.coeff(k) - rhs.coeff(k)).collect())
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        self.scale(-1.0)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_trims_zeros() {
        let p = Poly::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
        assert_eq!(p.degree(), 1);
        assert!(Poly::new(vec![0.0, 0.0]).is_zero());
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::default(), Poly::zero());
    }

    #[test]
    fn eval_real_and_complex() {
        let p = Poly::new(vec![1.0, -3.0, 2.0]); // 2x² − 3x + 1 = (2x−1)(x−1)
        assert_eq!(p.eval(1.0), 0.0);
        assert_eq!(p.eval(0.5), 0.0);
        assert_eq!(p.eval(0.0), 1.0);
        let z = Complex::new(1.0, 1.0);
        let expect = 2.0 * z.sqr() - 3.0 * z + 1.0;
        assert!(p.eval_complex(z).approx_eq(expect, 1e-14));
        assert_eq!(Poly::zero().eval(3.0), 0.0);
        assert_eq!(Poly::zero().eval_complex(z), Complex::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Poly::new(vec![1.0, 1.0]); // 1 + x
        let b = Poly::new(vec![-1.0, 1.0]); // −1 + x
        assert_eq!((&a + &b).coeffs(), &[0.0, 2.0]);
        assert_eq!((&a - &b).coeffs(), &[2.0]);
        assert_eq!((&a * &b).coeffs(), &[-1.0, 0.0, 1.0]); // x² − 1
        assert_eq!((-&a).coeffs(), &[-1.0, -1.0]);
        // Cancellation trims degree.
        assert!((&a - &a).is_zero());
    }

    #[test]
    fn derivative_and_scale() {
        let p = Poly::new(vec![5.0, 0.0, 3.0, 1.0]); // 5 + 3x² + x³
        assert_eq!(p.derivative().coeffs(), &[0.0, 6.0, 3.0]);
        assert!(Poly::constant(4.0).derivative().is_zero());
        assert_eq!(p.scale(2.0).coeffs(), &[10.0, 0.0, 6.0, 2.0]);
        assert_eq!(p.monic().leading(), 1.0);
        assert!(Poly::zero().monic().is_zero());
    }

    #[test]
    fn mul_xk_shifts() {
        let p = Poly::new(vec![1.0, 2.0]);
        assert_eq!(p.mul_xk(2).coeffs(), &[0.0, 0.0, 1.0, 2.0]);
        assert!(Poly::zero().mul_xk(3).is_zero());
    }

    #[test]
    fn division_roundtrip() {
        let n = Poly::new(vec![-1.0, 0.0, 0.0, 1.0]); // x³ − 1
        let d = Poly::new(vec![-1.0, 1.0]); // x − 1
        let (q, r) = n.div_rem(&d);
        assert_eq!(q.coeffs(), &[1.0, 1.0, 1.0]); // x² + x + 1
        assert!(r.is_zero());

        let n2 = Poly::new(vec![1.0, 0.0, 1.0]); // x² + 1
        let (q2, r2) = n2.div_rem(&d);
        let back = &(&q2 * &d) + &r2;
        assert_eq!(back, n2);
        assert!(r2.degree() < d.degree() || r2.is_zero());
    }

    #[test]
    fn division_by_higher_degree_is_remainder() {
        let n = Poly::new(vec![1.0, 1.0]);
        let d = Poly::new(vec![1.0, 0.0, 1.0]);
        let (q, r) = n.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, n);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Poly::constant(1.0).div_rem(&Poly::zero());
    }

    #[test]
    fn from_real_roots() {
        let p = Poly::from_real_roots(&[1.0, -2.0]);
        // (x−1)(x+2) = x² + x − 2
        assert_eq!(p.coeffs(), &[-2.0, 1.0, 1.0]);
        assert_eq!(Poly::from_real_roots(&[]).coeffs(), &[1.0]);
    }

    #[test]
    fn from_complex_roots_conjugate_pairs() {
        let roots = [
            Complex::new(0.0, 1.0),
            Complex::new(0.0, -1.0),
            Complex::new(-2.0, 0.0),
        ];
        let p = Poly::from_complex_roots(&roots, 1e-12).unwrap();
        // (x²+1)(x+2) = x³ + 2x² + x + 2
        assert_eq!(p.coeffs(), &[2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn from_complex_roots_unpaired_rejected() {
        let roots = [Complex::new(0.0, 1.0)];
        assert!(Poly::from_complex_roots(&roots, 1e-12).is_err());
    }

    #[test]
    fn scale_arg_substitution() {
        let p = Poly::new(vec![1.0, 1.0, 1.0]); // 1 + x + x²
        let q = p.scale_arg(2.0); // 1 + 2x + 4x²
        assert_eq!(q.coeffs(), &[1.0, 2.0, 4.0]);
        for x in [-1.0, 0.3, 2.0] {
            assert!((q.eval(x) - p.eval(2.0 * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn display() {
        let p = Poly::new(vec![-2.0, 0.0, 1.0]);
        assert_eq!(format!("{p}"), "x^2 - 2");
        assert_eq!(format!("{}", Poly::zero()), "0");
        assert_eq!(format!("{}", Poly::new(vec![0.0, -1.0])), "-x");
    }
}
