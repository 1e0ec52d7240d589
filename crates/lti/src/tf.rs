//! Rational transfer functions in the Laplace variable `s`.
//!
//! [`Tf`] is a ratio of real-coefficient polynomials. It is the model for
//! every LTI building block in a PLL: loop-filter impedances, the VCO
//! integrator, dividers, and the composite open-loop gain `A(s)`.
//!
//! ```
//! use htmpll_lti::Tf;
//! use htmpll_num::Complex;
//!
//! let integ = Tf::integrator();          // 1/s
//! let lp = Tf::first_order_lowpass(10.0); // 10/(s+10)
//! let open = &integ * &lp;               // series connection
//! let h = open.eval(Complex::from_im(10.0));
//! assert!((h.abs() - 0.1 / 2f64.sqrt()).abs() < 1e-12);
//! ```

use htmpll_num::roots::{cluster_roots, find_roots, FindRootsError};
use htmpll_num::{Complex, Poly};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Error produced when constructing or manipulating transfer functions.
#[derive(Debug, Clone, PartialEq)]
pub enum TfError {
    /// The denominator polynomial is identically zero.
    ZeroDenominator,
    /// Pole/zero extraction failed to converge.
    Roots(FindRootsError),
}

impl fmt::Display for TfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfError::ZeroDenominator => write!(f, "transfer function denominator is zero"),
            TfError::Roots(e) => write!(f, "root extraction failed: {e}"),
        }
    }
}

impl std::error::Error for TfError {}

impl From<FindRootsError> for TfError {
    fn from(e: FindRootsError) -> Self {
        TfError::Roots(e)
    }
}

/// A rational transfer function `H(s) = num(s) / den(s)` with real
/// coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct Tf {
    num: Poly,
    den: Poly,
}

impl Tf {
    /// Creates `num(s)/den(s)`.
    ///
    /// # Errors
    ///
    /// Returns [`TfError::ZeroDenominator`] when `den` is the zero
    /// polynomial.
    pub fn new(num: Poly, den: Poly) -> Result<Self, TfError> {
        if den.is_zero() {
            return Err(TfError::ZeroDenominator);
        }
        Ok(Tf { num, den })
    }

    /// Creates a transfer function from ascending-order coefficient
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TfError::ZeroDenominator`] when all denominator
    /// coefficients are zero.
    pub fn from_coeffs(num: Vec<f64>, den: Vec<f64>) -> Result<Self, TfError> {
        Tf::new(Poly::new(num), Poly::new(den))
    }

    /// The constant (memoryless) gain `k`.
    pub fn constant(k: f64) -> Self {
        Tf {
            num: Poly::constant(k),
            den: Poly::constant(1.0),
        }
    }

    /// The unity transfer function.
    pub fn one() -> Self {
        Tf::constant(1.0)
    }

    /// The ideal integrator `1/s`.
    pub fn integrator() -> Self {
        Tf {
            num: Poly::constant(1.0),
            den: Poly::x(),
        }
    }

    /// A unity-DC-gain first-order low-pass `ω_c/(s + ω_c)`.
    ///
    /// # Panics
    ///
    /// Panics when `wc <= 0`.
    pub fn first_order_lowpass(wc: f64) -> Self {
        assert!(wc > 0.0, "corner frequency must be positive");
        Tf {
            num: Poly::constant(wc),
            den: Poly::new(vec![wc, 1.0]),
        }
    }

    /// The numerator polynomial.
    pub fn num(&self) -> &Poly {
        &self.num
    }

    /// The denominator polynomial.
    pub fn den(&self) -> &Poly {
        &self.den
    }

    /// Evaluates `H(s)` at a complex point.
    pub fn eval(&self, s: Complex) -> Complex {
        self.num.eval_complex(s) / self.den.eval_complex(s)
    }

    /// Evaluates the frequency response `H(jω)`.
    pub fn eval_jw(&self, omega: f64) -> Complex {
        self.eval(Complex::from_im(omega))
    }

    /// Relative degree `deg(den) − deg(num)` (negative for improper
    /// functions).
    pub fn relative_degree(&self) -> isize {
        if self.num.is_zero() {
            return self.den.degree() as isize;
        }
        self.den.degree() as isize - self.num.degree() as isize
    }

    /// True when `deg(num) ≤ deg(den)`.
    pub fn is_proper(&self) -> bool {
        self.relative_degree() >= 0
    }

    /// True when `deg(num) < deg(den)` — the condition for the lattice
    /// sum `Σ_m H(s+jmω₀)` to converge absolutely.
    pub fn is_strictly_proper(&self) -> bool {
        self.num.is_zero() || self.relative_degree() >= 1
    }

    /// Computes all poles (denominator roots).
    ///
    /// # Errors
    ///
    /// Propagates root-finder failures.
    pub fn poles(&self) -> Result<Vec<Complex>, TfError> {
        Ok(find_roots(&self.den)?)
    }

    /// Computes all finite zeros (numerator roots).
    ///
    /// # Errors
    ///
    /// Propagates root-finder failures. The zero transfer function has no
    /// zeros (returns an empty vector).
    pub fn zeros(&self) -> Result<Vec<Complex>, TfError> {
        if self.num.is_zero() {
            return Ok(Vec::new());
        }
        Ok(find_roots(&self.num)?)
    }

    /// Series connection `other ∘ self` — same as `self * other` since
    /// scalar transfer functions commute.
    pub fn series(&self, other: &Tf) -> Tf {
        self * other
    }

    /// Parallel connection `self + other`.
    pub fn parallel(&self, other: &Tf) -> Tf {
        self + other
    }

    /// Negative feedback closed loop `self / (1 + self·h)`.
    ///
    /// # Errors
    ///
    /// Returns [`TfError::ZeroDenominator`] when the loop is degenerate
    /// (`1 + self·h ≡ 0`).
    pub fn feedback(&self, h: &Tf) -> Result<Tf, TfError> {
        // self/(1+self·h) = num·den_h / (den·den_h + num·num_h)
        let den = &(&self.den * &h.den) + &(&self.num * &h.num);
        let num = &self.num * &h.den;
        Tf::new(num, den)
    }

    /// Unity negative feedback `self / (1 + self)`.
    ///
    /// # Errors
    ///
    /// See [`Tf::feedback`].
    pub fn feedback_unity(&self) -> Result<Tf, TfError> {
        self.feedback(&Tf::one())
    }

    /// The reciprocal `1/H(s)`.
    ///
    /// # Errors
    ///
    /// Returns [`TfError::ZeroDenominator`] for the zero transfer
    /// function.
    pub fn inv(&self) -> Result<Tf, TfError> {
        Tf::new(self.den.clone(), self.num.clone())
    }

    /// Scales by a real gain.
    pub fn scale(&self, k: f64) -> Tf {
        Tf {
            num: self.num.scale(k),
            den: self.den.clone(),
        }
    }

    /// Groups the poles into `(pole, multiplicity)` clusters — the input
    /// to partial-fraction expansion with repeated poles.
    ///
    /// # Errors
    ///
    /// Propagates root-finder failures.
    pub fn pole_clusters(&self, tol: f64) -> Result<Vec<(Complex, usize)>, TfError> {
        Ok(cluster_roots(&self.poles()?, tol))
    }
}

impl fmt::Display for Tf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) / ({})", self.num, self.den)
    }
}

impl Mul for &Tf {
    type Output = Tf;
    fn mul(self, rhs: &Tf) -> Tf {
        Tf {
            num: &self.num * &rhs.num,
            den: &self.den * &rhs.den,
        }
    }
}

impl Add for &Tf {
    type Output = Tf;
    fn add(self, rhs: &Tf) -> Tf {
        Tf {
            num: &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            den: &self.den * &rhs.den,
        }
    }
}

impl Sub for &Tf {
    type Output = Tf;
    fn sub(self, rhs: &Tf) -> Tf {
        Tf {
            num: &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            den: &self.den * &rhs.den,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let h = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(h.num().coeffs(), &[1.0]);
        assert_eq!(h.den().coeffs(), &[1.0, 1.0]);
        assert_eq!(
            Tf::from_coeffs(vec![1.0], vec![0.0]).unwrap_err(),
            TfError::ZeroDenominator
        );
    }

    #[test]
    fn evaluation() {
        // H(s) = 1/(s+1): |H(j1)| = 1/√2, phase −45°.
        let h = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        let v = h.eval_jw(1.0);
        assert!((v.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-14);
        assert!((v.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-14);
        assert!(h.eval(Complex::ZERO).approx_eq(Complex::ONE, 1e-14));
    }

    #[test]
    fn properness() {
        let strictly = Tf::integrator();
        assert!(strictly.is_proper());
        assert!(strictly.is_strictly_proper());
        assert_eq!(strictly.relative_degree(), 1);

        let biproper = Tf::from_coeffs(vec![1.0, 1.0], vec![2.0, 1.0]).unwrap();
        assert!(biproper.is_proper());
        assert!(!biproper.is_strictly_proper());

        let improper = Tf::from_coeffs(vec![0.0, 1.0], vec![1.0]).unwrap();
        assert!(!improper.is_proper());
        assert_eq!(improper.relative_degree(), -1);
    }

    #[test]
    fn series_parallel() {
        let a = Tf::integrator();
        let b = Tf::first_order_lowpass(2.0);
        let s = a.series(&b);
        let z = Complex::new(0.5, 0.7);
        assert!(s.eval(z).approx_eq(a.eval(z) * b.eval(z), 1e-13));
        let p = a.parallel(&b);
        assert!(p.eval(z).approx_eq(a.eval(z) + b.eval(z), 1e-13));
        let d = &a - &b;
        assert!(d.eval(z).approx_eq(a.eval(z) - b.eval(z), 1e-13));
    }

    #[test]
    fn feedback_closed_loop() {
        // 1/s with unity feedback → 1/(s+1).
        let g = Tf::integrator();
        let cl = g.feedback_unity().unwrap();
        let z = Complex::new(0.2, 1.3);
        let expect = Complex::ONE / (z + 1.0);
        assert!(cl.eval(z).approx_eq(expect, 1e-13));
    }

    #[test]
    fn feedback_with_dynamics() {
        let g = Tf::integrator();
        let h = Tf::first_order_lowpass(1.0);
        let cl = g.feedback(&h).unwrap();
        let z = Complex::new(0.4, -0.2);
        let expect = g.eval(z) / (Complex::ONE + g.eval(z) * h.eval(z));
        assert!(cl.eval(z).approx_eq(expect, 1e-12));
    }

    #[test]
    fn inversion() {
        let h = Tf::from_coeffs(vec![2.0, 1.0], vec![1.0, 0.0, 1.0]).unwrap();
        let inv = h.inv().unwrap();
        let z = Complex::new(0.3, 0.4);
        assert!((h.eval(z) * inv.eval(z)).approx_eq(Complex::ONE, 1e-13));
        assert!(Tf::new(Poly::zero(), Poly::constant(1.0))
            .unwrap()
            .inv()
            .is_err());
    }

    #[test]
    fn pole_clusters_find_double_integrator() {
        // 1/s² · 1/(s+1)
        let h = Tf::from_coeffs(vec![1.0], vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let clusters = h.pole_clusters(1e-6).unwrap();
        let at_zero = clusters
            .iter()
            .find(|(p, _)| p.abs() < 1e-9)
            .expect("origin cluster");
        assert_eq!(at_zero.1, 2);
    }

    #[test]
    fn display() {
        let h = Tf::integrator();
        assert_eq!(format!("{h}"), "(1) / (x)");
    }
}
