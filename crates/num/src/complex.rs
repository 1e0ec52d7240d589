//! Double-precision complex arithmetic.
//!
//! The whole workspace is built on [`Complex`], an in-house `f64`-based
//! complex number. It provides the field operations, elementary
//! transcendental functions, and polar-form helpers needed by the
//! transfer-function, HTM and FFT machinery.
//!
//! ```
//! use htmpll_num::Complex;
//!
//! let s = Complex::new(0.0, 1.0); // s = j
//! let h = Complex::ONE / (s + 1.0); // first-order low-pass at its corner
//! assert!((h.abs() - 0.5f64.sqrt()).abs() < 1e-15);
//! ```

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` with `f64` components.
///
/// Arithmetic follows IEEE-754 semantics componentwise; division uses
/// Smith's algorithm to avoid premature overflow/underflow.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number `0 + j·im`.
    #[inline]
    pub const fn from_im(im: f64) -> Self {
        Complex { re: 0.0, im }
    }

    /// Creates `r·e^{jθ}` from polar coordinates.
    ///
    /// ```
    /// use htmpll_num::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - Complex::new(0.0, 2.0)).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{jθ}`, a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// The complex conjugate `re − j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The modulus `|z|`, computed without intermediate overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase) in radians, in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns `(|z|, arg z)`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns NaN components when `z == 0`.
    #[inline]
    pub fn recip(self) -> Self {
        Complex::ONE / self
    }

    /// `z²`, slightly cheaper than `z * z` in expression-heavy code.
    #[inline]
    pub fn sqr(self) -> Self {
        Complex::new(
            self.re * self.re - self.im * self.im,
            2.0 * self.re * self.im,
        )
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// The complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex::new(r * self.im.cos(), r * self.im.sin())
    }

    /// The principal natural logarithm, with branch cut on the negative
    /// real axis.
    #[inline]
    pub fn ln(self) -> Self {
        Complex::new(self.abs().ln(), self.arg())
    }

    /// The principal square root (non-negative real part).
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im = ((m - self.re) * 0.5).sqrt();
        Complex::new(re, if self.im >= 0.0 { im } else { -im })
    }

    /// Integer power by binary exponentiation.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base = base.sqr();
            n >>= 1;
        }
        acc
    }

    /// Real power `z^x` via the principal branch.
    pub fn powf(self, x: f64) -> Self {
        if self == Complex::ZERO {
            return if x == 0.0 {
                Complex::ONE
            } else {
                Complex::ZERO
            };
        }
        (self.ln().scale(x)).exp()
    }

    /// Complex sine.
    pub fn sin(self) -> Self {
        Complex::new(
            self.re.sin() * self.im.cosh(),
            self.re.cos() * self.im.sinh(),
        )
    }

    /// Complex cosine.
    pub fn cos(self) -> Self {
        Complex::new(
            self.re.cos() * self.im.cosh(),
            -self.re.sin() * self.im.sinh(),
        )
    }

    /// Complex hyperbolic sine.
    pub fn sinh(self) -> Self {
        Complex::new(
            self.re.sinh() * self.im.cos(),
            self.re.cosh() * self.im.sin(),
        )
    }

    /// Complex hyperbolic cosine.
    pub fn cosh(self) -> Self {
        Complex::new(
            self.re.cosh() * self.im.cos(),
            self.re.sinh() * self.im.sin(),
        )
    }

    /// Complex hyperbolic cotangent `1/tanh z`, stable for large `|Re z|`.
    /// Evaluated as its two halves, [`CothRe`] of `Re z` and the
    /// `sin_cos` of `Im z`, so callers holding `Re z` fixed can reuse
    /// the first half with identical bits.
    #[inline]
    pub fn coth(self) -> Self {
        let half = CothRe::new(self.re);
        half.coth(half.sin_cos(self.im))
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns true when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Componentwise approximate equality with absolute tolerance `tol`.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self - other).abs() <= tol
    }
}

/// The half of `coth(x + jy)` that depends on `x` alone: `(cosh x,
/// sinh x)`, or — for `|x| > 20`, where those overflow — `sign(x)` and
/// `e^{−2|x|}`. Computing it once serves every `y` on the vertical line
/// `Re z = x`; [`Complex::coth`] is exactly
/// `h.coth(h.sin_cos(y))` with `h = CothRe::new(x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CothRe {
    /// `|x| ≤ 20` (or NaN): `coth = (cosh x·cos y + j·sinh x·sin y) /
    /// (sinh x·cos y + j·cosh x·sin y)`.
    Near {
        /// `cosh x`.
        cosh: f64,
        /// `sinh x`.
        sinh: f64,
    },
    /// `|x| > 20`: `coth = sign·(1 + t)/(1 − t)` with
    /// `t = e^{−2|x|}·(cos 2y + j·sign·sin 2y)`.
    Far {
        /// `sign(x)`.
        sign: f64,
        /// `e^{−2|x|}`.
        exp: f64,
    },
}

impl CothRe {
    /// The `x` half of `coth(x + jy)`.
    #[inline]
    pub fn new(x: f64) -> CothRe {
        if x.abs() > 20.0 {
            CothRe::Far {
                sign: x.signum(),
                exp: (-2.0 * x.abs()).exp(),
            }
        } else {
            CothRe::Near {
                cosh: x.cosh(),
                sinh: x.sinh(),
            }
        }
    }

    /// `(sin, cos)` of the angle this branch needs: `y`, or `2y` on the
    /// far branch. Two halves on the same branch (see
    /// [`same_branch`](CothRe::same_branch)) need the same value for
    /// the same `y`.
    #[inline]
    pub fn sin_cos(self, y: f64) -> (f64, f64) {
        match self {
            CothRe::Near { .. } => y.sin_cos(),
            CothRe::Far { .. } => (2.0 * y).sin_cos(),
        }
    }

    /// True when both halves take the same branch.
    #[inline]
    pub fn same_branch(self, other: CothRe) -> bool {
        matches!(
            (self, other),
            (CothRe::Near { .. }, CothRe::Near { .. }) | (CothRe::Far { .. }, CothRe::Far { .. })
        )
    }

    /// `coth(x + jy)` from this half and `(sin, cos) = self.sin_cos(y)`.
    #[inline]
    pub fn coth(self, (sin, cos): (f64, f64)) -> Complex {
        match self {
            CothRe::Near { cosh, sinh } => {
                Complex::new(cosh * cos, sinh * sin) / Complex::new(sinh * cos, cosh * sin)
            }
            CothRe::Far { sign, exp } => {
                let twiddle = Complex::new(exp * cos, sign * exp * sin);
                (Complex::ONE + twiddle) / (Complex::ONE - twiddle) * sign
            }
        }
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl From<(f64, f64)> for Complex {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Complex({} {:+}j)", self.re, self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "{:.*}{:+.*}j", p, self.re, p, self.im)
        } else {
            write!(f, "{}{:+}j", self.re, self.im)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    /// Division by Smith's algorithm: scales by the larger component of
    /// the denominator so that `1e200j / 1e200j == 1` instead of NaN.
    fn div(self, rhs: Complex) -> Complex {
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                return Complex::new(f64::NAN, f64::NAN);
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

macro_rules! impl_scalar_ops {
    ($t:ty) => {
        impl Add<$t> for Complex {
            type Output = Complex;
            #[inline]
            fn add(self, rhs: $t) -> Complex {
                Complex::new(self.re + rhs as f64, self.im)
            }
        }
        impl Add<Complex> for $t {
            type Output = Complex;
            #[inline]
            fn add(self, rhs: Complex) -> Complex {
                rhs + self
            }
        }
        impl Sub<$t> for Complex {
            type Output = Complex;
            #[inline]
            fn sub(self, rhs: $t) -> Complex {
                Complex::new(self.re - rhs as f64, self.im)
            }
        }
        impl Sub<Complex> for $t {
            type Output = Complex;
            #[inline]
            fn sub(self, rhs: Complex) -> Complex {
                Complex::new(self as f64 - rhs.re, -rhs.im)
            }
        }
        impl Mul<$t> for Complex {
            type Output = Complex;
            #[inline]
            fn mul(self, rhs: $t) -> Complex {
                self.scale(rhs as f64)
            }
        }
        impl Mul<Complex> for $t {
            type Output = Complex;
            #[inline]
            fn mul(self, rhs: Complex) -> Complex {
                rhs.scale(self as f64)
            }
        }
        impl Div<$t> for Complex {
            type Output = Complex;
            #[inline]
            fn div(self, rhs: $t) -> Complex {
                self.scale(1.0 / rhs as f64)
            }
        }
        impl Div<Complex> for $t {
            type Output = Complex;
            #[inline]
            fn div(self, rhs: Complex) -> Complex {
                Complex::from_re(self as f64) / rhs
            }
        }
    };
}

impl_scalar_ops!(f64);

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}
impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}
impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}
impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}
impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + *b)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_accessors() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.re, 3.0);
        assert_eq!(z.im, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        assert_eq!(Complex::from_re(2.0), Complex::new(2.0, 0.0));
        assert_eq!(Complex::from_im(2.0), Complex::new(0.0, 2.0));
        assert_eq!(Complex::from(1.5), Complex::new(1.5, 0.0));
        assert_eq!(Complex::from((1.0, 2.0)), Complex::new(1.0, 2.0));
    }

    #[test]
    fn field_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * b, Complex::new(-3.0 - 1.0, 0.5 - 6.0));
        assert!(((a / b) * b).approx_eq(a, TOL));
        assert!((a * a.recip()).approx_eq(Complex::ONE, TOL));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn division_avoids_overflow() {
        let big = Complex::new(0.0, 1e200);
        let q = big / big;
        assert!(q.approx_eq(Complex::ONE, TOL));
        let zero_div = Complex::ONE / Complex::ZERO;
        assert!(zero_div.is_nan());
    }

    #[test]
    fn scalar_mixed_ops() {
        let z = Complex::new(1.0, 1.0);
        assert_eq!(z + 1.0, Complex::new(2.0, 1.0));
        assert_eq!(1.0 + z, Complex::new(2.0, 1.0));
        assert_eq!(z - 1.0, Complex::new(0.0, 1.0));
        assert_eq!(1.0 - z, Complex::new(0.0, -1.0));
        assert_eq!(z * 2.0, Complex::new(2.0, 2.0));
        assert_eq!(2.0 * z, Complex::new(2.0, 2.0));
        assert_eq!(z / 2.0, Complex::new(0.5, 0.5));
        assert!((2.0 / z).approx_eq(Complex::new(1.0, -1.0), TOL));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-1.5, 2.5);
        let (r, th) = z.to_polar();
        assert!(Complex::from_polar(r, th).approx_eq(z, TOL));
        assert!(Complex::cis(PI / 3.0).approx_eq(Complex::new(0.5, (3.0f64).sqrt() / 2.0), TOL));
    }

    #[test]
    fn exp_ln_roundtrip() {
        let z = Complex::new(0.3, -1.2);
        assert!(z.exp().ln().approx_eq(z, TOL));
        // Euler's identity.
        assert!(Complex::from_im(PI).exp().approx_eq(-Complex::ONE, TOL));
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = Complex::new(-4.0, 0.0);
        // Principal sqrt of −4 is +2j.
        assert!(z.sqrt().approx_eq(Complex::new(0.0, 2.0), TOL));
        let w = Complex::new(3.0, -4.0);
        assert!(w.sqrt().sqr().approx_eq(w, TOL));
        assert!(w.sqrt().re >= 0.0);
        assert_eq!(Complex::ZERO.sqrt(), Complex::ZERO);
    }

    #[test]
    fn powers() {
        let z = Complex::new(1.0, 1.0);
        assert!(z.powi(4).approx_eq(Complex::new(-4.0, 0.0), TOL));
        assert!(z.powi(-2).approx_eq(Complex::new(0.0, -0.5), TOL));
        assert_eq!(z.powi(0), Complex::ONE);
        assert!(z.powf(2.0).approx_eq(z.sqr(), TOL));
        assert_eq!(Complex::ZERO.powf(2.0), Complex::ZERO);
        assert_eq!(Complex::ZERO.powf(0.0), Complex::ONE);
    }

    #[test]
    fn trig_identities() {
        let z = Complex::new(0.7, -0.3);
        let lhs = z.sin().sqr() + z.cos().sqr();
        assert!(lhs.approx_eq(Complex::ONE, TOL));
        let lhs = z.cosh().sqr() - z.sinh().sqr();
        assert!(lhs.approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn coth_stability() {
        // Moderate argument: coth = cosh/sinh.
        let z = Complex::new(1.2, 0.7);
        assert!((z.sinh() / z.cosh() * z.coth()).approx_eq(Complex::ONE, TOL));
        // Huge real part: coth → ±1, no overflow, correct sign.
        let big = Complex::new(500.0, 3.0);
        assert!(big.coth().approx_eq(Complex::ONE, TOL));
        assert!((-big).coth().approx_eq(-Complex::ONE, TOL));
        // Continuity across the |Re| = 20 switchover.
        let a = Complex::new(19.999999, 1.0).coth();
        let b = Complex::new(20.000001, 1.0).coth();
        assert!(a.approx_eq(b, 1e-9));
    }

    #[test]
    fn sums_and_products() {
        let v = [
            Complex::new(1.0, 0.0),
            Complex::new(0.0, 1.0),
            Complex::new(2.0, 2.0),
        ];
        let s: Complex = v.iter().sum();
        assert_eq!(s, Complex::new(3.0, 3.0));
        let s2: Complex = v.iter().copied().sum();
        assert_eq!(s2, s);
        // 1 · j · (2+2j) = 2j + 2j² = −2 + 2j
        let p: Complex = v.iter().copied().product();
        assert!(p.approx_eq(Complex::new(-2.0, 2.0), TOL));
    }

    #[test]
    fn display_formats() {
        let z = Complex::new(1.25, -0.5);
        assert_eq!(format!("{z}"), "1.25-0.5j");
        assert_eq!(format!("{z:.1}"), "1.2-0.5j");
        assert!(format!("{z:?}").contains("Complex"));
    }

    #[test]
    fn nan_and_finite_flags() {
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex::ONE.is_nan());
        assert!(Complex::ONE.is_finite());
        assert!(!Complex::new(f64::INFINITY, 0.0).is_finite());
    }
}
