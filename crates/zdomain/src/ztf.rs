//! Discrete-time (z-domain) transfer functions.
//!
//! The baseline comparator models (Hein & Scott 1988) describe the
//! sampled PLL as a pulse transfer function `G(z)`. [`Zf`] is a rational
//! function in `z` with real coefficients (ascending powers of `z`),
//! with evaluation on the unit circle for frequency responses.
//!
//! ```
//! use htmpll_zdomain::ztf::Zf;
//! use htmpll_num::{Complex, Poly};
//!
//! // One-pole smoother H(z) = 0.5·z/(z − 0.5).
//! let h = Zf::new(Poly::new(vec![0.0, 0.5]), Poly::new(vec![-0.5, 1.0])).unwrap();
//! assert!((h.eval(Complex::ONE).re - 1.0).abs() < 1e-12); // DC gain H(1)
//! assert!(h.eval(Complex::from_re(2.0)).re - 2.0 / 3.0 < 1e-12);
//! ```

use htmpll_num::roots::find_roots;
use htmpll_num::{Complex, Poly};
use std::fmt;
use std::ops::{Add, Mul};

/// Error produced by z-domain constructions.
#[derive(Debug, Clone, PartialEq)]
pub enum ZfError {
    /// The denominator is identically zero.
    ZeroDenominator,
    /// Root extraction failed.
    Roots,
}

impl fmt::Display for ZfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZfError::ZeroDenominator => write!(f, "z-domain denominator is zero"),
            ZfError::Roots => write!(f, "z-domain root extraction failed"),
        }
    }
}

impl std::error::Error for ZfError {}

/// A rational function of `z` with real coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct Zf {
    num: Poly,
    den: Poly,
}

impl Zf {
    /// Creates `num(z)/den(z)`.
    ///
    /// # Errors
    ///
    /// Rejects a zero denominator.
    pub fn new(num: Poly, den: Poly) -> Result<Zf, ZfError> {
        if den.is_zero() {
            return Err(ZfError::ZeroDenominator);
        }
        Ok(Zf { num, den })
    }

    /// Numerator polynomial (ascending powers of `z`).
    pub fn num(&self) -> &Poly {
        &self.num
    }

    /// Denominator polynomial.
    pub fn den(&self) -> &Poly {
        &self.den
    }

    /// Evaluates at a complex `z`.
    pub fn eval(&self, z: Complex) -> Complex {
        self.num.eval_complex(z) / self.den.eval_complex(z)
    }

    /// Frequency response at `z = e^{jωT}`.
    pub fn eval_jw(&self, omega: f64, t_sample: f64) -> Complex {
        self.eval(Complex::cis(omega * t_sample))
    }

    /// All poles (denominator roots).
    ///
    /// # Errors
    ///
    /// Propagates root-finder failures.
    pub fn poles(&self) -> Result<Vec<Complex>, ZfError> {
        find_roots(&self.den).map_err(|_| ZfError::Roots)
    }

    /// True when every pole lies strictly inside the unit circle.
    ///
    /// # Errors
    ///
    /// Propagates root-finder failures.
    pub fn is_stable(&self) -> Result<bool, ZfError> {
        Ok(self.poles()?.iter().all(|p| p.abs() < 1.0 - 1e-12))
    }

    /// Unity-negative-feedback closed loop `G/(1+G)`.
    ///
    /// # Errors
    ///
    /// Rejects a degenerate loop (`1 + G ≡ 0`).
    pub fn feedback_unity(&self) -> Result<Zf, ZfError> {
        let den = &self.den + &self.num;
        Zf::new(self.num.clone(), den)
    }

    /// The characteristic polynomial `den + num` of the unity feedback
    /// loop — the input to the Jury stability test.
    pub fn characteristic(&self) -> Poly {
        &self.den + &self.num
    }

    /// Samples the unit-step response for `n` steps: the cumulative sum
    /// of the impulse response.
    pub fn step_response(&self, n: usize) -> Vec<f64> {
        let mut acc = 0.0;
        self.impulse_response(n)
            .into_iter()
            .map(|h| {
                acc += h;
                acc
            })
            .collect()
    }

    /// Samples the unit-impulse response for `n` steps by long division
    /// (power-series expansion in `z^{-1}`).
    pub fn impulse_response(&self, n: usize) -> Vec<f64> {
        // H(z) = N(z)/D(z); expand in z^{-1}: write both in descending
        // powers and divide.
        let nd = self.den.degree();
        let nn = self.num.degree().min(nd);
        // Coefficients in descending powers, denominator normalized.
        let lead = self.den.coeff(nd);
        let den_desc: Vec<f64> = (0..=nd).rev().map(|k| self.den.coeff(k) / lead).collect();
        let mut num_desc: Vec<f64> = (0..=nd)
            .rev()
            .map(|k| {
                if k <= nn {
                    self.num.coeff(k) / lead
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let h = num_desc[0];
            out.push(h);
            // Subtract h·den and shift.
            for (nd, dd) in num_desc.iter_mut().zip(&den_desc) {
                *nd -= h * dd;
            }
            num_desc.remove(0);
            num_desc.push(0.0);
        }
        out
    }
}

impl Mul for &Zf {
    type Output = Zf;
    fn mul(self, rhs: &Zf) -> Zf {
        Zf {
            num: &self.num * &rhs.num,
            den: &self.den * &rhs.den,
        }
    }
}

impl Add for &Zf {
    type Output = Zf;
    fn add(self, rhs: &Zf) -> Zf {
        Zf {
            num: &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            den: &self.den * &rhs.den,
        }
    }
}

impl fmt::Display for Zf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) / ({})  [in z]", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let h = Zf::new(Poly::new(vec![1.0]), Poly::new(vec![-0.5, 1.0])).unwrap();
        // H(z) = 1/(z − 0.5) at z = 1: 2.
        assert!((h.eval(Complex::ONE).re - 2.0).abs() < 1e-13);
        assert!(Zf::new(Poly::constant(1.0), Poly::zero()).is_err());
    }

    #[test]
    fn stability_detection() {
        let stable = Zf::new(Poly::constant(1.0), Poly::new(vec![-0.5, 1.0])).unwrap();
        assert!(stable.is_stable().unwrap());
        let unstable = Zf::new(Poly::constant(1.0), Poly::new(vec![-1.5, 1.0])).unwrap();
        assert!(!unstable.is_stable().unwrap());
        let marginal = Zf::new(Poly::constant(1.0), Poly::new(vec![-1.0, 1.0])).unwrap();
        assert!(!marginal.is_stable().unwrap());
    }

    #[test]
    fn impulse_response_of_one_pole() {
        // H(z) = z/(z − a) → h[k] = a^k.
        let a = 0.7;
        let h = Zf::new(Poly::new(vec![0.0, 1.0]), Poly::new(vec![-a, 1.0])).unwrap();
        let resp = h.impulse_response(8);
        for (k, v) in resp.iter().enumerate() {
            assert!((v - a.powi(k as i32)).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn impulse_response_of_strictly_proper() {
        // H(z) = 1/(z − a) → h[0] = 0, h[k] = a^{k−1}.
        let a = 0.6;
        let h = Zf::new(Poly::constant(1.0), Poly::new(vec![-a, 1.0])).unwrap();
        let resp = h.impulse_response(6);
        assert_eq!(resp[0], 0.0);
        for (k, v) in resp.iter().enumerate().skip(1) {
            assert!((v - a.powi(k as i32 - 1)).abs() < 1e-12);
        }
    }

    #[test]
    fn step_response_settles_to_dc_gain() {
        // H(z) = 0.3·z/(z − 0.7): DC gain 1, first-order settling.
        let h = Zf::new(Poly::new(vec![0.0, 0.3]), Poly::new(vec![-0.7, 1.0])).unwrap();
        let y = h.step_response(60);
        assert!((y[0] - 0.3).abs() < 1e-12);
        assert!((y.last().unwrap() - 1.0).abs() < 1e-8);
        // Monotone first-order rise.
        for w in y.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn feedback_and_characteristic() {
        let g = Zf::new(Poly::constant(0.5), Poly::new(vec![-1.0, 1.0])).unwrap();
        let cl = g.feedback_unity().unwrap();
        // G/(1+G) = 0.5/(z − 0.5).
        assert!((cl.eval(Complex::from_re(2.0)).re - (0.5 / 1.5)).abs() < 1e-13);
        assert_eq!(g.characteristic().coeffs(), &[-0.5, 1.0]);
    }

    #[test]
    fn algebra() {
        let a = Zf::new(Poly::new(vec![1.0]), Poly::new(vec![-0.5, 1.0])).unwrap();
        let b = Zf::new(Poly::constant(2.0), Poly::constant(1.0)).unwrap();
        let z = Complex::new(0.3, 0.4);
        assert!(((&a * &b).eval(z) - a.eval(z) * 2.0).abs() < 1e-13);
        assert!(((&a + &b).eval(z) - (a.eval(z) + 2.0)).abs() < 1e-13);
    }

    #[test]
    fn frequency_response_on_unit_circle() {
        let h = Zf::new(Poly::new(vec![0.0, 1.0]), Poly::new(vec![-0.5, 1.0])).unwrap();
        let t = 0.1;
        let v = h.eval_jw(std::f64::consts::PI / t, t); // Nyquist: z = −1
        assert!((v.re - (-1.0 / -1.5)).abs() < 1e-12);
    }
}
