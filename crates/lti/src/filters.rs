//! Charge-pump loop-filter impedances.
//!
//! In the paper's architecture (Fig. 3) the loop filter is the impedance
//! `Z_LF(s)` seen by the charge pump, and the loop-filter transfer
//! function is `H_LF(s) = I_cp·Z_LF(s)` (eq. 21). This module builds the
//! standard passive networks:
//!
//! * [`ChargePumpFilter2`] — series `R + 1/(sC₁)` shunted by `C₂`:
//!   one zero, one pole at DC, one high-frequency pole. Combined with
//!   the VCO integrator this yields exactly the **Fig.-5 open-loop
//!   shape** (three poles, two at DC, one zero).
//! * [`ChargePumpFilter3`] — adds a series `R₃`/shunt `C₃` post-filter
//!   section for reference-spur suppression (a fourth-order loop).
//!
//! ```
//! use htmpll_lti::ChargePumpFilter2;
//!
//! let f = ChargePumpFilter2::new(1.0e3, 1.0e-9, 0.1e-9).unwrap();
//! let z = f.impedance();
//! // One finite zero at −1/(R·C₁), poles at 0 and −(C₁+C₂)/(R·C₁·C₂).
//! assert!((f.zero_freq() - 1.0e6).abs() < 1e-3);
//! assert!(z.is_strictly_proper());
//! ```

use crate::tf::Tf;
use htmpll_num::Poly;
use std::fmt;

/// Error returned by filter constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterError {
    /// A component value was zero or negative.
    NonPositiveComponent {
        /// Name of the offending component.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::NonPositiveComponent { name, value } => {
                write!(f, "component {name} must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for FilterError {}

fn positive(name: &'static str, value: f64) -> Result<f64, FilterError> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(FilterError::NonPositiveComponent { name, value })
    }
}

/// Second-order charge-pump filter: `(R + 1/sC₁) ∥ 1/(sC₂)`.
///
/// ```text
/// Z(s) = (1 + sRC₁) / ( s·(C₁+C₂)·(1 + sR·C₁C₂/(C₁+C₂)) )
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargePumpFilter2 {
    r: f64,
    c1: f64,
    c2: f64,
}

impl ChargePumpFilter2 {
    /// Creates the filter from its component values (Ω, F, F).
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite component values.
    pub fn new(r: f64, c1: f64, c2: f64) -> Result<Self, FilterError> {
        Ok(ChargePumpFilter2 {
            r: positive("R", r)?,
            c1: positive("C1", c1)?,
            c2: positive("C2", c2)?,
        })
    }

    /// Series resistance `R`.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// Series (zero-setting) capacitance `C₁`.
    pub fn c1(&self) -> f64 {
        self.c1
    }

    /// Shunt (ripple) capacitance `C₂`.
    pub fn c2(&self) -> f64 {
        self.c2
    }

    /// The stabilizing zero frequency `ω_z = 1/(R·C₁)` in rad/s.
    pub fn zero_freq(&self) -> f64 {
        1.0 / (self.r * self.c1)
    }

    /// The high-frequency pole `ω_p = (C₁+C₂)/(R·C₁·C₂)` in rad/s.
    pub fn pole_freq(&self) -> f64 {
        (self.c1 + self.c2) / (self.r * self.c1 * self.c2)
    }

    /// The impedance `Z(s)` as a transfer function (V per A).
    pub fn impedance(&self) -> Tf {
        let num = Poly::new(vec![1.0, self.r * self.c1]);
        let den = Poly::new(vec![0.0, self.c1 + self.c2, self.r * self.c1 * self.c2]);
        Tf::new(num, den).expect("denominator is structurally nonzero")
    }

    /// Designs component values for a target zero `ω_z`, pole `ω_p`
    /// (rad/s, `ω_p > ω_z`) and total capacitance `c_total`.
    ///
    /// This is the inverse of [`zero_freq`]/[`pole_freq`]: with
    /// `ratio = ω_p/ω_z = 1 + C₁/C₂`, `C₁ = c_total·(1 − ωz/ωp)` and
    /// `R = 1/(ω_z·C₁)`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive inputs or `ω_p ≤ ω_z`.
    ///
    /// [`zero_freq`]: ChargePumpFilter2::zero_freq
    /// [`pole_freq`]: ChargePumpFilter2::pole_freq
    pub fn from_pole_zero(wz: f64, wp: f64, c_total: f64) -> Result<Self, FilterError> {
        positive("omega_z", wz)?;
        positive("omega_p", wp)?;
        positive("C_total", c_total)?;
        positive("omega_p - omega_z", wp - wz)?;
        let c1 = c_total * (1.0 - wz / wp);
        let c2 = c_total - c1;
        let r = 1.0 / (wz * c1);
        ChargePumpFilter2::new(r, c1, c2)
    }
}

/// Third-order charge-pump filter: a [`ChargePumpFilter2`] followed by a
/// series `R₃` / shunt `C₃` smoothing section (output taken across `C₃`,
/// unloaded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargePumpFilter3 {
    base: ChargePumpFilter2,
    r3: f64,
    c3: f64,
}

impl ChargePumpFilter3 {
    /// Creates the filter from its component values.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite component values.
    pub fn new(r: f64, c1: f64, c2: f64, r3: f64, c3: f64) -> Result<Self, FilterError> {
        Ok(ChargePumpFilter3 {
            base: ChargePumpFilter2::new(r, c1, c2)?,
            r3: positive("R3", r3)?,
            c3: positive("C3", c3)?,
        })
    }

    /// The embedded second-order section.
    pub fn base(&self) -> &ChargePumpFilter2 {
        &self.base
    }

    /// Transimpedance `V_out(s)/I_in(s)` with the output taken across
    /// `C₃`:
    /// `H(s) = Z₂(s)·(1/sC₃) / (Z₂(s) + R₃ + 1/sC₃)`.
    pub fn transimpedance(&self) -> Tf {
        let z2 = self.base.impedance();
        // Work with polynomials to avoid spurious cancellations:
        // H = (N₂/D₂)·1/(sC₃) / (N₂/D₂ + R₃ + 1/(sC₃))
        //   = N₂ / ( sC₃·N₂ + D₂·(sC₃R₃ + 1) )
        let s_c3 = Poly::new(vec![0.0, self.c3]);
        let n2 = z2.num().clone();
        let d2 = z2.den().clone();
        let den = &(&s_c3 * &n2) + &(&d2 * &Poly::new(vec![1.0, self.r3 * self.c3]));
        Tf::new(n2, den).expect("denominator is structurally nonzero")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_num::Complex;

    #[test]
    fn rejects_bad_components() {
        assert!(ChargePumpFilter2::new(0.0, 1e-9, 1e-10).is_err());
        assert!(ChargePumpFilter2::new(1e3, -1e-9, 1e-10).is_err());
        assert!(ChargePumpFilter2::new(1e3, 1e-9, f64::NAN).is_err());
        assert!(ChargePumpFilter3::new(1e3, 1e-9, 1e-10, 0.0, 1e-11).is_err());
        let e = ChargePumpFilter2::new(1e3, 1e-9, 0.0).unwrap_err();
        assert!(e.to_string().contains("C2"));
    }

    #[test]
    fn impedance_matches_physical_network() {
        // Cross-check Z(s) against the direct parallel-combination formula
        // at a set of frequencies.
        let (r, c1, c2) = (2.2e3, 4.7e-9, 0.47e-9);
        let f = ChargePumpFilter2::new(r, c1, c2).unwrap();
        let z = f.impedance();
        for w in [1e3, 1e5, 1e7] {
            let s = Complex::from_im(w);
            let z_series = Complex::from_re(r) + (s * c1).recip();
            let z_shunt = (s * c2).recip();
            let expect = z_series * z_shunt / (z_series + z_shunt);
            let got = z.eval(s);
            assert!(
                (got - expect).abs() < 1e-9 * expect.abs(),
                "w={w}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn pole_zero_locations() {
        let f = ChargePumpFilter2::new(1e3, 1e-9, 0.25e-9).unwrap();
        let z = f.impedance();
        let zeros = z.zeros().unwrap();
        assert_eq!(zeros.len(), 1);
        assert!((zeros[0].re + f.zero_freq()).abs() < 1e-3 * f.zero_freq());
        let poles = z.poles().unwrap();
        assert_eq!(poles.len(), 2);
        assert!(poles.iter().any(|p| p.abs() < 1e-6));
        assert!(poles
            .iter()
            .any(|p| (p.re + f.pole_freq()).abs() < 1e-6 * f.pole_freq()));
        // ω_p/ω_z = 1 + C₁/C₂ = 5.
        assert!((f.pole_freq() / f.zero_freq() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_pole_zero_roundtrip() {
        let f = ChargePumpFilter2::from_pole_zero(1e5, 8e5, 1e-9).unwrap();
        assert!((f.zero_freq() - 1e5).abs() < 1e-6 * 1e5);
        assert!((f.pole_freq() - 8e5).abs() < 1e-6 * 8e5);
        assert!((f.c1() + f.c2() - 1e-9).abs() < 1e-21);
        assert!(ChargePumpFilter2::from_pole_zero(8e5, 1e5, 1e-9).is_err());
    }

    #[test]
    fn third_order_adds_pole() {
        let f3 = ChargePumpFilter3::new(1e3, 1e-9, 0.1e-9, 500.0, 20e-12).unwrap();
        let h = f3.transimpedance();
        // 3 poles total (one at DC), 1 zero.
        assert_eq!(h.den().degree(), 3);
        assert_eq!(h.num().degree(), 1);
        let poles = h.poles().unwrap();
        assert!(poles.iter().any(|p| p.abs() < 1e-3));
        // Exact circuit cross-check: H = Z₂·(1/sC₃)/(Z₂ + R₃ + 1/sC₃).
        let z2 = f3.base().impedance();
        for w in [1e3, 1e6, 1e9] {
            let s = Complex::from_im(w);
            let zc3 = (s * 20e-12).recip();
            let z2v = z2.eval(s);
            let expect = z2v * zc3 / (z2v + 500.0 + zc3);
            let got = h.eval(s);
            assert!(
                (got - expect).abs() < 1e-9 * expect.abs(),
                "w={w}: {got} vs {expect}"
            );
        }
        // Low-frequency behavior approximates the 2nd-order filter up to
        // the capacitive loading ratio C₃/(C₁+C₂) ≈ 1.8%.
        let a = h.eval_jw(1e3);
        let b = z2.eval_jw(1e3);
        assert!((a - b).abs() < 0.05 * b.abs(), "{a} vs {b}");
        // Above the smoothing pole 1/(R₃C₃) = 1e8, the third-order filter
        // rolls off faster.
        let w_hi = 1e10;
        assert!(h.eval_jw(w_hi).abs() < 0.2 * z2.eval_jw(w_hi).abs());
    }
}
