//! Discrete-time charge-pump PLL model (Hein & Scott, 1988).
//!
//! The z-domain baseline the paper compares its HTM method against:
//! because the sampling PFD emits one (approximately impulsive)
//! correction per reference period, the loop seen **at the sampling
//! instants** is exactly a discrete-time system. Its pulse transfer
//! function is the impulse-invariant transform of the continuous plant
//! `P(s) = T·A(s)` (the impulse weight is the phase error itself; the
//! `1/T` of the paper's frequency-domain sampler moves into the
//! transform), and stability is a Jury test on `1 + G(z)`.
//!
//! This model predicts the **same stability boundary** as the HTM
//! effective-gain analysis — both describe the same linear sampled
//! system — but, unlike the HTM model, it says nothing about
//! inter-sample (continuous-time) behavior or band-to-band transfers.
//! The workspace uses that equivalence as a cross-check and the
//! difference as a teaching comparison.
//!
//! ```
//! use htmpll_core::PllDesign;
//! use htmpll_zdomain::cp_pll::CpPllZModel;
//!
//! let slow = CpPllZModel::from_design(&PllDesign::reference_design(0.05).unwrap()).unwrap();
//! assert!(slow.is_stable().unwrap());
//! let fast = CpPllZModel::from_design(&PllDesign::reference_design(0.45).unwrap()).unwrap();
//! assert!(!fast.is_stable().unwrap());
//! ```

use crate::jury::jury_stable;
use crate::ztf::{Zf, ZfError};
use htmpll_core::PllDesign;
use htmpll_lti::{Pfe, Tf};
use htmpll_num::poly::cpoly_mul;
use htmpll_num::{Complex, Poly};
use std::fmt;

/// Error produced by discrete-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ZModelError {
    /// The continuous plant is not strictly proper.
    NotStrictlyProper,
    /// A pole multiplicity above 3 is not supported by the closed-form
    /// impulse-invariant tables.
    UnsupportedMultiplicity(usize),
    /// Transfer-function algebra failed.
    Algebra(String),
}

impl fmt::Display for ZModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZModelError::NotStrictlyProper => {
                write!(
                    f,
                    "impulse-invariant transform requires a strictly proper plant"
                )
            }
            ZModelError::UnsupportedMultiplicity(m) => {
                write!(f, "pole multiplicity {m} exceeds the supported order 3")
            }
            ZModelError::Algebra(s) => write!(f, "z-domain algebra failed: {s}"),
        }
    }
}

impl std::error::Error for ZModelError {}

/// Complex polynomial sum (ascending coefficients), used with
/// `cpoly_mul` to assemble the transform before realification.
fn cadd(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|k| {
            a.get(k).copied().unwrap_or(Complex::ZERO) + b.get(k).copied().unwrap_or(Complex::ZERO)
        })
        .collect()
}

fn realify(c: &[Complex], scale_hint: f64) -> Result<Poly, ZModelError> {
    let tol = 1e-7 * scale_hint.max(1e-300);
    for z in c {
        if z.im.abs() > tol {
            return Err(ZModelError::Algebra(format!(
                "residual imaginary coefficient {}",
                z.im
            )));
        }
    }
    Ok(Poly::new(c.iter().map(|z| z.re).collect()))
}

/// Impulse-invariant transform: given a strictly proper continuous plant
/// `P(s)` and sampling period `T`, returns
/// `G(z) = Σ_{k≥0} p(kT)·z^{−k}` expressed as a rational function of
/// `z`, via partial fractions and the closed-form transforms
/// `Z{q^k} = z/(z−q)`, `Z{k·q^k} = qz/(z−q)²`,
/// `Z{k²·q^k} = qz(z+q)/(z−q)³`.
///
/// # Errors
///
/// Rejects non-strictly-proper plants and pole multiplicities above 3.
pub fn impulse_invariant(p: &Tf, t_sample: f64) -> Result<Zf, ZModelError> {
    if !p.is_strictly_proper() {
        return Err(ZModelError::NotStrictlyProper);
    }
    let pfe = Pfe::expand(p, 1e-6).map_err(|e| ZModelError::Algebra(e.to_string()))?;
    if pfe.max_order() > 3 {
        return Err(ZModelError::UnsupportedMultiplicity(pfe.max_order()));
    }
    // Distinct pole images q_i = e^{p_i T} with their max multiplicities.
    let mut clusters: Vec<(Complex, usize)> = Vec::new();
    for term in &pfe.terms {
        let q = (term.pole.scale(t_sample)).exp();
        match clusters
            .iter_mut()
            .find(|(qq, _)| (*qq - q).abs() < 1e-12 * (1.0 + q.abs()))
        {
            Some((_, m)) => *m = (*m).max(term.order),
            None => clusters.push((q, term.order)),
        }
    }
    // Common denominator Π (z − q_i)^{m_i}.
    let mut den = vec![Complex::ONE];
    for &(q, m) in &clusters {
        for _ in 0..m {
            den = cpoly_mul(&den, &[-q, Complex::ONE]);
        }
    }
    // Numerator: each PFE term contributes term_num · den/(z−q)^order.
    let mut num = vec![Complex::ZERO];
    for term in &pfe.terms {
        let q = (term.pole.scale(t_sample)).exp();
        let c = term.coeff;
        // h(kT) = c·(kT)^{r−1}/(r−1)!·q^k.
        let term_num: Vec<Complex> = match term.order {
            1 => vec![Complex::ZERO, c],                // c·z
            2 => vec![Complex::ZERO, c * q * t_sample], // c·T·q·z
            3 => {
                let k = c * (t_sample * t_sample / 2.0);
                // k·q·z·(z + q) = k·q²·z + k·q·z²
                vec![Complex::ZERO, k * q * q, k * q]
            }
            m => return Err(ZModelError::UnsupportedMultiplicity(m)),
        };
        // Cofactor: den with (z−q)^order divided out.
        let mut cof = vec![Complex::ONE];
        for &(qq, mm) in &clusters {
            let reduce = if (qq - q).abs() < 1e-12 * (1.0 + q.abs()) {
                term.order
            } else {
                0
            };
            for _ in 0..(mm - reduce) {
                cof = cpoly_mul(&cof, &[-qq, Complex::ONE]);
            }
        }
        num = cadd(&num, &cpoly_mul(&term_num, &cof));
    }
    let scale = num.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let num = realify(&num, scale)?;
    let den_scale = den.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let den = realify(&den, den_scale)?;
    Zf::new(num, den).map_err(|e| ZModelError::Algebra(e.to_string()))
}

/// The Hein–Scott discrete-time model of a charge-pump PLL.
#[derive(Debug, Clone)]
pub struct CpPllZModel {
    g: Zf,
    t_sample: f64,
}

impl CpPllZModel {
    /// Builds the discrete model from a design: the sampled plant is
    /// `P(s) = T·A(s)` (error-impulse weight → phase).
    ///
    /// # Errors
    ///
    /// Propagates transform failures.
    pub fn from_design(d: &PllDesign) -> Result<CpPllZModel, ZModelError> {
        let t_sample = 1.0 / d.f_ref();
        let plant = d.open_loop_gain().scale(t_sample);
        let g = impulse_invariant(&plant, t_sample)?;
        Ok(CpPllZModel { g, t_sample })
    }

    /// The open-loop pulse transfer function `G(z)`.
    pub fn open_loop(&self) -> &Zf {
        &self.g
    }

    /// Sampling period `T`.
    pub fn t_sample(&self) -> f64 {
        self.t_sample
    }

    /// Jury stability verdict on the closed loop.
    ///
    /// # Errors
    ///
    /// Propagates a degenerate characteristic polynomial.
    pub fn is_stable(&self) -> Result<bool, crate::jury::JuryError> {
        jury_stable(&self.g.characteristic())
    }

    /// Closed-loop pulse transfer function `G/(1+G)`.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-loop errors.
    pub fn closed_loop(&self) -> Result<Zf, ZfError> {
        self.g.feedback_unity()
    }

    /// Closed-loop frequency response at `ω` (rad/s), i.e. at
    /// `z = e^{jωT}` — the sample-instant analogue of the HTM `H₀,₀(jω)`.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-loop errors.
    pub fn h_sampled(&self, omega: f64) -> Result<Complex, ZfError> {
        Ok(self.closed_loop()?.eval_jw(omega, self.t_sample))
    }
}

/// Finds the sampling stability limit of an arbitrary design family:
/// the largest parameter value in `[lo, hi]` for which the Jury test on
/// the family's discrete model still reports a stable loop, located by
/// bisection.
///
/// # Panics
///
/// Panics when `lo` is unstable or `hi` is stable (the bracket must
/// straddle the boundary), or when a design in the family fails to
/// build.
pub fn stability_limit<F: Fn(f64) -> PllDesign>(family: F, lo: f64, hi: f64, tol: f64) -> f64 {
    let stable_at = |r: f64| {
        CpPllZModel::from_design(&family(r))
            .expect("model builds")
            .is_stable()
            .expect("jury verdict")
    };
    assert!(stable_at(lo), "lower bracket must be stable");
    assert!(!stable_at(hi), "upper bracket must be unstable");
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if stable_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// [`stability_limit`] specialized to the paper's reference design
/// family, parameterized by `ω_UG/ω₀`.
pub fn reference_design_stability_limit(lo: f64, hi: f64, tol: f64) -> f64 {
    stability_limit(
        |r| PllDesign::reference_design(r).expect("valid ratio"),
        lo,
        hi,
        tol,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_invariant_first_order() {
        // P = 1/(s+a) → p(kT) = e^{−akT} → G = z/(z − e^{−aT}).
        let a = 2.0;
        let t = 0.3;
        let p = Tf::from_coeffs(vec![1.0], vec![a, 1.0]).unwrap();
        let g = impulse_invariant(&p, t).unwrap();
        let q = (-a * t).exp();
        let z = Complex::new(1.3, 0.4);
        let expect = z / (z - q);
        assert!((g.eval(z) - expect).abs() < 1e-10);
    }

    #[test]
    fn impulse_invariant_double_integrator() {
        // P = 1/s² → p(kT) = kT → G = T·z/(z−1)².
        let p = Tf::from_coeffs(vec![1.0], vec![0.0, 0.0, 1.0]).unwrap();
        let t = 0.5;
        let g = impulse_invariant(&p, t).unwrap();
        let z = Complex::new(0.7, 0.2);
        let expect = t * z / (z - 1.0).sqr();
        assert!((g.eval(z) - expect).abs() < 1e-10);
    }

    #[test]
    fn impulse_invariant_matches_sampled_impulse_response() {
        // Full charge-pump plant: check G(z) power series against p(kT)
        // from the exact PFE time response.
        let d = PllDesign::reference_design(0.15).unwrap();
        let t = 1.0 / d.f_ref();
        let plant = d.open_loop_gain().scale(t);
        let g = impulse_invariant(&plant, t).unwrap();
        let series = g.impulse_response(12);
        let pfe = Pfe::expand(&plant, 1e-6).unwrap();
        for (k, v) in series.iter().enumerate() {
            let expect = htmpll_lti::response::eval_pfe_time(&pfe, k as f64 * t);
            assert!(
                (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "k={k}: {v} vs {expect}"
            );
        }
    }

    #[test]
    fn rejects_improper() {
        let p = Tf::from_coeffs(vec![1.0, 1.0], vec![2.0, 1.0]).unwrap();
        assert!(matches!(
            impulse_invariant(&p, 1.0),
            Err(ZModelError::NotStrictlyProper)
        ));
    }

    #[test]
    fn stability_limit_exists_and_is_sane() {
        let limit = reference_design_stability_limit(0.05, 0.6, 1e-3);
        // The fast-loop instability the paper warns about: the boundary
        // sits well below the Nyquist ratio 0.5 for this loop shape.
        assert!(limit > 0.1 && limit < 0.45, "limit {limit}");
        // Monotone: below stable, above unstable.
        let below =
            CpPllZModel::from_design(&PllDesign::reference_design(limit - 0.02).unwrap()).unwrap();
        assert!(below.is_stable().unwrap());
        let above =
            CpPllZModel::from_design(&PllDesign::reference_design(limit + 0.02).unwrap()).unwrap();
        assert!(!above.is_stable().unwrap());
    }

    #[test]
    fn generalized_limit_matches_htm_shape_ablation() {
        // Jury on the shaped family must agree with the HTM strip count
        // (same linear sampled system): spot-check spread = 2.
        let limit = stability_limit(
            |r| PllDesign::reference_design_shaped(r, 2.0).expect("design"),
            0.05,
            0.6,
            1e-3,
        );
        assert!(limit > 0.2 && limit < 0.35, "{limit}");
    }

    #[test]
    fn sampled_response_tracks_dc() {
        let m = CpPllZModel::from_design(&PllDesign::reference_design(0.1).unwrap()).unwrap();
        let h = m.h_sampled(1e-4).unwrap();
        assert!((h - Complex::ONE).abs() < 1e-2, "{h}");
    }

    #[test]
    fn error_display() {
        assert!(ZModelError::NotStrictlyProper
            .to_string()
            .contains("strictly proper"));
        assert!(ZModelError::UnsupportedMultiplicity(4)
            .to_string()
            .contains('4'));
        assert!(ZModelError::Algebra("x".into()).to_string().contains('x'));
    }
}
