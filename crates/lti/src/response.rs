//! Time-domain responses of LTI systems via partial fractions.
//!
//! Closed-form impulse and step responses from the PFE terms:
//! `c/(s−p)^r  ⇄  c·t^{r−1}e^{pt}/(r−1)!`. These are exact (no ODE
//! integration), which makes them ideal cross-checks for the behavioral
//! time-domain simulator.
//!
//! ```
//! use htmpll_lti::{response::step_response, Tf};
//!
//! // 1/(s+1): step response 1 − e^{−t}.
//! let h = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
//! let y = step_response(&h, &[0.0, 1.0]).unwrap();
//! assert!((y[1] - (1.0 - (-1.0f64).exp())).abs() < 1e-10);
//! ```

use crate::pfe::Pfe;
use crate::tf::{Tf, TfError};
use htmpll_num::Complex;
use std::fmt;

/// Error returned by time-response evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseError {
    /// The transfer function is not strictly proper, so the impulse
    /// response contains Dirac distributions.
    NotStrictlyProper,
    /// Underlying transfer-function/PFE failure.
    Tf(TfError),
}

impl fmt::Display for ResponseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseError::NotStrictlyProper => {
                write!(
                    f,
                    "time response requires a strictly proper transfer function"
                )
            }
            ResponseError::Tf(e) => write!(f, "transfer function error: {e}"),
        }
    }
}

impl std::error::Error for ResponseError {}

impl From<TfError> for ResponseError {
    fn from(e: TfError) -> Self {
        ResponseError::Tf(e)
    }
}

fn factorial(n: usize) -> f64 {
    (1..=n).map(|k| k as f64).product()
}

/// Evaluates the inverse Laplace transform of a strictly proper PFE at
/// time `t ≥ 0` (zero for `t < 0`).
pub fn eval_pfe_time(pfe: &Pfe, t: f64) -> f64 {
    if t < 0.0 {
        return 0.0;
    }
    let mut acc = Complex::ZERO;
    for term in &pfe.terms {
        let r = term.order;
        let amp = term.coeff * t.powi((r - 1) as i32) / factorial(r - 1);
        acc += amp * (term.pole.scale(t)).exp();
    }
    // Imaginary parts cancel across conjugate pole pairs; what remains is
    // numerical noise.
    acc.re
}

/// Samples the impulse response `h(t)` of a strictly proper `tf` at the
/// given time points.
///
/// # Errors
///
/// [`ResponseError::NotStrictlyProper`] when the transfer function has a
/// direct feedthrough term; PFE failures are propagated.
pub fn impulse_response(tf: &Tf, ts: &[f64]) -> Result<Vec<f64>, ResponseError> {
    if !tf.is_strictly_proper() {
        return Err(ResponseError::NotStrictlyProper);
    }
    let pfe = Pfe::expand(tf, 1e-6)?;
    Ok(ts.iter().map(|&t| eval_pfe_time(&pfe, t)).collect())
}

/// Samples the unit-step response of a proper `tf` at the given time
/// points (computed as the impulse response of `tf/s`).
///
/// # Errors
///
/// [`ResponseError::NotStrictlyProper`] when `tf` is improper; PFE
/// failures are propagated.
pub fn step_response(tf: &Tf, ts: &[f64]) -> Result<Vec<f64>, ResponseError> {
    if !tf.is_proper() {
        return Err(ResponseError::NotStrictlyProper);
    }
    let with_integrator = tf * &Tf::integrator();
    let pfe = Pfe::expand(&with_integrator, 1e-6)?;
    Ok(ts.iter().map(|&t| eval_pfe_time(&pfe, t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_num::optim::lin_grid;

    #[test]
    fn first_order_impulse() {
        // 1/(s+2) → e^{−2t}.
        let h = Tf::from_coeffs(vec![1.0], vec![2.0, 1.0]).unwrap();
        let ts = lin_grid(0.0, 2.0, 9);
        let y = impulse_response(&h, &ts).unwrap();
        for (t, v) in ts.iter().zip(&y) {
            assert!((v - (-2.0 * t).exp()).abs() < 1e-10);
        }
    }

    #[test]
    fn damped_oscillator_impulse() {
        // ω/( (s+a)² + ω² ) → e^{−at} sin(ωt).
        let (a, w) = (0.5, 3.0);
        let h = Tf::from_coeffs(vec![w], vec![a * a + w * w, 2.0 * a, 1.0]).unwrap();
        let ts = lin_grid(0.0, 5.0, 21);
        let y = impulse_response(&h, &ts).unwrap();
        for (t, v) in ts.iter().zip(&y) {
            let expect = (-a * t).exp() * (w * t).sin();
            assert!((v - expect).abs() < 1e-9, "t={t}: {v} vs {expect}");
        }
    }

    #[test]
    fn repeated_pole_impulse() {
        // 1/(s+1)² → t·e^{−t}.
        let h = Tf::new(
            htmpll_num::Poly::constant(1.0),
            htmpll_num::Poly::from_real_roots(&[-1.0, -1.0]),
        )
        .unwrap();
        let ts = lin_grid(0.0, 4.0, 9);
        let y = impulse_response(&h, &ts).unwrap();
        for (t, v) in ts.iter().zip(&y) {
            assert!((v - t * (-t).exp()).abs() < 1e-8);
        }
    }

    #[test]
    fn second_order_step_final_value() {
        // DC gain 1 → step settles to 1.
        let h = Tf::from_coeffs(vec![4.0], vec![4.0, 2.0, 1.0]).unwrap();
        let y = step_response(&h, &[20.0]).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-6);
        let y0 = step_response(&h, &[0.0]).unwrap();
        assert!(y0[0].abs() < 1e-12);
    }

    #[test]
    fn negative_time_is_zero() {
        let h = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        let y = impulse_response(&h, &[-1.0]).unwrap();
        assert_eq!(y[0], 0.0);
    }

    #[test]
    fn improper_rejected() {
        let h = Tf::from_coeffs(vec![0.0, 1.0], vec![1.0]).unwrap();
        assert_eq!(
            impulse_response(&h, &[0.0]).unwrap_err(),
            ResponseError::NotStrictlyProper
        );
        assert_eq!(
            step_response(&h, &[0.0]).unwrap_err(),
            ResponseError::NotStrictlyProper
        );
    }

    #[test]
    fn biproper_impulse_rejected_but_step_ok() {
        // (s+2)/(s+1) is biproper: impulse has a Dirac, step does not.
        let h = Tf::from_coeffs(vec![2.0, 1.0], vec![1.0, 1.0]).unwrap();
        assert!(impulse_response(&h, &[0.0]).is_err());
        // y(t) = 2 − e^{−t}; at t = 25 the residue is ~1.4e−11.
        let y = step_response(&h, &[25.0]).unwrap();
        assert!((y[0] - 2.0).abs() < 1e-8); // DC gain 2
    }
}
