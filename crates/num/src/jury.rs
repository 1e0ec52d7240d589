//! Jury stability test for discrete-time characteristic polynomials.
//!
//! The z-domain analogue of Routh–Hurwitz: decides whether all roots of
//! a real polynomial lie strictly inside the unit circle without
//! computing them. Used for the sampling stability limit of the
//! Hein–Scott charge-pump PLL model and for the exact period-strip
//! stability verdict of the effective gain `λ(s)`, whose `1 + λ` is a
//! rational function of `z = e^{2πs/ω₀}`.
//!
//! ```
//! use htmpll_num::jury::jury_stable;
//! use htmpll_num::Poly;
//!
//! // z² − 0.5z + 0.06 has roots 0.2 and 0.3: stable.
//! assert!(jury_stable(&Poly::new(vec![0.06, -0.5, 1.0])).unwrap());
//! // z − 2 is not.
//! assert!(!jury_stable(&Poly::new(vec![-2.0, 1.0])).unwrap());
//! ```

use crate::poly::Poly;
use std::fmt;

/// Error returned by the Jury test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JuryError {
    /// The zero polynomial has no verdict.
    ZeroPolynomial,
}

impl fmt::Display for JuryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JuryError::ZeroPolynomial => write!(f, "zero polynomial has no stability verdict"),
        }
    }
}

impl std::error::Error for JuryError {}

/// Runs the Jury stability test: returns `Ok(true)` when all roots of
/// `p` are strictly inside the unit circle.
///
/// The implementation uses the recursive Schur–Cohn/Jury reduction: with
/// `p` monic-normalized, stability requires `|p(0)| < 1` (product of
/// roots) and stability of the reduced polynomial
/// `q(z) = (a_n·p(z) − a_0·p*(z))/z` where `p*` has reversed
/// coefficients, plus the necessary conditions `p(1) > 0` and
/// `(−1)^n·p(−1) > 0`.
///
/// # Errors
///
/// Rejects the zero polynomial.
pub fn jury_stable(p: &Poly) -> Result<bool, JuryError> {
    if p.is_zero() {
        return Err(JuryError::ZeroPolynomial);
    }
    let n = p.degree();
    if n == 0 {
        return Ok(true);
    }
    // Normalize so the leading coefficient is positive.
    let coeffs: Vec<f64> = if p.leading() < 0.0 {
        p.coeffs().iter().map(|c| -c).collect()
    } else {
        p.coeffs().to_vec()
    };
    // Necessary conditions.
    let at_one: f64 = coeffs.iter().sum();
    if at_one <= 0.0 {
        return Ok(false);
    }
    let at_minus_one: f64 = coeffs
        .iter()
        .enumerate()
        .map(|(k, &c)| if k % 2 == 0 { c } else { -c })
        .sum();
    let signed = if n.is_multiple_of(2) {
        at_minus_one
    } else {
        -at_minus_one
    };
    if signed <= 0.0 {
        return Ok(false);
    }
    // Schur–Cohn reduction.
    let mut a = coeffs;
    while a.len() > 2 {
        let m = a.len();
        let a0 = a[0];
        let an = a[m - 1];
        if a0.abs() >= an.abs() {
            return Ok(false);
        }
        let mut b = vec![0.0; m - 1];
        for (k, bk) in b.iter_mut().enumerate() {
            *bk = an * a[k + 1] - a0 * a[m - 2 - k];
        }
        a = b;
    }
    // Degree-1 remainder: a0 + a1 z stable iff |a0| < |a1|.
    Ok(a[0].abs() < a[1].abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::find_roots;

    fn stable_by_roots(p: &Poly) -> bool {
        find_roots(p).unwrap().iter().all(|z| z.abs() < 1.0 - 1e-12)
    }

    #[test]
    fn first_order() {
        assert!(jury_stable(&Poly::new(vec![0.5, 1.0])).unwrap()); // z + 0.5
        assert!(!jury_stable(&Poly::new(vec![1.5, 1.0])).unwrap()); // z + 1.5
        assert!(!jury_stable(&Poly::new(vec![-1.0, 1.0])).unwrap()); // z − 1 marginal
    }

    #[test]
    fn second_order_triangle() {
        // z² + a1 z + a0 stable iff |a0| < 1, |a1| < 1 + a0.
        let cases = [
            (0.5, 0.3, true),
            (0.5, 1.6, false),
            (1.2, 0.1, false),
            (-0.5, 0.2, true),
            (0.99, 1.98, true),
            (0.99, 2.01, false),
        ];
        for (a0, a1, expect) in cases {
            let p = Poly::new(vec![a0, a1, 1.0]);
            assert_eq!(jury_stable(&p).unwrap(), expect, "a0={a0} a1={a1}");
            assert_eq!(jury_stable(&p).unwrap(), stable_by_roots(&p));
        }
    }

    #[test]
    fn agrees_with_root_finder_on_random_cubics_and_quartics() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.1, -0.2, 0.3, 1.0],
            vec![0.9, 0.9, 0.9, 1.0],
            vec![-0.7, 0.5, -0.1, 1.0],
            vec![0.2, 0.0, 0.0, 0.1, 1.0],
            vec![0.5, -1.2, 1.4, -0.8, 1.0],
            vec![1.1, 0.2, 0.1, 0.0, 1.0],
        ];
        for c in cases {
            let p = Poly::new(c.clone());
            assert_eq!(
                jury_stable(&p).unwrap(),
                stable_by_roots(&p),
                "coeffs {c:?}"
            );
        }
    }

    #[test]
    fn negative_leading_coefficient() {
        // −(z − 0.5): same roots, still stable.
        let p = Poly::new(vec![0.5, -1.0]);
        assert!(jury_stable(&p).unwrap());
    }

    #[test]
    fn constant_is_stable() {
        assert!(jury_stable(&Poly::constant(3.0)).unwrap());
    }

    #[test]
    fn zero_rejected() {
        assert_eq!(
            jury_stable(&Poly::zero()).unwrap_err(),
            JuryError::ZeroPolynomial
        );
    }
}
