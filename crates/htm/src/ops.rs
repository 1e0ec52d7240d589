//! The rank-one closed-loop shortcut.
//!
//! Series and parallel composition (paper eq. 10–11) are [`Htm`]'s `*`
//! and `+` operators. For feedback loops whose open-loop HTM is **rank
//! one** — the signature of a sampling PFD — the Sherman–Morrison–
//! Woodbury identity gives the closed loop without any matrix inversion
//! (paper eq. 31–34):
//!
//! ```text
//! (I + u·vᵀ)⁻¹·(u·vᵀ) = u·vᵀ / (1 + vᵀu)
//! ```
//!
//! ```
//! use htmpll_htm::{closed_loop_rank_one, HtmBlock, LtiHtm, SamplerHtm, Truncation};
//! use htmpll_lti::Tf;
//! use htmpll_num::Complex;
//!
//! let w0 = 6.28;
//! let (s, t) = (Complex::from_im(1.0), Truncation::new(2));
//! // Series connection, signal through the sampler first: the later
//! // block multiplies from the left.
//! let g = &LtiHtm::new(Tf::integrator(), w0).htm(s, t) * &SamplerHtm::new(w0).htm(s, t);
//! assert_eq!(g.truncation().dim(), 5);
//! // The sampler makes g rank one, g = u·𝟙ᵀ with u its first column.
//! let u: Vec<Complex> = (0..5).map(|i| g.as_matrix()[(i, 0)]).collect();
//! let (cl, _) = closed_loop_rank_one(&u, &[Complex::ONE; 5]);
//! assert!(cl.to_dense(5).max_diff(g.closed_loop().unwrap().as_matrix()) < 1e-12);
//! ```

#[cfg(doc)]
use crate::matrix::Htm;
use crate::repr::HtmRepr;
use htmpll_num::Complex;

/// Closed loop of a rank-one open-loop gain `G = u·vᵀ` under unity
/// negative feedback, via Sherman–Morrison–Woodbury:
/// `(I + G)⁻¹G = u·vᵀ/(1 + vᵀu)`.
///
/// Returns the closed loop as a **structured** rank-one
/// representation — O(n) storage, never materialized dense — and the
/// scalar loop gain `λ = vᵀu`. Densify with
/// [`HtmRepr::to_dense`] when an explicit matrix is needed.
///
/// # Panics
///
/// Panics when `u` and `v` differ in length.
pub fn closed_loop_rank_one(u: &[Complex], v: &[Complex]) -> (HtmRepr, Complex) {
    assert_eq!(u.len(), v.len(), "rank-one factors must have equal length");
    let lambda: Complex = u.iter().zip(v).map(|(a, b)| *a * *b).sum();
    let denom = Complex::ONE + lambda;
    let scaled: Vec<Complex> = u.iter().map(|&x| x / denom).collect();
    (
        HtmRepr::RankOnePlus {
            u: scaled,
            v: v.to_vec(),
            shift: Complex::ZERO,
        },
        lambda,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{HtmBlock, LtiHtm, SamplerHtm};
    use crate::trunc::Truncation;
    use htmpll_lti::Tf;
    use htmpll_num::{CMat, Lu};

    const W0: f64 = 3.0;

    #[test]
    fn smw_matches_dense_inverse() {
        // Build a random-ish rank-one G = u·vᵀ and compare the closed
        // loop against dense LU.
        let n = 7;
        let u: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.1 * i as f64 + 0.2, 0.05 * i as f64 - 0.1))
            .collect();
        let v: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.3 - 0.02 * i as f64, 0.01 * i as f64))
            .collect();
        let (cl, lambda) = closed_loop_rank_one(&u, &v);
        assert_eq!(
            cl.kind_name(),
            "rank-one",
            "closed loop must stay structured"
        );
        let g = CMat::outer(&u, &v);
        let i_plus_g = &CMat::identity(n) + &g;
        let dense = &Lu::factor(&i_plus_g).unwrap().inverse().unwrap() * &g;
        assert!(cl.to_dense(n).max_diff(&dense) < 1e-12);
        // λ = vᵀu = sum over elementwise product.
        let expect: Complex = u.iter().zip(&v).map(|(a, b)| *a * *b).sum();
        assert!(lambda.approx_eq(expect, 1e-14));
    }

    #[test]
    fn sampler_loop_closed_form_vs_dense() {
        // The actual PLL shape: G = H_VCO·H_LF·H_PFD with rank-one PFD.
        // Check that factoring G = Ṽ·𝟙ᵀ and applying SMW equals the dense
        // closed loop of the full product.
        let t = Truncation::new(3);
        let s = Complex::new(0.05, 0.3);
        let pfd = SamplerHtm::new(W0);
        let lf = LtiHtm::new(Tf::first_order_lowpass(1.0), W0);
        let vco = LtiHtm::new(Tf::integrator(), W0);
        let g = &vco.htm(s, t) * &(&lf.htm(s, t) * &pfd.htm(s, t));

        // Factor: Ṽ = (ω₀/2π)·H_VCO·H_LF·𝟙 (column), vᵀ = 𝟙ᵀ.
        let ones = vec![Complex::ONE; t.dim()];
        let hv = &vco.htm(s, t).into_matrix() * &lf.htm(s, t).into_matrix();
        let u: Vec<Complex> = hv
            .mul_vec(&ones)
            .into_iter()
            .map(|x| x * pfd.weight())
            .collect();
        let (cl_fast, _) = closed_loop_rank_one(&u, &ones);
        let cl_dense = g.closed_loop().unwrap();
        assert!(cl_fast.to_dense(t.dim()).max_diff(cl_dense.as_matrix()) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn smw_length_checked() {
        let _ = closed_loop_rank_one(&[Complex::ONE], &[Complex::ONE, Complex::ONE]);
    }
}
