//! HTM building blocks (paper §2 eq. 12–13 and §3).
//!
//! Each PLL building block is a [`HtmBlock`]: something that can produce
//! its truncated harmonic transfer matrix at any Laplace point `s`.
//!
//! * [`LtiHtm`] — an LTI transfer function; diagonal HTM
//!   `H_{n,n}(s) = H(s + jnω₀)` (eq. 12).
//! * [`MultiplierHtm`] — memoryless multiplication by a `T`-periodic
//!   waveform; Toeplitz HTM `H_{n,m} = P_{n−m}` (eq. 13).
//! * [`SamplerHtm`] — the sampling PFD's impulse-train multiplication;
//!   the **rank-one** HTM `(ω₀/2π)·𝟙𝟙ᵀ` (eq. 19–20).
//! * [`VcoHtm`] — perturbation-phase model of a controlled oscillator
//!   with impulse sensitivity function `v(t)`:
//!   `H_{n,m}(s) = v_{n−m}/(s + jnω₀)` (eq. 25).
//!
//! ```
//! use htmpll_htm::{HtmBlock, LtiHtm, Truncation};
//! use htmpll_lti::Tf;
//! use htmpll_num::Complex;
//!
//! let blk = LtiHtm::new(Tf::integrator(), 10.0);
//! let h = blk.htm(Complex::from_im(1.0), Truncation::new(1));
//! // Diagonal: H_{1,1} = 1/(j1 + j10); off-diagonal zero.
//! assert!((h.band(1, 1) - Complex::from_im(11.0).recip()).abs() < 1e-15);
//! assert_eq!(h.band(1, 0), Complex::ZERO);
//! ```

use crate::matrix::Htm;
use crate::repr::HtmRepr;
use crate::trunc::Truncation;
use htmpll_lti::Tf;
use htmpll_num::Complex;

/// A system block that can evaluate its harmonic transfer matrix.
pub trait HtmBlock {
    /// The fundamental angular frequency `ω₀ = 2π/T` of the periodicity.
    fn omega0(&self) -> f64;

    /// Evaluates the block's HTM at Laplace point `s` under the given
    /// truncation.
    fn htm(&self, s: Complex, trunc: Truncation) -> Htm;
}

/// An LTI system embedded in the LPTV framework: diagonal HTM.
#[derive(Debug, Clone)]
pub struct LtiHtm {
    tf: Tf,
    omega0: f64,
}

impl LtiHtm {
    /// Wraps a transfer function.
    ///
    /// # Panics
    ///
    /// Panics when `omega0 <= 0`.
    pub fn new(tf: Tf, omega0: f64) -> Self {
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        LtiHtm { tf, omega0 }
    }

    /// The wrapped transfer function.
    pub fn tf(&self) -> &Tf {
        &self.tf
    }
}

impl HtmBlock for LtiHtm {
    fn omega0(&self) -> f64 {
        self.omega0
    }

    fn htm(&self, s: Complex, trunc: Truncation) -> Htm {
        let w0 = self.omega0;
        let d = trunc
            .harmonics()
            .map(|n| self.tf.eval(s + Complex::from_im(n as f64 * w0)))
            .collect();
        Htm::from_repr(trunc, w0, HtmRepr::Diagonal(d))
    }
}

/// Memoryless multiplication `y(t) = p(t)·u(t)` with `T`-periodic `p`.
#[derive(Debug, Clone)]
pub struct MultiplierHtm {
    /// Fourier coefficients `P_{−K_p} … P_{K_p}` (centered, odd length).
    coeffs: Vec<Complex>,
    omega0: f64,
}

impl MultiplierHtm {
    /// Creates a multiplier from centered Fourier coefficients
    /// `[P_{−K}, …, P_0, …, P_K]`.
    ///
    /// # Panics
    ///
    /// Panics when the coefficient list has even length (no center) or
    /// `omega0 <= 0`.
    pub fn from_fourier(coeffs: Vec<Complex>, omega0: f64) -> Self {
        assert!(
            coeffs.len() % 2 == 1,
            "centered Fourier coefficients need odd length, got {}",
            coeffs.len()
        );
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        MultiplierHtm { coeffs, omega0 }
    }

    /// Multiplication by a constant `c` (only `P₀` nonzero).
    pub fn constant(c: f64, omega0: f64) -> Self {
        MultiplierHtm::from_fourier(vec![Complex::from_re(c)], omega0)
    }

    /// Fourier coefficient `P_k` (zero outside the stored range).
    pub fn coeff(&self, k: i64) -> Complex {
        let half = (self.coeffs.len() / 2) as i64;
        if k.abs() <= half {
            self.coeffs[(k + half) as usize]
        } else {
            Complex::ZERO
        }
    }
}

impl HtmBlock for MultiplierHtm {
    fn omega0(&self) -> f64 {
        self.omega0
    }

    fn htm(&self, _s: Complex, trunc: Truncation) -> Htm {
        // Toeplitz in the harmonic offset: matrix entry (i, j) is
        // `P_{n−m}` with `n−m = i−j`, exactly the banded-Toeplitz repr.
        Htm::from_repr(
            trunc,
            self.omega0,
            HtmRepr::BandedToeplitz {
                coeffs: self.coeffs.clone(),
                row_scale: None,
            },
        )
    }
}

/// The sampling PFD: multiplication by the Dirac comb
/// `Σ_m δ(t − mT)`, whose Fourier coefficients are all `1/T = ω₀/2π`.
///
/// Its truncated HTM is the all-ones rank-one matrix scaled by
/// `ω₀/2π` — sampling aliases every input band onto every output band
/// with equal weight, which is why the matrix has rank one (paper §3.1).
#[derive(Debug, Clone, Copy)]
pub struct SamplerHtm {
    omega0: f64,
}

impl SamplerHtm {
    /// Creates a sampler with reference fundamental `omega0`.
    ///
    /// # Panics
    ///
    /// Panics when `omega0 <= 0`.
    pub fn new(omega0: f64) -> Self {
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        SamplerHtm { omega0 }
    }

    /// The comb weight `ω₀/2π = 1/T`.
    pub fn weight(&self) -> f64 {
        self.omega0 / (2.0 * std::f64::consts::PI)
    }
}

impl HtmBlock for SamplerHtm {
    fn omega0(&self) -> f64 {
        self.omega0
    }

    fn htm(&self, _s: Complex, trunc: Truncation) -> Htm {
        // Rank one: `(ω₀/2π)·𝟙𝟙ᵀ` stored as its factors, O(n).
        let w = Complex::from_re(self.weight());
        let n = trunc.dim();
        Htm::from_repr(
            trunc,
            self.omega0,
            HtmRepr::RankOnePlus {
                u: vec![w; n],
                v: vec![Complex::ONE; n],
                shift: Complex::ZERO,
            },
        )
    }
}

/// A pure time delay `e^{−sτ}` — an LTI block, so its HTM is diagonal
/// with entries `e^{−(s+jnω₀)τ}`. Unlike the Padé route (which keeps
/// the lattice-sum machinery rational), this block is **exact** and is
/// the reference the Padé-based models are validated against in the
/// dense matrix path.
#[derive(Debug, Clone, Copy)]
pub struct DelayHtm {
    tau: f64,
    omega0: f64,
}

impl DelayHtm {
    /// Creates a delay block.
    ///
    /// # Panics
    ///
    /// Panics when `tau < 0` or `omega0 <= 0`.
    pub fn new(tau: f64, omega0: f64) -> Self {
        assert!(tau >= 0.0 && tau.is_finite(), "delay must be non-negative");
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        DelayHtm { tau, omega0 }
    }

    /// The delay `τ` in seconds.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl HtmBlock for DelayHtm {
    fn omega0(&self) -> f64 {
        self.omega0
    }

    fn htm(&self, s: Complex, trunc: Truncation) -> Htm {
        let w0 = self.omega0;
        let d = trunc
            .harmonics()
            .map(|n| (-(s + Complex::from_im(n as f64 * w0)).scale(self.tau)).exp())
            .collect();
        Htm::from_repr(trunc, w0, HtmRepr::Diagonal(d))
    }
}

/// Perturbation phase model of a (possibly time-varying) VCO:
/// multiplication by the impulse sensitivity function `v(t)` followed by
/// integration, `θ(t) = ∫ v(τ)·Δu(τ) dτ` (paper eq. 24), giving
/// `H_{n,m}(s) = v_{n−m}/(s + jnω₀)` (eq. 25).
#[derive(Debug, Clone)]
pub struct VcoHtm {
    /// Centered ISF Fourier coefficients `v_{−K_v} … v_{K_v}`.
    isf: Vec<Complex>,
    omega0: f64,
}

impl VcoHtm {
    /// Creates a VCO from centered ISF Fourier coefficients.
    ///
    /// # Panics
    ///
    /// Panics when the list has even length or `omega0 <= 0`.
    pub fn new(isf: Vec<Complex>, omega0: f64) -> Self {
        assert!(
            isf.len() % 2 == 1,
            "centered ISF coefficients need odd length, got {}",
            isf.len()
        );
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        VcoHtm { isf, omega0 }
    }

    /// A time-invariant VCO: `v(t) ≡ K_vco` (only `v₀` nonzero). Its HTM
    /// is diagonal with `K_vco/(s + jnω₀)` — the classical
    /// `K_vco/s` model shifted per band.
    pub fn time_invariant(kvco: f64, omega0: f64) -> Self {
        VcoHtm::new(vec![Complex::from_re(kvco)], omega0)
    }
}

impl HtmBlock for VcoHtm {
    fn omega0(&self) -> f64 {
        self.omega0
    }

    fn htm(&self, s: Complex, trunc: Truncation) -> Htm {
        // Banded Toeplitz `v_{n−m}` scaled per row by the integrator
        // pole `1/(s+jnω₀)` (eq. 25) — the bandwidth is set by the
        // stored ISF harmonics, not the truncation.
        let w0 = self.omega0;
        let row_scale = trunc
            .harmonics()
            .map(|n| (s + Complex::from_im(n as f64 * w0)).recip())
            .collect();
        Htm::from_repr(
            trunc,
            w0,
            HtmRepr::BandedToeplitz {
                coeffs: self.isf.clone(),
                row_scale: Some(row_scale),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: f64 = 4.0;

    #[test]
    fn lti_block_is_diagonal_and_shifted() {
        let blk = LtiHtm::new(Tf::first_order_lowpass(2.0), W0);
        let t = Truncation::new(2);
        let s = Complex::new(0.1, 0.5);
        let h = blk.htm(s, t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                if n == m {
                    let expect = blk.tf().eval(s + Complex::from_im(n as f64 * W0));
                    assert!(h.band(n, m).approx_eq(expect, 1e-14));
                } else {
                    assert_eq!(h.band(n, m), Complex::ZERO);
                }
            }
        }
    }

    #[test]
    fn multiplier_is_toeplitz() {
        // p(t) = 1 + 2cos(ω₀t) ⇒ P₀ = 1, P_{±1} = 1.
        let blk = MultiplierHtm::from_fourier(vec![Complex::ONE, Complex::ONE, Complex::ONE], W0);
        let t = Truncation::new(2);
        let h = blk.htm(Complex::ZERO, t);
        assert_eq!(h.band(0, 0), Complex::ONE);
        assert_eq!(h.band(1, 0), Complex::ONE);
        assert_eq!(h.band(0, 1), Complex::ONE);
        assert_eq!(h.band(2, 0), Complex::ZERO);
        // Toeplitz structure: constant along diagonals.
        assert_eq!(h.band(2, 1), h.band(1, 0));
        assert_eq!(h.band(-1, -2), h.band(1, 0));
    }

    #[test]
    fn multiplier_constant_is_scaled_identity() {
        let blk = MultiplierHtm::constant(3.0, W0);
        let t = Truncation::new(1);
        let h = blk.htm(Complex::ZERO, t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                let expect = if n == m { 3.0 } else { 0.0 };
                assert_eq!(h.band(n, m), Complex::from_re(expect));
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn multiplier_even_coeffs_rejected() {
        let _ = MultiplierHtm::from_fourier(vec![Complex::ONE; 2], W0);
    }

    #[test]
    fn sampler_is_rank_one_all_ones() {
        let blk = SamplerHtm::new(W0);
        assert!((blk.weight() - W0 / (2.0 * std::f64::consts::PI)).abs() < 1e-15);
        let t = Truncation::new(2);
        let h = blk.htm(Complex::new(1.0, 1.0), t);
        let w = Complex::from_re(blk.weight());
        for n in t.harmonics() {
            for m in t.harmonics() {
                assert_eq!(h.band(n, m), w);
            }
        }
        // Rank one: every 2×2 minor vanishes.
        let det2 = h.band(0, 0) * h.band(1, 1) - h.band(0, 1) * h.band(1, 0);
        assert!(det2.abs() < 1e-18);
    }

    #[test]
    fn vco_time_invariant_is_diagonal_integrator() {
        let blk = VcoHtm::time_invariant(2.5, W0);
        let t = Truncation::new(1);
        let s = Complex::new(0.3, 1.1);
        let h = blk.htm(s, t);
        for n in t.harmonics() {
            let expect = Complex::from_re(2.5) / (s + Complex::from_im(n as f64 * W0));
            assert!(h.band(n, n).approx_eq(expect, 1e-14));
        }
        assert_eq!(h.band(1, 0), Complex::ZERO);
    }

    #[test]
    fn vco_time_varying_structure() {
        // v(t) with v₀ = 1, v_{±1} = 0.3 ∓ 0.1j (conjugate pair for a
        // real waveform).
        let blk = VcoHtm::new(
            vec![
                Complex::new(0.3, 0.1),
                Complex::ONE,
                Complex::new(0.3, -0.1),
            ],
            W0,
        );
        let t = Truncation::new(1);
        let s = Complex::new(0.2, 0.0);
        let h = blk.htm(s, t);
        // Row n = 1 is scaled by 1/(s + jω₀), matching eq. 25.
        let row_pole = (s + Complex::from_im(W0)).recip();
        assert!(h
            .band(1, 0)
            .approx_eq(Complex::new(0.3, -0.1) * row_pole, 1e-14));
        assert!(h.band(1, 1).approx_eq(row_pole, 1e-14));
        // ISF harmonics beyond the stored ones contribute zero.
        assert_eq!(blk.htm(s, Truncation::new(2)).band(2, 0), Complex::ZERO);
    }

    #[test]
    fn delay_block_is_exact_all_pass() {
        let blk = DelayHtm::new(0.3, W0);
        assert_eq!(blk.tau(), 0.3);
        let t = Truncation::new(2);
        let s = Complex::from_im(0.8);
        let h = blk.htm(s, t);
        for n in t.harmonics() {
            let u = s + Complex::from_im(n as f64 * W0);
            let expect = (-u.scale(0.3)).exp();
            assert!((h.band(n, n) - expect).abs() < 1e-15);
            assert!((h.band(n, n).abs() - 1.0).abs() < 1e-14);
        }
        assert_eq!(h.band(1, 0), Complex::ZERO);
        // Zero delay is the identity.
        let id = DelayHtm::new(0.0, W0).htm(s, t);
        assert!(id.as_matrix().max_diff(Htm::identity(t, W0).as_matrix()) < 1e-15);
    }

    #[test]
    fn omega0_reported() {
        assert_eq!(LtiHtm::new(Tf::one(), W0).omega0(), W0);
        assert_eq!(SamplerHtm::new(W0).omega0(), W0);
        assert_eq!(VcoHtm::time_invariant(1.0, W0).omega0(), W0);
        assert_eq!(MultiplierHtm::constant(1.0, W0).omega0(), W0);
    }
}
