//! # htmpll-htm — the harmonic transfer matrix formalism
//!
//! Frequency-domain representation of **linear periodically time-varying
//! (LPTV)** systems, following Vanassche, Gielen & Sansen (DATE 2003,
//! §2–3) and the HTM literature they build on (Möllerstedt &
//! Bernhardsson; Vanassche et al., TCAD 2002).
//!
//! An LPTV system `y(t) = ∫h(t,τ)u(t−τ)dτ` with `T`-periodic kernel has
//! harmonic transfer functions `H_k(s)` and an (∞-dimensional) harmonic
//! transfer matrix with elements `H_{n,m}(s) = H_{n−m}(s + jmω₀)`;
//! element `(n, m)` moves signal content from the band around `mω₀` to
//! the band around `nω₀`. This crate provides:
//!
//! * [`Truncation`] — symmetric harmonic truncation bookkeeping.
//! * [`Htm`] — one evaluation of a truncated HTM, with band-indexed
//!   accessors, the series connection `*` (paper eq. 11), the dense
//!   closed-loop reference and the structure-aware closed-loop solve.
//! * [`blocks`] — the building blocks: LTI (diagonal), periodic
//!   multiplier (Toeplitz), sampling PFD (rank one), and the
//!   ISF-integrator VCO model.
//! * [`factor`] — the closed-loop kernels behind
//!   [`Htm::closed_loop_factored_robust`], among them the
//!   Sherman–Morrison rank-one form that makes sampled-PFD loops cheap.
//!
//! ```
//! use htmpll_htm::{HtmBlock, SamplerHtm, Truncation, VcoHtm};
//! use htmpll_num::Complex;
//!
//! let w0 = 2.0 * std::f64::consts::PI;
//! let pfd = SamplerHtm::new(w0);
//! let vco = VcoHtm::time_invariant(1.0, w0);
//! let g = &vco.htm(Complex::from_im(0.5), Truncation::new(2))
//!     * &pfd.htm(Complex::from_im(0.5), Truncation::new(2));
//! // The open loop inherits the sampler's rank-one structure.
//! let minor = g.band(0, 0) * g.band(1, 1) - g.band(0, 1) * g.band(1, 0);
//! assert!(minor.abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod blocks;
pub mod factor;
pub mod matrix;
pub mod repr;
pub mod response;
pub mod trunc;

pub use blocks::{DelayHtm, HtmBlock, LtiHtm, MultiplierHtm, SamplerHtm, VcoHtm};
pub use matrix::Htm;
pub use repr::HtmRepr;
pub use response::{tone_response, SidebandSpectrum};
pub use trunc::{Truncation, TruncationSpec};
