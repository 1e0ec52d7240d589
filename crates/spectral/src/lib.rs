//! # htmpll-spectral — spectral analysis substrate
//!
//! DSP tools used to post-process behavioral PLL simulations and to
//! verify frequency-domain (HTM) predictions against time-domain data:
//!
//! * [`mod@fft`] — iterative radix-2 FFT (power-of-two lengths) with a naive
//!   DFT reference.
//! * [`bluestein`] — arbitrary-length DFT via the chirp-z transform,
//!   needed because simulation records are cut at reference-period
//!   boundaries.
//! * [`mod@goertzel`] — single-bin DFT and complex tone extraction; the
//!   engine behind single-tone closed-loop transfer measurements.
//! * [`window`] — Hann / Hamming / Blackman–Harris windows with gain
//!   bookkeeping.
//! * [`psd`] — one-sided periodogram and Welch PSD estimation plus band
//!   power integration.
//!
//! ```
//! use htmpll_spectral::goertzel::tone_transfer;
//!
//! let omega = 2.0 * std::f64::consts::PI * 4.0;
//! let dt = 1e-3;
//! let u: Vec<f64> = (0..1000).map(|k| (omega * k as f64 * dt).cos()).collect();
//! let y: Vec<f64> = u.iter().map(|v| 0.5 * v).collect();
//! let h = tone_transfer(&u, &y, omega, dt);
//! assert!((h.abs() - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod bluestein;
pub mod cross;
pub mod fft;
pub mod goertzel;
pub mod psd;
pub mod window;

pub use bluestein::{fft_any, ifft_any};
pub use cross::{tf_estimate, CrossBin};
pub use fft::{fft, ifft, FftError};
pub use goertzel::{goertzel, tone_amplitude, tone_transfer};
pub use psd::{band_power, periodogram, welch, SpectralError};
pub use window::Window;
