//! Steady-state sideband spectra and waveform synthesis.
//!
//! An LPTV system excited by one complex exponential
//! `u(t) = U·e^{j(ω_b + mω₀)t}` responds in steady state with a comb of
//! sidebands: `y(t) = Σ_n H_{n,m}(jω_b)·U·e^{j(ω_b + nω₀)t}` — one line
//! per output band (paper eq. 9 / Fig. 2, read as a synthesis formula).
//! [`tone_response`] extracts that comb from an evaluated [`Htm`], and
//! [`SidebandSpectrum`] turns it back into a time-domain waveform,
//! which lets HTM predictions be compared against raw simulator traces
//! sample by sample.
//!
//! ```
//! use htmpll_htm::{response::tone_response, HtmBlock, SamplerHtm, Truncation};
//! use htmpll_num::Complex;
//!
//! let w0 = 10.0;
//! let pfd = SamplerHtm::new(w0);
//! let h = pfd.htm(Complex::from_im(1.0), Truncation::new(2));
//! let spec = tone_response(&h, 1.0, 0, Complex::ONE);
//! // The sampler replicates the input line into every band.
//! assert_eq!(spec.lines().len(), 5);
//! ```

use crate::matrix::Htm;
use htmpll_num::Complex;

/// A steady-state output spectrum: one complex line per output band.
#[derive(Debug, Clone, PartialEq)]
pub struct SidebandSpectrum {
    /// Baseband frequency `ω_b` (rad/s) of the exciting column.
    base: f64,
    /// Band spacing `ω₀` (rad/s).
    omega0: f64,
    /// `(band index n, complex amplitude)` of each line at
    /// `ω_b + n·ω₀`.
    lines: Vec<(i64, Complex)>,
}

impl SidebandSpectrum {
    /// The band spacing `ω₀`.
    pub fn omega0(&self) -> f64 {
        self.omega0
    }

    /// The spectral lines as `(band, amplitude)` pairs.
    pub fn lines(&self) -> &[(i64, Complex)] {
        &self.lines
    }

    /// Absolute frequency of line `n`: `ω_b + n·ω₀`.
    pub fn frequency_of(&self, band: i64) -> f64 {
        self.base + band as f64 * self.omega0
    }

    /// The amplitude in a given band (zero when outside the truncation).
    pub fn amplitude(&self, band: i64) -> Complex {
        self.lines
            .iter()
            .find(|(n, _)| *n == band)
            .map(|(_, a)| *a)
            .unwrap_or(Complex::ZERO)
    }

    /// Synthesizes the **complex** steady-state waveform
    /// `y(t) = Σ_n a_n·e^{j(ω_b + nω₀)t}` at the given times.
    pub fn waveform(&self, ts: &[f64]) -> Vec<Complex> {
        ts.iter()
            .map(|&t| {
                self.lines
                    .iter()
                    .map(|&(n, a)| a * Complex::cis(self.frequency_of(n) * t))
                    .sum()
            })
            .collect()
    }

    /// Synthesizes the **real** steady-state waveform of a real system
    /// driven by the real input whose positive-frequency part produced
    /// this spectrum: `y(t) = 2·Re[Σ_n a_n·e^{j(ω_b+nω₀)t}]`.
    ///
    /// (For a real LPTV kernel the negative-frequency response is the
    /// conjugate mirror, so the full real output is twice the real part
    /// of the analytic half.)
    pub fn waveform_real(&self, ts: &[f64]) -> Vec<f64> {
        self.waveform(ts).into_iter().map(|z| 2.0 * z.re).collect()
    }
}

/// Extracts the steady-state sideband spectrum of an evaluated HTM for
/// a single-band excitation: input `amp·e^{j(base + input_band·ω₀)t}`.
///
/// `htm` must have been evaluated at `s = j·base`; `base` is recorded
/// for frequency bookkeeping.
///
/// # Panics
///
/// Panics when `input_band` lies outside the HTM's truncation.
pub fn tone_response(htm: &Htm, base: f64, input_band: i64, amp: Complex) -> SidebandSpectrum {
    let trunc = htm.truncation();
    assert!(
        trunc.index_of(input_band).is_some(),
        "input band {input_band} outside truncation ±{}",
        trunc.order()
    );
    let lines = trunc
        .harmonics()
        .map(|n| (n, htm.band(n, input_band) * amp))
        .collect();
    SidebandSpectrum {
        base,
        omega0: htm.omega0(),
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{HtmBlock, LtiHtm, MultiplierHtm};
    use crate::trunc::Truncation;
    use htmpll_lti::Tf;

    #[test]
    fn lti_block_produces_single_line() {
        let blk = LtiHtm::new(Tf::first_order_lowpass(2.0), 8.0);
        let w = 1.0;
        let h = blk.htm(Complex::from_im(w), Truncation::new(2));
        let spec = tone_response(&h, w, 0, Complex::ONE);
        // Only the n = 0 line is nonzero for an LTI system.
        for &(n, a) in spec.lines() {
            if n == 0 {
                let expect = blk.tf().eval_jw(w);
                assert!((a - expect).abs() < 1e-14);
            } else {
                assert_eq!(a, Complex::ZERO);
            }
        }
        assert_eq!(spec.frequency_of(1), w + 8.0);
    }

    #[test]
    fn multiplier_shifts_line() {
        // p(t) = cos(ω₀t): input at ω becomes lines at ω ± ω₀ of half
        // amplitude.
        let blk = MultiplierHtm::from_fourier(
            vec![Complex::from_re(0.5), Complex::ZERO, Complex::from_re(0.5)],
            4.0,
        );
        let h = blk.htm(Complex::from_im(0.3), Truncation::new(2));
        let spec = tone_response(&h, 0.3, 0, Complex::from_re(2.0));
        assert!((spec.amplitude(1) - Complex::ONE).abs() < 1e-14);
        assert!((spec.amplitude(-1) - Complex::ONE).abs() < 1e-14);
        assert_eq!(spec.amplitude(0), Complex::ZERO);
        assert_eq!(spec.amplitude(2), Complex::ZERO);
    }

    #[test]
    fn waveform_synthesis_matches_hand_sum() {
        let blk = MultiplierHtm::from_fourier(
            vec![Complex::from_re(0.5), Complex::ONE, Complex::from_re(0.5)],
            4.0,
        );
        let h = blk.htm(Complex::from_im(0.7), Truncation::new(1));
        let spec = tone_response(&h, 0.7, 0, Complex::new(0.0, 1.0));
        let ts = [0.0, 0.3, 1.1];
        let wave = spec.waveform(&ts);
        for (&t, &w) in ts.iter().zip(&wave) {
            let mut expect = Complex::ZERO;
            for &(n, a) in spec.lines() {
                expect += a * Complex::cis((0.7 + n as f64 * 4.0) * t);
            }
            assert!((w - expect).abs() < 1e-13);
        }
        // Real synthesis = 2·Re of the complex one.
        let real = spec.waveform_real(&ts);
        for (r, w) in real.iter().zip(&wave) {
            assert!((r - 2.0 * w.re).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "outside truncation")]
    fn out_of_range_band_rejected() {
        let blk = LtiHtm::new(Tf::one(), 4.0);
        let h = blk.htm(Complex::from_im(0.1), Truncation::new(1));
        let _ = tone_response(&h, 0.1, 2, Complex::ONE);
    }

    #[test]
    fn amplitude_lookup_outside_truncation_is_zero() {
        let blk = LtiHtm::new(Tf::one(), 4.0);
        let h = blk.htm(Complex::from_im(0.1), Truncation::new(1));
        let spec = tone_response(&h, 0.1, 0, Complex::ONE);
        assert_eq!(spec.amplitude(5), Complex::ZERO);
    }
}
