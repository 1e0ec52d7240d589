//! Power spectral density estimation.
//!
//! Periodogram and Welch estimators with window normalization. Used to
//! inspect simulated VCO phase records (jitter spectra, reference spurs)
//! and to cross-check the HTM noise-propagation predictions.
//!
//! Convention: **one-sided** PSD in units of `signal²/Hz`. The discrete
//! Parseval identity holds exactly for every record length and window:
//! the rectangle-rule integral `Σ_k S_k·Δf` equals the windowed mean
//! square `Σ(x_n·w_n)²/(N·PG)` (with `PG` the window power gain), which
//! is the record variance itself for the rectangular window and misses
//! it only by windowing loss otherwise. The one-sided folding doubles
//! every bin except DC and — for even `N` only — the Nyquist bin
//! `k = N/2`, which is its own conjugate image; for odd `N` the grid
//! `0..=⌊N/2⌋` stops below `fs/2` and every nonzero bin `k` has a
//! distinct image `N−k`, so all of them double. Both parities are
//! pinned by the `parseval_*` tests.
//!
//! ```
//! use htmpll_spectral::psd::{periodogram, SpectralError};
//! use htmpll_spectral::window::Window;
//!
//! # fn main() -> Result<(), SpectralError> {
//! let fs = 1000.0;
//! let x: Vec<f64> = (0..1024).map(|k| (2.0 * std::f64::consts::PI * 100.0
//!     * k as f64 / fs).sin()).collect();
//! let psd = periodogram(&x, fs, Window::Hann)?;
//! let peak = psd.iter().cloned().fold((0.0f64, 0.0f64), |acc, p| {
//!     if p.1 > acc.1 { p } else { acc }
//! });
//! assert!((peak.0 - 100.0).abs() < 2.0); // tone shows up at 100 Hz
//! # Ok(())
//! # }
//! ```

use crate::bluestein::fft_any;
use crate::window::Window;
use htmpll_num::Complex;
use std::fmt;

/// Errors surfaced by the PSD estimators on malformed input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectralError {
    /// The input record contains no samples.
    EmptyRecord,
    /// The sample rate is not a positive finite number.
    BadSampleRate(f64),
    /// The Welch segment length is zero or exceeds the record length.
    BadSegment {
        /// Requested segment length.
        segment_len: usize,
        /// Available record length.
        record_len: usize,
    },
}

impl fmt::Display for SpectralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralError::EmptyRecord => write!(f, "spectral estimate needs a non-empty record"),
            SpectralError::BadSampleRate(fs) => {
                write!(f, "sample rate must be positive and finite, got {fs}")
            }
            SpectralError::BadSegment {
                segment_len,
                record_len,
            } => write!(
                f,
                "segment length {segment_len} invalid for record of {record_len} samples"
            ),
        }
    }
}

impl std::error::Error for SpectralError {}

/// One-sided periodogram: returns `(frequency_hz, psd)` pairs for bins
/// `0..=⌊N/2⌋`.
///
/// # Errors
///
/// [`SpectralError::EmptyRecord`] when `x` is empty and
/// [`SpectralError::BadSampleRate`] when `fs` is not positive finite.
pub fn periodogram(x: &[f64], fs: f64, window: Window) -> Result<Vec<(f64, f64)>, SpectralError> {
    if x.is_empty() {
        return Err(SpectralError::EmptyRecord);
    }
    check_sample_rate(fs)?;
    let n = x.len();
    Ok(windowed_periodogram(
        x,
        fs,
        &window.samples(n),
        window.power_gain(n),
    ))
}

fn check_sample_rate(fs: f64) -> Result<(), SpectralError> {
    if !fs.is_finite() || fs <= 0.0 {
        return Err(SpectralError::BadSampleRate(fs));
    }
    Ok(())
}

/// The one-sided periodogram of a nonempty `x` tapered by the window
/// samples `w` (same length) of power gain `power_gain`.
fn windowed_periodogram(x: &[f64], fs: f64, w: &[f64], power_gain: f64) -> Vec<(f64, f64)> {
    let n = x.len();
    let tapered: Vec<Complex> = x
        .iter()
        .zip(w)
        .map(|(&v, &wk)| Complex::from_re(v * wk))
        .collect();
    let spec = fft_any(&tapered);
    let norm = fs * n as f64 * power_gain;
    let half = n / 2;
    (0..=half)
        .map(|k| {
            let mut p = spec[k].norm_sqr() / norm;
            // One-sided: double everything except DC and the even-N
            // Nyquist bin (its own conjugate image). For odd N every
            // k ≥ 1 has a distinct image N−k above the grid, so all
            // of them double — see the module-level Parseval note.
            if k != 0 && !(n.is_multiple_of(2) && k == half) {
                p *= 2.0;
            }
            (k as f64 * fs / n as f64, p)
        })
        .collect()
}

/// Welch PSD: averages windowed periodograms over `segment_len`-sample
/// segments with 50 % overlap. Longer records trade variance for
/// resolution.
///
/// # Errors
///
/// [`SpectralError::BadSegment`] when `segment_len` is zero or exceeds
/// the record, plus the [`periodogram`] errors on a bad sample rate.
pub fn welch(
    x: &[f64],
    fs: f64,
    segment_len: usize,
    window: Window,
) -> Result<Vec<(f64, f64)>, SpectralError> {
    if segment_len == 0 || segment_len > x.len() {
        return Err(SpectralError::BadSegment {
            segment_len,
            record_len: x.len(),
        });
    }
    check_sample_rate(fs)?;
    // One window for every segment.
    let w = window.samples(segment_len);
    let power_gain = window.power_gain(segment_len);
    let hop = (segment_len / 2).max(1);
    let mut acc: Vec<f64> = vec![0.0; segment_len / 2 + 1];
    let mut freqs: Vec<f64> = Vec::new();
    let mut count = 0usize;
    let mut start = 0usize;
    while start + segment_len <= x.len() {
        let seg = windowed_periodogram(&x[start..start + segment_len], fs, &w, power_gain);
        if freqs.is_empty() {
            freqs = seg.iter().map(|&(f, _)| f).collect();
        }
        for (a, (_, p)) in acc.iter_mut().zip(&seg) {
            *a += p;
        }
        count += 1;
        start += hop;
    }
    Ok(freqs
        .into_iter()
        .zip(acc)
        .map(|(f, p)| (f, p / count as f64))
        .collect())
}

/// Integrates a one-sided PSD over `[f_lo, f_hi]` by trapezoid rule,
/// returning the band power (variance contribution). Note the trapezoid
/// rule slightly smears single-bin tones compared with the exact
/// rectangle-sum Parseval identity (`Σ S_k·Δf`); use the latter for
/// full-band totals.
pub fn band_power(psd: &[(f64, f64)], f_lo: f64, f_hi: f64) -> f64 {
    let mut acc = 0.0;
    for pair in psd.windows(2) {
        let (f0, p0) = pair[0];
        let (f1, p1) = pair[1];
        let a = f0.max(f_lo);
        let b = f1.min(f_hi);
        if b <= a {
            continue;
        }
        // Linear interpolation of the PSD across the clipped cell.
        let frac = |f: f64| if f1 > f0 { (f - f0) / (f1 - f0) } else { 0.0 };
        let pa = p0 + (p1 - p0) * frac(a);
        let pb = p0 + (p1 - p0) * frac(b);
        acc += 0.5 * (pa + pb) * (b - a);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic uniform noise in [−0.5, 0.5): variance 1/12.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 32) as u32 as f64) / (u32::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn sine_power_recovered() {
        // A/√2 rms → band power A²/2 regardless of window.
        let fs = 1024.0;
        let n = 4096;
        let f0 = 128.0;
        let x: Vec<f64> = (0..n)
            .map(|k| 0.8 * (2.0 * PI * f0 * k as f64 / fs).sin())
            .collect();
        for w in [Window::Rectangular, Window::Hann, Window::BlackmanHarris] {
            let psd = periodogram(&x, fs, w).unwrap();
            let p = band_power(&psd, f0 - 10.0, f0 + 10.0);
            assert!((p - 0.32).abs() < 0.01, "{w:?}: {p}");
        }
    }

    #[test]
    fn white_noise_flat_and_total_variance() {
        let fs = 1.0;
        let x = white_noise(1 << 15, 7);
        let var: f64 = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        let psd = welch(&x, fs, 1024, Window::Hann).unwrap();
        let total = band_power(&psd, 0.0, 0.5);
        assert!(
            (total - var).abs() < 0.1 * var,
            "total {total} vs variance {var}"
        );
        // Flatness: median-ish check between two half-bands.
        let lo = band_power(&psd, 0.01, 0.25);
        let hi = band_power(&psd, 0.25, 0.49);
        assert!((lo / hi - 1.0).abs() < 0.2, "lo {lo} hi {hi}");
    }

    #[test]
    fn parseval_exact_for_both_parities_and_all_windows() {
        // The rectangle-rule integral of the one-sided PSD must equal
        // the windowed mean square Σ(x·w)²/(N·PG) to FFT rounding, for
        // even and odd N alike — this pins the Nyquist-bin doubling
        // rule for both parities and the window normalization.
        for &n in &[256usize, 255, 1024, 1023] {
            let x = white_noise(n, 11);
            let fs = 3.0;
            for w in [Window::Rectangular, Window::Hann, Window::BlackmanHarris] {
                let psd = periodogram(&x, fs, w).unwrap();
                assert_eq!(psd.len(), n / 2 + 1);
                let df = fs / n as f64;
                let total: f64 = psd.iter().map(|&(_, p)| p).sum::<f64>() * df;
                let wk = w.samples(n);
                let windowed_ms = x
                    .iter()
                    .zip(&wk)
                    .map(|(&v, &c)| (v * c) * (v * c))
                    .sum::<f64>()
                    / (n as f64 * w.power_gain(n));
                assert!(
                    (total - windowed_ms).abs() <= 1e-9 * windowed_ms,
                    "N={n} {w:?}: ΣS·Δf {total} vs windowed ms {windowed_ms}"
                );
                // With no window the identity is Parseval for the raw
                // record: the integral recovers the full variance.
                if matches!(w, Window::Rectangular) {
                    let ms = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
                    assert!(
                        (total - ms).abs() <= 1e-9 * ms,
                        "N={n}: ΣS·Δf {total} vs variance {ms}"
                    );
                }
            }
        }
    }

    #[test]
    fn welch_reduces_variance_vs_periodogram() {
        let fs = 1.0;
        let x = white_noise(1 << 14, 3);
        let single = periodogram(&x, fs, Window::Hann).unwrap();
        let avg = welch(&x, fs, 512, Window::Hann).unwrap();
        let spread = |p: &[(f64, f64)]| {
            let vals: Vec<f64> = p.iter().skip(2).map(|&(_, v)| v).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64
        };
        assert!(spread(&avg) < 0.2 * spread(&single));
    }

    #[test]
    fn band_power_clipping() {
        let psd = vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)];
        assert!((band_power(&psd, 0.0, 2.0) - 2.0).abs() < 1e-12);
        assert!((band_power(&psd, 0.5, 1.5) - 1.0).abs() < 1e-12);
        assert_eq!(band_power(&psd, 3.0, 4.0), 0.0);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            periodogram(&[], 1.0, Window::Hann),
            Err(SpectralError::EmptyRecord)
        );
    }

    #[test]
    fn bad_sample_rate_rejected() {
        for fs in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                periodogram(&[1.0, 2.0], fs, Window::Rectangular),
                Err(SpectralError::BadSampleRate(_))
            ));
        }
    }

    #[test]
    fn welch_segment_checked() {
        assert_eq!(
            welch(&[0.0; 10], 1.0, 20, Window::Hann),
            Err(SpectralError::BadSegment {
                segment_len: 20,
                record_len: 10
            })
        );
        assert_eq!(
            welch(&[0.0; 10], 1.0, 0, Window::Hann),
            Err(SpectralError::BadSegment {
                segment_len: 0,
                record_len: 10
            })
        );
    }

    #[test]
    fn errors_render_a_reason() {
        assert!(SpectralError::EmptyRecord.to_string().contains("non-empty"));
        assert!(SpectralError::BadSampleRate(-2.0)
            .to_string()
            .contains("-2"));
        let e = SpectralError::BadSegment {
            segment_len: 9,
            record_len: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }
}
