//! Radix-2 fast Fourier transform.
//!
//! Iterative, in-place Cooley–Tukey FFT for power-of-two lengths. The
//! simulator's spectral post-processing and the Bluestein arbitrary-length
//! transform are built on this kernel.
//!
//! Convention: forward transform `X[k] = Σ_n x[n]·e^{−j2πkn/N}` (no
//! normalization); the inverse divides by `N`.
//!
//! The twiddle factors come from a process-wide plan cache (a
//! [`BoundedCache`] of 32 plans, LRU-evicted): one table per butterfly
//! stage, built with the sequential `w *= wlen` recurrence, so a cached
//! plan gives the same bits as a fresh one.
//!
//! ```
//! use htmpll_spectral::fft::{fft, ifft, FftError};
//! use htmpll_num::Complex;
//!
//! # fn main() -> Result<(), FftError> {
//! let mut x = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
//! fft(&mut x)?;                       // impulse → flat spectrum
//! assert!(x.iter().all(|v| (*v - Complex::ONE).abs() < 1e-12));
//! ifft(&mut x)?;                      // and back
//! assert!((x[0] - Complex::ONE).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use htmpll_num::{BoundedCache, Complex};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Error returned by the radix-2 kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftError {
    /// The input length is not a power of two (use
    /// [`crate::bluestein::fft_any`] instead).
    NotPowerOfTwo {
        /// Rejected length.
        len: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "length {len} is not a power of two")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// True when `n` is a (nonzero) power of two.
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place forward FFT (radix-2, decimation in time).
///
/// # Errors
///
/// [`FftError::NotPowerOfTwo`] unless `x.len()` is a power of two.
pub fn fft(x: &mut [Complex]) -> Result<(), FftError> {
    transform(x, false)
}

/// In-place inverse FFT including the `1/N` normalization.
///
/// # Errors
///
/// [`FftError::NotPowerOfTwo`] unless `x.len()` is a power of two.
pub fn ifft(x: &mut [Complex]) -> Result<(), FftError> {
    transform(x, true)?;
    let n = x.len() as f64;
    for v in x.iter_mut() {
        *v = v.scale(1.0 / n);
    }
    Ok(())
}

/// Most distinct `(length, direction)` plans the process keeps. A plan
/// for length `n` holds `n − 1` twiddle pairs (≈ 16·n bytes), so the
/// cap bounds cache memory at roughly 32 transforms' worth of tables;
/// steady-state workloads reuse a handful of sizes.
const PLAN_CACHE_CAP: usize = 32;

/// The process-wide plan cache. A miss builds outside the lock (two
/// racing builders produce identical tables), so concurrent transforms
/// never serialize on table construction.
static PLANS: OnceLock<BoundedCache<(usize, bool), Arc<FftPlan>>> = OnceLock::new();

/// Whole-transform twiddle plan: one table per butterfly stage, built
/// by the sequential `w *= wlen` recurrence — so a cached plan is
/// bit-for-bit the table an uncached call would rebuild, and caching is
/// observationally invisible.
struct FftPlan {
    stages: Vec<Vec<Complex>>,
}

impl FftPlan {
    fn build(n: usize, inverse: bool) -> FftPlan {
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut stages = Vec::with_capacity(n.trailing_zeros() as usize);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut tw = Vec::with_capacity(half);
            let mut w = Complex::ONE;
            for _ in 0..half {
                tw.push(w);
                w *= wlen;
            }
            stages.push(tw);
            len <<= 1;
        }
        FftPlan { stages }
    }
}

fn transform(x: &mut [Complex], inverse: bool) -> Result<(), FftError> {
    let n = x.len();
    if !is_power_of_two(n) {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    if n <= 1 {
        return Ok(());
    }
    htmpll_obs::counter!("spectral", "fft.radix2").inc();
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            x.swap(i, j);
        }
    }
    // Butterflies, one twiddle table per stage.
    let plans = PLANS.get_or_init(|| BoundedCache::new(PLAN_CACHE_CAP));
    let plan = match plans.get(&(n, inverse)) {
        Some(plan) => {
            htmpll_obs::counter!("spectral", "fft.plan_hits").inc();
            plan
        }
        None => {
            htmpll_obs::counter!("spectral", "fft.plan_builds").inc();
            let plan = Arc::new(FftPlan::build(n, inverse));
            plans.insert((n, inverse), Arc::clone(&plan));
            plan
        }
    };
    for tw in &plan.stages {
        for block in x.chunks_exact_mut(2 * tw.len()) {
            let (u, v) = block.split_at_mut(tw.len());
            for ((u, v), w) in u.iter_mut().zip(v).zip(tw) {
                let t = *v * *w;
                *v = *u - t;
                *u += t;
            }
        }
    }
    Ok(())
}

/// Reference O(N²) DFT, the oracle the fast paths are tested against.
pub fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    htmpll_obs::counter!("spectral", "fft.naive").inc();
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                acc += v * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
                .collect();
            let mut fast = x.clone();
            fft(&mut fast).unwrap();
            let slow = dft_naive(&x);
            assert!(max_err(&fast, &slow) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y).unwrap();
        ifft(&mut y).unwrap();
        assert!(max_err(&x, &y) < 1e-12);
    }

    #[test]
    fn parseval() {
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 0.13).cos(), 0.0))
            .collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x.clone();
        fft(&mut y).unwrap();
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        let mut y = x;
        fft(&mut y).unwrap();
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_re(i as f64)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::from_im((i as f64).sin())).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft(&mut fa).unwrap();
        fft(&mut fb).unwrap();
        fft(&mut fs).unwrap();
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert!(max_err(&fs, &combined) < 1e-10);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 6];
        assert_eq!(fft(&mut x).unwrap_err(), FftError::NotPowerOfTwo { len: 6 });
        assert!(ifft(&mut x).is_err());
    }

    #[test]
    fn real_input_hermitian_spectrum() {
        let mut y: Vec<Complex> = (0..64)
            .map(|i| Complex::from_re((i as f64 * 0.3).sin() + 0.5))
            .collect();
        fft(&mut y).unwrap();
        for k in 1..32 {
            assert!((y[k] - y[64 - k].conj()).abs() < 1e-9, "bin {k}");
        }
    }

    /// The transform without a plan: bit-reversal followed by
    /// butterflies with the per-block sequential twiddle recurrence.
    fn transform_reference(x: &mut [Complex], inverse: bool) {
        let n = x.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                x.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = x[start + k];
                    let v = x[start + k + len / 2] * w;
                    x[start + k] = u + v;
                    x[start + k + len / 2] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn planned_transform_bitwise_matches_per_block_recurrence() {
        use htmpll_num::rng::Rng;
        let mut rng = Rng::seed_from_u64(0xF0F7);
        for n in [2usize, 4, 8, 32, 64, 128, 512, 1024] {
            for inverse in [false, true] {
                let x: Vec<Complex> = (0..n)
                    .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
                    .collect();
                let mut fast = x.clone();
                let mut slow = x;
                transform(&mut fast, inverse).unwrap();
                transform_reference(&mut slow, inverse);
                for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "n={n} inverse={inverse} bin {k}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_cache_is_bitwise_transparent() {
        use htmpll_num::rng::Rng;
        // A cached plan's tables are bit-for-bit what a fresh build
        // produces...
        for n in [64usize, 256, 2048] {
            for inverse in [false, true] {
                transform(&mut vec![Complex::ZERO; n], inverse).unwrap();
                let cached = PLANS.get().unwrap().get(&(n, inverse)).unwrap();
                let fresh = FftPlan::build(n, inverse);
                assert_eq!(cached.stages.len(), fresh.stages.len());
                for (c, f) in cached.stages.iter().zip(&fresh.stages) {
                    let same = c.iter().zip(f).all(|(a, b)| {
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                    });
                    assert!(same, "n={n} inverse={inverse}");
                }
            }
        }
        // ...and a warm-cache transform is bitwise identical to the
        // per-block recurrence (first call warms, second reuses).
        let mut rng = Rng::seed_from_u64(0x504c_414e);
        for pass in 0..2 {
            let x: Vec<Complex> = (0..512)
                .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
                .collect();
            let mut fast = x.clone();
            let mut slow = x;
            transform(&mut fast, false).unwrap();
            transform_reference(&mut slow, false);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "pass {pass} bin {k}"
                );
            }
        }
    }

    #[test]
    fn power_of_two_detector() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(12));
    }
}
