//! Bit pins for the spectral kernels: the radix-2 `fft`/`ifft` at every
//! power of two from 2 to 2¹⁴, Bluestein's `fft_any` at non-power-of-two
//! lengths, and one Welch PSD.
//!
//! Each digest hashes the exact IEEE-754 bit patterns of the outputs
//! (FNV-1a), so a change that moves one rounding in the butterflies,
//! the twiddle tables or the chirp convolution changes a digest here.
//! Inputs come from the seeded in-repo PRNG. Every digest was computed
//! while the butterflies still ran through dispatched SIMD kernels.

use htmpll_num::hash::Fnv1a;
use htmpll_num::rng::Rng;
use htmpll_num::Complex;
use htmpll_spectral::{fft, fft_any, ifft, welch, Window};

fn signal(rng: &mut Rng, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
        .collect()
}

fn write_all(h: &mut Fnv1a, zs: &[Complex]) {
    for z in zs {
        h.write_f64(z.re);
        h.write_f64(z.im);
    }
}

/// Hashes the transform of a fresh seeded signal at every power of two
/// `2..=2¹⁴`, forward or inverse.
fn radix2_digest(inverse: bool) -> u64 {
    let mut rng = Rng::seed_from_u64(0xF0F7_B175);
    let mut h = Fnv1a::new();
    for bits in 1..=14 {
        let mut x = signal(&mut rng, 1 << bits);
        if inverse {
            ifft(&mut x).expect("power of two");
        } else {
            fft(&mut x).expect("power of two");
        }
        write_all(&mut h, &x);
    }
    h.finish()
}

#[test]
fn fft_bits_pinned() {
    assert_eq!(format!("{:016x}", radix2_digest(false)), "3f8e527bb9230e76");
}

#[test]
fn ifft_bits_pinned() {
    assert_eq!(format!("{:016x}", radix2_digest(true)), "375e8cb67ba3849b");
}

#[test]
fn bluestein_bits_pinned() {
    let mut rng = Rng::seed_from_u64(0xB1E5_7E14);
    let mut h = Fnv1a::new();
    for n in [3usize, 7, 12, 100, 625, 1000, 4097] {
        write_all(&mut h, &fft_any(&signal(&mut rng, n)));
    }
    assert_eq!(format!("{:016x}", h.finish()), "a40cdd63d0b6944e");
}

#[test]
fn welch_bits_pinned() {
    // A tone at 37.5 Hz in seeded Gaussian noise, 2¹⁴ samples at 1 kHz,
    // averaged over 1024-sample Hann segments.
    let fs = 1e3;
    let mut rng = Rng::seed_from_u64(0x0003_E1C4);
    let x: Vec<f64> = (0..1 << 14)
        .map(|i| {
            let t = i as f64 / fs;
            (2.0 * std::f64::consts::PI * 37.5 * t).sin() + 0.1 * rng.gaussian()
        })
        .collect();
    let psd = welch(&x, fs, 1024, Window::Hann).expect("valid segment");
    let mut h = Fnv1a::new();
    for (f, p) in psd {
        h.write_f64(f);
        h.write_f64(p);
    }
    assert_eq!(format!("{:016x}", h.finish()), "7753443df53cc349");
}
