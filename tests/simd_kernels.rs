//! SIMD backend equivalence, exercised through the facade.
//!
//! The dispatch contract in `htmpll_num::simd` promises that every
//! vector backend is **bitwise identical** to the scalar reference,
//! lane for lane, on any input — including non-finite values,
//! denormals, signed zeros, and slice lengths that straddle the vector
//! width. These tests drive each kernel through `*_with` at
//! `SimdLevel::Scalar` and at the detected hardware level and compare
//! bit patterns, then flip the *global* backend around full
//! transforms and the cross-stack corpus to prove the digest never
//! moves.
//!
//! On a host without AVX2/NEON the hardware level degrades to
//! `Scalar` and the comparisons hold trivially — the tests then
//! document a scalar-only host rather than failing.

use htmpll::num::rng::Rng;
use htmpll::num::simd::{self, SimdLevel};
use htmpll::num::Complex;
use htmpll::par::ThreadBudget;
use htmpll::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global SIMD level; the
/// per-kernel tests use explicit `*_with` levels and never touch it.
static GLOBAL_LEVEL: Mutex<()> = Mutex::new(());

fn global_level_guard() -> MutexGuard<'static, ()> {
    GLOBAL_LEVEL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Adversarial scalars: signed zeros, infinities, NaN, denormals, and
/// extreme magnitudes — the values where FMA contraction or a
/// reassociated reduction would betray itself first.
const ADVERSARIAL: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 4.0,
    1e300,
    -1e300,
    1e-300,
    std::f64::consts::PI,
];

/// Lengths that cover empty input, sub-width tails, exact vector
/// widths (2, 4, 8) and misaligned overhangs on either backend.
const LENGTHS: [usize; 9] = [0, 1, 2, 3, 4, 5, 8, 17, 33];

/// A plane of `len` values: random fill with adversarial scalars
/// planted on a stride so every test length sees some of them.
fn plane(len: usize, rng: &mut Rng, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            if i % 3 == salt % 3 {
                ADVERSARIAL[(i + salt) % ADVERSARIAL.len()]
            } else {
                rng.range(-10.0, 10.0)
            }
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i}: {x:?} vs {y:?}");
    }
}

fn assert_complex_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{what}: lane {i}: {x:?} vs {y:?}"
        );
    }
}

/// The multiplier / divisor constants each kernel runs under: both
/// Smith branches, a zero (the NaN-fill path), an infinity, and a NaN.
fn scalar_constants() -> Vec<Complex> {
    vec![
        Complex::new(1.5, -0.25),         // |re| >= |im|
        Complex::new(0.1, -2.0),          // |re| < |im|
        Complex::ZERO,                    // caxpy skip / cdiv NaN-fill
        Complex::new(f64::INFINITY, 1.0), // overflow propagation
        Complex::new(f64::NAN, 0.5),      // NaN propagation
        Complex::new(-0.0, 0.0),          // signed-zero multiplier
    ]
}

#[test]
fn caxpy_kernels_bitwise_match_scalar() {
    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0xCA5CADE);
    for &len in &LENGTHS {
        for (ci, m) in scalar_constants().into_iter().enumerate() {
            let dst_re = plane(len, &mut rng, ci);
            let dst_im = plane(len, &mut rng, ci + 1);
            let src_re = plane(len, &mut rng, ci + 2);
            let src_im = plane(len, &mut rng, ci + 3);
            for masked in [false, true] {
                let (mut a_re, mut a_im) = (dst_re.clone(), dst_im.clone());
                let (mut b_re, mut b_im) = (dst_re.clone(), dst_im.clone());
                if masked {
                    simd::caxpy_sub_masked_with(
                        SimdLevel::Scalar,
                        &mut a_re,
                        &mut a_im,
                        &src_re,
                        &src_im,
                        m,
                    );
                    simd::caxpy_sub_masked_with(hw, &mut b_re, &mut b_im, &src_re, &src_im, m);
                } else {
                    simd::caxpy_sub_with(
                        SimdLevel::Scalar,
                        &mut a_re,
                        &mut a_im,
                        &src_re,
                        &src_im,
                        m,
                    );
                    simd::caxpy_sub_with(hw, &mut b_re, &mut b_im, &src_re, &src_im, m);
                }
                let what = format!("caxpy_sub(masked={masked}) len={len} m={m}");
                assert_bits_eq(&a_re, &b_re, &what);
                assert_bits_eq(&a_im, &b_im, &what);
            }
        }
    }
}

#[test]
fn masked_caxpy_skips_signed_zeros_but_not_nan() {
    // The zero-skip semantics are part of the bitwise contract: ±0
    // sources leave dst untouched, NaN sources must still compute.
    let hw = simd::hardware_level();
    let src_re = [0.0, -0.0, f64::NAN, 0.0, 1.0];
    let src_im = [0.0, 0.0, 0.0, f64::NAN, -0.0];
    let m = Complex::new(2.0, -1.0);
    for level in [SimdLevel::Scalar, hw] {
        let mut dst_re = [1.0; 5];
        let mut dst_im = [1.0; 5];
        simd::caxpy_sub_masked_with(level, &mut dst_re, &mut dst_im, &src_re, &src_im, m);
        assert_eq!(dst_re[0], 1.0, "{level:?}: +0/+0 must skip");
        assert_eq!(dst_re[1], 1.0, "{level:?}: -0/+0 must skip");
        assert!(dst_re[2].is_nan(), "{level:?}: NaN source must compute");
        assert!(dst_im[3].is_nan(), "{level:?}: NaN source must compute");
        assert_ne!(dst_re[4], 1.0, "{level:?}: nonzero source must compute");
    }
}

#[test]
fn cdiv_assign_bitwise_matches_scalar() {
    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0xD1F1DE);
    for &len in &LENGTHS {
        for (ci, d) in scalar_constants().into_iter().enumerate() {
            let dst_re = plane(len, &mut rng, ci);
            let dst_im = plane(len, &mut rng, ci + 4);
            let (mut a_re, mut a_im) = (dst_re.clone(), dst_im.clone());
            let (mut b_re, mut b_im) = (dst_re, dst_im);
            simd::cdiv_assign_with(SimdLevel::Scalar, &mut a_re, &mut a_im, d);
            simd::cdiv_assign_with(hw, &mut b_re, &mut b_im, d);
            let what = format!("cdiv_assign len={len} d={d}");
            assert_bits_eq(&a_re, &b_re, &what);
            assert_bits_eq(&a_im, &b_im, &what);
        }
    }
}

#[test]
fn butterfly_bitwise_matches_scalar() {
    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0xBF11);
    for &len in &LENGTHS {
        let u_re0 = plane(len, &mut rng, 0);
        let u_im0 = plane(len, &mut rng, 1);
        let v_re0 = plane(len, &mut rng, 2);
        let v_im0 = plane(len, &mut rng, 3);
        let w_re = plane(len, &mut rng, 4);
        let w_im = plane(len, &mut rng, 5);
        let (mut au_re, mut au_im) = (u_re0.clone(), u_im0.clone());
        let (mut av_re, mut av_im) = (v_re0.clone(), v_im0.clone());
        let (mut bu_re, mut bu_im) = (u_re0, u_im0);
        let (mut bv_re, mut bv_im) = (v_re0, v_im0);
        simd::butterfly_with(
            SimdLevel::Scalar,
            &mut au_re,
            &mut au_im,
            &mut av_re,
            &mut av_im,
            &w_re,
            &w_im,
        );
        simd::butterfly_with(
            hw, &mut bu_re, &mut bu_im, &mut bv_re, &mut bv_im, &w_re, &w_im,
        );
        let what = format!("butterfly len={len}");
        assert_bits_eq(&au_re, &bu_re, &what);
        assert_bits_eq(&au_im, &bu_im, &what);
        assert_bits_eq(&av_re, &bv_re, &what);
        assert_bits_eq(&av_im, &bv_im, &what);
    }
}

#[test]
fn interleaved_kernels_bitwise_match_scalar() {
    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0x1EAF);
    for &len in &LENGTHS {
        let d_re = plane(len, &mut rng, 0);
        let d_im = plane(len, &mut rng, 1);
        let x: Vec<Complex> = plane(len, &mut rng, 2)
            .into_iter()
            .zip(plane(len, &mut rng, 3))
            .map(|(re, im)| Complex::new(re, im))
            .collect();
        let out0: Vec<Complex> = plane(len, &mut rng, 4)
            .into_iter()
            .zip(plane(len, &mut rng, 5))
            .map(|(re, im)| Complex::new(re, im))
            .collect();

        let mut a = out0.clone();
        let mut b = out0.clone();
        simd::band_diag_madd_with(SimdLevel::Scalar, &mut a, &d_re, &d_im, &x);
        simd::band_diag_madd_with(hw, &mut b, &d_re, &d_im, &x);
        assert_complex_bits_eq(&a, &b, &format!("band_diag_madd len={len}"));

        for c in scalar_constants() {
            let x_re = plane(len, &mut rng, 6);
            let x_im = plane(len, &mut rng, 7);
            let o_re0 = plane(len, &mut rng, 8);
            let o_im0 = plane(len, &mut rng, 9);
            let (mut ar, mut ai) = (o_re0.clone(), o_im0.clone());
            let (mut br, mut bi) = (o_re0, o_im0);
            simd::cmul_bcast_add_with(SimdLevel::Scalar, &mut ar, &mut ai, c, &x_re, &x_im);
            simd::cmul_bcast_add_with(hw, &mut br, &mut bi, c, &x_re, &x_im);
            assert_bits_eq(&ar, &br, &format!("cmul_bcast_add re len={len} c={c}"));
            assert_bits_eq(&ai, &bi, &format!("cmul_bcast_add im len={len} c={c}"));
        }

        let mut a = out0.clone();
        let mut b = out0;
        simd::cmul_pairwise_with(SimdLevel::Scalar, &mut a, &x);
        simd::cmul_pairwise_with(hw, &mut b, &x);
        assert_complex_bits_eq(&a, &b, &format!("cmul_pairwise len={len}"));
    }
}

#[test]
fn fft_bitwise_invariant_under_backend() {
    let _g = global_level_guard();
    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0xFF7);
    for n in [64usize, 256, 1024] {
        let x: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
            .collect();
        let prev = simd::set_active_level(SimdLevel::Scalar);
        let mut a = x.clone();
        htmpll::spectral::fft::fft(&mut a).expect("power of two");
        simd::set_active_level(hw);
        let mut b = x;
        htmpll::spectral::fft::fft(&mut b).expect("power of two");
        simd::set_active_level(prev);
        assert_complex_bits_eq(&a, &b, &format!("fft n={n}"));
    }
}

#[test]
fn xcheck_digest_invariant_under_backend_and_threads() {
    // The strongest end-to-end claim: the whole quick corpus — λ(s)
    // grids, banded/dense closed-loop solves, spectral estimates, the
    // behavioral simulator — digests to the same bits with SIMD forced
    // off and at the hardware level, at 1 and at 2 worker threads.
    let _g = global_level_guard();
    let hw = simd::hardware_level();
    let prev = simd::set_active_level(SimdLevel::Scalar);
    let scalar_1 = run_corpus("quick", ThreadBudget::Fixed(1)).expect("scalar threads=1");
    let scalar_2 = run_corpus("quick", ThreadBudget::Fixed(2)).expect("scalar threads=2");
    simd::set_active_level(hw);
    let hw_1 = run_corpus("quick", ThreadBudget::Fixed(1)).expect("hw threads=1");
    let hw_2 = run_corpus("quick", ThreadBudget::Fixed(2)).expect("hw threads=2");
    simd::set_active_level(prev);
    assert_eq!(scalar_1.digest(), scalar_2.digest(), "scalar: thread count");
    assert_eq!(hw_1.digest(), hw_2.digest(), "{hw:?}: thread count");
    assert_eq!(
        scalar_1.digest(),
        hw_1.digest(),
        "digest must not depend on the SIMD backend (hardware {hw:?})"
    );
    assert_eq!(scalar_1.mismatches(), 0);
}

#[test]
fn detection_reports_a_supported_level() {
    let level = simd::hardware_level();
    assert!(level.supported(), "hardware level {level:?} not runnable");
    assert!(!level.name().is_empty());
    // The active level is always clamped to hardware capability.
    let active = simd::active_level();
    assert!(active.supported());
}
