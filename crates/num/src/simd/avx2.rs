//! AVX2 backends (4 × `f64` lanes).
//!
//! Every function mirrors its [`super::scalar`] counterpart operation
//! for operation: multiplies and adds/subtracts are issued separately
//! (`vmulpd` + `vaddpd`/`vsubpd`, never FMA, which rounds once instead
//! of twice), and each lane sees exactly the scalar operation order, so
//! the results are bitwise identical to the scalar backend. Tails
//! shorter than one vector fall through to the scalar kernel.
//!
//! Interleaved (`&[Complex]`) operands rely on `Complex` being
//! `#[repr(C)]` — a slice of `n` complex numbers is exactly `2n`
//! contiguous `f64`s `[re₀, im₀, re₁, im₁, …]` — and are split into
//! component vectors in-register with two 128-bit permutes and an
//! unpack pair per four elements.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::complex::Complex;
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd,
    _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd, _CMP_EQ_OQ,
};

const W: usize = 4;

/// Loads four interleaved complex numbers and splits them into
/// component vectors: `[re₀..re₃]`, `[im₀..im₃]`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn deinterleave(p: *const f64) -> (__m256d, __m256d) {
    let a = _mm256_loadu_pd(p); // re0 im0 re1 im1
    let b = _mm256_loadu_pd(p.add(4)); // re2 im2 re3 im3
    let lo = _mm256_permute2f128_pd(a, b, 0x20); // re0 im0 re2 im2
    let hi = _mm256_permute2f128_pd(a, b, 0x31); // re1 im1 re3 im3
    (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
}

/// Inverse of [`deinterleave`]: stores component vectors as four
/// interleaved complex numbers.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn interleave(re: __m256d, im: __m256d, p: *mut f64) {
    let lo = _mm256_unpacklo_pd(re, im); // re0 im0 re2 im2
    let hi = _mm256_unpackhi_pd(re, im); // re1 im1 re3 im3
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(p.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
}

/// See [`super::scalar::caxpy_sub`].
#[target_feature(enable = "avx2")]
pub unsafe fn caxpy_sub(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    let n = dst_re.len();
    let m_re = _mm256_set1_pd(m.re);
    let m_im = _mm256_set1_pd(m.im);
    let mut i = 0;
    while i + W <= n {
        let s_re = _mm256_loadu_pd(src_re.as_ptr().add(i));
        let s_im = _mm256_loadu_pd(src_im.as_ptr().add(i));
        let t_re = _mm256_sub_pd(_mm256_mul_pd(m_re, s_re), _mm256_mul_pd(m_im, s_im));
        let t_im = _mm256_add_pd(_mm256_mul_pd(m_re, s_im), _mm256_mul_pd(m_im, s_re));
        let d_re = _mm256_loadu_pd(dst_re.as_ptr().add(i));
        let d_im = _mm256_loadu_pd(dst_im.as_ptr().add(i));
        _mm256_storeu_pd(dst_re.as_mut_ptr().add(i), _mm256_sub_pd(d_re, t_re));
        _mm256_storeu_pd(dst_im.as_mut_ptr().add(i), _mm256_sub_pd(d_im, t_im));
        i += W;
    }
    super::scalar::caxpy_sub(
        &mut dst_re[i..],
        &mut dst_im[i..],
        &src_re[i..],
        &src_im[i..],
        m,
    );
}

/// See [`super::scalar::caxpy_sub_masked`].
#[target_feature(enable = "avx2")]
pub unsafe fn caxpy_sub_masked(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    let n = dst_re.len();
    let m_re = _mm256_set1_pd(m.re);
    let m_im = _mm256_set1_pd(m.im);
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + W <= n {
        let s_re = _mm256_loadu_pd(src_re.as_ptr().add(i));
        let s_im = _mm256_loadu_pd(src_im.as_ptr().add(i));
        // Lane skips exactly when src == 0: ±0 compares equal to zero,
        // NaN compares unequal (ordered EQ), matching the scalar
        // `src == Complex::ZERO` test.
        let skip = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_EQ_OQ>(s_re, zero),
            _mm256_cmp_pd::<_CMP_EQ_OQ>(s_im, zero),
        );
        let t_re = _mm256_sub_pd(_mm256_mul_pd(m_re, s_re), _mm256_mul_pd(m_im, s_im));
        let t_im = _mm256_add_pd(_mm256_mul_pd(m_re, s_im), _mm256_mul_pd(m_im, s_re));
        let d_re = _mm256_loadu_pd(dst_re.as_ptr().add(i));
        let d_im = _mm256_loadu_pd(dst_im.as_ptr().add(i));
        let r_re = _mm256_blendv_pd(_mm256_sub_pd(d_re, t_re), d_re, skip);
        let r_im = _mm256_blendv_pd(_mm256_sub_pd(d_im, t_im), d_im, skip);
        _mm256_storeu_pd(dst_re.as_mut_ptr().add(i), r_re);
        _mm256_storeu_pd(dst_im.as_mut_ptr().add(i), r_im);
        i += W;
    }
    super::scalar::caxpy_sub_masked(
        &mut dst_re[i..],
        &mut dst_im[i..],
        &src_re[i..],
        &src_im[i..],
        m,
    );
}

/// See [`super::scalar::cdiv_assign`].
#[target_feature(enable = "avx2")]
pub unsafe fn cdiv_assign(dst_re: &mut [f64], dst_im: &mut [f64], d: Complex) {
    let n = dst_re.len();
    if d.re.abs() >= d.im.abs() {
        if d.re == 0.0 && d.im == 0.0 {
            dst_re.fill(f64::NAN);
            dst_im.fill(f64::NAN);
            return;
        }
        let r = d.im / d.re;
        let den = d.re + d.im * r;
        let r_v = _mm256_set1_pd(r);
        let den_v = _mm256_set1_pd(den);
        let mut i = 0;
        while i + W <= n {
            let x_re = _mm256_loadu_pd(dst_re.as_ptr().add(i));
            let x_im = _mm256_loadu_pd(dst_im.as_ptr().add(i));
            let re = _mm256_div_pd(_mm256_add_pd(x_re, _mm256_mul_pd(x_im, r_v)), den_v);
            let im = _mm256_div_pd(_mm256_sub_pd(x_im, _mm256_mul_pd(x_re, r_v)), den_v);
            _mm256_storeu_pd(dst_re.as_mut_ptr().add(i), re);
            _mm256_storeu_pd(dst_im.as_mut_ptr().add(i), im);
            i += W;
        }
        super::scalar::cdiv_assign(&mut dst_re[i..], &mut dst_im[i..], d);
    } else {
        let r = d.re / d.im;
        let den = d.re * r + d.im;
        let r_v = _mm256_set1_pd(r);
        let den_v = _mm256_set1_pd(den);
        let mut i = 0;
        while i + W <= n {
            let x_re = _mm256_loadu_pd(dst_re.as_ptr().add(i));
            let x_im = _mm256_loadu_pd(dst_im.as_ptr().add(i));
            let re = _mm256_div_pd(_mm256_add_pd(_mm256_mul_pd(x_re, r_v), x_im), den_v);
            let im = _mm256_div_pd(_mm256_sub_pd(_mm256_mul_pd(x_im, r_v), x_re), den_v);
            _mm256_storeu_pd(dst_re.as_mut_ptr().add(i), re);
            _mm256_storeu_pd(dst_im.as_mut_ptr().add(i), im);
            i += W;
        }
        super::scalar::cdiv_assign(&mut dst_re[i..], &mut dst_im[i..], d);
    }
}

/// See [`super::scalar::butterfly`].
#[target_feature(enable = "avx2")]
pub unsafe fn butterfly(
    u_re: &mut [f64],
    u_im: &mut [f64],
    v_re: &mut [f64],
    v_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    let n = u_re.len();
    let mut i = 0;
    while i + W <= n {
        let vr = _mm256_loadu_pd(v_re.as_ptr().add(i));
        let vi = _mm256_loadu_pd(v_im.as_ptr().add(i));
        let wr = _mm256_loadu_pd(w_re.as_ptr().add(i));
        let wi = _mm256_loadu_pd(w_im.as_ptr().add(i));
        let t_re = _mm256_sub_pd(_mm256_mul_pd(vr, wr), _mm256_mul_pd(vi, wi));
        let t_im = _mm256_add_pd(_mm256_mul_pd(vr, wi), _mm256_mul_pd(vi, wr));
        let ur = _mm256_loadu_pd(u_re.as_ptr().add(i));
        let ui = _mm256_loadu_pd(u_im.as_ptr().add(i));
        _mm256_storeu_pd(u_re.as_mut_ptr().add(i), _mm256_add_pd(ur, t_re));
        _mm256_storeu_pd(u_im.as_mut_ptr().add(i), _mm256_add_pd(ui, t_im));
        _mm256_storeu_pd(v_re.as_mut_ptr().add(i), _mm256_sub_pd(ur, t_re));
        _mm256_storeu_pd(v_im.as_mut_ptr().add(i), _mm256_sub_pd(ui, t_im));
        i += W;
    }
    super::scalar::butterfly(
        &mut u_re[i..],
        &mut u_im[i..],
        &mut v_re[i..],
        &mut v_im[i..],
        &w_re[i..],
        &w_im[i..],
    );
}

/// See [`super::scalar::band_diag_madd`].
#[target_feature(enable = "avx2")]
pub unsafe fn band_diag_madd(out: &mut [Complex], d_re: &[f64], d_im: &[f64], x: &[Complex]) {
    let n = out.len();
    let x_ptr = x.as_ptr().cast::<f64>();
    let out_ptr = out.as_mut_ptr().cast::<f64>();
    let mut i = 0;
    while i + W <= n {
        let (x_re, x_im) = deinterleave(x_ptr.add(2 * i));
        let dr = _mm256_loadu_pd(d_re.as_ptr().add(i));
        let di = _mm256_loadu_pd(d_im.as_ptr().add(i));
        let t_re = _mm256_sub_pd(_mm256_mul_pd(dr, x_re), _mm256_mul_pd(di, x_im));
        let t_im = _mm256_add_pd(_mm256_mul_pd(dr, x_im), _mm256_mul_pd(di, x_re));
        let (o_re, o_im) = deinterleave(out_ptr.add(2 * i));
        interleave(
            _mm256_add_pd(o_re, t_re),
            _mm256_add_pd(o_im, t_im),
            out_ptr.add(2 * i),
        );
        i += W;
    }
    super::scalar::band_diag_madd(&mut out[i..], &d_re[i..], &d_im[i..], &x[i..]);
}

/// See [`super::scalar::cmul_bcast_add`].
#[target_feature(enable = "avx2")]
pub unsafe fn cmul_bcast_add(
    out_re: &mut [f64],
    out_im: &mut [f64],
    c: Complex,
    x_re: &[f64],
    x_im: &[f64],
) {
    let n = out_re.len();
    let cr = _mm256_set1_pd(c.re);
    let ci = _mm256_set1_pd(c.im);
    let mut i = 0;
    while i + W <= n {
        let xr = _mm256_loadu_pd(x_re.as_ptr().add(i));
        let xi = _mm256_loadu_pd(x_im.as_ptr().add(i));
        let t_re = _mm256_sub_pd(_mm256_mul_pd(cr, xr), _mm256_mul_pd(ci, xi));
        let t_im = _mm256_add_pd(_mm256_mul_pd(cr, xi), _mm256_mul_pd(ci, xr));
        let o_re = _mm256_loadu_pd(out_re.as_ptr().add(i));
        let o_im = _mm256_loadu_pd(out_im.as_ptr().add(i));
        _mm256_storeu_pd(out_re.as_mut_ptr().add(i), _mm256_add_pd(o_re, t_re));
        _mm256_storeu_pd(out_im.as_mut_ptr().add(i), _mm256_add_pd(o_im, t_im));
        i += W;
    }
    super::scalar::cmul_bcast_add(
        &mut out_re[i..],
        &mut out_im[i..],
        c,
        &x_re[i..],
        &x_im[i..],
    );
}

/// See [`super::scalar::cmul_pairwise`].
#[target_feature(enable = "avx2")]
pub unsafe fn cmul_pairwise(dst: &mut [Complex], r: &[Complex]) {
    let n = dst.len();
    let r_ptr = r.as_ptr().cast::<f64>();
    let dst_ptr = dst.as_mut_ptr().cast::<f64>();
    let mut i = 0;
    while i + W <= n {
        let (r_re, r_im) = deinterleave(r_ptr.add(2 * i));
        let (d_re, d_im) = deinterleave(dst_ptr.add(2 * i));
        let t_re = _mm256_sub_pd(_mm256_mul_pd(r_re, d_re), _mm256_mul_pd(r_im, d_im));
        let t_im = _mm256_add_pd(_mm256_mul_pd(r_re, d_im), _mm256_mul_pd(r_im, d_re));
        interleave(t_re, t_im, dst_ptr.add(2 * i));
        i += W;
    }
    super::scalar::cmul_pairwise(&mut dst[i..], &r[i..]);
}
