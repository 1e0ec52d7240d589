//! NEON backends (2 × `f64` lanes, aarch64).
//!
//! Mirrors [`super::scalar`] operation for operation, exactly like the
//! AVX2 backend: separate multiply and add/subtract instructions (no
//! fused `vfma`), scalar operation order per lane, scalar fallthrough
//! for tails. Interleaved operands use the structure load/store pair
//! `vld2q_f64`/`vst2q_f64`, which deinterleave in one instruction.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::complex::Complex;
use std::arch::aarch64::{
    float64x2x2_t, vaddq_f64, vandq_u64, vbslq_f64, vceqq_f64, vdivq_f64, vdupq_n_f64, vld1q_f64,
    vld2q_f64, vmulq_f64, vst1q_f64, vst2q_f64, vsubq_f64,
};

const W: usize = 2;

/// See [`super::scalar::caxpy_sub`].
#[target_feature(enable = "neon")]
pub unsafe fn caxpy_sub(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    let n = dst_re.len();
    let m_re = vdupq_n_f64(m.re);
    let m_im = vdupq_n_f64(m.im);
    let mut i = 0;
    while i + W <= n {
        let s_re = vld1q_f64(src_re.as_ptr().add(i));
        let s_im = vld1q_f64(src_im.as_ptr().add(i));
        let t_re = vsubq_f64(vmulq_f64(m_re, s_re), vmulq_f64(m_im, s_im));
        let t_im = vaddq_f64(vmulq_f64(m_re, s_im), vmulq_f64(m_im, s_re));
        let d_re = vld1q_f64(dst_re.as_ptr().add(i));
        let d_im = vld1q_f64(dst_im.as_ptr().add(i));
        vst1q_f64(dst_re.as_mut_ptr().add(i), vsubq_f64(d_re, t_re));
        vst1q_f64(dst_im.as_mut_ptr().add(i), vsubq_f64(d_im, t_im));
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
#[target_feature(enable = "neon")]
pub unsafe fn caxpy_sub_masked(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    let n = dst_re.len();
    let m_re = vdupq_n_f64(m.re);
    let m_im = vdupq_n_f64(m.im);
    let zero = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + W <= n {
        let s_re = vld1q_f64(src_re.as_ptr().add(i));
        let s_im = vld1q_f64(src_im.as_ptr().add(i));
        // Lane skips exactly when src == 0 (±0 equal, NaN unequal).
        let skip = vandq_u64(vceqq_f64(s_re, zero), vceqq_f64(s_im, zero));
        let t_re = vsubq_f64(vmulq_f64(m_re, s_re), vmulq_f64(m_im, s_im));
        let t_im = vaddq_f64(vmulq_f64(m_re, s_im), vmulq_f64(m_im, s_re));
        let d_re = vld1q_f64(dst_re.as_ptr().add(i));
        let d_im = vld1q_f64(dst_im.as_ptr().add(i));
        vst1q_f64(
            dst_re.as_mut_ptr().add(i),
            vbslq_f64(skip, d_re, vsubq_f64(d_re, t_re)),
        );
        vst1q_f64(
            dst_im.as_mut_ptr().add(i),
            vbslq_f64(skip, d_im, vsubq_f64(d_im, t_im)),
        );
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
#[target_feature(enable = "neon")]
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
        let r_v = vdupq_n_f64(r);
        let den_v = vdupq_n_f64(den);
        let mut i = 0;
        while i + W <= n {
            let x_re = vld1q_f64(dst_re.as_ptr().add(i));
            let x_im = vld1q_f64(dst_im.as_ptr().add(i));
            let re = vdivq_f64(vaddq_f64(x_re, vmulq_f64(x_im, r_v)), den_v);
            let im = vdivq_f64(vsubq_f64(x_im, vmulq_f64(x_re, r_v)), den_v);
            vst1q_f64(dst_re.as_mut_ptr().add(i), re);
            vst1q_f64(dst_im.as_mut_ptr().add(i), im);
            i += W;
        }
        super::scalar::cdiv_assign(&mut dst_re[i..], &mut dst_im[i..], d);
    } else {
        let r = d.re / d.im;
        let den = d.re * r + d.im;
        let r_v = vdupq_n_f64(r);
        let den_v = vdupq_n_f64(den);
        let mut i = 0;
        while i + W <= n {
            let x_re = vld1q_f64(dst_re.as_ptr().add(i));
            let x_im = vld1q_f64(dst_im.as_ptr().add(i));
            let re = vdivq_f64(vaddq_f64(vmulq_f64(x_re, r_v), x_im), den_v);
            let im = vdivq_f64(vsubq_f64(vmulq_f64(x_im, r_v), x_re), den_v);
            vst1q_f64(dst_re.as_mut_ptr().add(i), re);
            vst1q_f64(dst_im.as_mut_ptr().add(i), im);
            i += W;
        }
        super::scalar::cdiv_assign(&mut dst_re[i..], &mut dst_im[i..], d);
    }
}

/// See [`super::scalar::butterfly`].
#[target_feature(enable = "neon")]
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
        let vr = vld1q_f64(v_re.as_ptr().add(i));
        let vi = vld1q_f64(v_im.as_ptr().add(i));
        let wr = vld1q_f64(w_re.as_ptr().add(i));
        let wi = vld1q_f64(w_im.as_ptr().add(i));
        let t_re = vsubq_f64(vmulq_f64(vr, wr), vmulq_f64(vi, wi));
        let t_im = vaddq_f64(vmulq_f64(vr, wi), vmulq_f64(vi, wr));
        let ur = vld1q_f64(u_re.as_ptr().add(i));
        let ui = vld1q_f64(u_im.as_ptr().add(i));
        vst1q_f64(u_re.as_mut_ptr().add(i), vaddq_f64(ur, t_re));
        vst1q_f64(u_im.as_mut_ptr().add(i), vaddq_f64(ui, t_im));
        vst1q_f64(v_re.as_mut_ptr().add(i), vsubq_f64(ur, t_re));
        vst1q_f64(v_im.as_mut_ptr().add(i), vsubq_f64(ui, t_im));
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
#[target_feature(enable = "neon")]
pub unsafe fn band_diag_madd(out: &mut [Complex], d_re: &[f64], d_im: &[f64], x: &[Complex]) {
    let n = out.len();
    let x_ptr = x.as_ptr().cast::<f64>();
    let out_ptr = out.as_mut_ptr().cast::<f64>();
    let mut i = 0;
    while i + W <= n {
        let xv = vld2q_f64(x_ptr.add(2 * i));
        let dr = vld1q_f64(d_re.as_ptr().add(i));
        let di = vld1q_f64(d_im.as_ptr().add(i));
        let t_re = vsubq_f64(vmulq_f64(dr, xv.0), vmulq_f64(di, xv.1));
        let t_im = vaddq_f64(vmulq_f64(dr, xv.1), vmulq_f64(di, xv.0));
        let ov = vld2q_f64(out_ptr.add(2 * i));
        vst2q_f64(
            out_ptr.add(2 * i),
            float64x2x2_t(vaddq_f64(ov.0, t_re), vaddq_f64(ov.1, t_im)),
        );
        i += W;
    }
    super::scalar::band_diag_madd(&mut out[i..], &d_re[i..], &d_im[i..], &x[i..]);
}

/// See [`super::scalar::cmul_bcast_add`].
#[target_feature(enable = "neon")]
pub unsafe fn cmul_bcast_add(
    out_re: &mut [f64],
    out_im: &mut [f64],
    c: Complex,
    x_re: &[f64],
    x_im: &[f64],
) {
    let n = out_re.len();
    let cr = vdupq_n_f64(c.re);
    let ci = vdupq_n_f64(c.im);
    let mut i = 0;
    while i + W <= n {
        let xr = vld1q_f64(x_re.as_ptr().add(i));
        let xi = vld1q_f64(x_im.as_ptr().add(i));
        let t_re = vsubq_f64(vmulq_f64(cr, xr), vmulq_f64(ci, xi));
        let t_im = vaddq_f64(vmulq_f64(cr, xi), vmulq_f64(ci, xr));
        let o_re = vld1q_f64(out_re.as_ptr().add(i));
        let o_im = vld1q_f64(out_im.as_ptr().add(i));
        vst1q_f64(out_re.as_mut_ptr().add(i), vaddq_f64(o_re, t_re));
        vst1q_f64(out_im.as_mut_ptr().add(i), vaddq_f64(o_im, t_im));
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
#[target_feature(enable = "neon")]
pub unsafe fn cmul_pairwise(dst: &mut [Complex], r: &[Complex]) {
    let n = dst.len();
    let r_ptr = r.as_ptr().cast::<f64>();
    let dst_ptr = dst.as_mut_ptr().cast::<f64>();
    let mut i = 0;
    while i + W <= n {
        let rv = vld2q_f64(r_ptr.add(2 * i));
        let dv = vld2q_f64(dst_ptr.add(2 * i));
        let t_re = vsubq_f64(vmulq_f64(rv.0, dv.0), vmulq_f64(rv.1, dv.1));
        let t_im = vaddq_f64(vmulq_f64(rv.0, dv.1), vmulq_f64(rv.1, dv.0));
        vst2q_f64(dst_ptr.add(2 * i), float64x2x2_t(t_re, t_im));
        i += W;
    }
    super::scalar::cmul_pairwise(&mut dst[i..], &r[i..]);
}
