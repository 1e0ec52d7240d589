//! Scalar reference implementations of the SIMD kernels.
//!
//! These define the *semantics contract*: every vector backend must
//! produce bitwise-identical results lane for lane. The contract is
//! what makes SIMD dispatch invisible to the determinism machinery —
//! each lane performs exactly the floating-point operations, in exactly
//! the order, that the pre-SIMD scalar hot loops performed per element
//! (complex multiply as `a.re·b.re − a.im·b.im` / `a.re·b.im +
//! a.im·b.re`, subtraction as componentwise `sub`, Smith division with
//! the uniform-denominator branch hoisted). No backend may use FMA
//! (fused rounding differs) or reassociate a reduction.

use crate::complex::Complex;

/// `dst[i] -= m · src[i]` over split planes.
pub fn caxpy_sub(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    for i in 0..dst_re.len() {
        let t_re = m.re * src_re[i] - m.im * src_im[i];
        let t_im = m.re * src_im[i] + m.im * src_re[i];
        dst_re[i] -= t_re;
        dst_im[i] -= t_im;
    }
}

/// [`caxpy_sub`] that leaves `dst[i]` untouched where `src[i] == 0`
/// (both components `== 0.0`, so `±0` both skip — the forward-solve
/// zero-skip semantics).
pub fn caxpy_sub_masked(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    for i in 0..dst_re.len() {
        if src_re[i] == 0.0 && src_im[i] == 0.0 {
            continue;
        }
        let t_re = m.re * src_re[i] - m.im * src_im[i];
        let t_im = m.re * src_im[i] + m.im * src_re[i];
        dst_re[i] -= t_re;
        dst_im[i] -= t_im;
    }
}

/// `dst[i] /= d` over split planes: Smith's algorithm with the branch
/// and the scalars `r`, `den` hoisted out of the loop (the denominator
/// is uniform, so the branch is too — per lane the operations match
/// [`Complex`]'s `Div` exactly).
pub fn cdiv_assign(dst_re: &mut [f64], dst_im: &mut [f64], d: Complex) {
    if d.re.abs() >= d.im.abs() {
        if d.re == 0.0 && d.im == 0.0 {
            dst_re.fill(f64::NAN);
            dst_im.fill(f64::NAN);
            return;
        }
        let r = d.im / d.re;
        let den = d.re + d.im * r;
        for i in 0..dst_re.len() {
            let re = (dst_re[i] + dst_im[i] * r) / den;
            let im = (dst_im[i] - dst_re[i] * r) / den;
            dst_re[i] = re;
            dst_im[i] = im;
        }
    } else {
        let r = d.re / d.im;
        let den = d.re * r + d.im;
        for i in 0..dst_re.len() {
            let re = (dst_re[i] * r + dst_im[i]) / den;
            let im = (dst_im[i] * r - dst_re[i]) / den;
            dst_re[i] = re;
            dst_im[i] = im;
        }
    }
}

/// One radix-2 butterfly pass over split planes:
/// `t = v[i]·w[i]; v[i] = u[i] − t; u[i] = u[i] + t`.
pub fn butterfly(
    u_re: &mut [f64],
    u_im: &mut [f64],
    v_re: &mut [f64],
    v_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    for i in 0..u_re.len() {
        let t_re = v_re[i] * w_re[i] - v_im[i] * w_im[i];
        let t_im = v_re[i] * w_im[i] + v_im[i] * w_re[i];
        let ur = u_re[i];
        let ui = u_im[i];
        u_re[i] = ur + t_re;
        u_im[i] = ui + t_im;
        v_re[i] = ur - t_re;
        v_im[i] = ui - t_im;
    }
}

/// `out[i] += d[i] · x[i]` with `d` in split planes and `out`/`x`
/// interleaved — one diagonal pass of the banded mat-vec.
pub fn band_diag_madd(out: &mut [Complex], d_re: &[f64], d_im: &[f64], x: &[Complex]) {
    for i in 0..out.len() {
        let t_re = d_re[i] * x[i].re - d_im[i] * x[i].im;
        let t_im = d_re[i] * x[i].im + d_im[i] * x[i].re;
        out[i].re += t_re;
        out[i].im += t_im;
    }
}

/// `out[i] += c · x[i]` over split re/im planes — one diagonal pass of
/// the banded-Toeplitz mat-vec (uniform coefficient per diagonal).
///
/// Plane layout keeps the vector backends permute-free: the broadcast
/// coefficient meets contiguous `f64` lanes directly, with no AoS
/// de/re-interleave shuffles on the memory-bound path.
pub fn cmul_bcast_add(
    out_re: &mut [f64],
    out_im: &mut [f64],
    c: Complex,
    x_re: &[f64],
    x_im: &[f64],
) {
    for i in 0..out_re.len() {
        let t_re = c.re * x_re[i] - c.im * x_im[i];
        let t_im = c.re * x_im[i] + c.im * x_re[i];
        out_re[i] += t_re;
        out_im[i] += t_im;
    }
}

/// `dst[i] = r[i] · dst[i]` over interleaved slices — the per-row
/// scaling pass of the VCO banded-Toeplitz representation.
pub fn cmul_pairwise(dst: &mut [Complex], r: &[Complex]) {
    for i in 0..dst.len() {
        let t_re = r[i].re * dst[i].re - r[i].im * dst[i].im;
        let t_im = r[i].re * dst[i].im + r[i].im * dst[i].re;
        dst[i].re = t_re;
        dst[i].im = t_im;
    }
}
