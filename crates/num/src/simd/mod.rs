//! Runtime-dispatched SIMD kernels over split-complex (SoA) planes.
//!
//! The numerical hot loops of the workspace — the banded-LU factor and
//! solve inner kernels, the radix-2 FFT butterflies and the
//! banded-Toeplitz mat-vec — all reduce to a small set of elementwise
//! complex primitives. This module provides those
//! primitives three ways: a scalar reference ([`scalar`]-equivalent
//! semantics), an AVX2 backend (x86_64, 4 lanes) and a NEON backend
//! (aarch64, 2 lanes), selected once at runtime behind a single
//! dispatch point. Zero external dependencies: detection is
//! `std::arch::is_*_feature_detected!`, kernels are `std::arch`
//! intrinsics.
//!
//! ## Determinism contract
//!
//! Every backend performs, per lane, **exactly the floating-point
//! operations of the scalar path in exactly the same order**: complex
//! multiplies are expanded as `a.re·b.re − a.im·b.im` /
//! `a.re·b.im + a.im·b.re` with separate multiply and add/sub
//! instructions (FMA is never used — its single rounding differs from
//! the two-rounding scalar result), divisions hoist the uniform Smith
//! branch, and reductions are never reassociated: vectorization is
//! always *across independent outputs* (matrix rows, right-hand sides,
//! grid points), never within one accumulation chain. Results are
//! therefore bitwise identical whichever backend runs, which is what
//! keeps the 1-vs-N-thread determinism contract and the xcheck report
//! digest invariant under `HTMPLL_SIMD` and ISA changes.
//!
//! ## Override
//!
//! Set `HTMPLL_SIMD=0` (or `off`/`scalar`) to force the scalar backend;
//! any other value (or unset) uses the best detected ISA. Tests and
//! benches can flip the active backend with [`set_active_level`] —
//! safe at any time precisely because all backends agree bitwise.

mod soa;

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

pub use soa::{AlignedF64, SoaVec};

use crate::complex::Complex;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel backend runs. Ordered by preference within an ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar loops — the semantics reference.
    Scalar = 0,
    /// AVX2, 4 × `f64` lanes (x86_64).
    Avx2 = 1,
    /// NEON, 2 × `f64` lanes (aarch64).
    Neon = 2,
}

impl SimdLevel {
    /// Human-readable backend name (`scalar`, `avx2`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Avx2,
            2 => SimdLevel::Neon,
            _ => SimdLevel::Scalar,
        }
    }

    /// True when this backend can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdLevel::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }
}

/// The best backend the CPU supports, ignoring the environment
/// override.
pub fn hardware_level() -> SimdLevel {
    if SimdLevel::Avx2.supported() {
        SimdLevel::Avx2
    } else if SimdLevel::Neon.supported() {
        SimdLevel::Neon
    } else {
        SimdLevel::Scalar
    }
}

/// The backend selected by hardware detection plus the `HTMPLL_SIMD`
/// environment override (`0` / `off` / `scalar` force the scalar
/// backend).
pub fn detect_level() -> SimdLevel {
    if let Ok(v) = std::env::var("HTMPLL_SIMD") {
        let v = v.trim().to_ascii_lowercase();
        if v == "0" || v == "off" || v == "scalar" {
            return SimdLevel::Scalar;
        }
    }
    hardware_level()
}

const UNINIT: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// The backend the dispatching kernels currently use. Detected once on
/// first use (hardware + `HTMPLL_SIMD`), then cached.
pub fn active_level() -> SimdLevel {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != UNINIT {
        return SimdLevel::from_u8(v);
    }
    let level = detect_level();
    ACTIVE.store(level as u8, Ordering::Relaxed);
    match level {
        SimdLevel::Scalar => htmpll_obs::counter!("num", "simd.active.scalar").inc(),
        SimdLevel::Avx2 => htmpll_obs::counter!("num", "simd.active.avx2").inc(),
        SimdLevel::Neon => htmpll_obs::counter!("num", "simd.active.neon").inc(),
    }
    level
}

/// Forces the active backend (clamped to what the CPU supports) and
/// returns the previous one. Intended for tests and benches comparing
/// backends; safe to flip at any time because every backend produces
/// bitwise-identical results.
pub fn set_active_level(level: SimdLevel) -> SimdLevel {
    let prev = active_level();
    let level = if level.supported() {
        level
    } else {
        SimdLevel::Scalar
    };
    ACTIVE.store(level as u8, Ordering::Relaxed);
    prev
}

macro_rules! dispatch {
    ($level:expr, $name:ident ( $($arg:expr),* $(,)? )) => {
        match $level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `SimdLevel::Avx2` is only ever active or passed
            // through `*_with` after `supported()` confirmed AVX2.
            SimdLevel::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above for NEON.
            SimdLevel::Neon => unsafe { neon::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// Clamps an explicitly requested backend to what the CPU supports.
fn clamp(level: SimdLevel) -> SimdLevel {
    if level.supported() {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// `dst[i] -= m · src[i]` over split planes — the banded-LU elimination
/// inner kernel (row AXPY) and the lane-blocked solve update.
///
/// # Panics
///
/// All four slices must share one length.
pub fn caxpy_sub(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    caxpy_sub_with(active_level(), dst_re, dst_im, src_re, src_im, m);
}

/// [`caxpy_sub`] with an explicit backend (clamped to hardware).
pub fn caxpy_sub_with(
    level: SimdLevel,
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    assert!(
        dst_re.len() == dst_im.len()
            && dst_re.len() == src_re.len()
            && dst_re.len() == src_im.len(),
        "caxpy_sub plane length mismatch"
    );
    dispatch!(clamp(level), caxpy_sub(dst_re, dst_im, src_re, src_im, m));
}

/// [`caxpy_sub`] that leaves `dst[i]` unchanged where `src[i] == 0` —
/// the forward-solve zero-skip, applied per lane.
///
/// # Panics
///
/// All four slices must share one length.
pub fn caxpy_sub_masked(
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    caxpy_sub_masked_with(active_level(), dst_re, dst_im, src_re, src_im, m);
}

/// [`caxpy_sub_masked`] with an explicit backend (clamped to hardware).
pub fn caxpy_sub_masked_with(
    level: SimdLevel,
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    src_re: &[f64],
    src_im: &[f64],
    m: Complex,
) {
    assert!(
        dst_re.len() == dst_im.len()
            && dst_re.len() == src_re.len()
            && dst_re.len() == src_im.len(),
        "caxpy_sub_masked plane length mismatch"
    );
    dispatch!(
        clamp(level),
        caxpy_sub_masked(dst_re, dst_im, src_re, src_im, m)
    );
}

/// `dst[i] /= d` over split planes (uniform denominator, Smith's
/// algorithm) — the lane-blocked back-substitution pivot divide.
///
/// # Panics
///
/// Both planes must share one length.
pub fn cdiv_assign(dst_re: &mut [f64], dst_im: &mut [f64], d: Complex) {
    cdiv_assign_with(active_level(), dst_re, dst_im, d);
}

/// [`cdiv_assign`] with an explicit backend (clamped to hardware).
pub fn cdiv_assign_with(level: SimdLevel, dst_re: &mut [f64], dst_im: &mut [f64], d: Complex) {
    assert_eq!(
        dst_re.len(),
        dst_im.len(),
        "cdiv_assign plane length mismatch"
    );
    dispatch!(clamp(level), cdiv_assign(dst_re, dst_im, d));
}

/// One radix-2 butterfly pass: `t = v[i]·w[i]; u[i] += t; v[i] = u −
/// t` over split planes.
///
/// # Panics
///
/// All six slices must share one length.
pub fn butterfly(
    u_re: &mut [f64],
    u_im: &mut [f64],
    v_re: &mut [f64],
    v_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    butterfly_with(active_level(), u_re, u_im, v_re, v_im, w_re, w_im);
}

/// [`butterfly`] with an explicit backend (clamped to hardware).
#[allow(clippy::too_many_arguments)]
pub fn butterfly_with(
    level: SimdLevel,
    u_re: &mut [f64],
    u_im: &mut [f64],
    v_re: &mut [f64],
    v_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    let n = u_re.len();
    assert!(
        u_im.len() == n && v_re.len() == n && v_im.len() == n && w_re.len() == n && w_im.len() == n,
        "butterfly plane length mismatch"
    );
    dispatch!(clamp(level), butterfly(u_re, u_im, v_re, v_im, w_re, w_im));
}

/// `out[i] += d[i] · x[i]` with the diagonal in split planes and the
/// vectors interleaved — one diagonal pass of the [`crate::BandMat`]
/// mat-vec.
///
/// # Panics
///
/// All four operands must share one length.
pub fn band_diag_madd(out: &mut [Complex], d_re: &[f64], d_im: &[f64], x: &[Complex]) {
    band_diag_madd_with(active_level(), out, d_re, d_im, x);
}

/// [`band_diag_madd`] with an explicit backend (clamped to hardware).
pub fn band_diag_madd_with(
    level: SimdLevel,
    out: &mut [Complex],
    d_re: &[f64],
    d_im: &[f64],
    x: &[Complex],
) {
    let n = out.len();
    assert!(
        d_re.len() == n && d_im.len() == n && x.len() == n,
        "band_diag_madd length mismatch"
    );
    dispatch!(clamp(level), band_diag_madd(out, d_re, d_im, x));
}

/// `out[i] += c · x[i]` over split re/im planes — one diagonal pass of
/// the banded-Toeplitz mat-vec. Callers convert to SoA once per
/// mat-vec so every diagonal pass is permute-free plane arithmetic.
///
/// # Panics
///
/// All four plane slices must share one length.
pub fn cmul_bcast_add(
    out_re: &mut [f64],
    out_im: &mut [f64],
    c: Complex,
    x_re: &[f64],
    x_im: &[f64],
) {
    cmul_bcast_add_with(active_level(), out_re, out_im, c, x_re, x_im);
}

/// [`cmul_bcast_add`] with an explicit backend (clamped to hardware).
pub fn cmul_bcast_add_with(
    level: SimdLevel,
    out_re: &mut [f64],
    out_im: &mut [f64],
    c: Complex,
    x_re: &[f64],
    x_im: &[f64],
) {
    assert!(
        out_re.len() == out_im.len() && out_re.len() == x_re.len() && out_re.len() == x_im.len(),
        "cmul_bcast_add length mismatch"
    );
    dispatch!(clamp(level), cmul_bcast_add(out_re, out_im, c, x_re, x_im));
}

/// `dst[i] = r[i] · dst[i]` over interleaved slices — the per-row
/// scaling pass of the VCO banded-Toeplitz mat-vec.
///
/// # Panics
///
/// `dst` and `r` must share one length.
pub fn cmul_pairwise(dst: &mut [Complex], r: &[Complex]) {
    cmul_pairwise_with(active_level(), dst, r);
}

/// [`cmul_pairwise`] with an explicit backend (clamped to hardware).
pub fn cmul_pairwise_with(level: SimdLevel, dst: &mut [Complex], r: &[Complex]) {
    assert_eq!(dst.len(), r.len(), "cmul_pairwise length mismatch");
    dispatch!(clamp(level), cmul_pairwise(dst, r));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_plane(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
    }

    #[test]
    fn detection_is_cached_and_overridable() {
        let first = active_level();
        assert_eq!(active_level(), first);
        let prev = set_active_level(SimdLevel::Scalar);
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_active_level(prev);
        assert_eq!(active_level(), prev);
        assert!(SimdLevel::Scalar.supported());
        // hardware_level is one of the three names.
        assert!(["scalar", "avx2", "neon"].contains(&hardware_level().name()));
    }

    #[test]
    fn unsupported_level_clamps_to_scalar() {
        // At most one vector ISA exists per arch, so the other one must
        // clamp; on a scalar-only host both do.
        let foreign = if cfg!(target_arch = "x86_64") {
            SimdLevel::Neon
        } else {
            SimdLevel::Avx2
        };
        let prev = set_active_level(foreign);
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_active_level(prev);
    }

    #[test]
    fn kernels_match_scalar_bitwise_on_random_data() {
        let hw = hardware_level();
        let mut rng = Rng::seed_from_u64(0xDEC0DE);
        for n in [0usize, 1, 3, 4, 5, 8, 17, 33] {
            let m = Complex::new(rng.uniform(), rng.uniform());
            let src_re = rand_plane(&mut rng, n);
            let src_im = rand_plane(&mut rng, n);
            let base_re = rand_plane(&mut rng, n);
            let base_im = rand_plane(&mut rng, n);

            let mut a_re = base_re.clone();
            let mut a_im = base_im.clone();
            caxpy_sub_with(SimdLevel::Scalar, &mut a_re, &mut a_im, &src_re, &src_im, m);
            let mut b_re = base_re.clone();
            let mut b_im = base_im.clone();
            caxpy_sub_with(hw, &mut b_re, &mut b_im, &src_re, &src_im, m);
            assert_eq!(bits(&a_re), bits(&b_re), "caxpy_sub re n={n}");
            assert_eq!(bits(&a_im), bits(&b_im), "caxpy_sub im n={n}");

            let mut a_re = base_re.clone();
            let mut a_im = base_im.clone();
            cdiv_assign_with(SimdLevel::Scalar, &mut a_re, &mut a_im, m);
            let mut b_re = base_re.clone();
            let mut b_im = base_im.clone();
            cdiv_assign_with(hw, &mut b_re, &mut b_im, m);
            assert_eq!(bits(&a_re), bits(&b_re), "cdiv re n={n}");
            assert_eq!(bits(&a_im), bits(&b_im), "cdiv im n={n}");
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
