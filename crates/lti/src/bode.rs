//! Bode (frequency-response) sweeps with phase unwrapping.
//!
//! Works on any frequency response `f(ω) → ℂ`, not just rational
//! [`Tf`]s — the same sweep machinery later serves the *effective*
//! open-loop gain `λ(jω)` of the time-varying PLL model, which is not a
//! rational function.
//!
//! ```
//! use htmpll_lti::{bode_sweep, Tf};
//! use htmpll_num::optim::log_grid;
//!
//! let h = Tf::integrator();
//! let pts = bode_sweep(|w| h.eval_jw(w), &log_grid(0.1, 10.0, 5));
//! assert!((pts[2].mag_db - 0.0).abs() < 1e-9); // |1/jω| = 1 at ω = 1
//! assert!((pts[2].phase_deg + 90.0).abs() < 1e-9);
//! ```

use crate::tf::Tf;
use htmpll_num::Complex;

/// One sample of a frequency-response sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodePoint {
    /// Angular frequency in rad/s.
    pub omega: f64,
    /// Complex response at `jω`.
    pub response: Complex,
    /// Magnitude in dB, `20·log₁₀|H|`.
    pub mag_db: f64,
    /// Unwrapped phase in degrees (continuous along the sweep).
    pub phase_deg: f64,
}

/// Converts a linear magnitude to dB.
#[inline]
pub fn to_db(mag: f64) -> f64 {
    20.0 * mag.log10()
}

/// Sweeps a frequency response over `grid`, unwrapping the phase so it is
/// continuous from point to point (jumps larger than 180° are folded).
pub fn bode_sweep<F: FnMut(f64) -> Complex>(mut f: F, grid: &[f64]) -> Vec<BodePoint> {
    let mut out = Vec::with_capacity(grid.len());
    let mut prev_phase: Option<f64> = None;
    for &w in grid {
        let h = f(w);
        let mut phase = h.arg().to_degrees();
        if let Some(p) = prev_phase {
            while phase - p > 180.0 {
                phase -= 360.0;
            }
            while phase - p < -180.0 {
                phase += 360.0;
            }
        }
        prev_phase = Some(phase);
        out.push(BodePoint {
            omega: w,
            response: h,
            mag_db: to_db(h.abs()),
            phase_deg: phase,
        });
    }
    out
}

/// Convenience sweep for rational transfer functions.
pub fn bode_tf(tf: &Tf, grid: &[f64]) -> Vec<BodePoint> {
    bode_sweep(|w| tf.eval_jw(w), grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_num::optim::log_grid;
    use htmpll_num::Poly;

    #[test]
    fn db_conversion() {
        assert!((to_db(10.0) - 20.0).abs() < 1e-12);
        assert!((to_db(0.5) + 6.020_599_913_279_624).abs() < 1e-12);
    }

    #[test]
    fn first_order_lowpass_asymptotes() {
        let h = Tf::first_order_lowpass(1.0);
        let pts = bode_tf(&h, &log_grid(1e-3, 1e3, 61));
        // DC: 0 dB, 0°; far above corner: −20 dB/dec, −90°.
        assert!(pts[0].mag_db.abs() < 0.01);
        assert!(pts[0].phase_deg.abs() < 0.1);
        let last = pts.last().unwrap();
        assert!((last.phase_deg + 90.0).abs() < 0.1);
        // 3 decades above corner: ≈ −60 dB.
        assert!((last.mag_db + 60.0).abs() < 0.1);
    }

    #[test]
    fn phase_unwrap_through_double_integrator_with_delay_like_lag() {
        // 1/s² · 1/(s+1)²: total phase runs from −180° to −360°; raw
        // atan2 would wrap, the sweep must not.
        let den = &Poly::new(vec![0.0, 0.0, 1.0]) * &Poly::from_real_roots(&[-1.0, -1.0]);
        let h = Tf::new(Poly::constant(1.0), den).unwrap();
        let pts = bode_tf(&h, &log_grid(1e-2, 1e2, 200));
        // The first sample has no unwrap reference: atan2 places the
        // near-−180° start at +180° − ε. The sweep then descends a full
        // 180° without wrapping, ending near 0° in this convention.
        assert!((pts[0].phase_deg - 180.0).abs() < 2.0);
        let last = pts.last().unwrap();
        assert!(
            last.phase_deg.abs() < 2.0,
            "unwrapped end phase {}",
            last.phase_deg
        );
        // Monotone decreasing phase for this all-pole-with-no-zero system.
        for w in pts.windows(2) {
            assert!(w[1].phase_deg <= w[0].phase_deg + 1e-9);
        }
    }

    #[test]
    fn sweep_preserves_grid() {
        let g = log_grid(0.1, 10.0, 7);
        let pts = bode_sweep(|w| Complex::from_re(1.0 + w), &g);
        assert_eq!(pts.len(), 7);
        for (p, w) in pts.iter().zip(&g) {
            assert_eq!(p.omega, *w);
            assert!((p.response.re - (1.0 + w)).abs() < 1e-15);
        }
    }
}
