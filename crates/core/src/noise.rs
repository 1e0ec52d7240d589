//! Phase-noise propagation through the time-varying loop.
//!
//! The HTM view makes noise folding explicit: the sampling PFD aliases
//! noise from **every** band `ω + mω₀` into the baseband output. For the
//! rank-one loop:
//!
//! * Reference noise entering band `m` reaches baseband through
//!   `H_{0,m}(jω) = A(jω)/(1 + λ(jω))` — identical for every `m`, so the
//!   folded reference noise is `|H₀₀|²·Σ_m S_ref(ω + mω₀)`.
//! * VCO self-noise passes through the *error* operator
//!   `(I + G̃)⁻¹ = I − Ṽ𝟙ᵀ/(1+λ)`: baseband-to-baseband gain
//!   `1 − A(jω)/(1+λ)` plus folded terms `−A(jω)/(1+λ)` from `m ≠ 0`.
//!
//! PSDs are one-sided, in rad²/Hz, given as functions of the *absolute*
//! offset frequency in rad/s.
//!
//! ```
//! use htmpll_core::{NoiseModel, PllDesign, PllModel};
//!
//! let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let noise = NoiseModel::new(&m, 8);
//! // Flat reference noise: in-band output follows it (|H00|² ≈ 1).
//! let s_out = noise.output_psd(0.05, &|_| 1e-12, &|_| 0.0);
//! assert!(s_out > 0.5e-12);
//! ```

use crate::closed_loop::PllModel;
use htmpll_num::quad::integrate_log;
use htmpll_num::Complex;

/// Noise propagation through a PLL model, with aliasing folding taken to
/// `±fold_bands` reference harmonics.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel<'a> {
    model: &'a PllModel,
    fold_bands: usize,
}

impl<'a> NoiseModel<'a> {
    /// Creates the noise model. `fold_bands` controls how many aliases
    /// are summed on each side (8 captures >99 % of folded white noise
    /// for the loop shapes in this workspace).
    pub fn new(model: &'a PllModel, fold_bands: usize) -> Self {
        NoiseModel { model, fold_bands }
    }

    /// Baseband transfer from any reference band to the output,
    /// `A(jω)/(1 + λ(jω))`.
    pub fn reference_gain(&self, omega: f64) -> Complex {
        self.model.h00(omega)
    }

    /// Baseband-to-baseband VCO noise gain `1 − A(jω)/(1 + λ(jω))`.
    pub fn vco_gain_baseband(&self, omega: f64) -> Complex {
        Complex::ONE - self.model.h00(omega)
    }

    /// Folded VCO noise gain from band `m ≠ 0`: `−A(jω)/(1 + λ(jω))`.
    pub fn vco_gain_folded(&self, omega: f64) -> Complex {
        -self.model.h00(omega)
    }

    /// Output phase PSD at offset `omega` (rad/s) given one-sided input
    /// PSDs for the reference and the free-running VCO.
    ///
    /// Folding: both sources are summed over bands `|m| ≤ fold_bands`
    /// with the band-`m` input evaluated at `|ω + mω₀|`.
    pub fn output_psd(
        &self,
        omega: f64,
        ref_psd: &dyn Fn(f64) -> f64,
        vco_psd: &dyn Fn(f64) -> f64,
    ) -> f64 {
        let w0 = self.model.design().omega_ref();
        // One closed-loop evaluation serves all three gains (see
        // `reference_gain`, `vco_gain_baseband`, `vco_gain_folded`).
        let h = self.model.h00(omega);
        let h00_sq = h.norm_sqr();
        let vco_bb_sq = (Complex::ONE - h).norm_sqr();
        let vco_fold_sq = (-h).norm_sqr();

        let mut acc = h00_sq * ref_psd(omega.abs()) + vco_bb_sq * vco_psd(omega.abs());
        for m in 1..=self.fold_bands as i64 {
            for sign in [-1.0, 1.0] {
                let shifted = (omega + sign * m as f64 * w0).abs();
                acc += h00_sq * ref_psd(shifted);
                acc += vco_fold_sq * vco_psd(shifted);
            }
        }
        acc
    }

    /// LTI-approximation output PSD (no folding, `λ ≈ A`): what a
    /// textbook analysis would predict.
    pub fn output_psd_lti(
        &self,
        omega: f64,
        ref_psd: &dyn Fn(f64) -> f64,
        vco_psd: &dyn Fn(f64) -> f64,
    ) -> f64 {
        let h = self.model.h00_lti(omega);
        let e = Complex::ONE - h;
        h.norm_sqr() * ref_psd(omega.abs()) + e.norm_sqr() * vco_psd(omega.abs())
    }

    /// Integrated phase noise (rad², one-sided) over `[w_lo, w_hi]`
    /// rad/s; take `sqrt` for RMS phase jitter in radians.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < w_lo < w_hi`.
    pub fn integrated_phase_noise(
        &self,
        w_lo: f64,
        w_hi: f64,
        ref_psd: &dyn Fn(f64) -> f64,
        vco_psd: &dyn Fn(f64) -> f64,
    ) -> f64 {
        // PSDs are per Hz; integrate over Hz = rad/s / 2π.
        integrate_log(
            |w| self.output_psd(w, ref_psd, vco_psd) / (2.0 * std::f64::consts::PI),
            w_lo,
            w_hi,
            1e-12,
        )
    }
}

/// Standard one-sided phase-noise PSD shapes (rad²/Hz as a function of
/// offset frequency in rad/s), composable into source models for
/// [`NoiseModel`].
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseShape {
    /// Flat noise floor.
    White {
        /// PSD level (rad²/Hz).
        level: f64,
    },
    /// Power law `level·(w_ref/ω)^exponent` — exponent 2 is white FM
    /// (free-running oscillator), 3 is flicker FM.
    PowerLaw {
        /// PSD at the reference offset (rad²/Hz).
        level_at_ref: f64,
        /// Reference offset (rad/s).
        w_ref: f64,
        /// Slope exponent (−10·exponent dB/decade).
        exponent: i32,
    },
    /// Leeson oscillator model:
    /// `floor·(1 + flicker_corner/ω)·(1 + (half_bw/ω)²)` — a thermal
    /// floor with a 1/f corner, shaped by the resonator half-bandwidth.
    Leeson {
        /// Far-out thermal floor (rad²/Hz).
        floor: f64,
        /// Flicker corner (rad/s).
        flicker_corner: f64,
        /// Resonator half-bandwidth `ω₀/(2Q)` (rad/s).
        half_bw: f64,
    },
    /// Sum of component shapes.
    Sum(Vec<NoiseShape>),
}

impl NoiseShape {
    /// Evaluates the one-sided PSD at offset `omega` (rad/s). A small
    /// floor on `|omega|` guards the 1/ω^k shapes against the DC bin.
    pub fn psd(&self, omega: f64) -> f64 {
        let w = omega.abs().max(1e-12);
        match self {
            NoiseShape::White { level } => *level,
            NoiseShape::PowerLaw {
                level_at_ref,
                w_ref,
                exponent,
            } => level_at_ref * (w_ref / w).powi(*exponent),
            NoiseShape::Leeson {
                floor,
                flicker_corner,
                half_bw,
            } => floor * (1.0 + flicker_corner / w) * (1.0 + (half_bw / w).powi(2)),
            NoiseShape::Sum(parts) => parts.iter().map(|p| p.psd(w)).sum(),
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use crate::closed_loop::PllModel;
    use crate::design::PllDesign;

    #[test]
    fn white_is_flat() {
        let s = NoiseShape::White { level: 3.0 };
        assert_eq!(s.psd(0.1), 3.0);
        assert_eq!(s.psd(100.0), 3.0);
    }

    #[test]
    fn power_law_slope() {
        let s = NoiseShape::PowerLaw {
            level_at_ref: 1e-10,
            w_ref: 1.0,
            exponent: 2,
        };
        assert!((s.psd(1.0) - 1e-10).abs() < 1e-22);
        // −20 dB/decade in PSD.
        assert!((s.psd(10.0) / s.psd(1.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn leeson_asymptotes() {
        let s = NoiseShape::Leeson {
            floor: 1e-12,
            flicker_corner: 0.01,
            half_bw: 1.0,
        };
        // Far out: the floor.
        assert!((s.psd(1e4) / 1e-12 - 1.0).abs() < 1e-3);
        // Inside the resonator bandwidth: ∝ 1/ω² above the flicker corner.
        let ratio = s.psd(0.05) / s.psd(0.1);
        assert!((ratio - 4.0).abs() < 0.5, "{ratio}");
    }

    #[test]
    fn sum_composes() {
        let s = NoiseShape::Sum(vec![
            NoiseShape::White { level: 1.0 },
            NoiseShape::White { level: 2.0 },
        ]);
        assert_eq!(s.psd(5.0), 3.0);
    }

    #[test]
    fn shapes_drive_noise_model() {
        let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let noise = NoiseModel::new(&model, 4);
        let ref_shape = NoiseShape::White { level: 1e-12 };
        let vco_shape = NoiseShape::PowerLaw {
            level_at_ref: 1e-12,
            w_ref: 1.0,
            exponent: 2,
        };
        let s = noise.output_psd(0.2, &|w| ref_shape.psd(w), &|w| vco_shape.psd(w));
        assert!(s.is_finite() && s > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;

    fn noise_fixture(ratio: f64) -> PllModel {
        PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn in_band_tracks_reference_noise() {
        let m = noise_fixture(0.1);
        let n = NoiseModel::new(&m, 8);
        // Well inside the loop bandwidth, reference noise passes ≈ 1:1
        // (H00 ≈ 1) and VCO noise is suppressed.
        let w = 0.01;
        let ref_only = n.output_psd(w, &|_| 1.0, &|_| 0.0);
        assert!(ref_only > 0.9, "{ref_only}");
        let vco_only = n.output_psd(w, &|_| 0.0, &|_| 1.0);
        // The baseband VCO term is tiny; folded terms contribute
        // |H00|²·(2·fold_bands)·S which is NOT small for flat VCO noise —
        // use a rolled-off VCO PSD shape for the suppression check.
        let vco_shaped = n.output_psd(w, &|_| 0.0, &|f| 1.0 / (1.0 + f * f));
        assert!(vco_shaped < 0.2, "{vco_shaped}");
        let _ = vco_only;
    }

    #[test]
    fn out_of_band_vco_noise_passes() {
        let m = noise_fixture(0.1);
        let n = NoiseModel::new(&m, 8);
        // Far above the loop bandwidth (but inside the first band):
        // H00 → 0, so VCO noise passes and reference noise is rejected.
        let w = 4.5;
        let vco_only = n.output_psd(w, &|_| 0.0, &|f| {
            if (f - w).abs() < 1e-6 {
                1.0
            } else {
                0.0
            }
        });
        assert!((vco_only - n.vco_gain_baseband(w).norm_sqr()).abs() < 1e-9);
        assert!(vco_only > 0.5, "{vco_only}");
    }

    #[test]
    fn folding_adds_reference_noise_power() {
        let m = noise_fixture(0.3);
        let n0 = NoiseModel::new(&m, 0);
        let n8 = NoiseModel::new(&m, 8);
        let w = 0.05;
        let flat = |_: f64| 1.0;
        let without = n0.output_psd(w, &flat, &|_| 0.0);
        let with = n8.output_psd(w, &flat, &|_| 0.0);
        // Folding multiplies flat reference noise by (1 + 2·fold_bands).
        assert!((with / without - 17.0).abs() < 1e-9, "{}", with / without);
    }

    #[test]
    fn lti_underestimates_folded_noise() {
        let m = noise_fixture(0.3);
        let n = NoiseModel::new(&m, 8);
        let w = 0.05;
        let flat = |_: f64| 1e-12;
        let tv = n.output_psd(w, &flat, &|_| 0.0);
        let lti = n.output_psd_lti(w, &flat, &|_| 0.0);
        assert!(tv > 5.0 * lti, "tv {tv} vs lti {lti}");
    }

    #[test]
    fn integrated_noise_positive_and_finite() {
        let m = noise_fixture(0.2);
        let n = NoiseModel::new(&m, 4);
        let j = n.integrated_phase_noise(1e-3, 2.0, &|_| 1e-9, &|f| 1e-9 / (f * f + 1e-6));
        assert!(j.is_finite() && j > 0.0, "{j}");
    }
}
