//! Deterministic reference-spur prediction.
//!
//! A constant leakage current on the loop-filter node forces the locked
//! charge pump to deliver one compensating pulse per reference period.
//! That periodic correction is a disturbance current with energy at
//! every reference harmonic; the loop shapes it into phase sidebands —
//! **reference spurs** — at `kω₀`.
//!
//! In the HTM picture the disturbance enters through the diagonal path
//! `P_d = H̃_VCO·Z̃` and the closed loop responds through
//! `(I + G̃)⁻¹ = I − Ṽ𝟙ᵀ/(1+λ)`. Taking the DC disturbance limit
//! `s → 0` (where `A/(1+λ) → 1` for a type-2 loop) collapses the `k`-th
//! sideband to the remarkably compact closed form
//!
//! ```text
//! θ̃_k = −A(jkω₀) · θ_static,     θ_static = I_leak·T/I_cp
//! ```
//!
//! — the static phase offset re-radiated through the open-loop gain at
//! the spur frequency. The behavioral simulator confirms this to better
//! than 1 % (integration test `leakage_spur_prediction_matches_sim`).
//!
//! ```
//! use htmpll_core::{spurs::LeakageSpurs, PllDesign, PllModel};
//!
//! let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let spurs = LeakageSpurs::new(&model, 1e-3 * model.design().icp());
//! // The first reference spur dominates the higher harmonics.
//! assert!(spurs.sideband(1).abs() > spurs.sideband(2).abs());
//! ```

use crate::closed_loop::PllModel;
use htmpll_num::Complex;

/// One predicted reference-spur line, as produced by
/// [`LeakageSpurs::scan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpurLine {
    /// Reference-harmonic index of the line (at `k·ω₀`).
    pub k: i64,
    /// Complex sideband amplitude `θ̃_k` (time units).
    pub sideband: Complex,
    /// Spur level at the synthesizer output, dBc.
    pub level_dbc: f64,
}

/// Analytic leakage-induced reference spurs of a locked loop.
#[derive(Debug, Clone, Copy)]
pub struct LeakageSpurs<'a> {
    model: &'a PllModel,
    i_leak: f64,
}

impl<'a> LeakageSpurs<'a> {
    /// Creates the spur model for a leakage current `i_leak` (A).
    /// Accuracy requires the correction pulse to stay narrow:
    /// `|i_leak| ≪ I_cp`.
    pub fn new(model: &'a PllModel, i_leak: f64) -> Self {
        LeakageSpurs { model, i_leak }
    }

    /// The static phase offset `θ = I_leak·T/I_cp` (time units) the loop
    /// parks at to cancel the leakage each period.
    pub fn static_offset(&self) -> f64 {
        self.i_leak / (self.model.design().icp() * self.model.design().f_ref())
    }

    /// Complex amplitude of the phase sideband at `+kω₀` (time units):
    /// `θ̃_k = −A(jkω₀)·θ_static` for `k ≠ 0`; the `k = 0` "sideband" is
    /// the static offset itself.
    ///
    /// The real waveform carries the conjugate pair, i.e. a tone of
    /// peak amplitude `2|θ̃_k|` at `kω₀`.
    pub fn sideband(&self, k: i64) -> Complex {
        if k == 0 {
            return Complex::from_re(self.static_offset());
        }
        let w0 = self.model.design().omega_ref();
        let a = self.model.open_loop().eval(Complex::from_im(k as f64 * w0));
        -a * self.static_offset()
    }

    /// One-sided power of the spur line at `kω₀` in the **time-unit
    /// phase** record (what a PSD of `θ(t)` integrates to across the
    /// line): `2·|θ̃_k|²`.
    pub fn line_power(&self, k: i64) -> f64 {
        let a = self.sideband(k).abs();
        2.0 * a * a
    }

    /// Spur level in dBc at the synthesizer **output**: the output
    /// phase in radians is `φ = 2π·f_out·θ`, and a phase tone of peak
    /// `β` rad makes sidebands `20·log₁₀(β/2)` below the carrier.
    pub fn level_dbc(&self, k: i64) -> f64 {
        let d = self.model.design();
        let f_out = d.divider() * d.f_ref();
        let beta = 2.0 * self.sideband(k).abs() * 2.0 * std::f64::consts::PI * f_out;
        20.0 * (beta / 2.0).log10()
    }

    /// Predicts the spur lines at `k·ω₀` for `k = 1..=k_max`.
    pub fn scan(&self, k_max: i64) -> Vec<SpurLine> {
        let _span =
            htmpll_obs::span_labeled("core", "sweep.spurs", || format!("n={}", k_max.max(0)));
        (1..=k_max)
            .map(|k| SpurLine {
                k,
                sideband: self.sideband(k),
                level_dbc: self.level_dbc(k),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;

    fn spur_fixture(ratio: f64, frac: f64) -> (PllModel, f64) {
        let d = PllDesign::reference_design(ratio).unwrap();
        let i_leak = frac * d.icp();
        (PllModel::builder(d).build().unwrap(), i_leak)
    }

    #[test]
    fn static_offset_formula() {
        let (m, i_leak) = spur_fixture(0.1, 1e-3);
        let s = LeakageSpurs::new(&m, i_leak);
        let t_ref = 1.0 / m.design().f_ref();
        assert!((s.static_offset() - 1e-3 * t_ref).abs() < 1e-15);
    }

    #[test]
    fn sidebands_scale_linearly_with_leakage() {
        let (m, _) = spur_fixture(0.1, 1e-3);
        let a = LeakageSpurs::new(&m, 1e-3 * m.design().icp()).sideband(1);
        let b = LeakageSpurs::new(&m, 3e-3 * m.design().icp()).sideband(1);
        assert!((b / a - Complex::from_re(3.0)).abs() < 1e-12);
        // Power: 20 dB per decade of leakage.
        let pa = LeakageSpurs::new(&m, 1e-3 * m.design().icp()).line_power(1);
        let pb = LeakageSpurs::new(&m, 1e-2 * m.design().icp()).line_power(1);
        assert!((pb / pa - 100.0).abs() < 1e-9);
    }

    #[test]
    fn harmonics_follow_open_loop_rolloff() {
        let (m, i_leak) = spur_fixture(0.15, 1e-3);
        let s = LeakageSpurs::new(&m, i_leak);
        let w0 = m.design().omega_ref();
        for k in 1..=3i64 {
            let expect = m.open_loop().eval_jw(k as f64 * w0).abs() * s.static_offset();
            assert!((s.sideband(k).abs() - expect).abs() < 1e-15);
        }
        // A(jω) falls with frequency past crossover ⇒ spur harmonics fall.
        assert!(s.sideband(1).abs() > s.sideband(2).abs());
        assert!(s.sideband(2).abs() > s.sideband(3).abs());
    }

    #[test]
    fn dbc_level_is_finite_and_small_signal() {
        let (m, i_leak) = spur_fixture(0.1, 1e-4);
        let s = LeakageSpurs::new(&m, i_leak);
        let dbc = s.level_dbc(1);
        assert!(dbc.is_finite());
        assert!(dbc < -20.0, "{dbc}"); // comfortably below the carrier
    }

    #[test]
    fn zero_band_returns_offset() {
        let (m, i_leak) = spur_fixture(0.1, 1e-3);
        let s = LeakageSpurs::new(&m, i_leak);
        assert_eq!(s.sideband(0).re, s.static_offset());
        assert_eq!(s.sideband(0).im, 0.0);
    }

    #[test]
    fn scan_matches_pointwise() {
        let (m, i_leak) = spur_fixture(0.1, 1e-3);
        let s = LeakageSpurs::new(&m, i_leak);
        let lines = s.scan(5);
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert_eq!(line.sideband, s.sideband(line.k));
            assert_eq!(line.level_dbc.to_bits(), s.level_dbc(line.k).to_bits());
        }
        assert!(s.scan(0).is_empty());
    }
}
