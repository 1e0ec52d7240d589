//! PLL design description.
//!
//! [`PllDesign`] captures the architecture of Fig. 1/Fig. 3 of the paper:
//! a reference at `f_ref`, a sampling (tri-state, charge-pump) PFD, a
//! passive loop filter `Z_LF(s)`, and a VCO with gain `K_vco` behind an
//! optional `÷N` prescaler (the paper folds the prescaler into the VCO
//! model; so do we — the effective integrator gain is `K_vco/N`).
//!
//! The continuous-time LTI open-loop gain is (paper eq. 35)
//!
//! ```text
//! A(s) = (ω₀/2π) · I_cp · Z_LF(s) · (K_vco/N) / s
//! ```
//!
//! with the `ω₀/2π = 1/T` factor contributed by the sampling PFD model.
//!
//! ```
//! use htmpll_core::PllDesign;
//!
//! // The paper's "typical" Fig.-5 loop with ω_UG/ω₀ = 0.1.
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let a = d.open_loop_gain();
//! // Unity gain lands at the normalized ω_UG = 1 rad/s.
//! assert!((a.eval_jw(d.omega_ug_nominal()).abs() - 1.0).abs() < 1e-9);
//! ```

use crate::error::{positive, CoreError};
use htmpll_lti::{ChargePumpFilter2, ChargePumpFilter3, Tf};
use std::fmt;

/// The loop-filter network of a design.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopFilter {
    /// Second-order passive charge-pump filter (series RC ∥ shunt C).
    SecondOrder(ChargePumpFilter2),
    /// Third-order filter with an extra smoothing section.
    ThirdOrder(ChargePumpFilter3),
    /// Arbitrary transimpedance `Z(s)` in V/A (advanced use).
    Custom(Tf),
}

impl LoopFilter {
    /// The transimpedance `Z(s)` seen by the charge pump.
    pub fn impedance(&self) -> Tf {
        match self {
            LoopFilter::SecondOrder(f) => f.impedance(),
            LoopFilter::ThirdOrder(f) => f.transimpedance(),
            LoopFilter::Custom(tf) => tf.clone(),
        }
    }
}

/// A complete charge-pump PLL design.
#[derive(Debug, Clone, PartialEq)]
pub struct PllDesign {
    f_ref: f64,
    icp: f64,
    kvco: f64,
    divider: f64,
    filter: LoopFilter,
    /// Design-target unity-gain frequency (NaN when not a reference
    /// design).
    nominal_wug: f64,
}

impl PllDesign {
    /// Starts a builder.
    pub fn builder() -> PllDesignBuilder {
        PllDesignBuilder::default()
    }

    /// Reference frequency in Hz.
    pub fn f_ref(&self) -> f64 {
        self.f_ref
    }

    /// Reference angular frequency `ω₀ = 2π·f_ref` in rad/s — the
    /// fundamental of every HTM in the loop.
    pub fn omega_ref(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.f_ref
    }

    /// Charge-pump current in A.
    pub fn icp(&self) -> f64 {
        self.icp
    }

    /// VCO gain in rad/s per V (before the divider).
    pub fn kvco(&self) -> f64 {
        self.kvco
    }

    /// Feedback divider ratio `N`.
    pub fn divider(&self) -> f64 {
        self.divider
    }

    /// The loop filter.
    pub fn filter(&self) -> &LoopFilter {
        &self.filter
    }

    /// Effective VCO integrator gain in the paper's time-unit phase
    /// convention: `v₀ = K_vco/(N·ω₀)` (prescaler folded in). With this
    /// `v₀`, the open-loop gain reduces to the textbook charge-pump form
    /// `A(s) = I_cp·K_vco·Z(s)/(2πNs)` — the sampler's `ω₀/2π` factor
    /// cancels the reference period hidden in `v₀`.
    pub fn v0(&self) -> f64 {
        self.kvco / (self.divider * self.omega_ref())
    }

    /// Loop-filter transfer function `H_LF(s) = I_cp·Z_LF(s)` (eq. 21).
    pub fn loop_filter_tf(&self) -> Tf {
        self.filter.impedance().scale(self.icp)
    }

    /// Continuous-time LTI open-loop gain
    /// `A(s) = (ω₀/2π)·H_LF(s)·v₀/s` (eq. 35).
    pub fn open_loop_gain(&self) -> Tf {
        let factor = self.omega_ref() / (2.0 * std::f64::consts::PI) * self.v0();
        &self.loop_filter_tf().scale(factor) * &Tf::integrator()
    }

    /// Nominal (design-target) unity-gain frequency of `A(jω)`. This is
    /// the value recorded at construction for reference designs; for
    /// builder-made designs it is measured from `A` lazily by the
    /// analysis layer instead, so here it is simply 1 for reference
    /// designs and unset (NaN) otherwise — use
    /// `analysis::analyze` for the measured value.
    pub fn omega_ug_nominal(&self) -> f64 {
        self.nominal_wug
    }

    /// Synthesizes a complete physical design for a target loop: given
    /// the reference, divider, VCO gain and desired crossover `ω_UG`
    /// (rad/s), places the stabilizing zero at `ω_UG/spread` and the
    /// high-frequency pole at `spread·ω_UG` (LTI phase margin
    /// `atan(spread) − atan(1/spread)`), sizes the filter around
    /// `c_total`, and solves the charge-pump current for
    /// `|A(jω_UG)| = 1` — the procedure a designer walks by hand.
    ///
    /// # Errors
    ///
    /// Rejects non-positive parameters or `spread <= 1`.
    pub fn synthesize(
        f_ref: f64,
        divider: f64,
        kvco: f64,
        omega_ug: f64,
        spread: f64,
        c_total: f64,
    ) -> Result<PllDesign, CoreError> {
        positive("f_ref", f_ref)?;
        positive("divider", divider)?;
        positive("kvco", kvco)?;
        positive("omega_ug", omega_ug)?;
        positive("c_total", c_total)?;
        if !(spread > 1.0 && spread.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "spread",
                value: spread,
            });
        }
        let wz = omega_ug / spread;
        let wp = spread * omega_ug;
        let filter = ChargePumpFilter2::from_pole_zero(wz, wp, c_total)?;
        // |A(jω)| = Icp·Kvco·|Z(jω)|/(2πN·ω); solve Icp at ω_UG.
        let z_mag = filter.impedance().eval_jw(omega_ug).abs();
        let icp = 2.0 * std::f64::consts::PI * divider * omega_ug / (kvco * z_mag);
        Ok(PllDesign {
            f_ref,
            icp,
            kvco,
            divider,
            filter: LoopFilter::SecondOrder(filter),
            nominal_wug: omega_ug,
        })
    }

    /// The paper's "typical loop design" (Fig. 5): open-loop gain with
    /// three poles (two at DC) and one zero, normalized so that the LTI
    /// unity-gain frequency is `ω_UG = 1 rad/s`, with the zero at
    /// `ω_UG/4` and the high-frequency pole at `4·ω_UG` (≈ 62° LTI phase
    /// margin). `omega_ug_ratio = ω_UG/ω₀` sets how fast the loop is
    /// relative to the reference — the paper sweeps this knob in
    /// Figs. 6–7.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite `omega_ug_ratio`.
    pub fn reference_design(omega_ug_ratio: f64) -> Result<PllDesign, CoreError> {
        PllDesign::reference_design_shaped(omega_ug_ratio, 4.0)
    }

    /// A generalized reference loop with adjustable zero/pole spread:
    /// the stabilizing zero sits at `ω_UG/spread` and the
    /// high-frequency pole at `spread·ω_UG`, so the LTI phase margin is
    /// `atan(spread) − atan(1/spread)` (e.g. spread 4 → 61.9°,
    /// spread 8 → 75.7°, spread 2 → 26.6°). Used by the loop-shape
    /// ablation: how the sampling stability limit moves with the design
    /// margin.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite inputs or `spread <= 1`.
    pub fn reference_design_shaped(
        omega_ug_ratio: f64,
        spread: f64,
    ) -> Result<PllDesign, CoreError> {
        positive("omega_ug_ratio", omega_ug_ratio)?;
        positive("spread", spread)?;
        if spread <= 1.0 {
            return Err(CoreError::InvalidParameter {
                name: "spread",
                value: spread,
            });
        }
        let wug = 1.0; // normalized unity-gain frequency, rad/s
        let wz = wug / spread;
        let wp = spread * wug;
        let omega0 = wug / omega_ug_ratio;
        let f_ref = omega0 / (2.0 * std::f64::consts::PI);

        // Z(s) ≈ (1 + s/ωz)/(s·C_t·(1 + s/ωp)); choose C_t = 1 F
        // (normalized units) and solve the remaining gain with I_cp so
        // |A(jω_UG)| = 1.
        let c_total = 1.0;
        let filter = ChargePumpFilter2::from_pole_zero(wz, wp, c_total)?;
        let kvco = 1.0;
        let divider = 1.0;

        // |A(jw)| = K·√(1+(w/ωz)²) / (w²·√(1+(w/ωp)²)) with
        // K = Icp·Kvco/(2π·N·C_t) (independent of ω₀ — sweeping the
        // ratio changes only the reference frequency, not the loop).
        let mag_shape =
            (1.0 + (wug / wz).powi(2)).sqrt() / (wug * wug * (1.0 + (wug / wp).powi(2)).sqrt());
        let k_needed = 1.0 / mag_shape;
        let icp = k_needed * 2.0 * std::f64::consts::PI * divider * c_total / kvco;

        Ok(PllDesign {
            f_ref,
            icp,
            kvco,
            divider,
            filter: LoopFilter::SecondOrder(filter),
            nominal_wug: wug,
        })
    }
}

impl fmt::Display for PllDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PllDesign(f_ref={:.3e} Hz, Icp={:.3e} A, Kvco={:.3e} rad/s/V, N={})",
            self.f_ref, self.icp, self.kvco, self.divider
        )
    }
}

/// Builder for [`PllDesign`].
#[derive(Debug, Clone, Default)]
pub struct PllDesignBuilder {
    f_ref: Option<f64>,
    icp: Option<f64>,
    kvco: Option<f64>,
    divider: Option<f64>,
    filter: Option<LoopFilter>,
}

impl PllDesignBuilder {
    /// Sets the reference frequency in Hz.
    pub fn f_ref(mut self, hz: f64) -> Self {
        self.f_ref = Some(hz);
        self
    }

    /// Sets the charge-pump current in A.
    pub fn icp(mut self, amps: f64) -> Self {
        self.icp = Some(amps);
        self
    }

    /// Sets the VCO gain in rad/s per V.
    pub fn kvco(mut self, rad_per_s_per_v: f64) -> Self {
        self.kvco = Some(rad_per_s_per_v);
        self
    }

    /// Sets the feedback divider ratio (defaults to 1).
    pub fn divider(mut self, n: f64) -> Self {
        self.divider = Some(n);
        self
    }

    /// Sets the loop filter.
    pub fn filter(mut self, filter: LoopFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Builds the design.
    ///
    /// # Errors
    ///
    /// Rejects missing or non-positive parameters.
    pub fn build(self) -> Result<PllDesign, CoreError> {
        let f_ref = positive("f_ref", self.f_ref.unwrap_or(0.0))?;
        let icp = positive("icp", self.icp.unwrap_or(0.0))?;
        let kvco = positive("kvco", self.kvco.unwrap_or(0.0))?;
        let divider = positive("divider", self.divider.unwrap_or(1.0))?;
        let filter = self.filter.ok_or(CoreError::InvalidParameter {
            name: "filter",
            value: f64::NAN,
        })?;
        Ok(PllDesign {
            f_ref,
            icp,
            kvco,
            divider,
            filter,
            nominal_wug: f64::NAN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_lti::stability_margins;

    #[test]
    fn reference_design_hits_unity_gain() {
        for ratio in [0.05, 0.1, 0.3, 0.5] {
            let d = PllDesign::reference_design(ratio).unwrap();
            let a = d.open_loop_gain();
            let m = stability_margins(|w| a.eval_jw(w), 1e-4, 1e3).unwrap();
            assert!(
                (m.omega_ug - 1.0).abs() < 1e-6,
                "ratio {ratio}: {}",
                m.omega_ug
            );
            // LTI phase margin of the ωz = ωug/4, ωp = 4ωug shape:
            // 180 − 180 + atan(4) − atan(1/4) ≈ 61.93°.
            let expect = 4.0f64.atan().to_degrees() - 0.25f64.atan().to_degrees();
            assert!((m.phase_margin_deg - expect).abs() < 1e-6);
            // ω₀ relates to the ratio.
            assert!((d.omega_ref() - 1.0 / ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn open_loop_pole_structure_matches_fig5() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let a = d.open_loop_gain();
        // 3 poles, two at DC; 1 zero.
        let poles = a.poles().unwrap();
        assert_eq!(poles.len(), 3);
        assert_eq!(poles.iter().filter(|p| p.abs() < 1e-9).count(), 2);
        let zeros = a.zeros().unwrap();
        assert_eq!(zeros.len(), 1);
        assert!((zeros[0].re + 0.25).abs() < 1e-9);
        assert!(a.is_strictly_proper());
        assert_eq!(a.relative_degree(), 2);
    }

    #[test]
    fn builder_roundtrip() {
        let filt = ChargePumpFilter2::new(1e3, 1e-9, 1e-10).unwrap();
        let d = PllDesign::builder()
            .f_ref(10e6)
            .icp(100e-6)
            .kvco(2.0 * std::f64::consts::PI * 50e6)
            .divider(64.0)
            .filter(LoopFilter::SecondOrder(filt))
            .build()
            .unwrap();
        assert_eq!(d.f_ref(), 10e6);
        assert_eq!(d.divider(), 64.0);
        assert!((d.omega_ref() - 2.0 * std::f64::consts::PI * 10e6).abs() < 1.0);
        assert!((d.v0() - d.kvco() / (64.0 * d.omega_ref())).abs() < 1e-9 * d.v0());
        // A(s) carries the 1/T factor.
        let a = d.open_loop_gain();
        assert!(a.is_strictly_proper());
    }

    #[test]
    fn builder_validation() {
        assert!(PllDesign::builder().build().is_err());
        let filt = ChargePumpFilter2::new(1e3, 1e-9, 1e-10).unwrap();
        let r = PllDesign::builder()
            .f_ref(-1.0)
            .icp(1e-6)
            .kvco(1e6)
            .filter(LoopFilter::SecondOrder(filt))
            .build();
        assert!(matches!(
            r,
            Err(CoreError::InvalidParameter { name: "f_ref", .. })
        ));
    }

    #[test]
    fn custom_filter_path() {
        let z = Tf::from_coeffs(vec![1.0, 2.0], vec![0.0, 1.0, 0.5]).unwrap();
        let d = PllDesign::builder()
            .f_ref(1e6)
            .icp(1e-4)
            .kvco(1e7)
            .filter(LoopFilter::Custom(z.clone()))
            .build()
            .unwrap();
        let hlf = d.loop_filter_tf();
        let s = htmpll_num::Complex::new(0.1, 2.0);
        assert!((hlf.eval(s) - z.eval(s) * 1e-4).abs() < 1e-12 * hlf.eval(s).abs());
    }

    #[test]
    fn display() {
        let d = PllDesign::reference_design(0.1).unwrap();
        assert!(format!("{d}").contains("f_ref"));
    }

    #[test]
    fn synthesize_hits_crossover_and_margin() {
        let wug = 2.0 * std::f64::consts::PI * 500e3;
        let d = PllDesign::synthesize(
            10e6,
            64.0,
            2.0 * std::f64::consts::PI * 100e6,
            wug,
            4.0,
            1e-9,
        )
        .unwrap();
        let a = d.open_loop_gain();
        let m = stability_margins(|w| a.eval_jw(w), 1e-3 * wug, 1e3 * wug).unwrap();
        assert!((m.omega_ug / wug - 1.0).abs() < 1e-6, "{}", m.omega_ug);
        let expect = 4.0f64.atan().to_degrees() - 0.25f64.atan().to_degrees();
        assert!((m.phase_margin_deg - expect).abs() < 1e-6);
        assert_eq!(d.omega_ug_nominal(), wug);
        // Sanity on component values.
        if let LoopFilter::SecondOrder(f) = d.filter() {
            assert!((f.c1() + f.c2() - 1e-9).abs() < 1e-21);
        } else {
            panic!("expected second-order filter");
        }
        assert!(PllDesign::synthesize(10e6, 64.0, 1e8, wug, 1.0, 1e-9).is_err());
        assert!(PllDesign::synthesize(-1.0, 64.0, 1e8, wug, 4.0, 1e-9).is_err());
    }

    #[test]
    fn shaped_design_controls_phase_margin() {
        for spread in [2.0, 4.0, 8.0] {
            let d = PllDesign::reference_design_shaped(0.1, spread).unwrap();
            let a = d.open_loop_gain();
            let m = stability_margins(|w| a.eval_jw(w), 1e-4, 1e3).unwrap();
            let expect = spread.atan().to_degrees() - (1.0 / spread).atan().to_degrees();
            assert!((m.omega_ug - 1.0).abs() < 1e-6, "spread {spread}");
            assert!(
                (m.phase_margin_deg - expect).abs() < 1e-6,
                "spread {spread}: {} vs {expect}",
                m.phase_margin_deg
            );
        }
        assert!(PllDesign::reference_design_shaped(0.1, 1.0).is_err());
        assert!(PllDesign::reference_design_shaped(0.1, -3.0).is_err());
    }
}
