//! Sample-and-hold PFD: the paper's "extension to arbitrary PFDs".
//!
//! The paper analyzes the impulse-sampling PFD (narrow charge-pump
//! pulses → Dirac train) and notes that "extension to arbitrary PFDs is
//! possible". This module carries that out for the next most common
//! detector: a **sample-and-hold** PFD whose output holds the sampled
//! phase error for a full reference period (e.g. a sampled phase
//! detector driving a continuous transconductor).
//!
//! The S&H PFD is the impulse sampler followed by the LTI zero-order
//! hold `h(s) = (1 − e^{−sT})/s`, so its HTM is
//! `diag(h(s + jnω₀)) · (ω₀/2π)·𝟙𝟙ᵀ` — **still rank one**, and the
//! whole Sherman–Morrison machinery goes through. Normalizing the hold
//! to unity DC gain (`h/T`) so the low-frequency loop gain matches the
//! impulse design, and using `e^{−(s+jnω₀)T} = e^{−sT}`:
//!
//! ```text
//! Ṽ_n(s) = (1 − e^{−sT})/T · A(u)/u,   u = s + jnω₀
//! λ_sh(s) = (1 − e^{−sT})/T · Σ_m A(u)/u
//! ```
//!
//! The inner sum is the harmonic lattice sum of the rational function
//! `A(s)/s`, so the **exact** `coth` evaluation applies unchanged.
//!
//! Engineering consequence (see the `pfd` experiment): the hold behaves
//! like `sinc(ωT/2)·e^{−jωT/2}` — it attenuates the aliases (good) but
//! adds a half-period delay (bad); for fast loops the delay wins and
//! the sample-and-hold detector loses *more* phase margin than the
//! impulse charge pump.
//!
//! ```
//! use htmpll_core::{hold::SampleHoldModel, PllDesign};
//!
//! let model = SampleHoldModel::new(PllDesign::reference_design(0.1).unwrap()).unwrap();
//! // In-band the S&H loop still tracks the reference.
//! assert!((model.h00(0.05).abs() - 1.0).abs() < 0.05);
//! ```

use crate::design::PllDesign;
use crate::error::CoreError;
use crate::lambda::EffectiveGain;
use htmpll_lti::{stability_margins, Margins, Tf};
use htmpll_num::Complex;

/// PLL small-signal model with a sample-and-hold PFD (unity-DC-gain
/// zero-order hold after the sampler).
#[derive(Debug, Clone)]
pub struct SampleHoldModel {
    design: PllDesign,
    /// Exact evaluator of `L(s) = Σ_m A(u)/u`.
    inner: EffectiveGain,
}

impl SampleHoldModel {
    /// Builds the model (time-invariant VCO).
    ///
    /// # Errors
    ///
    /// Propagates effective-gain construction failures. `A(s)/s` has a
    /// triple pole at DC for charge-pump loops — within the supported
    /// lattice order.
    pub fn new(design: PllDesign) -> Result<SampleHoldModel, CoreError> {
        let a_over_s = &design.open_loop_gain() * &Tf::integrator();
        let inner = EffectiveGain::new(&a_over_s, design.omega_ref())?;
        Ok(SampleHoldModel { design, inner })
    }

    /// The underlying design.
    pub fn design(&self) -> &PllDesign {
        &self.design
    }

    /// The reference period `T`.
    pub fn t_ref(&self) -> f64 {
        1.0 / self.design.f_ref()
    }

    /// The normalized hold factor `(1 − e^{−sT})/T` (note: *not*
    /// divided by `s`; that `1/s` lives inside the lattice sum).
    fn hold_factor(&self, s: Complex) -> Complex {
        let t = self.t_ref();
        (Complex::ONE - (-s.scale(t)).exp()).scale(1.0 / t)
    }

    /// Effective open-loop gain of the sample-and-hold loop,
    /// `λ_sh(s) = (1 − e^{−sT})/T · Σ_m A(s+jmω₀)/(s+jmω₀)`, exact.
    pub fn lambda(&self, s: Complex) -> Complex {
        self.hold_factor(s) * self.inner.eval(s)
    }

    /// `λ_sh(jω)`.
    pub fn lambda_jw(&self, omega: f64) -> Complex {
        self.lambda(Complex::from_im(omega))
    }

    /// Closed-loop baseband transfer
    /// `H₀,₀(jω) = Ṽ₀/(1 + λ_sh) = [(1−e^{−sT})/T]·[A(s)/s]/(1 + λ_sh(s))`.
    pub fn h00(&self, omega: f64) -> Complex {
        self.h_band(0, omega)
    }

    /// Closed-loop band transfer from any input band to output band `n`.
    pub fn h_band(&self, n: i64, omega: f64) -> Complex {
        let s = Complex::from_im(omega);
        let u = s + Complex::from_im(n as f64 * self.design.omega_ref());
        let v_n = self.hold_factor(s) * self.inner.open_loop().eval(u);
        v_n / (Complex::ONE + self.lambda(s))
    }

    /// Stability margins of `λ_sh(jω)` inside the first Nyquist band.
    ///
    /// # Errors
    ///
    /// Propagates margin-extraction failures (`|λ_sh|` may never cross
    /// 0 dB once the loop is beyond its stability limit).
    pub fn margins(&self) -> Result<Margins, CoreError> {
        let w0 = self.design.omega_ref();
        Ok(stability_margins(
            |w| self.lambda_jw(w),
            1e-5 * w0,
            0.499_999 * w0,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::closed_loop::PllModel;
    use htmpll_par::{Deadline, ThreadBudget};

    fn sh(ratio: f64) -> SampleHoldModel {
        SampleHoldModel::new(PllDesign::reference_design(ratio).unwrap()).unwrap()
    }

    #[test]
    fn slow_loop_limit_matches_lti_and_impulse() {
        // ω ≪ ω₀: the hold is transparent and λ_sh → A.
        let m = sh(0.01);
        let imp = PllModel::builder(PllDesign::reference_design(0.01).unwrap())
            .build()
            .unwrap();
        for w in [0.05, 0.3, 1.0] {
            let a = imp.open_loop().eval_jw(w);
            let l = m.lambda_jw(w);
            assert!((l - a).abs() < 0.05 * a.abs(), "w={w}: {l} vs {a}");
            assert!((m.h00(w) - imp.h00(w)).abs() < 0.05 * imp.h00(w).abs());
        }
    }

    #[test]
    fn hold_adds_half_period_delay_phase() {
        // At moderate ω the hold factor ≈ sinc(ωT/2)·e^{−jωT/2}: compare
        // the phase of λ_sh against λ_impulse + the delay term.
        let ratio = 0.1;
        let m = sh(ratio);
        let imp = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap();
        let w = 1.0;
        let t = m.t_ref();
        let extra = m.lambda_jw(w).arg() - imp.lambda().eval_jw(w).arg();
        // The impulse-loop λ and the S&H λ differ mainly by the hold's
        // −ωT/2 phase (plus smaller alias reshaping).
        let expect = -w * t / 2.0;
        assert!(
            (extra - expect).abs() < 0.35 * expect.abs(),
            "extra phase {extra} vs hold delay {expect}"
        );
    }

    #[test]
    fn sample_hold_degrades_margin_more_than_impulse() {
        for ratio in [0.1, 0.2] {
            let m = sh(ratio);
            let imp = analyze(
                &PllModel::builder(PllDesign::reference_design(ratio).unwrap())
                    .build()
                    .unwrap(),
                ThreadBudget::Auto,
                &Deadline::none(),
            )
            .unwrap();
            let sh_margin = m.margins().unwrap();
            assert!(
                sh_margin.phase_margin_deg < imp.phase_margin_eff_deg,
                "ratio {ratio}: S&H {} vs impulse {}",
                sh_margin.phase_margin_deg,
                imp.phase_margin_eff_deg
            );
        }
    }

    #[test]
    fn dc_tracking() {
        let m = sh(0.15);
        let h = m.h00(1e-4);
        assert!((h - Complex::ONE).abs() < 1e-2, "{h}");
    }

    #[test]
    fn band_transfer_consistent_with_h00() {
        let m = sh(0.15);
        assert_eq!(m.h00(0.4), m.h_band(0, 0.4));
        // Off-baseband transfers exist (aliasing) but are smaller in-band.
        assert!(m.h_band(1, 0.05).abs() < m.h00(0.05).abs());
    }

    #[test]
    fn lambda_is_band_periodic() {
        // Both factors are ω₀-periodic along the axis: the hold carries
        // e^{−sT} and the inner sum is invariant under a one-band shift.
        let m = sh(0.2);
        let w0 = m.design().omega_ref();
        let a = m.lambda(Complex::new(0.05, 0.3));
        let b = m.lambda(Complex::new(0.05, 0.3 + w0));
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }
}
