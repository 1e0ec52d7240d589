//! Closed-loop PLL model: from reference phase to VCO phase.
//!
//! [`PllModel`] assembles the building-block HTMs of the loop
//! (PFD sampler → loop filter → VCO) and closes the feedback
//! `θ̃ = (I + G̃)⁻¹ G̃ θ̃_ref` (paper eq. 26–28). Because the sampler is
//! rank one, `G̃(s) = Ṽ(s)·𝟙ᵀ` and the Sherman–Morrison–Woodbury
//! identity collapses the inverse to the closed form of eq. 34:
//!
//! ```text
//! H̃(s) = Ṽ(s)·𝟙ᵀ / (1 + λ(s)),     λ(s) = 𝟙ᵀ Ṽ(s)
//! ```
//!
//! For a time-invariant VCO, `Ṽ_n(s) = A(s + jnω₀)` and
//! `H_{n,m}(s) = A(s + jnω₀)/(1 + λ(s))` — the baseband element
//! `H_{0,0}` is the paper's eq. 38, the quantity plotted in Fig. 6.
//!
//! ```
//! use htmpll_core::{PllDesign, PllModel};
//!
//! let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let h = model.h00(0.5); // closed-loop baseband transfer at ω = 0.5·ω_UG... (rad/s)
//! assert!(h.abs() > 0.9 && h.abs() < 1.2); // in-band: follows the reference
//! ```

use crate::design::PllDesign;
use crate::error::CoreError;
use crate::lambda::EffectiveGain;
use htmpll_htm::{Htm, HtmBlock, HtmRepr, SamplerHtm, Truncation, TruncationSpec, VcoHtm};
use htmpll_num::{Complex, LuError, SolveReport};

/// A PLL small-signal model ready for frequency-domain evaluation.
#[derive(Debug, Clone)]
pub struct PllModel {
    design: PllDesign,
    /// Centered ISF Fourier coefficients of the VCO (length 1 ⇒
    /// time-invariant).
    vco_isf: Vec<Complex>,
    lambda: EffectiveGain,
    /// The forward path `H_LF(s)·extra(s)` as one product (the extra
    /// factor is a Padé delay block, unity when absent), built once for
    /// [`open_loop_htm`](PllModel::open_loop_htm).
    fwd_tf: htmpll_lti::Tf,
    /// Identity hash over everything the HTM assembly reads; see
    /// [`PllModel::fingerprint`].
    fingerprint: u64,
}

/// Staged construction of a [`PllModel`]: start from a [`PllDesign`],
/// optionally add a loop latency and/or a time-varying VCO ISF, then
/// [`build`](PllModelBuilder::build). Unlike the legacy constructors,
/// the builder composes freely — a delayed loop with a time-varying VCO
/// is one chain:
///
/// ```
/// use htmpll_core::{PllDesign, PllModel};
/// use htmpll_num::Complex;
///
/// let d = PllDesign::reference_design(0.1).unwrap();
/// let v0 = d.v0();
/// let m = PllModel::builder(d)
///     .loop_delay(0.05, 4)
///     .vco_isf(vec![
///         Complex::from_re(0.2 * v0),
///         Complex::from_re(v0),
///         Complex::from_re(0.2 * v0),
///     ])
///     .build()
///     .unwrap();
/// assert!(!m.is_time_invariant());
/// ```
#[derive(Debug, Clone)]
pub struct PllModelBuilder {
    design: PllDesign,
    delay: Option<(f64, usize)>,
    vco_isf: Option<Vec<Complex>>,
}

impl PllModelBuilder {
    /// Adds a loop latency `tau` (divider pipeline, PFD logic,
    /// charge-pump switching), folded into the open-loop gain via a
    /// diagonal Padé-`(order,order)` delay approximant. The delayed gain
    /// stays rational, so the **exact** lattice-sum `λ(s)` still
    /// applies; choose `order ≳ ω₀·τ` for accuracy across the first
    /// Nyquist band.
    #[must_use]
    pub fn loop_delay(mut self, tau: f64, order: usize) -> PllModelBuilder {
        self.delay = Some((tau, order));
        self
    }

    /// Describes a **time-varying** VCO by its centered ISF Fourier
    /// coefficients `[v_{−K}, …, v₀, …, v_{+K}]` (odd length; the center
    /// coefficient is the nominal sensitivity `v₀`). The scalar λ-based
    /// closed form still applies (the PFD HTM stays rank one); only the
    /// column `Ṽ(s)` changes. The `λ` evaluator is built from the `v₀`
    /// (time-invariant) part, which is exact for λ because
    /// `𝟙ᵀ H̃_VCO H̃_LF 𝟙` sums every row: off-center ISF terms
    /// contribute through the same lattice sums with shifted arguments,
    /// handled in [`lambda_tv`](PllModel::lambda_tv).
    #[must_use]
    pub fn vco_isf(mut self, vco_isf: Vec<Complex>) -> PllModelBuilder {
        self.vco_isf = Some(vco_isf);
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] — even-length or empty ISF
    ///   list (`"vco_isf length"`), or a negative/non-finite delay
    ///   (`"loop delay tau"`).
    /// * Padé construction and effective-gain failures (improper loop,
    ///   pole extraction) are propagated.
    pub fn build(self) -> Result<PllModel, CoreError> {
        let PllModelBuilder {
            design,
            delay,
            vco_isf,
        } = self;
        if let Some(isf) = &vco_isf {
            if isf.is_empty() || isf.len() % 2 == 0 {
                return Err(CoreError::InvalidParameter {
                    name: "vco_isf length",
                    value: isf.len() as f64,
                });
            }
        }
        let mut open = design.open_loop_gain();
        let mut pade = None;
        if let Some((tau, order)) = delay {
            if !tau.is_finite() || tau < 0.0 {
                return Err(CoreError::InvalidParameter {
                    name: "loop delay tau",
                    value: tau,
                });
            }
            let delay = htmpll_lti::pade_delay(tau, order)?;
            open = &open * &delay;
            pade = Some(delay);
        }
        let lambda = EffectiveGain::new(&open, design.omega_ref())?;
        let vco_isf = vco_isf.unwrap_or_else(|| vec![Complex::from_re(design.v0())]);
        // The matrix paths read the loop-filter factor, the Padé factor
        // and the ISF column separately (not only their product
        // folded into λ), so all of them enter the identity hash: two
        // models hash equal only if every HTM block they assemble is
        // bit-identical.
        let mut h = htmpll_num::hash::Fnv1a::new();
        h.write_str("htmpll.model");
        h.write_u64(lambda.fingerprint());
        let hlf = design.loop_filter_tf();
        h.write_u64(hlf.num().coeffs().len() as u64);
        for &c in hlf.num().coeffs() {
            h.write_f64(c);
        }
        for &c in hlf.den().coeffs() {
            h.write_f64(c);
        }
        h.write_u64(vco_isf.len() as u64);
        for v in &vco_isf {
            h.write_f64(v.re);
            h.write_f64(v.im);
        }
        if let Some(extra) = &pade {
            h.write_u64(extra.num().coeffs().len() as u64);
            for &c in extra.num().coeffs() {
                h.write_f64(c);
            }
            for &c in extra.den().coeffs() {
                h.write_f64(c);
            }
        }
        let fwd_tf = match &pade {
            Some(extra) => &hlf * extra,
            None => hlf,
        };
        Ok(PllModel {
            design,
            vco_isf,
            lambda,
            fwd_tf,
            fingerprint: h.finish(),
        })
    }
}

impl PllModel {
    /// Starts a [`PllModelBuilder`] for `design`. With no further
    /// options, [`build`](PllModelBuilder::build) produces the
    /// time-invariant VCO model (`v(t) ≡ K_vco/N`) matching the paper's
    /// §5 experimental setup.
    pub fn builder(design: PllDesign) -> PllModelBuilder {
        PllModelBuilder {
            design,
            delay: None,
            vco_isf: None,
        }
    }

    /// Stable identity hash over everything the frequency-domain
    /// evaluators read: the open-loop gain (including any folded delay),
    /// the loop-filter factor, the VCO ISF harmonics and `ω₀` — all by
    /// coefficient **bit patterns**. Two models with equal fingerprints
    /// produce bitwise-identical λ values and HTMs at every Laplace
    /// point, which is what lets one [`SweepCache`](crate::SweepCache)
    /// be shared across models safely.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying design.
    pub fn design(&self) -> &PllDesign {
        &self.design
    }

    /// The effective open-loop gain evaluator (time-invariant part).
    pub fn lambda(&self) -> &EffectiveGain {
        &self.lambda
    }

    /// True when the VCO model is time-invariant.
    pub fn is_time_invariant(&self) -> bool {
        self.vco_isf.len() == 1
    }

    /// The LTI open-loop gain `A(s)`.
    pub fn open_loop(&self) -> &htmpll_lti::Tf {
        self.lambda.open_loop()
    }

    /// Time-varying effective gain `λ(s) = 𝟙ᵀṼ(s)` including all ISF
    /// harmonics, evaluated by truncated summation over `trunc` (a fixed
    /// [`Truncation`] or an `Auto` tolerance, resolved via
    /// [`resolve_truncation`](PllModel::resolve_truncation)).
    ///
    /// Falls back to the exact lattice-sum value for time-invariant
    /// VCOs regardless of `trunc`.
    pub fn lambda_tv(&self, s: Complex, trunc: impl Into<TruncationSpec>) -> Complex {
        if self.is_time_invariant() {
            return self.lambda.eval(s);
        }
        self.v_column(s, trunc).iter().copied().sum()
    }

    /// The rank-one column `Ṽ(s) = (ω₀/2π)·H̃_VCO·H̃_LF·𝟙` (paper
    /// eq. 29), in harmonic order `−K..K`: the `u` of
    /// [`open_loop_htm`](PllModel::open_loop_htm)'s `G̃ = u·𝟙ᵀ`.
    pub fn v_column(&self, s: Complex, trunc: impl Into<TruncationSpec>) -> Vec<Complex> {
        self.column(s, self.resolve_truncation(trunc))
    }

    /// Closed-loop baseband→baseband transfer `H₀,₀(jω) = A(jω)/(1+λ(jω))`
    /// (paper eq. 38) — the Fig.-6 quantity. Exact-λ path (time-invariant
    /// VCO).
    pub fn h00(&self, omega: f64) -> Complex {
        self.h_band(0, omega)
    }

    /// Closed-loop band transfer `H_{n,m}(jω) = A(j(ω + nω₀))/(1+λ(jω))`
    /// — for the rank-one loop this is independent of the input band `m`:
    /// the sampler aliases all input bands identically (paper eq. 36).
    pub fn h_band(&self, n: i64, omega: f64) -> Complex {
        let s = Complex::from_im(omega);
        let shifted = s + Complex::from_im(n as f64 * self.design.omega_ref());
        self.open_loop().eval(shifted) / (Complex::ONE + self.lambda.eval(s))
    }

    /// Classical LTI closed loop `A(jω)/(1 + A(jω))` — the textbook
    /// approximation Fig. 6 compares against.
    pub fn h00_lti(&self, omega: f64) -> Complex {
        let a = self.open_loop().eval_jw(omega);
        a / (Complex::ONE + a)
    }

    /// Error transfer from reference phase to phase error
    /// `θ_ref − θ` at baseband: `1 − H₀,₀(jω)`.
    pub fn error_transfer(&self, omega: f64) -> Complex {
        Complex::ONE - self.h00(omega)
    }

    /// Full closed-loop HTM at Laplace point `s`: the
    /// [`open_loop_htm`](PllModel::open_loop_htm) at the resolved
    /// truncation, closed by
    /// [`Htm::closed_loop_factored_robust`] — the condition-gated
    /// Sherman–Morrison form (works for time-varying VCOs too), kept in
    /// the structured rank-one representation, with the
    /// [`SolveReport`] that grades it. This is the point every
    /// structured sweep solves.
    ///
    /// # Errors
    ///
    /// [`LuError::NonFinite`] when the open loop is not finite at `s`,
    /// e.g. on an aliased integrator pole `s = jnω₀`.
    pub fn closed_loop_htm(
        &self,
        s: Complex,
        trunc: impl Into<TruncationSpec>,
    ) -> Result<(Htm, SolveReport), LuError> {
        self.open_loop_htm(s, self.resolve_truncation(trunc))
            .closed_loop_factored_robust()
    }

    /// Assembles the **open-loop** HTM `G̃(s) = H̃_VCO·(H̃_LF·H̃_PFD)`
    /// — the input to every closed-loop solve, exposed so sweep caches
    /// can factor it once per Laplace point. The rank-one PFD makes
    /// `G̃ = u·𝟙ᵀ` with `u` = [`v_column`](PllModel::v_column).
    pub fn open_loop_htm(&self, s: Complex, trunc: Truncation) -> Htm {
        let n = trunc.dim();
        let open = HtmRepr::RankOne {
            u: self.column(s, trunc),
            v: vec![Complex::ONE; n],
        };
        Htm::from_repr(trunc, self.design.omega_ref(), open)
    }

    /// `u = Ṽ(s)` built from its factors in O(n·b):
    /// `x_n = H_fwd(s + jnω₀)·(ω₀/2π)` is the column of `H̃_LF·H̃_PFD`
    /// and `u = H̃_VCO·x` one banded mat-vec. These are the operations
    /// the block product `Diag·RankOne` then `BT·RankOne` performs, in
    /// the same order, so the bits match it.
    fn column(&self, s: Complex, trunc: Truncation) -> Vec<Complex> {
        let w0 = self.design.omega_ref();
        let weight = Complex::from_re(SamplerHtm::new(w0).weight());
        let x: Vec<Complex> = trunc
            .harmonics()
            .map(|k| self.fwd_tf.eval(s + Complex::from_im(k as f64 * w0)) * weight)
            .collect();
        let vco = VcoHtm::new(self.vco_isf.clone(), w0).htm(s, trunc);
        vco.repr().mul_vec(trunc.dim(), &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(ratio: f64) -> PllModel {
        PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn smw_matches_dense_closed_loop() {
        let m = model(0.3);
        let t = Truncation::new(6);
        for &(re, im) in &[(0.0, 0.4), (0.02, 1.3), (0.0, 2.7)] {
            let s = Complex::new(re, im);
            let (fast, _) = m.closed_loop_htm(s, t).unwrap();
            let dense = m.open_loop_htm(s, t).closed_loop().unwrap();
            let err = fast.as_matrix().max_diff(dense.as_matrix());
            assert!(err < 1e-10, "s={s}: err {err}");
        }
    }

    #[test]
    fn h00_matches_htm_element_at_large_truncation() {
        // The closed-form H₀₀ uses the exact λ; the HTM path truncates.
        // They must agree as K grows.
        let m = model(0.3);
        let w = 0.8;
        let exact = m.h00(w);
        let err_at = |k: usize| {
            let (htm, _) = m
                .closed_loop_htm(Complex::from_im(w), Truncation::new(k))
                .unwrap();
            (htm.band(0, 0) - exact).abs()
        };
        // Truncated λ converges like 1/K: require closeness at K = 200
        // and monotone improvement over K = 25.
        assert!(err_at(200) < 1e-2 * exact.abs(), "err {}", err_at(200));
        assert!(err_at(200) < err_at(25));
    }

    #[test]
    fn band_transfer_independent_of_input_band() {
        let m = model(0.25);
        let t = Truncation::new(4);
        let (htm, _) = m.closed_loop_htm(Complex::from_im(0.5), t).unwrap();
        // Rank-one structure: H_{n,m} constant across m.
        for n in t.harmonics() {
            let base = htm.band(n, 0);
            for mm in t.harmonics() {
                assert!((htm.band(n, mm) - base).abs() < 1e-12 * (1.0 + base.abs()));
            }
        }
    }

    #[test]
    fn slow_loop_reduces_to_lti() {
        let m = model(0.01);
        for w in [0.05, 0.2, 1.0, 3.0] {
            let tv = m.h00(w);
            let lti = m.h00_lti(w);
            assert!(
                (tv - lti).abs() < 0.02 * (1.0 + lti.abs()),
                "w={w}: {tv} vs {lti}"
            );
        }
    }

    #[test]
    fn fast_loop_departs_from_lti() {
        let m = model(0.25);
        // Near the passband edge the time-varying response peaks well
        // above the LTI prediction.
        let mut max_ratio: f64 = 0.0;
        for k in 0..30 {
            let w = 0.5 + 1.5 * k as f64 / 29.0;
            let ratio = m.h00(w).abs() / m.h00_lti(w).abs();
            max_ratio = max_ratio.max(ratio);
        }
        assert!(max_ratio > 1.2, "expected visible peaking, got {max_ratio}");
    }

    #[test]
    fn dc_tracking() {
        // Type-2 loop: H₀₀ → 1 as ω → 0 (the PLL tracks reference phase).
        let m = model(0.2);
        let h = m.h00(1e-4);
        assert!((h - Complex::ONE).abs() < 1e-3, "{h}");
        assert!(m.error_transfer(1e-4).abs() < 1e-3);
    }

    #[test]
    fn time_varying_vco_changes_response() {
        let d = PllDesign::reference_design(0.2).unwrap();
        let ti = PllModel::builder(d.clone()).build().unwrap();
        let v0 = d.v0();
        let tv = PllModel::builder(d)
            .vco_isf(vec![
                Complex::from_re(0.4 * v0),
                Complex::from_re(v0),
                Complex::from_re(0.4 * v0),
            ])
            .build()
            .unwrap();
        assert!(ti.is_time_invariant());
        assert!(!tv.is_time_invariant());
        let t = Truncation::new(8);
        let s = Complex::from_im(0.6);
        let a = ti.closed_loop_htm(s, t).unwrap().0.band(0, 0);
        let b = tv.closed_loop_htm(s, t).unwrap().0.band(0, 0);
        assert!((a - b).abs() > 1e-3 * a.abs(), "TV ISF should matter");
        // And the TV path still matches its dense reference.
        let dense = tv.open_loop_htm(s, t).closed_loop().unwrap();
        let (fast, _) = tv.closed_loop_htm(s, t).unwrap();
        assert!(fast.as_matrix().max_diff(dense.as_matrix()) < 1e-10);
    }

    #[test]
    fn loop_delay_erodes_effective_margin() {
        use crate::analysis::analyze;
        use htmpll_par::{Deadline, ThreadBudget};
        let design = PllDesign::reference_design(0.1).unwrap();
        let t_ref = 1.0 / design.f_ref();
        let report = |b: PllModelBuilder| {
            let m = b.build().unwrap();
            analyze(&m, ThreadBudget::Auto, &Deadline::none()).unwrap()
        };
        let plain = report(PllModel::builder(design.clone()));
        let quarter = report(PllModel::builder(design.clone()).loop_delay(0.25 * t_ref, 6));
        let half = report(PllModel::builder(design).loop_delay(0.5 * t_ref, 6));
        // Delay always costs effective margin, monotonically in τ. (The
        // loss is smaller than the naive ω·τ because the delay also
        // reshapes the alias interference and moves the crossover down —
        // verified against an exact-delay truncated sum below.)
        assert!(quarter.phase_margin_eff_deg < plain.phase_margin_eff_deg);
        assert!(half.phase_margin_eff_deg < quarter.phase_margin_eff_deg);
        assert!(quarter.omega_ug_eff < plain.omega_ug_eff);
    }

    #[test]
    fn pade_delay_lambda_matches_exact_delay_sum() {
        // The Padé-rationalized λ must reproduce the exact-delay
        // truncated sum Σ A(u)·e^{−uτ} across the band.
        let design = PllDesign::reference_design(0.1).unwrap();
        let t_ref = 1.0 / design.f_ref();
        let tau = 0.25 * t_ref;
        let w0 = design.omega_ref();
        let a = design.open_loop_gain();
        let model = PllModel::builder(design)
            .loop_delay(tau, 6)
            .build()
            .unwrap();
        for w in [0.2, 0.7, 1.3, 0.45 * w0] {
            let s = Complex::from_im(w);
            let mut exact = Complex::ZERO;
            for m in -2000i64..=2000 {
                let u = s + Complex::from_im(m as f64 * w0);
                exact += a.eval(u) * (-u.scale(tau)).exp();
            }
            let pade = model.lambda().eval(s);
            assert!(
                (pade - exact).abs() < 2e-3 * (1.0 + exact.abs()),
                "w={w}: pade {pade} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_delay_matches_plain_model() {
        let design = PllDesign::reference_design(0.15).unwrap();
        let plain = PllModel::builder(design.clone()).build().unwrap();
        let delayed = PllModel::builder(design)
            .loop_delay(0.0, 4)
            .build()
            .unwrap();
        for w in [0.2, 1.0, 2.5] {
            assert!((plain.h00(w) - delayed.h00(w)).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_tv_reduces_to_exact_for_ti() {
        let m = model(0.3);
        let s = Complex::from_im(0.9);
        let a = m.lambda_tv(s, Truncation::new(5));
        let b = m.lambda().eval(s);
        assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
    }
}
