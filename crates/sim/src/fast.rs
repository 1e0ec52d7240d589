//! Fast period-map simulator.
//!
//! The full engine ([`crate::engine::PllSim`]) integrates the loop
//! continuously and resolves every pulse edge; this module trades that
//! fidelity for speed by adopting the **impulse approximation** the
//! paper's HTM model itself makes: each correction pulse delivers its
//! charge `q_k = I_cp·e_k` at the sampling instant. The inter-sample
//! dynamics are then *exactly* linear, so one cached matrix exponential
//! `E = e^{MT}` (the full engine's propagator, over `T`) advances a
//! whole reference period per step:
//!
//! ```text
//! z_k⁺ = z_k + P·q(e_k)          (charge injection, maybe nonlinear)
//! z_{k+1} = E·z_k⁺ + L·I_leak    (exact LTI propagation over T)
//! ```
//!
//! with `z = [filter states…, θ]`. This is the Hein–Scott discrete
//! model in state-space form — the two are cross-validated in tests —
//! but the map keeps the **pulse-law nonlinearity** (dead zone,
//! saturation), making million-period Monte-Carlo and limit-cycle
//! studies cheap (one small matrix·vector product per period).
//!
//! ```
//! use htmpll_core::PllDesign;
//! use htmpll_sim::fast::{PeriodMap, PulseLaw};
//! use htmpll_sim::SimParams;
//!
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let mut map = PeriodMap::new(&SimParams::from_design(&d), PulseLaw::Linear);
//! let theta = map.run(200, |_k| 1e-3);   // constant reference offset
//! assert!((theta.last().unwrap() - 1e-3).abs() < 1e-4); // tracked
//! ```

use crate::engine::SimParams;
use crate::state_space::{Propagator, StateSpace};

/// Charge-pump pulse law: maps the phase error `e` (time units) to the
/// delivered charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PulseLaw {
    /// Ideal: `q = I_cp·e`.
    Linear,
    /// Dead zone: no charge for `|e| < width`, then
    /// `q = I_cp·(e ∓ width)`.
    DeadZone {
        /// Dead-zone half width (time units).
        width: f64,
    },
    /// Slew limit: pulse width clamps at `max_width`,
    /// `q = I_cp·clamp(e, ±max_width)`.
    Saturating {
        /// Maximum pulse width (time units).
        max_width: f64,
    },
}

impl PulseLaw {
    /// Delivered charge for phase error `e`.
    pub fn charge(&self, i_cp: f64, e: f64) -> f64 {
        match *self {
            PulseLaw::Linear => i_cp * e,
            PulseLaw::DeadZone { width } => {
                if e.abs() <= width {
                    0.0
                } else {
                    i_cp * (e - width.copysign(e))
                }
            }
            PulseLaw::Saturating { max_width } => i_cp * e.clamp(-max_width, max_width),
        }
    }
}

/// How the sampled phase error is converted to charge-pump drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionKind {
    /// Impulsive charge at the sampling instant (narrow-pulse charge
    /// pump — the paper's model).
    Impulse,
    /// Sample-and-hold: the error is held and drives a constant current
    /// `q_k/T` for the whole period (same charge, spread in time) —
    /// the detector modeled by `core::hold::SampleHoldModel`.
    Hold,
}

/// The cached one-period affine map.
#[derive(Debug, Clone)]
pub struct PeriodMap {
    /// Exact propagation over one period, including the response to a
    /// constant filter current.
    propagator: Propagator,
    /// Charge injection direction `P` (filter B column + direct θ term).
    injection: Vec<f64>,
    /// State `[x_filter…, θ]`.
    z: Vec<f64>,
    /// Work space of [`step`](PeriodMap::step): `[x…, Δθ]` one period on.
    next: Vec<f64>,
    i_cp: f64,
    leakage: f64,
    law: PulseLaw,
    kind: CorrectionKind,
    t_ref: f64,
}

impl PeriodMap {
    /// Builds the map from physical loop parameters (impulsive charge
    /// pump).
    ///
    /// # Panics
    ///
    /// Panics when the filter transfer function is improper.
    pub fn new(params: &SimParams, law: PulseLaw) -> PeriodMap {
        PeriodMap::with_kind(params, law, CorrectionKind::Impulse)
    }

    /// Builds the map with an explicit correction kind — `Hold` gives
    /// the discrete-time truth model for the sample-and-hold PFD.
    ///
    /// # Panics
    ///
    /// Panics when the filter transfer function is improper.
    pub fn with_kind(params: &SimParams, law: PulseLaw, kind: CorrectionKind) -> PeriodMap {
        let ss = StateSpace::from_tf(&params.filter);
        let n = ss.order() + 1;
        // θ̇ = g·v, v = Cx + D·i, g = K_vco·T/(2π·N).
        let g = params.kvco * params.t_ref / (2.0 * std::f64::consts::PI * params.divider);
        let propagator = Propagator::new(&ss, g, params.t_ref);
        // Impulse injection direction is the generator's input column
        // P: x += B·q and θ += g·D·q.
        let injection = propagator.input_column();

        PeriodMap {
            propagator,
            injection,
            z: vec![0.0; n],
            next: vec![0.0; n],
            i_cp: params.i_cp,
            leakage: params.leakage,
            law,
            kind,
            t_ref: params.t_ref,
        }
    }

    /// The reference period.
    pub fn t_ref(&self) -> f64 {
        self.t_ref
    }

    /// Current divided-VCO phase deviation `θ` (time units).
    pub fn theta(&self) -> f64 {
        *self.z.last().expect("state nonempty")
    }

    /// Advances one reference period given the reference phase sample
    /// `θ_ref,k`; returns the post-period `θ`.
    pub fn step(&mut self, theta_ref: f64) -> f64 {
        let e = theta_ref - self.theta();
        let q = self.law.charge(self.i_cp, e);
        // Constant drive over the period: leakage, plus the held
        // correction current q/T in Hold mode.
        let mut steady = self.leakage;
        match self.kind {
            CorrectionKind::Impulse => {
                // Impulsive injection at the period start.
                for (zi, pi) in self.z.iter_mut().zip(&self.injection) {
                    *zi += pi * q;
                }
            }
            CorrectionKind::Hold => steady += q / self.t_ref,
        }
        let n = self.z.len() - 1;
        self.propagator
            .whole_step(&self.z[..n], steady, 0.0, &mut self.next);
        self.z[..n].copy_from_slice(&self.next[..n]);
        self.z[n] += self.next[n];
        self.theta()
    }

    /// Runs `n` periods with `theta_ref(k)` supplying the reference
    /// phase at period `k`; returns the per-period `θ` sequence.
    pub fn run<F: FnMut(usize) -> f64>(&mut self, n: usize, mut theta_ref: F) -> Vec<f64> {
        (0..n).map(|k| self.step(theta_ref(k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_core::{PllDesign, PllModel};
    use htmpll_zdomain::CpPllZModel;

    fn params(ratio: f64) -> SimParams {
        SimParams::from_design(&PllDesign::reference_design(ratio).unwrap())
    }

    #[test]
    fn matches_zdomain_step_response() {
        // Same impulse approximation ⇒ the period map and the Hein–Scott
        // pulse transfer function are the same discrete system.
        let design = PllDesign::reference_design(0.15).unwrap();
        let zm = CpPllZModel::from_design(&design).unwrap();
        let z_step = zm.closed_loop().unwrap().step_response(41);
        let mut map = PeriodMap::new(&SimParams::from_design(&design), PulseLaw::Linear);
        let theta = map.run(40, |_| 1.0);
        // The map reports θ *after* each period's propagation, i.e.
        // θ((k+1)T): compare against the z-domain sample k+1.
        for (k, a) in theta.iter().enumerate() {
            let b = z_step[k + 1];
            assert!((a - b).abs() < 1e-9, "k={k}: map {a} vs zdomain {b}");
        }
    }

    #[test]
    fn tracks_phase_step_to_zero_error() {
        let mut map = PeriodMap::new(&params(0.1), PulseLaw::Linear);
        let theta = map.run(400, |_| 2.5e-3);
        assert!((theta.last().unwrap() - 2.5e-3).abs() < 1e-6);
    }

    #[test]
    fn tone_response_matches_h00() {
        // Drive with a sampled sinusoid, extract the tone, compare with
        // the HTM baseband transfer at the same frequency.
        let ratio = 0.1;
        let design = PllDesign::reference_design(ratio).unwrap();
        let model = PllModel::builder(design.clone()).build().unwrap();
        let p = SimParams::from_design(&design);
        let mut map = PeriodMap::new(&p, PulseLaw::Linear);
        let t = p.t_ref;
        // Integer number of tone cycles over the record.
        let n = 4000usize;
        let cycles = 40.0;
        let w = 2.0 * std::f64::consts::PI * cycles / (n as f64 * t);
        let amp = 1e-4 * t;
        let _ = map.run(2000, |k| amp * (w * (k as f64) * t).sin()); // settle
        let start = 2000usize;
        let out = map.run(n, |k| amp * (w * ((start + k) as f64) * t).sin());
        let stim: Vec<f64> = (0..n)
            .map(|k| amp * (w * ((start + k + 1) as f64) * t).sin())
            .collect();
        let h = htmpll_spectral::tone_transfer(&stim, &out, w, t);
        let predict = model.h00(w);
        let err = (h - predict).abs() / predict.abs();
        // The period map samples θ once per period (no inter-sample
        // detail), so agreement is to the discrete/continuous gap.
        assert!(err < 0.05, "map {h} vs htm {predict} (err {err:.4})");
    }

    #[test]
    fn dead_zone_wanders() {
        let mut map = PeriodMap::new(&params(0.1), PulseLaw::DeadZone { width: 1e-3 });
        let offset = 5e-4; // inside the dead zone
        let theta = map.run(600, |_| offset);
        let residual = offset - theta.last().unwrap();
        assert!(
            residual.abs() > 0.5 * offset,
            "dead zone should leave the offset uncorrected: {residual}"
        );
    }

    #[test]
    fn saturation_slows_large_steps() {
        let p = params(0.1);
        let step = 0.05 * p.t_ref;
        let mut lin = PeriodMap::new(&p, PulseLaw::Linear);
        let mut sat = PeriodMap::new(
            &p,
            PulseLaw::Saturating {
                max_width: 0.01 * p.t_ref,
            },
        );
        let y_lin = lin.run(50, |_| step);
        let y_sat = sat.run(50, |_| step);
        // After a few periods the saturating loop lags the linear one.
        assert!(y_sat[5] < y_lin[5]);
        // But it still gets there eventually.
        let mut sat2 = PeriodMap::new(
            &p,
            PulseLaw::Saturating {
                max_width: 0.01 * p.t_ref,
            },
        );
        let y_final = sat2.run(2000, |_| step);
        assert!((y_final.last().unwrap() - step).abs() < 1e-3 * step);
    }

    #[test]
    fn leakage_static_offset_matches_full_engine_physics() {
        let mut p = params(0.1);
        p.leakage = 1e-3 * p.i_cp;
        let mut map = PeriodMap::new(&p, PulseLaw::Linear);
        let theta = map.run(3000, |_| 0.0);
        let expect = p.leakage * p.t_ref / p.i_cp;
        let got = *theta.last().unwrap();
        assert!((got - expect).abs() < 0.1 * expect, "{got} vs {expect}");
    }

    #[test]
    fn hold_mode_matches_sample_hold_model() {
        // The Hold period map is an independent discrete-time truth for
        // the S&H PFD: its tone response must match the continuous
        // SampleHoldModel's H₀,₀ from the lattice-sum path.
        use htmpll_core::SampleHoldModel;
        let ratio = 0.1;
        let design = PllDesign::reference_design(ratio).unwrap();
        let sh = SampleHoldModel::new(design.clone()).unwrap();
        let p = SimParams::from_design(&design);
        let mut map = PeriodMap::with_kind(&p, PulseLaw::Linear, CorrectionKind::Hold);
        let t = p.t_ref;
        let n = 4000usize;
        let cycles = 40.0;
        let w = 2.0 * std::f64::consts::PI * cycles / (n as f64 * t);
        let amp = 1e-4 * t;
        let _ = map.run(2000, |k| amp * (w * (k as f64) * t).sin());
        let start = 2000usize;
        let out = map.run(n, |k| amp * (w * ((start + k) as f64) * t).sin());
        let stim: Vec<f64> = (0..n)
            .map(|k| amp * (w * ((start + k + 1) as f64) * t).sin())
            .collect();
        let h = htmpll_spectral::tone_transfer(&stim, &out, w, t);
        let predict = sh.h00(w);
        let err = (h - predict).abs() / predict.abs();
        assert!(err < 0.05, "map {h} vs S&H model {predict} (err {err:.4})");
        // And it must differ measurably from the impulse model at this
        // frequency (the hold's phase lag).
        let imp = PllModel::builder(design).build().unwrap().h00(w);
        assert!((h - imp).abs() / imp.abs() > 2.0 * err);
    }

    #[test]
    fn hold_mode_tracks_and_settles() {
        let mut map = PeriodMap::with_kind(&params(0.1), PulseLaw::Linear, CorrectionKind::Hold);
        let theta = map.run(600, |_| 1.5e-3);
        assert!((theta.last().unwrap() - 1.5e-3).abs() < 1e-6);
    }

    #[test]
    fn pulse_laws() {
        assert_eq!(PulseLaw::Linear.charge(2.0, 0.3), 0.6);
        let dz = PulseLaw::DeadZone { width: 0.1 };
        assert_eq!(dz.charge(1.0, 0.05), 0.0);
        assert!((dz.charge(1.0, 0.3) - 0.2).abs() < 1e-15);
        assert!((dz.charge(1.0, -0.3) + 0.2).abs() < 1e-15);
        let sat = PulseLaw::Saturating { max_width: 0.2 };
        assert_eq!(sat.charge(1.0, 0.1), 0.1);
        assert_eq!(sat.charge(1.0, 5.0), 0.2);
        assert_eq!(sat.charge(1.0, -5.0), -0.2);
    }
}
