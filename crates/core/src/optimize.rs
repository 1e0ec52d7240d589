//! Loop-design optimization under time-varying constraints.
//!
//! The classic bandwidth trade: a wide loop suppresses VCO noise but
//! passes reference noise — and, in a sampled loop, also erodes the
//! *effective* phase margin in a way LTI analysis cannot see. This
//! module grid-searches the reference design family
//! (`ω_UG/ω₀` × zero/pole spread) for the lowest integrated output
//! phase noise subject to a minimum **effective** margin — the design
//! task the paper's method makes tractable.
//!
//! ```no_run
//! use htmpll_core::optimize::{optimize_loop, NoiseSpec, OptimizeSpec};
//! use htmpll_core::NoiseShape;
//!
//! let spec = OptimizeSpec {
//!     min_pm_eff_deg: 45.0,
//!     ratios: (0.02, 0.25, 12),
//!     spreads: vec![3.0, 4.0, 6.0],
//! };
//! let noise = NoiseSpec {
//!     reference: NoiseShape::White { level: 1e-12 },
//!     vco: NoiseShape::PowerLaw { level_at_ref: 1e-10, w_ref: 1.0, exponent: 2 },
//!     band: (1e-3, 0.45),
//! };
//! let best = optimize_loop(&spec, &noise).unwrap();
//! assert!(best.report.phase_margin_eff_deg >= 45.0);
//! ```

use crate::analysis::{analyze, AnalysisReport};
use crate::closed_loop::PllModel;
use crate::design::PllDesign;
use crate::error::CoreError;
use crate::noise::{NoiseModel, NoiseShape};
use htmpll_par::Deadline;

/// Search space and constraints for [`optimize_loop`].
#[derive(Debug, Clone)]
pub struct OptimizeSpec {
    /// Minimum acceptable phase margin of the **effective** gain `λ`
    /// (degrees). Candidates beyond the sampling limit are rejected
    /// outright.
    pub min_pm_eff_deg: f64,
    /// `(lo, hi, points)` sweep of `ω_UG/ω₀`.
    pub ratios: (f64, f64, usize),
    /// Zero/pole spread candidates (each gives LTI margin
    /// `atan(spread) − atan(1/spread)`).
    pub spreads: Vec<f64>,
}

/// Noise environment for the objective.
#[derive(Debug, Clone)]
pub struct NoiseSpec {
    /// Reference-path phase noise PSD.
    pub reference: NoiseShape,
    /// Free-running VCO phase noise PSD.
    pub vco: NoiseShape,
    /// Integration band `(w_lo, w_hi_frac·ω₀)` — the upper edge is a
    /// fraction of the reference frequency so the band scales with the
    /// candidate's `ω₀`.
    pub band: (f64, f64),
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The design.
    pub design: PllDesign,
    /// The loop-speed ratio it was built at.
    pub ratio: f64,
    /// The zero/pole spread it was built with.
    pub spread: f64,
    /// Full analysis report.
    pub report: AnalysisReport,
    /// Integrated output phase noise over the spec band (rad² in the
    /// chosen phase units).
    pub integrated_noise: f64,
}

/// Grid-searches the design family and returns the feasible candidate
/// with the lowest integrated output phase noise.
///
/// # Errors
///
/// Propagates construction/analysis failures; returns
/// [`CoreError::InvalidParameter`] (`"feasible set"`) when no candidate
/// meets the margin constraint.
pub fn optimize_loop(spec: &OptimizeSpec, noise: &NoiseSpec) -> Result<Candidate, CoreError> {
    let (lo, hi, n) = spec.ratios;
    let mut best: Option<Candidate> = None;
    for i in 0..n.max(1) {
        let ratio = lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64;
        for &spread in &spec.spreads {
            let design = PllDesign::reference_design_shaped(ratio, spread)?;
            let model = PllModel::builder(design.clone()).build()?;
            let report = analyze(&model, &Deadline::none())?;
            if report.beyond_sampling_limit
                || !report.nyquist_stable
                || report.phase_margin_eff_deg < spec.min_pm_eff_deg
            {
                continue;
            }
            let nm = NoiseModel::new(&model, 6);
            let w0 = design.omega_ref();
            let integrated = nm.integrated_phase_noise(
                noise.band.0,
                noise.band.1 * w0,
                &|w| noise.reference.psd(w),
                &|w| noise.vco.psd(w),
            );
            let cand = Candidate {
                design,
                ratio,
                spread,
                report,
                integrated_noise: integrated,
            };
            match &best {
                Some(b) if b.integrated_noise <= cand.integrated_noise => {}
                _ => best = Some(cand),
            }
        }
    }
    best.ok_or(CoreError::InvalidParameter {
        name: "feasible set",
        value: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_env() -> NoiseSpec {
        NoiseSpec {
            reference: NoiseShape::White { level: 1e-12 },
            vco: NoiseShape::PowerLaw {
                level_at_ref: 3e-11,
                w_ref: 1.0,
                exponent: 2,
            },
            band: (1e-3, 0.45),
        }
    }

    #[test]
    fn finds_feasible_optimum() {
        let spec = OptimizeSpec {
            min_pm_eff_deg: 45.0,
            ratios: (0.03, 0.25, 8),
            spreads: vec![3.0, 4.0, 6.0],
        };
        let best = optimize_loop(&spec, &noise_env()).unwrap();
        assert!(best.report.phase_margin_eff_deg >= 45.0);
        assert!(best.integrated_noise.is_finite() && best.integrated_noise > 0.0);
        assert!(best.ratio >= 0.03 && best.ratio <= 0.25);
    }

    #[test]
    fn margin_constraint_binds() {
        // With VCO noise dominant, wider loops win — until the effective
        // margin floor stops them. A stricter floor must push the chosen
        // ratio DOWN.
        let loose = OptimizeSpec {
            min_pm_eff_deg: 30.0,
            ratios: (0.03, 0.25, 10),
            spreads: vec![4.0],
        };
        let strict = OptimizeSpec {
            min_pm_eff_deg: 55.0,
            ..loose.clone()
        };
        let env = noise_env();
        let a = optimize_loop(&loose, &env).unwrap();
        let b = optimize_loop(&strict, &env).unwrap();
        assert!(
            a.ratio > b.ratio,
            "loose {} should allow a faster loop than strict {}",
            a.ratio,
            b.ratio
        );
        // And the stricter design trades noise for margin.
        assert!(b.integrated_noise >= a.integrated_noise);
    }

    #[test]
    fn infeasible_spec_errors() {
        let spec = OptimizeSpec {
            min_pm_eff_deg: 89.0, // unreachable: LTI margin tops out < 80°
            ratios: (0.05, 0.2, 4),
            spreads: vec![4.0],
        };
        assert!(optimize_loop(&spec, &noise_env()).is_err());
    }

    #[test]
    fn reference_noise_dominant_prefers_narrow_loops() {
        // Flip the environment: huge reference noise, quiet VCO — the
        // optimizer should pick the slowest allowed loop.
        let env = NoiseSpec {
            reference: NoiseShape::White { level: 1e-8 },
            vco: NoiseShape::PowerLaw {
                level_at_ref: 1e-16,
                w_ref: 1.0,
                exponent: 2,
            },
            band: (1e-3, 0.45),
        };
        let spec = OptimizeSpec {
            min_pm_eff_deg: 20.0,
            ratios: (0.03, 0.25, 10),
            spreads: vec![4.0],
        };
        let best = optimize_loop(&spec, &env).unwrap();
        assert!(
            best.ratio < 0.06,
            "expected the slowest loop, got {}",
            best.ratio
        );
    }
}
