//! # htmpll-core — time-varying frequency-domain PLL analysis
//!
//! Rust implementation of *"Time-Varying, Frequency-Domain Modeling and
//! Analysis of Phase-Locked Loops with Sampling Phase-Frequency
//! Detectors"* (P. Vanassche, G. Gielen, W. Sansen — DATE 2003).
//!
//! A charge-pump PLL samples its phase error once per reference period,
//! making the small-signal loop **linear periodically time-varying**.
//! This crate models the loop with harmonic transfer matrices
//! (`htmpll-htm`) and exploits the rank-one structure of the sampling
//! PFD to collapse the closed loop to scalar closed forms:
//!
//! * [`PllDesign`] — the architecture: reference, charge pump, passive
//!   loop filter, VCO/divider; includes the paper's Fig.-5
//!   [`reference_design`](PllDesign::reference_design).
//! * [`EffectiveGain`] — `λ(s) = Σ_m A(s + jmω₀)`, evaluated **exactly**
//!   through partial fractions and `coth` lattice sums, or by truncated
//!   summation.
//! * [`PllModel`] — closed-loop transfers: the Fig.-6 baseband element
//!   `H₀,₀(jω) = A(jω)/(1+λ(jω))`, arbitrary band transfers, full
//!   closed-loop HTMs (Sherman–Morrison fast path and dense reference
//!   path), and time-varying-VCO support via ISF harmonics.
//! * [`analyze`] — the Fig.-7 quantities: `ω_UG,eff` and the phase
//!   margin of `λ`, against their LTI counterparts.
//! * [`NoiseModel`] — phase-noise propagation with explicit aliasing
//!   folding.
//!
//! ```
//! use htmpll_core::{analyze, PllDesign, PllModel};
//! use htmpll_par::{Deadline, ThreadBudget};
//!
//! // A fast loop: crossover at 30 % of the reference frequency.
//! let design = PllDesign::reference_design(0.3).unwrap();
//! let model = PllModel::builder(design).build().unwrap();
//! let report = analyze(&model, ThreadBudget::Auto, &Deadline::none()).unwrap();
//! // LTI analysis is oblivious to the ratio; the true margin is not.
//! assert!(report.phase_margin_degradation_deg() > 5.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod closed_loop;
pub mod design;
pub mod error;
pub mod explore;
pub mod hold;
pub mod lambda;
pub mod noise;
pub mod optimize;
pub mod poles;
pub mod quality;
pub mod spurs;
pub mod sweep;
pub mod transient;

pub use analysis::{analyze, lti_margins, AnalysisReport};
pub use closed_loop::{PllModel, PllModelBuilder};
pub use design::{LoopFilter, PllDesign, PllDesignBuilder};
pub use error::CoreError;
pub use explore::{
    candidate_params, explore, DesignParams, DesignPoint, ExploreReport, ExploreSpec, ParetoFront,
    EXPLORE_BLOCK, EXPLORE_F_REF,
};
pub use hold::SampleHoldModel;
pub use lambda::{EffectiveGain, LambdaLine};
pub use noise::{NoiseModel, NoiseShape};
pub use optimize::{optimize_loop, Candidate, NoiseSpec, OptimizeSpec};
pub use poles::dominant_poles;
pub use quality::{GridOutcome, PointOutcome, PointQuality, QualitySummary, DEADLINE_REASON};
pub use spurs::LeakageSpurs;
pub use sweep::{
    bode_grid, DenseSolve, KernelPolicy, SpurLine, SweepCache, SweepSpec, DEFAULT_CACHE_CAP,
    MAX_AUTO_TRUNCATION,
};
