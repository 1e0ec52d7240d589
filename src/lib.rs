//! # htmpll — time-varying, frequency-domain PLL analysis
//!
//! A Rust implementation of *"Time-Varying, Frequency-Domain Modeling
//! and Analysis of Phase-Locked Loops with Sampling Phase-Frequency
//! Detectors"* (P. Vanassche, G. Gielen, W. Sansen — DATE 2003),
//! together with every substrate it needs: complex numerics, LTI system
//! theory, spectral estimation, the harmonic-transfer-matrix (HTM)
//! formalism, a behavioral time-domain simulator, and the classical
//! z-domain baseline models.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof so applications can depend on a single package.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`num`] | `htmpll-num` | complex arithmetic, matrices, LU, polynomials, roots, lattice sums |
//! | [`lti`] | `htmpll-lti` | transfer functions, partial fractions, Bode, margins, loop filters |
//! | [`spectral`] | `htmpll-spectral` | FFT, Goertzel, windows, PSD estimation |
//! | [`htm`] | `htmpll-htm` | harmonic transfer matrices: blocks, composition, closed loops |
//! | [`core`] | `htmpll-core` | the paper: `λ(s)`, closed-loop HTMs, analysis, noise folding |
//! | [`sim`] | `htmpll-sim` | behavioral charge-pump PLL simulator + tone measurements |
//! | [`zdomain`] | `htmpll-zdomain` | Hein–Scott discrete model, Jury test, stability limit |
//!
//! ## Quickstart
//!
//! ```
//! use htmpll::prelude::*;
//!
//! // Build the paper's reference loop with crossover at 20 % of the
//! // reference frequency and compare LTI vs time-varying phase margin.
//! let design = PllDesign::reference_design(0.2)?;
//! let model = PllModel::builder(design).build()?;
//! let report = analyze(&model, &Deadline::none())?;
//! assert!(report.phase_margin_eff_deg < report.phase_margin_lti_deg);
//! # Ok::<(), htmpll::core::CoreError>(())
//! ```

#![warn(missing_docs)]

/// Numerical substrate (re-export of `htmpll-num`).
pub use htmpll_num as num;

/// Continuous-time LTI systems (re-export of `htmpll-lti`).
pub use htmpll_lti as lti;

/// Spectral analysis (re-export of `htmpll-spectral`).
pub use htmpll_spectral as spectral;

/// Harmonic transfer matrices (re-export of `htmpll-htm`).
pub use htmpll_htm as htm;

/// The paper's PLL theory (re-export of `htmpll-core`).
pub use htmpll_core as core;

/// Behavioral time-domain simulator (re-export of `htmpll-sim`).
pub use htmpll_sim as sim;

/// Discrete-time baselines (re-export of `htmpll-zdomain`).
pub use htmpll_zdomain as zdomain;

/// Instrumentation: counters, histograms, spans (re-export of `htmpll-obs`).
pub use htmpll_obs as obs;

/// Parallel sweep engine (re-export of `htmpll-par`).
pub use htmpll_par as par;

/// Deterministic fault injection (re-export of `htmpll-fault`).
pub use htmpll_fault as fault;

/// Cross-stack differential verification (re-export of `htmpll-xcheck`).
pub use htmpll_xcheck as xcheck;

pub mod figures;
pub mod profile;
pub mod requests;
pub mod service;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::core::{
        analyze, dominant_poles, AnalysisReport, EffectiveGain, LeakageSpurs, LoopFilter,
        NoiseModel, NoiseShape, PllDesign, PllModel, SampleHoldModel, SweepCache,
    };
    pub use crate::htm::{Htm, HtmBlock, LtiHtm, MultiplierHtm, SamplerHtm, Truncation, VcoHtm};
    pub use crate::lti::{
        bode_sweep, stability_margins, ChargePumpFilter2, ChargePumpFilter3, Pfe, Tf,
    };
    pub use crate::num::{CMat, Complex, Poly};
    pub use crate::par::{Deadline, ThreadBudget};
    pub use crate::sim::{
        measure_band_transfer, measure_h00, MeasureOptions, PllSim, SimConfig, SimParams,
    };
    pub use crate::xcheck::{run_corpus, Verdict, XcheckReport};
    pub use crate::zdomain::{CpPllZModel, Zf};
}
