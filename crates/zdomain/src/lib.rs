//! # htmpll-zdomain — discrete-time charge-pump PLL baselines
//!
//! The z-domain modeling tradition the paper positions itself against
//! (Gardner 1980; Hein & Scott 1988): treat the sampled PLL as a
//! discrete-time system at the reference instants.
//!
//! * [`ztf`] — rational functions of `z` with frequency responses,
//!   feedback closure and power-series impulse responses.
//! * [`jury`] — the Jury/Schur–Cohn unit-circle stability test,
//!   re-exported from `htmpll-num` (the λ model in `htmpll-core` uses it
//!   too, and this crate depends on core).
//! * [`cp_pll`] — the impulse-invariant Hein–Scott model of the
//!   charge-pump loop, its closed-loop response at the sampling
//!   instants, and the numerically located sampling stability limit of
//!   the reference design family (Gardner's boundary for this loop
//!   shape).
//!
//! The discrete model and the HTM effective-gain analysis describe the
//! *same* linear sampled system, so their stability boundaries agree —
//! a cross-validation the integration tests exploit. What the z-domain
//! model cannot provide is the continuous-time, multi-band picture
//! (inter-sample behavior, aliasing transfers, spur shaping) that the
//! HTM formalism exposes; see `htmpll-core`.
//!
//! ```
//! use htmpll_core::PllDesign;
//! use htmpll_zdomain::CpPllZModel;
//!
//! let m = CpPllZModel::from_design(&PllDesign::reference_design(0.1).unwrap()).unwrap();
//! assert!(m.is_stable().unwrap());
//! ```

#![warn(missing_docs)]

pub mod cp_pll;
pub use htmpll_num::jury;
pub mod ztf;

pub use cp_pll::{
    impulse_invariant, reference_design_stability_limit, stability_limit, CpPllZModel, ZModelError,
};
pub use jury::{jury_stable, JuryError};
pub use ztf::{Zf, ZfError};
