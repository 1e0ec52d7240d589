//! # htmpll-lti — continuous-time LTI systems
//!
//! The linear time-invariant substrate of the `htmpll` workspace:
//!
//! * [`Tf`] — rational transfer functions in `s` with series / parallel /
//!   feedback composition, pole–zero extraction, and frequency scaling.
//! * [`Pfe`] — partial-fraction expansion **with repeated poles** (the
//!   charge-pump PLL's double pole at DC is the motivating case); feeds
//!   the exact lattice-sum evaluation of the effective open-loop gain.
//! * [`bode`] — frequency sweeps with phase unwrapping, over arbitrary
//!   (not necessarily rational) frequency responses.
//! * [`grid`] — the shared [`FrequencyGrid`] vocabulary type
//!   (log / linear / per-decade) consumed by every sweep entry point.
//! * [`margins`] — unity-gain crossover, phase margin, gain margin,
//!   −3 dB bandwidth and peaking, again over arbitrary responses so the
//!   same extractor serves `A(jω)` and the time-varying `λ(jω)`.
//! * [`stability`] — Routh–Hurwitz analysis for the classical LTI
//!   verdict.
//! * [`filters`] — the passive charge-pump loop-filter networks
//!   (second- and third-order) that set the open-loop shape.
//! * [`response`] — exact impulse/step responses through the PFE.
//!
//! ```
//! use htmpll_lti::{stability_margins, ChargePumpFilter2, Tf};
//!
//! // Build A(s) = Z(s)/s (gains normalized) and read its phase margin.
//! let z = ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0).unwrap().impedance();
//! let a = &z * &Tf::integrator();
//! let m = stability_margins(|w| a.eval_jw(w), 1e-3, 1e3).unwrap();
//! assert!(m.phase_margin_deg > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bode;
pub mod delay;
pub mod filters;
pub mod grid;
pub mod margins;
pub mod pfe;
pub mod response;
pub mod stability;
pub mod tf;

pub use bode::{bode_from_values, bode_sweep, bode_tf, BodePoint};
pub use delay::pade_delay;
pub use filters::{ChargePumpFilter2, ChargePumpFilter3, FilterError};
pub use grid::{FrequencyGrid, GridError};
pub use margins::{
    bandwidth_3db_precomputed, lti_crossings, margin_scan_grid, margin_scan_points, margins_near,
    peaking_db_precomputed, stability_margins, stability_margins_precomputed, ClosedLoopScan,
    ClosedLoopSummary, Crossings, MarginError, Margins,
};
pub use pfe::{Pfe, PfeTerm};
pub use stability::{is_hurwitz, routh, RouthResult};
pub use tf::{Tf, TfError};
