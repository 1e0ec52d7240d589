//! # htmpll-sim — behavioral time-domain PLL simulator
//!
//! The verification substrate of the workspace: an event-driven
//! simulation of a charge-pump PLL at the same abstraction level as the
//! paper's Matlab/Simulink model. The PFD is a tri-state flip-flop pair
//! whose pulses have finite width (the sampled phase error), so the
//! simulator exercises precisely the behavior that the impulse-train HTM
//! model approximates — making it the ground truth for the Fig.-6
//! comparison and the Fig.-4 pulse-vs-impulse study.
//!
//! * `state_space` (crate-private) — loop-filter realization
//!   (controllable canonical form), the loop's generator and its exact
//!   propagator, and RK4.
//! * [`pfd`] — tri-state PFD + charge pump.
//! * [`engine`] — the event loop: exact propagation between events
//!   (RK4 for VCOs with an impulse sensitivity function), Newton edge
//!   location, uniform-rate trace recording, reference jitter
//!   injection.
//! * [`measure`] — single-tone closed-loop transfer extraction (the
//!   paper's §5 procedure).
//! * [`lock`] — large-signal lock-acquisition runs.
//!
//! ```no_run
//! use htmpll_core::PllDesign;
//! use htmpll_sim::engine::{PllSim, SimConfig, SimParams};
//!
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let mut sim = PllSim::new(SimParams::from_design(&d), SimConfig::default());
//! let trace = sim.run(10.0 * sim.params().t_ref, &|t| 1e-3 * (0.5 * t).sin());
//! println!("recorded {} samples", trace.theta_vco.len());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod fast;
pub mod lock;
pub mod measure;
pub mod pfd;
pub mod sigma_delta;
mod state_space;

pub use engine::{PllSim, SimConfig, SimParams, Trace};
pub use fast::{CorrectionKind, PeriodMap, PulseLaw};
pub use lock::{acquire_lock, LockOptions, LockResult};
pub use measure::{
    measure_band_transfer, measure_h00, measure_h00_multitone, MeasureOptions, ToneMeasurement,
};
pub use pfd::TriStatePfd;
pub use sigma_delta::{Mash111, MashError};
