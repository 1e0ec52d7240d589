//! Lock acquisition studies.
//!
//! The tri-state PFD's frequency-detection behavior (Gardner 1980) lets
//! a charge-pump PLL acquire lock from large frequency offsets. This
//! module runs the behavioral simulator from a detuned VCO and reports
//! when the loop settles — useful for validating the large-signal side
//! of the model that the small-signal HTM analysis deliberately ignores.
//!
//! ```no_run
//! use htmpll_core::PllDesign;
//! use htmpll_sim::engine::{SimConfig, SimParams};
//! use htmpll_sim::lock::{acquire_lock, LockOptions};
//!
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let r = acquire_lock(&SimParams::from_design(&d), &SimConfig::default(),
//!                      0.01, &LockOptions::default());
//! assert!(r.locked);
//! ```

use crate::engine::{PllSim, SimConfig, SimParams};

/// Options controlling the acquisition run.
#[derive(Debug, Clone, Copy)]
pub struct LockOptions {
    /// Phase-error threshold (fraction of `T`) below which the loop
    /// counts as locked.
    pub threshold_frac: f64,
    /// Number of consecutive reference periods the error must stay below
    /// threshold.
    pub hold_periods: usize,
    /// Give-up horizon in reference periods.
    pub max_periods: usize,
}

impl Default for LockOptions {
    fn default() -> Self {
        LockOptions {
            threshold_frac: 0.01,
            hold_periods: 50,
            max_periods: 20_000,
        }
    }
}

/// Result of an acquisition run.
#[derive(Debug, Clone, Copy)]
pub struct LockResult {
    /// Whether lock was declared before the horizon.
    pub locked: bool,
    /// Time at which the hold window began (s), when locked.
    pub lock_time: f64,
    /// Final phase error (time units).
    pub final_error: f64,
}

/// Runs acquisition from a fractional VCO frequency detuning.
///
/// The loop starts phase-aligned but with the VCO center frequency
/// offset by `freq_offset_frac`; the charge pump must slew the filter to
/// the compensating control voltage.
pub fn acquire_lock(
    params: &SimParams,
    config: &SimConfig,
    freq_offset_frac: f64,
    opts: &LockOptions,
) -> LockResult {
    let _span = htmpll_obs::span("sim", "acquire_lock");
    let mut sim = PllSim::new(params.clone(), *config);
    sim.detune(freq_offset_frac);
    let t_ref = params.t_ref;
    let threshold = opts.threshold_frac * t_ref;

    let mut held = 0usize;
    let mut hold_start = 0.0;
    let mut last_err = f64::INFINITY;
    // Acquisition may slip whole reference cycles before locking; the
    // settled phase offset is then an integer number of periods, which
    // the PFD cannot see. Measure the error modulo T.
    let wrap = |x: f64| x - t_ref * (x / t_ref).round();
    for _ in 0..opts.max_periods {
        let trace = sim.run(t_ref, &|_| 0.0);
        // Phase error relative to the (unmodulated) reference.
        let err = trace
            .theta_vco
            .iter()
            .fold(0.0f64, |a, &b| a.max(wrap(b).abs()));
        last_err = err;
        if err < threshold {
            if held == 0 {
                hold_start = sim.time() - t_ref;
                // First period back under threshold: an unlocked→locked
                // candidate transition (re-entries count again).
                htmpll_obs::counter!("sim", "lock.transitions").inc();
            }
            held += 1;
            if held >= opts.hold_periods {
                htmpll_obs::counter!("sim", "lock.acquired").inc();
                return LockResult {
                    locked: true,
                    lock_time: hold_start,
                    final_error: err,
                };
            }
        } else {
            held = 0;
        }
    }
    htmpll_obs::counter!("sim", "lock.failed").inc();
    LockResult {
        locked: false,
        lock_time: f64::NAN,
        final_error: last_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_core::PllDesign;

    fn params(ratio: f64) -> SimParams {
        SimParams::from_design(&PllDesign::reference_design(ratio).unwrap())
    }

    #[test]
    fn acquires_from_small_offset() {
        let r = acquire_lock(
            &params(0.1),
            &SimConfig::default(),
            5e-3,
            &LockOptions::default(),
        );
        assert!(r.locked, "failed to lock: final error {}", r.final_error);
        assert!(r.lock_time.is_finite() && r.lock_time >= 0.0);
        assert!(r.final_error < 0.01 * params(0.1).t_ref);
    }

    #[test]
    fn larger_offset_takes_longer() {
        let cfg = SimConfig::default();
        let p = params(0.1);
        let opts = LockOptions::default();
        let small = acquire_lock(&p, &cfg, 2e-3, &opts);
        let large = acquire_lock(&p, &cfg, 2e-2, &opts);
        assert!(small.locked && large.locked);
        assert!(
            large.lock_time > small.lock_time,
            "{} vs {}",
            large.lock_time,
            small.lock_time
        );
    }

    #[test]
    fn zero_offset_is_instantly_locked() {
        let r = acquire_lock(
            &params(0.1),
            &SimConfig::default(),
            0.0,
            &LockOptions::default(),
        );
        assert!(r.locked);
        assert!(r.lock_time < 2.0 * params(0.1).t_ref);
    }
}
