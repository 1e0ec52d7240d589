//! The simulator's two propagation paths against each other.
//!
//! A time-invariant VCO is propagated exactly between PFD events; a
//! nonempty `isf_cosine` selects RK4. With `isf_cosine = [0.0]` the
//! RK4 path simulates the same loop, so on the noise-free scenarios of
//! `crates/sim/tests/trace_digest.rs` the two traces must agree to the
//! RK4 truncation and edge-time floor: 1e-10·T in `θ` and 1e-7 of the
//! peak control voltage. A third case runs a 10 MHz loop in SI units,
//! whose generator entries span over twenty decades.

use htmpll::core::PllDesign;
use htmpll::sim::{PllSim, SimConfig, SimParams, Trace};

/// Runs one scenario on a loop of period `t_ref` and unity-gain
/// frequency `w_ug`: a settle run, then a record run.
type Scenario = fn(&mut PllSim, f64, f64) -> Vec<Trace>;

fn jittered_settle_then_modulated(sim: &mut PllSim, t_ref: f64, w_ug: f64) -> Vec<Trace> {
    vec![
        sim.run(150.0 * t_ref, &|_| 0.0),
        sim.run(300.0 * t_ref, &|t| 2e-3 * t_ref * (0.7 * w_ug * t).sin()),
    ]
}

fn reset_mismatch_leakage(sim: &mut PllSim, t_ref: f64, w_ug: f64) -> Vec<Trace> {
    vec![
        sim.run(100.0 * t_ref, &|_| 1e-3 * t_ref),
        sim.run(300.0 * t_ref, &|t| 1e-3 * t_ref * (0.5 * w_ug * t).cos()),
    ]
}

/// Largest `θ` and `v_ctrl` differences between the exact path and the
/// RK4 path, as fractions of `T` and of the exact path's peak `|v_ctrl|`.
fn path_gap(params: &SimParams, w_ug: f64, cfg: SimConfig, scenario: Scenario) -> (f64, f64) {
    assert!(params.isf_cosine.is_empty());
    let t_ref = params.t_ref;
    let exact = scenario(&mut PllSim::new(params.clone(), cfg), t_ref, w_ug);
    let rk4_params = SimParams {
        isf_cosine: vec![0.0],
        ..params.clone()
    };
    let rk4_cfg = SimConfig {
        substeps: 16,
        ..cfg
    };
    let rk4 = scenario(&mut PllSim::new(rk4_params, rk4_cfg), t_ref, w_ug);
    let (mut theta_gap, mut v_gap, mut v_peak) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in exact.iter().zip(&rk4) {
        assert_eq!(a.theta_vco.len(), b.theta_vco.len());
        for (x, y) in a.theta_vco.iter().zip(&b.theta_vco) {
            theta_gap = theta_gap.max((x - y).abs());
        }
        for (x, y) in a.v_ctrl.iter().zip(&b.v_ctrl) {
            v_gap = v_gap.max((x - y).abs());
            v_peak = v_peak.max(x.abs());
        }
    }
    (theta_gap / t_ref, v_gap / v_peak)
}

fn assert_paths_agree(
    case: &str,
    params: &SimParams,
    w_ug: f64,
    cfg: SimConfig,
    scenario: Scenario,
) {
    let (theta, v) = path_gap(params, w_ug, cfg, scenario);
    println!("{case}: max |Δθ| = {theta:.3e}·T, max |Δv| = {v:.3e}·peak");
    assert!(theta < 1e-10, "{case}: θ gap {theta:.3e}·T");
    assert!(v < 1e-7, "{case}: v_ctrl gap {v:.3e} of peak");
}

fn reference_params() -> SimParams {
    SimParams::from_design(&PllDesign::reference_design(0.1).unwrap())
}

#[test]
fn exact_and_rk4_paths_agree_on_jittered_record() {
    let params = reference_params();
    let cfg = SimConfig {
        ref_jitter_rms: 1e-4 * params.t_ref,
        jitter_seed: 0x00c0_ffee,
        ..SimConfig::default()
    };
    assert_paths_agree(
        "jittered",
        &params,
        1.0,
        cfg,
        jittered_settle_then_modulated,
    );
}

#[test]
fn exact_and_rk4_paths_agree_with_reset_mismatch_leakage() {
    let mut params = reference_params();
    params.reset_delay = 0.01 * params.t_ref;
    params.cp_mismatch = 0.15;
    params.leakage = 5e-4 * params.i_cp;
    assert_paths_agree(
        "reset/mismatch/leakage",
        &params,
        1.0,
        SimConfig::default(),
        reset_mismatch_leakage,
    );
}

#[test]
fn exact_and_rk4_paths_agree_in_si_units() {
    // 640 MHz from 10 MHz with a 500 kHz loop and 1 nF of filter
    // capacitance, as in examples/frequency_synthesizer.rs.
    let w_ug = 2.0 * std::f64::consts::PI * 500e3;
    let kvco = 2.0 * std::f64::consts::PI * 100e6;
    let design = PllDesign::synthesize(10e6, 64.0, kvco, w_ug, 4.0, 1e-9).unwrap();
    let mut params = SimParams::from_design(&design);
    params.reset_delay = 0.01 * params.t_ref;
    params.cp_mismatch = 0.15;
    params.leakage = 5e-4 * params.i_cp;
    let cfg = SimConfig {
        ref_jitter_rms: 1e-4 * params.t_ref,
        ..SimConfig::default()
    };
    assert_paths_agree("SI units", &params, w_ug, cfg, reset_mismatch_leakage);
}
