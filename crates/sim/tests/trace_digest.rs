//! Bit-level pins of the simulator's output.
//!
//! Each case hashes the exact IEEE-754 bits of a simulator result, so
//! any change to the event loop's arithmetic (a reordered sum, a fused
//! multiply-add, a stale cached edge time) moves a digest. A refactor
//! of the engine keeps every digest below. A pin moves only with a
//! change of method (how the loop is propagated or an edge is solved),
//! recorded in CHANGES.md with its old and new value; the bound on how
//! far such a change may move the traces is checked elsewhere
//! (`tests/sim_paths.rs` compares the exact and RK4 paths).

use htmpll_core::PllDesign;
use htmpll_num::hash::Fnv1a;
use htmpll_sim::engine::{PllSim, SimConfig, SimParams, Trace};
use htmpll_sim::measure::{measure_h00, MeasureOptions};

fn hash_trace(h: &mut Fnv1a, trace: &Trace) {
    h.write_f64(trace.dt);
    h.write_f64(trace.t0);
    for series in [&trace.theta_ref, &trace.theta_vco, &trace.v_ctrl] {
        h.write_u64(series.len() as u64);
        series.iter().for_each(|&v| h.write_f64(v));
    }
}

fn reference_params() -> SimParams {
    SimParams::from_design(&PllDesign::reference_design(0.1).unwrap())
}

fn assert_digest(case: &str, h: &Fnv1a, pinned: &str) {
    assert_eq!(
        h.finish_hex(),
        pinned,
        "{case}: simulator output bits moved"
    );
}

#[test]
fn measure_h00_tones_are_bit_pinned() {
    let params = reference_params();
    let mut h = Fnv1a::new();
    for w in [0.4, 1.0, 2.0] {
        let m = measure_h00(
            &params,
            &SimConfig::default(),
            w,
            &MeasureOptions::default(),
        );
        for v in [m.omega, m.h.re, m.h.im, m.peak_theta] {
            h.write_f64(v);
        }
    }
    assert_digest("measure_h00", &h, "50ebc622c7cf2c28");
}

#[test]
fn jittered_settle_then_modulated_record_is_bit_pinned() {
    // The settle and record runs use different modulation closures, so
    // the first reference edge of the record must be re-solved under
    // the new closure.
    let params = reference_params();
    let t_ref = params.t_ref;
    let cfg = SimConfig {
        ref_jitter_rms: 1e-4 * t_ref,
        jitter_seed: 0x00c0_ffee,
        ..SimConfig::default()
    };
    let mut sim = PllSim::new(params, cfg);
    let mut h = Fnv1a::new();
    hash_trace(&mut h, &sim.run(150.0 * t_ref, &|_| 0.0));
    hash_trace(
        &mut h,
        &sim.run(300.0 * t_ref, &|t| 2e-3 * t_ref * (0.7 * t).sin()),
    );
    assert_digest("jittered run", &h, "447596bda92c9277");
}

#[test]
fn isf_reset_delay_mismatch_leakage_is_bit_pinned() {
    let mut params = reference_params();
    let t_ref = params.t_ref;
    params.isf_cosine = vec![0.3, -0.1];
    params.reset_delay = 0.01 * t_ref;
    params.cp_mismatch = 0.15;
    params.leakage = 5e-4 * params.i_cp;
    let mut sim = PllSim::new(params, SimConfig::default());
    let mut h = Fnv1a::new();
    hash_trace(&mut h, &sim.run(100.0 * t_ref, &|_| 1e-3 * t_ref));
    hash_trace(
        &mut h,
        &sim.run(300.0 * t_ref, &|t| 1e-3 * t_ref * (0.5 * t).cos()),
    );
    assert_digest("isf/reset/mismatch/leakage", &h, "a8189b70e734a695");
}

#[test]
fn dead_zone_div_sequence_fm_noise_is_bit_pinned() {
    let mut params = reference_params();
    let t_ref = params.t_ref;
    params.dead_zone = 4e-3 * t_ref;
    params.div_sequence = Some(vec![1, -1, 0, 2, -2]);
    let cfg = SimConfig {
        vco_fm_psd: 1e-8,
        jitter_seed: 7,
        ..SimConfig::default()
    };
    let mut sim = PllSim::new(params, cfg);
    let mut h = Fnv1a::new();
    hash_trace(
        &mut h,
        &sim.run(400.0 * t_ref, &|t| 3e-3 * t_ref * (0.3 * t).sin()),
    );
    assert_digest("dead zone/div sequence/fm noise", &h, "e8f160c3cc230eda");
}
