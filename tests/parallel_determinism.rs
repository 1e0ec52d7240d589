//! Determinism contract of the parallel sweep engine: every grid entry
//! point must produce **bitwise-identical** results for any thread
//! count, because each point is evaluated by a pure function and placed
//! by index — the partition of work across workers never touches the
//! arithmetic.

use htmpll::core::{
    analyze_with, bode_grid, AnalysisReport, LeakageSpurs, NoiseModel, PllDesign, PllModel,
    SweepCache, SweepSpec,
};
use htmpll::htm::Truncation;
use htmpll::lti::bode_sweep;
use htmpll::par::ThreadBudget;

fn model(ratio: f64) -> PllModel {
    PllModel::builder(PllDesign::reference_design(ratio).unwrap())
        .build()
        .unwrap()
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn assert_reports_identical(a: &AnalysisReport, b: &AnalysisReport) {
    assert_bits(a.omega_ug_lti, b.omega_ug_lti, "omega_ug_lti");
    assert_bits(a.phase_margin_lti_deg, b.phase_margin_lti_deg, "pm_lti");
    assert_bits(a.omega_ug_eff, b.omega_ug_eff, "omega_ug_eff");
    assert_bits(a.phase_margin_eff_deg, b.phase_margin_eff_deg, "pm_eff");
    assert_bits(a.peaking_db, b.peaking_db, "peaking_db");
    assert_bits(a.peaking_lti_db, b.peaking_lti_db, "peaking_lti_db");
    match (a.bandwidth_3db, b.bandwidth_3db) {
        (Some(x), Some(y)) => assert_bits(x, y, "bandwidth_3db"),
        (x, y) => assert_eq!(x, y, "bandwidth_3db presence"),
    }
    assert_eq!(a.nyquist_stable, b.nyquist_stable);
    assert_eq!(a.beyond_sampling_limit, b.beyond_sampling_limit);
}

#[test]
fn analysis_identical_across_thread_counts() {
    // Slow, fast, and beyond-the-sampling-limit loops: every branch of
    // the analysis must be thread-count-invariant.
    for ratio in [0.05, 0.25, 0.4] {
        let m = model(ratio);
        let one = analyze_with(&m, ThreadBudget::Fixed(1)).unwrap();
        for threads in [2, 4, 7] {
            let n = analyze_with(&m, ThreadBudget::Fixed(threads)).unwrap();
            assert_reports_identical(&one, &n);
        }
    }
}

#[test]
fn lambda_grid_identical_across_thread_counts() {
    let m = model(0.2);
    let base = SweepSpec::log(1e-3, 4.9, 257).unwrap();
    let one = m.lambda().eval_grid(&base.clone().with_threads(1));
    for threads in [2, 3, 8] {
        let n = m.lambda().eval_grid(&base.clone().with_threads(threads));
        assert_eq!(one.len(), n.len());
        for (a, b) in one.iter().zip(&n) {
            assert_bits(a.re, b.re, "lambda re");
            assert_bits(a.im, b.im, "lambda im");
        }
    }
}

#[test]
fn h00_and_bode_identical_across_thread_counts() {
    let m = model(0.15);
    let base = SweepSpec::log(1e-2, 3.0, 101).unwrap();
    let seq = m.h00_grid(&base.clone().with_threads(1));
    let par = m.h00_grid(&base.clone().with_threads(4));
    for (a, b) in seq.iter().zip(&par) {
        assert_bits(a.re, b.re, "h00 re");
        assert_bits(a.im, b.im, "h00 im");
    }
    // Bode assembly (including the sequential phase unwrap) matches the
    // legacy sequential sweep exactly.
    let spec = base.with_threads(4);
    let parallel = bode_grid(|w| m.h00(w), &spec);
    let sequential = bode_sweep(|w| m.h00(w), spec.grid.points());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_bits(p.mag_db, s.mag_db, "bode mag");
        assert_bits(p.phase_deg, s.phase_deg, "bode phase");
    }
}

#[test]
fn dense_htm_grid_identical_across_thread_counts() {
    let m = model(0.3);
    let base = SweepSpec::log(0.1, 2.0, 9)
        .unwrap()
        .with_truncation(Truncation::new(5));
    let one = m
        .closed_loop_htm_grid(&base.clone().with_threads(1))
        .unwrap();
    let four = m
        .closed_loop_htm_grid(&base.clone().with_threads(4))
        .unwrap();
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.as_matrix().max_diff(b.as_matrix()), 0.0);
    }
}

#[test]
fn noise_and_spur_grids_identical_across_thread_counts() {
    let m = model(0.1);
    let n = NoiseModel::new(&m, 8);
    let rp = |_: f64| 1e-12;
    let vp = |f: f64| 1e-12 / (1.0 + f * f);
    let base = SweepSpec::log(1e-3, 4.0, 129).unwrap();
    let seq = n.output_psd_grid(&base.clone().with_threads(1), &rp, &vp);
    let par = n.output_psd_grid(&base.with_threads(5), &rp, &vp);
    for (a, b) in seq.iter().zip(&par) {
        assert_bits(*a, *b, "noise psd");
    }

    let spurs = LeakageSpurs::new(&m, 1e-3 * m.design().icp());
    let one = spurs.scan(12, ThreadBudget::Fixed(1));
    let four = spurs.scan(12, ThreadBudget::Fixed(4));
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.k, b.k);
        assert_bits(a.level_dbc, b.level_dbc, "spur dbc");
        assert_bits(a.sideband.re, b.sideband.re, "spur re");
    }
}

#[test]
fn cache_hits_return_the_first_evaluation_bitwise() {
    let m = model(0.25);
    let cache = SweepCache::new();
    let spec = SweepSpec::log(0.2, 1.8, 7)
        .unwrap()
        .with_truncation(Truncation::new(4))
        .with_threads(4);
    let cold = m.closed_loop_htm_grid_cached(&spec, &cache).unwrap();
    let warm = m.closed_loop_htm_grid_cached(&spec, &cache).unwrap();
    assert_eq!(cache.dense_entries(), 7);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.as_matrix().max_diff(b.as_matrix()), 0.0);
    }
}

#[test]
fn analyze_matches_explicit_auto_budget() {
    // `analyze` is `analyze_with(Auto)`; whatever Auto resolves to on
    // this machine, the result must equal the explicit 1-thread run.
    let m = model(0.2);
    let auto = htmpll::core::analyze(&m).unwrap();
    let one = analyze_with(&m, ThreadBudget::Fixed(1)).unwrap();
    assert_reports_identical(&auto, &one);
}
