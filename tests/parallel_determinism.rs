//! Determinism contract of the parallel sweep engine: every grid entry
//! point must produce **bitwise-identical** results for any thread
//! count, because each point is evaluated by a pure function and placed
//! by index — the partition of work across workers never touches the
//! arithmetic.

use htmpll::core::{NoiseModel, PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::Truncation;
use htmpll::lti::bode_sweep;
use htmpll::par::{par_map, ThreadBudget};

fn model(ratio: f64) -> PllModel {
    PllModel::builder(PllDesign::reference_design(ratio).unwrap())
        .build()
        .unwrap()
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
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
    let h00_grid = |threads| par_map(threads, base.grid.points(), |_, &w| m.h00(w));
    let seq = h00_grid(ThreadBudget::Fixed(1));
    let par = h00_grid(ThreadBudget::Fixed(4));
    for (a, b) in seq.iter().zip(&par) {
        assert_bits(a.re, b.re, "h00 re");
        assert_bits(a.im, b.im, "h00 im");
    }
    // A Bode table, built on the calling thread, carries the pooled
    // values to the bit.
    let bode = bode_sweep(|w| m.h00(w), base.grid.points());
    for (p, b) in bode.iter().zip(&par) {
        assert_bits(p.response.re, b.re, "bode re");
        assert_bits(p.response.im, b.im, "bode im");
    }
}

#[test]
fn dense_htm_grid_identical_across_thread_counts() {
    let m = model(0.3);
    let base = SweepSpec::log(0.1, 2.0, 9)
        .unwrap()
        .with_truncation(Truncation::new(5));
    let one = m
        .closed_loop_htm_grid_robust(&base.clone().with_threads(1), &SweepCache::new())
        .into_strict()
        .unwrap();
    let four = m
        .closed_loop_htm_grid_robust(&base.clone().with_threads(4), &SweepCache::new())
        .into_strict()
        .unwrap();
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.as_matrix().max_diff(b.as_matrix()), 0.0);
    }
}

#[test]
fn noise_grid_identical_across_thread_counts() {
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
}

#[test]
fn cache_hits_return_the_first_evaluation_bitwise() {
    let m = model(0.25);
    let cache = SweepCache::new();
    let spec = SweepSpec::log(0.2, 1.8, 7)
        .unwrap()
        .with_truncation(Truncation::new(4))
        .with_threads(4);
    let cold = m
        .closed_loop_htm_grid_robust(&spec, &cache)
        .into_strict()
        .unwrap();
    let warm = m
        .closed_loop_htm_grid_robust(&spec, &cache)
        .into_strict()
        .unwrap();
    assert_eq!(cache.stats().entries, 7);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.as_matrix().max_diff(b.as_matrix()), 0.0);
    }
}
