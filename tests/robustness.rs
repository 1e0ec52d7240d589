//! Adversarial robustness suite: the numerical core must never panic
//! through its public APIs, no matter how hostile the input — on-pole
//! frequency points, singular and near-singular closed-loop matrices,
//! NaN/∞ injection, degenerate designs, and 100+ seeds of random
//! fuzzing through the vendored xoshiro PRNG. Everything here is
//! deterministic: fixed seeds, no wall-clock, no ambient randomness.

use htmpll::core::{
    analyze, KernelPolicy, PllDesign, PllModel, PointQuality, SweepCache, SweepSpec,
    MAX_AUTO_TRUNCATION,
};
use htmpll::htm::{Htm, HtmRepr, Truncation};
use htmpll::lti::Tf;
use htmpll::num::rng::Rng;
use htmpll::num::{CMat, Complex, Lu, LuError, RobustLu, SolveStage};
use htmpll::par::{Deadline, ThreadBudget};
use htmpll::requests::{Params, Request, MAX_TRANSIENT_PERIODS};
use htmpll::service::{handle, Response, ServiceCtx};
use std::io::Write;
use std::process::{Command, Stdio};

fn model(ratio: f64) -> PllModel {
    PllModel::builder(PllDesign::reference_design(ratio).unwrap())
        .build()
        .unwrap()
}

fn c(re: f64, im: f64) -> Complex {
    Complex::new(re, im)
}

/// Random complex matrix with entries spanning many orders of
/// magnitude — the kind of dynamic range a sweep near a closed-loop
/// pole actually produces.
fn random_matrix(rng: &mut Rng, n: usize, log_scale: f64) -> CMat {
    let scale = 10f64.powf(log_scale);
    let data: Vec<Complex> = (0..n * n)
        .map(|_| c(rng.gaussian() * scale, rng.gaussian() * scale))
        .collect();
    CMat::from_rows(n, n, &data)
}

// ---------------------------------------------------------------------
// On-pole sweeps: the open-loop HTM diverges exactly at s = j·m·ω₀.
// ---------------------------------------------------------------------

#[test]
fn on_pole_sweep_completes_with_partial_results() {
    let m = model(0.2);
    let w0 = m.design().omega_ref();
    // Two poisoned points (the aliased-integrator poles at ω₀ and 2ω₀)
    // surrounded by perfectly ordinary frequencies.
    let grid = vec![0.05 * w0, 0.3 * w0, w0, 0.44 * w0, 2.0 * w0, 0.1 * w0];
    let spec = SweepSpec::new(grid.clone()).with_threads(1usize);
    let out = m.closed_loop_htm_grid_robust(&spec, &SweepCache::new());

    assert_eq!(out.len(), grid.len(), "no point may abort the sweep");
    for (i, p) in out.points.iter().enumerate() {
        let on_pole = i == 2 || i == 4;
        if on_pole {
            assert!(
                !p.quality.is_usable(),
                "point {i} sits on an aliased-integrator pole, got {:?}",
                p.quality
            );
            assert!(p.value.is_none());
        } else {
            assert!(
                p.quality.is_usable(),
                "ordinary point {i} must stay usable, got {:?}",
                p.quality
            );
            let htm = p.value.as_ref().expect("usable point carries a value");
            assert!(htm.as_matrix().is_finite());
        }
    }
    let s = out.summary();
    assert_eq!(s.failed, 2);
    assert_eq!(s.total(), grid.len());
}

#[test]
fn strict_sweep_errors_cleanly_on_pole_instead_of_panicking() {
    let m = model(0.2);
    let w0 = m.design().omega_ref();
    let spec = SweepSpec::new(vec![0.1 * w0, w0]).with_threads(1usize);
    let err = m
        .closed_loop_htm_grid_robust(&spec, &SweepCache::new())
        .into_strict()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("grid point 1"),
        "error must name the failing point: {msg}"
    );
}

// ---------------------------------------------------------------------
// Singular and near-singular I + G̃.
// ---------------------------------------------------------------------

#[test]
fn exactly_singular_closed_loop_is_perturbed_not_fatal() {
    // G̃ = −I makes I + G̃ the zero matrix: singular at every step.
    let trunc = Truncation::new(3);
    let g = Htm::identity(trunc, 1.0).scale(-Complex::ONE);
    let (closed, report) = g.closed_loop_factored_robust().unwrap();
    assert!(report.perturbed);
    assert_eq!(report.accepted_stage(), SolveStage::Tikhonov);
    assert!(closed.as_matrix().is_finite());
}

#[test]
fn near_singular_matrices_solve_finitely_across_scales() {
    // A rank-deficient-to-working-precision matrix at many scales: two
    // identical rows separated by a relative 1e-15 perturbation.
    for &log_scale in &[-12.0, -6.0, 0.0, 6.0, 12.0] {
        let scale = 10f64.powf(log_scale);
        let a = CMat::from_rows(
            3,
            3,
            &[
                c(scale, 0.0),
                c(2.0 * scale, 0.0),
                c(3.0 * scale, 0.0),
                c(scale * (1.0 + 1e-15), 0.0),
                c(2.0 * scale, 0.0),
                c(3.0 * scale, 0.0),
                c(0.0, scale),
                c(scale, 0.0),
                c(0.0, 0.0),
            ],
        );
        let lu = RobustLu::factor(&a).unwrap();
        let b = vec![c(scale, 0.0), c(scale, 0.0), c(0.0, scale)];
        let (x, _) = lu.solve(&b).unwrap();
        assert!(
            x.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "scale 1e{log_scale}: non-finite solution"
        );
        let report = lu.report();
        assert!(report.cond_estimate.is_finite());
        assert!(!report.stages_tried.is_empty());
    }
}

// ---------------------------------------------------------------------
// NaN/∞ injection: every public entry point must return an error, not
// propagate poison or panic.
// ---------------------------------------------------------------------

#[test]
fn nan_and_inf_matrices_are_rejected() {
    let mut a = CMat::identity(3);
    a[(1, 1)] = c(f64::NAN, 0.0);
    assert_eq!(RobustLu::factor(&a).unwrap_err(), LuError::NonFinite);
    assert_eq!(Lu::factor_complete(&a).unwrap_err(), LuError::NonFinite);

    let mut b = CMat::identity(3);
    b[(0, 2)] = c(0.0, f64::INFINITY);
    assert_eq!(RobustLu::factor(&b).unwrap_err(), LuError::NonFinite);
    assert_eq!(
        RobustLu::factor(&b)
            .and_then(|lu| lu.solve(&[Complex::ONE; 3]))
            .unwrap_err(),
        LuError::NonFinite
    );
}

#[test]
fn nan_rhs_is_rejected_after_a_good_factorization() {
    let a = CMat::identity(3);
    let lu = RobustLu::factor(&a).unwrap();
    let bad = vec![Complex::ONE, c(f64::NAN, 0.0), Complex::ONE];
    assert_eq!(lu.solve(&bad).unwrap_err(), LuError::NonFinite);
    let short = vec![Complex::ONE; 2];
    assert_eq!(lu.solve(&short).unwrap_err(), LuError::DimensionMismatch);
}

#[test]
fn non_finite_laplace_points_fail_with_a_reason() {
    let m = model(0.2);
    let cache = SweepCache::new();
    let trunc = Truncation::new(2);
    for s in [
        c(f64::NAN, 0.0),
        c(0.0, f64::NAN),
        c(f64::INFINITY, 1.0),
        c(1.0, f64::NEG_INFINITY),
    ] {
        let err = cache
            .dense_robust(&m, s, trunc, KernelPolicy::default())
            .unwrap_err();
        assert!(
            err.contains("non-finite"),
            "s = {s}: reason must mention non-finiteness, got {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Degenerate designs.
// ---------------------------------------------------------------------

#[test]
fn zero_bandwidth_loop_filter_never_panics() {
    // Z_LF(s) ≡ 0: the loop is broken open, the closed-loop HTM is the
    // identity. Every layer must take this in stride.
    let design = PllDesign::builder()
        .f_ref(1.0)
        .icp(1.0)
        .kvco(1.0)
        .divider(1.0)
        .filter(htmpll::core::LoopFilter::Custom(Tf::constant(0.0)))
        .build();
    let Ok(design) = design else {
        // A validating rejection is an equally acceptable non-panic.
        return;
    };
    let Ok(m) = PllModel::builder(design).build() else {
        return;
    };
    let w0 = m.design().omega_ref();
    let cache = SweepCache::new();
    for w in [0.01 * w0, 0.25 * w0, 0.45 * w0] {
        match cache.dense_robust(
            &m,
            Complex::from_im(w),
            Truncation::new(2),
            KernelPolicy::default(),
        ) {
            Ok(d) => assert!(d.htm.as_matrix().is_finite()),
            Err(reason) => assert!(!reason.is_empty()),
        }
        let h = m.h00(w);
        assert!(h.re.is_finite() || h.re.is_nan()); // defined either way, no panic
    }
}

#[test]
fn extreme_truncation_orders_stay_usable() {
    let m = model(0.1);
    let w0 = m.design().omega_ref();
    let cache = SweepCache::new();
    for k in [0usize, 1, MAX_AUTO_TRUNCATION] {
        let d = cache
            .dense_robust(
                &m,
                Complex::from_im(0.3 * w0),
                Truncation::new(k),
                KernelPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("K = {k} failed: {e}"));
        assert!(d.quality.is_usable());
        assert!(d.htm.as_matrix().is_finite());
    }
}

// ---------------------------------------------------------------------
// Seeded fuzzing: ≥100 deterministic seeds through the vendored
// xoshiro PRNG. The contract under test is "never panic, never return
// poisoned values without an error".
// ---------------------------------------------------------------------

#[test]
fn hundred_seed_matrix_fuzz_never_panics() {
    for seed in 0..100u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 2 + (rng.next_u64() % 5) as usize; // 2..=6
        let log_scale = rng.range(-8.0, 8.0);
        let mut a = random_matrix(&mut rng, n, log_scale);

        // Every fifth seed: exact singularity (duplicate a row).
        if seed % 5 == 0 {
            for j in 0..n {
                let v = a[(0, j)];
                a[(n - 1, j)] = v;
            }
        }
        // Every seventh seed: poison one entry.
        let poisoned = seed % 7 == 0;
        if poisoned {
            let i = (rng.next_u64() % n as u64) as usize;
            let j = (rng.next_u64() % n as u64) as usize;
            a[(i, j)] = c(f64::NAN, 0.0);
        }

        let b: Vec<Complex> = (0..n).map(|_| c(rng.gaussian(), rng.gaussian())).collect();
        match RobustLu::factor(&a) {
            Err(e) => {
                if poisoned {
                    assert_eq!(e, LuError::NonFinite, "seed {seed}");
                }
            }
            Ok(lu) => {
                assert!(!poisoned, "seed {seed}: NaN matrix must not factor");
                match lu.solve(&b) {
                    Ok((x, report)) => {
                        assert!(
                            x.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                            "seed {seed}: Ok solve returned non-finite entries"
                        );
                        assert!(report.residual.is_finite() || report.residual.is_nan());
                    }
                    Err(e) => assert_ne!(e, LuError::NotSquare, "seed {seed}"),
                }
                let report = lu.report();
                if report.perturbed {
                    assert_eq!(report.accepted_stage(), SolveStage::Tikhonov, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn seeded_design_sweeps_never_panic() {
    // 32 random loop designs × 5 random frequencies each (with a
    // guaranteed on-pole probe), all through the graceful grid.
    for seed in 100..132u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let ratio = rng.range(0.02, 0.48);
        let m = model(ratio);
        let w0 = m.design().omega_ref();
        let mut grid: Vec<f64> = (0..4).map(|_| rng.range(1e-3, 4.9) * w0).collect();
        grid.push(w0); // always probe the pole itself
        let spec = SweepSpec::new(grid.clone()).with_threads(1usize);
        let out = m.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
        assert_eq!(out.len(), grid.len(), "seed {seed}");
        for (p, &w) in out.points.iter().zip(&grid) {
            match (&p.quality, &p.value) {
                (PointQuality::Failed { reason }, None) => {
                    assert!(!reason.is_empty(), "seed {seed} ω = {w}")
                }
                (q, Some(htm)) => {
                    assert!(q.is_usable(), "seed {seed} ω = {w}: value with {q:?}");
                    assert!(htm.as_matrix().is_finite(), "seed {seed} ω = {w}");
                }
                (q, None) => panic!("seed {seed} ω = {w}: no value but quality {q:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Verdict determinism: quality grades are part of the thread-count
// bitwise-identity contract, not just the values.
// ---------------------------------------------------------------------

#[test]
fn verdicts_and_values_bitwise_identical_across_thread_counts() {
    let m = model(0.25);
    let w0 = m.design().omega_ref();
    // Ordinary, near-pole, and exactly-on-pole points mixed together.
    let grid = vec![
        0.07 * w0,
        w0 * (1.0 - 1e-9),
        w0,
        0.33 * w0,
        2.0 * w0,
        0.45 * w0,
    ];
    let run = |threads: usize| {
        let spec = SweepSpec::new(grid.clone()).with_threads(threads);
        m.closed_loop_htm_grid_robust(&spec, &SweepCache::new())
    };
    let one = run(1);
    for threads in [2, 4] {
        let many = run(threads);
        assert_eq!(one.len(), many.len());
        for (i, (a, b)) in one.points.iter().zip(&many.points).enumerate() {
            assert_eq!(
                a.quality, b.quality,
                "point {i} verdict @ {threads} threads"
            );
            assert_eq!(
                a.cond.to_bits(),
                b.cond.to_bits(),
                "point {i} cond @ {threads} threads"
            );
            assert_eq!(
                a.residual.to_bits(),
                b.residual.to_bits(),
                "point {i} residual @ {threads} threads"
            );
            match (&a.value, &b.value) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    let (mx, my) = (x.as_matrix(), y.as_matrix());
                    for r in 0..mx.rows() {
                        for cidx in 0..mx.cols() {
                            assert_eq!(
                                mx[(r, cidx)].re.to_bits(),
                                my[(r, cidx)].re.to_bits(),
                                "point {i} entry ({r},{cidx}) @ {threads} threads"
                            );
                            assert_eq!(
                                mx[(r, cidx)].im.to_bits(),
                                my[(r, cidx)].im.to_bits(),
                                "point {i} entry ({r},{cidx}) @ {threads} threads"
                            );
                        }
                    }
                }
                _ => panic!("point {i}: value presence differs across thread counts"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Banded-Toeplitz loops on the dense ladder: a structured banded open
// loop must close to the same HTM as the same loop built from a dense
// matrix, across 24 decades of scale, with an honest backward residual
// and never a non-finite entry.
// ---------------------------------------------------------------------

#[test]
fn banded_lu_matches_dense_lu_across_24_decades() {
    // log10 scales −12..=+12 inclusive: 24 decades of dynamic range.
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0xBA2DEDu64 ^ seed);
        let trunc = Truncation::new(2 + (rng.next_u64() % 7) as usize); // n = 5..=17
        let n = trunc.dim();
        let b = (rng.next_u64() % 4) as usize; // 0..=3
        let log_scale = -12.0 + (seed % 25) as f64; // −12..=+12
        let scale = 10f64.powf(log_scale);
        let coeffs: Vec<Complex> = (0..2 * b + 1)
            .map(|_| c(rng.gaussian() * scale, rng.gaussian() * scale))
            .collect();
        let row_scale: Option<Vec<Complex>> =
            (seed % 2 == 1).then(|| (0..n).map(|_| c(rng.gaussian(), rng.gaussian())).collect());

        // The same loop, entry by entry: B_ij = rs_i · c_{(i−j)+b}.
        let dense = CMat::from_fn(n, n, |i, j| {
            let k = i as i64 - j as i64;
            if k.unsigned_abs() as usize > b {
                return Complex::ZERO;
            }
            let e = coeffs[(k + b as i64) as usize];
            row_scale.as_ref().map_or(e, |rs| rs[i] * e)
        });
        let banded = Htm::from_repr(trunc, 1.0, HtmRepr::BandedToeplitz { coeffs, row_scale });
        let (cl, report) = banded.closed_loop_factored_robust().unwrap();
        let (reference, ref_report) = Htm::from_matrix(trunc, 1.0, dense.clone())
            .closed_loop_factored_robust()
            .unwrap();
        let ctx = format!("seed {seed} (n={n} b={b} scale=1e{log_scale})");
        assert_eq!(
            report.stages_tried[0],
            SolveStage::RefinedPartial,
            "{ctx}: a banded loop takes the dense ladder"
        );
        assert!(cl.as_matrix().is_finite(), "{ctx}: non-finite closed loop");
        if report.perturbed || ref_report.perturbed {
            continue; // singular draw: nothing to compare
        }

        let x = cl.as_matrix();
        let ref_norm = reference.as_matrix().norm_max();
        let diff = x.max_diff(reference.as_matrix());
        assert!(
            diff <= 1e-6 * ref_norm.max(f64::MIN_POSITIVE),
            "{ctx}: banded vs dense diff {diff:.3e} vs norm {ref_norm:.3e}"
        );
        // Backward residual of (I + G̃)·X = G̃ against the dense matrix.
        let i_plus_g = &CMat::identity(n) + &dense;
        let resid = (&(&i_plus_g * x) - &dense).norm_max();
        let bound = 1e-6 * (i_plus_g.norm_max() * x.norm_max() + dense.norm_max());
        assert!(
            resid <= bound.max(f64::MIN_POSITIVE),
            "{ctx}: residual {resid:.3e} vs bound {bound:.3e}"
        );
    }
}

// ---------------------------------------------------------------------
// Whole-analysis quality roll-up.
// ---------------------------------------------------------------------

#[test]
fn analysis_quality_summary_is_consistent() {
    for ratio in [0.05, 0.25, 0.45] {
        let m = model(ratio);
        let report = analyze(&m, ThreadBudget::Fixed(1), &Deadline::none()).unwrap();
        let q = &report.quality;
        assert_eq!(
            q.exact + q.refined + q.perturbed + q.failed,
            q.total(),
            "ratio {ratio}"
        );
        assert!(q.total() > 0, "ratio {ratio}: summary must cover points");
        assert!(
            q.worst_cond.is_finite() || q.total() == q.failed,
            "ratio {ratio}"
        );
    }
}

// ---------------------------------------------------------------------
// Transient horizons: `step`/`hop` refuse what they cannot finish.
// ---------------------------------------------------------------------

/// Horizons the inversion integral cannot finish, or that have no
/// meaning: each is a parse error, before any work starts.
const BAD_TRANSIENT_ARGS: [&[&str]; 6] = [
    &["--ratio", "0.1", "--until", "nan"],
    &["--ratio", "0.1", "--until", "inf"],
    &["--ratio", "0.1", "--until", "-5"],
    &["--ratio", "0.1", "--points", "0"],
    &["--ratio", "0.1", "--until", "4e7", "--points", "3"],
    // The default 40 s horizon is 4·10⁸ periods of a 10 MHz loop.
    &[
        "--fref", "10e6", "--n", "64", "--kvco", "6.28e8", "--bw", "500e3",
    ],
];

fn transient_params(args: &[&str]) -> Params {
    Params::from_argv(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn transient_horizons_outside_the_limits_are_rejected() {
    for command in ["step", "hop"] {
        for args in BAD_TRANSIENT_ARGS {
            let err = Request::parse(command, &transient_params(args)).unwrap_err();
            assert!(err.starts_with("--"), "{command} {args:?}: {err}");
        }
    }
    // At the limit's edge the request parses; one step past it does not.
    let periods = |points: usize| MAX_TRANSIENT_PERIODS / points as f64 - 25.0;
    let t_ref = 1.0 / PllDesign::reference_design(0.1).unwrap().f_ref();
    let until = |points| format!("{}", 0.999 * periods(points) * t_ref);
    let over = |points| format!("{}", 1.001 * periods(points) * t_ref);
    for points in [1usize, 40] {
        let p = points.to_string();
        let ok = ["--ratio", "0.1", "--points", &p, "--until", &until(points)];
        assert!(Request::parse("hop", &transient_params(&ok)).is_ok());
        let bad = ["--ratio", "0.1", "--points", &p, "--until", &over(points)];
        assert!(Request::parse("hop", &transient_params(&bad)).is_err());
    }
}

#[test]
fn single_point_transient_returns_one_row() {
    for command in ["step", "hop"] {
        let args = ["--ratio", "0.1", "--points", "1", "--until", "4"];
        let req = Request::parse(command, &transient_params(&args)).unwrap();
        let out = match handle(&req, &ServiceCtx::new()) {
            Response::Step(out) | Response::Hop(out) => out,
            other => panic!("{command}: {other:?}"),
        };
        assert_eq!(out.ts, vec![4.0], "{command}");
        assert_eq!(out.ys.len(), 1, "{command}");
    }
}

#[test]
fn cli_and_serve_reject_unbounded_transients_with_structured_errors() {
    let exe = env!("CARGO_BIN_EXE_plltool");
    for args in BAD_TRANSIENT_ARGS {
        let out = Command::new(exe)
            .arg("hop")
            .args(args)
            .output()
            .expect("run plltool hop");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("--"), "{args:?}: {stderr}");
    }
    let mut child = Command::new(exe)
        .args(["serve", "--deadline-ms", "200", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn plltool serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"id\":1,\"command\":\"hop\",\"params\":{\"ratio\":0.1,\"until\":1e308,\"points\":3}}\n",
        )
        .expect("write request");
    let out = child.wait_with_output().expect("serve run");
    assert!(out.status.success(), "serve exited nonzero");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        text.contains("\"code\":\"bad_request\"") && text.contains("\"retryable\":false"),
        "{text}"
    );
}
