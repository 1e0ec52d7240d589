//! The exact rational form of `λ` in `z = e^{2πs/ω₀}` and what is read
//! off it: `λ = N(z)/D(z)` agrees with the `coth` kernel, the Jury
//! verdict on `D + N` agrees with the argument-principle winding count
//! it replaced, and the strip poles from the roots of `D + N` are
//! unit-free.

use htmpll::core::{
    analyze, candidate_params, dominant_poles, AnalysisReport, CoreError, DesignParams,
    EffectiveGain, PllDesign, PllModel, EXPLORE_F_REF,
};
use htmpll::lti::Tf;
use htmpll::num::Complex;
use htmpll::par::{Deadline, ThreadBudget};
use htmpll::xcheck::strip_zero_count;
use std::f64::consts::PI;

/// `N(z)/D(z)` at `z = e^{2πs/ω₀}`.
fn rational_lambda(lam: &EffectiveGain, s: Complex) -> Complex {
    let z = s.scale(2.0 * PI / lam.omega0()).exp();
    let (n, d) = lam.z_form();
    n.eval_complex(z) / d.eval_complex(z)
}

#[test]
fn z_form_matches_lambda_off_the_poles() {
    let reference = PllDesign::reference_design(0.1).unwrap();
    let delayed = PllModel::builder(PllDesign::reference_design(0.2).unwrap())
        .loop_delay(0.3, 3)
        .build()
        .unwrap();
    let gains = [
        // Type II: double pole at 0 beside a real pole.
        EffectiveGain::new(&reference.open_loop_gain(), reference.omega_ref()).unwrap(),
        // Triple pole at the origin: lattice orders 1..=3.
        EffectiveGain::new(
            &Tf::from_coeffs(vec![0.5, 1.0], vec![0.0, 0.0, 0.0, 2.0, 1.0]).unwrap(),
            5.0,
        )
        .unwrap(),
        // A conjugate pair −1 ± 2j beside an integrator.
        EffectiveGain::new(
            &Tf::from_coeffs(vec![1.0, 0.5], vec![0.0, 5.0, 2.0, 1.0]).unwrap(),
            2.0 * PI,
        )
        .unwrap(),
        // The type-II loop behind a Padé-(3,3) delay: degree 6 in z.
        delayed.lambda().clone(),
    ];
    for lam in &gains {
        let w0 = lam.omega0();
        let (_, d) = lam.z_form();
        assert_eq!(lam.characteristic().degree(), d.degree());
        for x in [-0.3, -0.05, 0.02, 0.25] {
            for k in 0..=8 {
                let s = Complex::new(x * w0, w0 * (0.45 * (k as f64 / 4.0 - 1.0) + 0.013));
                let exact = lam.eval(s);
                let rational = rational_lambda(lam, s);
                let rel = (rational - exact).abs() / exact.abs();
                assert!(
                    rel < 1e-12,
                    "s = {s}: N/D = {rational}, λ = {exact} (rel {rel:e})"
                );
            }
        }
    }
}

#[test]
fn z_form_is_unit_free() {
    // One loop shape at three reference frequencies: the same
    // polynomials, up to rounding.
    let shape = |f_ref: f64| {
        let d = PllDesign::synthesize(f_ref, 100.0, 1e8 * PI, 0.3 * 2.0 * PI * f_ref, 4.0, 1e-9)
            .unwrap();
        let m = PllModel::builder(d).build().unwrap();
        m.lambda().characteristic()
    };
    let base = shape(10e6);
    for f_ref in [100e6, 1e9] {
        let other = shape(f_ref);
        assert_eq!(other.degree(), base.degree());
        let scale = base.coeffs().iter().map(|c| c.abs()).fold(0.0, f64::max);
        for (a, b) in base.coeffs().iter().zip(other.coeffs()) {
            assert!((a - b).abs() < 1e-9 * scale, "{base} vs {other}");
        }
    }
}

/// The explorer's candidate design (the recipe of its full stage).
fn candidate_design(p: &DesignParams) -> Result<PllDesign, CoreError> {
    let kvco = 2.0 * PI * 100.0e6;
    let omega_ug = p.ratio * 2.0 * PI * EXPLORE_F_REF;
    let base = PllDesign::synthesize(EXPLORE_F_REF, p.divider, kvco, omega_ug, p.spread, 1.0e-9)?;
    if p.icp_scale == 1.0 {
        return Ok(base);
    }
    PllDesign::builder()
        .f_ref(EXPLORE_F_REF)
        .icp(base.icp() * p.icp_scale)
        .kvco(kvco)
        .divider(p.divider)
        .filter(base.filter().clone())
        .build()
}

fn report(model: &PllModel) -> AnalysisReport {
    analyze(model, ThreadBudget::Fixed(1), &Deadline::none()).unwrap()
}

/// `analyze`'s exact verdict against the argument principle: the
/// winding count of `1 + λ` over 4,096 points of the strip contour at
/// `Re s = 10⁻⁴·ω_UG` (the scan `analyze` ran before the exact form).
/// Returns whether the loop is stable.
fn verdicts_agree(model: &PllModel, what: &str) -> bool {
    let r = report(model);
    let eps = 1e-4 * r.omega_ug_lti;
    let line = model.lambda().line(eps);
    let count = strip_zero_count(|s| line.eval(s.im), model.design().omega_ref(), eps, 4096);
    assert_eq!(
        r.nyquist_stable,
        count == 0,
        "{what}: exact verdict {} vs {count} strip zeros",
        r.nyquist_stable
    );
    r.nyquist_stable
}

#[test]
fn exact_verdict_matches_winding_count_on_explore_candidates() {
    let mut stable = 0;
    for i in 0..256 {
        let p = candidate_params(1, i, false);
        let Ok(model) = candidate_design(&p).and_then(|d| PllModel::builder(d).build()) else {
            continue;
        };
        stable += verdicts_agree(&model, &format!("candidate {i}")) as usize;
    }
    assert!(stable > 50 && stable < 250, "{stable} of 256 stable");
}

#[test]
fn exact_verdict_matches_winding_count_on_reference_sweep() {
    let mut flips = 0;
    let mut last = true;
    for k in 1..=60 {
        let ratio = 0.01 * k as f64;
        let model = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap();
        let stable = verdicts_agree(&model, &format!("ratio {ratio}"));
        flips += (stable != last) as usize;
        last = stable;
    }
    // Stable up to the sampling limit (≈ 0.276), unstable beyond.
    assert_eq!(flips, 1);
    assert!(!last);
}

#[test]
fn exact_verdict_matches_winding_count_with_pade_delays() {
    for order in 1..=4 {
        for ratio in [0.05, 0.15, 0.22, 0.3] {
            for delay_periods in [0.1, 0.4] {
                let d = PllDesign::reference_design(ratio).unwrap();
                let tau = delay_periods * 2.0 * PI / d.omega_ref();
                let model = PllModel::builder(d).loop_delay(tau, order).build().unwrap();
                assert_eq!(
                    model.lambda().characteristic().degree(),
                    3 + order,
                    "Padé order {order} adds {order} poles"
                );
                verdicts_agree(
                    &model,
                    &format!("Padé {order}, ratio {ratio}, τ/T {delay_periods}"),
                );
            }
        }
    }
}

#[test]
fn strip_poles_scale_with_the_reference_frequency() {
    // `plltool analyze --fref 10e6 --n 100 --kvco 314159265.36 --bw 3e6`
    // is the ratio-0.3 loop shape in physical units.
    let physical = PllModel::builder(
        PllDesign::synthesize(10e6, 100.0, 314159265.36, 2.0 * PI * 3e6, 4.0, 1e-9).unwrap(),
    )
    .build()
    .unwrap();
    let normalized = PllModel::builder(PllDesign::reference_design(0.3).unwrap())
        .build()
        .unwrap();
    assert!(!report(&physical).nyquist_stable);
    let scale = physical.design().omega_ref() / normalized.design().omega_ref();
    let p = dominant_poles(&physical).unwrap();
    let q = dominant_poles(&normalized).unwrap();
    assert!(p[0].re > 0.0, "the unstable strip pole is listed: {p:?}");
    assert_eq!(p.len(), q.len(), "{p:?} vs {q:?}");
    for (a, b) in p.iter().zip(&q) {
        let expect = b.scale(scale);
        assert!(
            (*a - expect).abs() < 1e-9 * expect.abs(),
            "{a} vs {b}·{scale} = {expect}"
        );
    }
    assert!(
        (q[0] - Complex::new(0.1230, 5.0 / 3.0)).abs() < 1e-4,
        "{q:?}"
    );
}
