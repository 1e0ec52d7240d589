//! Golden regression values for the reproduction's headline numbers.
//!
//! These pin the quantitative results recorded in EXPERIMENTS.md so a
//! future change that silently alters the physics (sign conventions,
//! gain factors, normalizations) fails loudly rather than drifting.

use htmpll::core::{analyze, PllDesign, PllModel};
use htmpll::par::Deadline;
use htmpll::zdomain::reference_design_stability_limit;

fn report(ratio: f64) -> htmpll::core::AnalysisReport {
    analyze(
        &PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap(),
        &Deadline::none(),
    )
    .unwrap()
}

#[test]
fn golden_lti_phase_margin() {
    // atan(4) − atan(1/4) = 61.9275°, by construction of the shape.
    let r = report(0.1);
    assert!((r.phase_margin_lti_deg - 61.9275).abs() < 1e-3);
    assert!((r.omega_ug_lti - 1.0).abs() < 1e-6);
}

#[test]
fn golden_effective_margins() {
    // The Fig.-7 table (EXPERIMENTS.md).
    for (ratio, wug_eff, pm_eff) in [
        (0.05, 1.0139, 60.28),
        (0.10, 1.0533, 55.48),
        (0.20, 1.2170, 37.32),
    ] {
        let r = report(ratio);
        assert!(
            (r.omega_ug_eff / r.omega_ug_lti - wug_eff).abs() < 0.002,
            "ratio {ratio}: wug_eff {}",
            r.omega_ug_eff / r.omega_ug_lti
        );
        assert!(
            (r.phase_margin_eff_deg - pm_eff).abs() < 0.05,
            "ratio {ratio}: PM {}",
            r.phase_margin_eff_deg
        );
    }
}

#[test]
fn golden_sampling_stability_limit() {
    // Jury bisection on the Hein–Scott model: 0.2762 for this shape.
    let limit = reference_design_stability_limit(0.05, 0.6, 1e-4);
    assert!((limit - 0.2762).abs() < 0.002, "{limit}");
}

#[test]
fn golden_subharmonic_pole() {
    // At ratio 0.25 the dominant subharmonic pole: −0.2043 + j·(ω₀/2).
    use htmpll::core::dominant_poles;
    let model = PllModel::builder(PllDesign::reference_design(0.25).unwrap())
        .build()
        .unwrap();
    let w0 = model.design().omega_ref();
    let poles = dominant_poles(&model).unwrap();
    let edge = poles
        .iter()
        .find(|p| (p.im - 0.5 * w0).abs() < 1e-6 * w0)
        .expect("subharmonic pole");
    assert!((edge.re + 0.2043).abs() < 0.002, "{edge}");
}

#[test]
fn golden_h00_values() {
    // Spot values of the Fig.-6 curves (dB).
    let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
        .build()
        .unwrap();
    let db = |w: f64| 20.0 * model.h00(w).abs().log10();
    assert!((db(0.5016) - 1.460).abs() < 0.01, "{}", db(0.5016));
    assert!((db(1.9876) + 3.990).abs() < 0.01, "{}", db(1.9876));
}

#[test]
fn golden_spur_closed_form() {
    // |A(jω₀)| at ratio 0.1: the leakage-spur transfer factor.
    use htmpll::core::LeakageSpurs;
    let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
        .build()
        .unwrap();
    let i_leak = 1e-3 * model.design().icp();
    let s = LeakageSpurs::new(&model, i_leak);
    let t_ref = 1.0 / model.design().f_ref();
    // sideband = |A(j·10)|·θ_static; |A(j10)| for the reference shape:
    let a = model.open_loop().eval_jw(10.0).abs();
    assert!((a - 0.037151).abs() < 1e-4, "{a}");
    assert!((s.sideband(1).abs() - a * 1e-3 * t_ref).abs() < 1e-12);
}
