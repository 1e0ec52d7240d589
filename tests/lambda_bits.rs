//! Bit pins for the effective gain `λ(s)` and everything `analyze`
//! derives from it.
//!
//! Each case hashes the exact IEEE-754 bit patterns of its outputs
//! (FNV-1a), so any change to the λ evaluation that moves even one
//! rounding — a reordered sum, a fused multiply-add, a recomputed
//! prefactor — changes a digest here. The cases cover on-axis points,
//! the Nyquist contour (`Re s = ε`), off-axis points, the aliases of the
//! double pole at the origin (`s = j·m·ω₀`) and the poles themselves,
//! over a type-II loop (double pole at 0), a loop with distinct poles
//! only, and a loop with a triple pole (lattice order 3). The analysis
//! leg pins every `AnalysisReport` field over explore candidates and
//! reference designs.

use htmpll::core::{
    analyze_with, candidate_params, AnalysisReport, CoreError, DesignParams, EffectiveGain,
    PllDesign, PllModel, EXPLORE_F_REF,
};
use htmpll::lti::Tf;
use htmpll::num::hash::Fnv1a;
use htmpll::num::Complex;
use htmpll::par::ThreadBudget;
use std::f64::consts::PI;

fn write_c(h: &mut Fnv1a, z: Complex) {
    h.write_f64(z.re);
    h.write_f64(z.im);
}

/// The evaluation points for one model: on-axis, on the Nyquist
/// contour, off-axis, at the aliases `j·m·ω₀` and at every pole.
fn points(lam: &EffectiveGain) -> Vec<Complex> {
    let w0 = lam.omega0();
    let mut pts = Vec::new();
    for k in 0..=64 {
        let w = w0 * (-0.5 + k as f64 / 64.0) * 1.3;
        pts.push(Complex::from_im(w));
        pts.push(Complex::new(1e-4 * w0, w));
        pts.push(Complex::new(-0.07 * w0, w));
        pts.push(Complex::new(0.3 * w0, 0.5 * w));
    }
    for m in -3..=3 {
        pts.push(Complex::from_im(m as f64 * w0));
    }
    for t in &lam.pfe().terms {
        pts.push(t.pole);
        pts.push(t.pole + Complex::from_im(w0));
    }
    pts
}

fn lambda_digest(lam: &EffectiveGain) -> String {
    let mut h = Fnv1a::new();
    for s in points(lam) {
        write_c(&mut h, lam.eval(s));
    }
    let w0 = lam.omega0();
    let omegas: Vec<f64> = (0..=100)
        .map(|k| w0 * (1e-4 + 0.5 * k as f64 / 100.0))
        .collect();
    let mut batch = vec![Complex::ZERO; omegas.len()];
    lam.eval_jw_batch(&omegas, &mut batch);
    for (&w, &b) in omegas.iter().zip(&batch) {
        write_c(&mut h, lam.eval_jw(w));
        write_c(&mut h, b);
    }
    format!("{:016x}", h.finish())
}

fn orders(lam: &EffectiveGain) -> Vec<usize> {
    lam.pfe().terms.iter().map(|t| t.order).collect()
}

#[test]
fn type_two_loop_lambda_bits() {
    let d = PllDesign::reference_design(0.1).unwrap();
    let lam = EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap();
    let o = orders(&lam);
    assert!(o.contains(&2), "type-II loop has a double pole at 0: {o:?}");
    assert_eq!(lambda_digest(&lam), "c142587051820a3d");
}

#[test]
fn distinct_pole_lambda_bits() {
    let a = Tf::from_coeffs(vec![3.0, 2.0], vec![6.0, 11.0, 6.0, 1.0]).unwrap();
    let lam = EffectiveGain::new(&a, 2.0 * PI).unwrap();
    assert!(orders(&lam).iter().all(|&r| r == 1));
    assert_eq!(lambda_digest(&lam), "0ee88ba5f6bd6283");
}

#[test]
fn triple_pole_lambda_bits() {
    // A(s) = (s + 0.5)/(s³·(s + 2)): lattice orders 1..=3 at the origin.
    let a = Tf::from_coeffs(vec![0.5, 1.0], vec![0.0, 0.0, 0.0, 2.0, 1.0]).unwrap();
    let lam = EffectiveGain::new(&a, 5.0).unwrap();
    assert!(orders(&lam).contains(&3), "{:?}", orders(&lam));
    assert_eq!(lambda_digest(&lam), "8eb73254333543a3");
}

fn write_report(h: &mut Fnv1a, r: &Result<AnalysisReport, CoreError>) {
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            h.write_str(&format!("err:{e}"));
            return;
        }
    };
    h.write_f64(r.omega_ug_ratio);
    h.write_f64(r.omega_ug_lti);
    h.write_f64(r.phase_margin_lti_deg);
    h.write_f64(r.omega_ug_eff);
    h.write_f64(r.phase_margin_eff_deg);
    h.write_f64(r.bandwidth_3db.unwrap_or(-1.0));
    h.write_u64(r.bandwidth_3db.is_some() as u64);
    h.write_f64(r.peaking_db);
    h.write_f64(r.peaking_lti_db);
    h.write_u64(r.nyquist_stable as u64);
    h.write_u64(r.beyond_sampling_limit as u64);
    let q = &r.quality;
    for n in [q.exact, q.refined, q.perturbed, q.failed] {
        h.write_u64(n as u64);
    }
    h.write_f64(q.worst_cond);
    h.write_f64(q.worst_residual);
}

/// The explorer's candidate design: synthesize for the target crossover,
/// then detune the charge pump (same recipe and constants as the
/// explorer's full stage).
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

fn analysis_of(design: Result<PllDesign, CoreError>) -> Result<AnalysisReport, CoreError> {
    let model = PllModel::builder(design?).build()?;
    analyze_with(&model, ThreadBudget::Fixed(1))
}

#[test]
fn analysis_report_bits() {
    let mut h = Fnv1a::new();
    let mut ok = 0;
    for i in 0..16 {
        let p = candidate_params(1, i, false);
        let r = analysis_of(candidate_design(&p));
        ok += r.is_ok() as usize;
        write_report(&mut h, &r);
    }
    for ratio in [0.02, 0.1, 0.25, 0.4] {
        let r = analysis_of(PllDesign::reference_design(ratio));
        ok += r.is_ok() as usize;
        write_report(&mut h, &r);
    }
    assert!(ok >= 12, "only {ok} of 20 analyses succeeded");
    assert_eq!(format!("{:016x}", h.finish()), "f0cf6de8e6d3f3e1");
}
