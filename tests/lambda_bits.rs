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
//! only, and a loop with a triple pole (lattice order 3). The line leg
//! checks `EffectiveGain::line` against `Σ c·lattice_sum` bit for bit on
//! the scan lines (axis, contour, left of the origin, far left on the
//! `|Re| > 20` branch of `coth`) over conjugate, repeated and mixed-branch
//! pole layouts, and pins `coth` itself. The analysis leg pins every
//! `AnalysisReport` field over explore candidates and reference designs,
//! the strip poles of `dominant_poles` and the explorer's screen verdicts.
//! The λ, line and screen digests were computed before the line
//! evaluator existed. The report and strip-pole digests were taken
//! when stability and the strip poles moved to λ's rational form in
//! `z`: the report changed only in its quality counts (no contour
//! points), the poles gained the strip poles the old seed grid missed.

use htmpll::core::explore::{screen_passes, ExploreWorkspace};
use htmpll::core::{
    analyze, candidate_params, dominant_poles, AnalysisReport, CoreError, DesignParams,
    EffectiveGain, PllDesign, PllModel, EXPLORE_F_REF,
};
use htmpll::lti::Tf;
use htmpll::num::hash::Fnv1a;
use htmpll::num::special::lattice_sum;
use htmpll::num::Complex;
use htmpll::par::{Deadline, ThreadBudget};
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
    let axis = lam.line(0.0);
    for &w in &omegas {
        write_c(&mut h, lam.eval_jw(w));
        write_c(&mut h, axis.eval(w));
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
    analyze(&model, ThreadBudget::Fixed(1), &Deadline::none())
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
    assert_eq!(format!("{:016x}", h.finish()), "a3a8297d544c9d15");
}

/// Models whose pole layouts exercise every sharing rule of the line
/// evaluator: the type-II loop (double pole at 0 after a real pole, all
/// on `Im = 0`), a complex-conjugate pair beside an integrator, a
/// repeated off-origin pole (cluster mean with a tiny nonzero `Im`)
/// beside a real pole, and two real poles far enough apart that one
/// line puts one term on each `coth` branch.
fn line_models() -> Vec<EffectiveGain> {
    let d = PllDesign::reference_design(0.1).unwrap();
    let tfs = [
        // (s/2 + 1)/(s·(s² + 2s + 5)): poles 0 and −1 ± 2j.
        Tf::from_coeffs(vec![1.0, 0.5], vec![0.0, 5.0, 2.0, 1.0]).unwrap(),
        // (s + 3)/((s + 2)²·(s + 1)).
        Tf::from_coeffs(vec![3.0, 1.0], vec![4.0, 8.0, 5.0, 1.0]).unwrap(),
        // 1/(s·(s + 60)).
        Tf::from_coeffs(vec![1.0], vec![0.0, 60.0, 1.0]).unwrap(),
    ];
    let mut models = vec![EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap()];
    models.extend(tfs.iter().map(|a| EffectiveGain::new(a, 2.0 * PI).unwrap()));
    models
}

/// The vertical lines `Re s = x` of the scans: the jω axis, the Nyquist
/// contour offset, a line left of the origin, and a line so far left
/// that every term's `coth` argument has `|Re| > 20`.
fn scan_lines(lam: &EffectiveGain) -> [f64; 4] {
    let w0 = lam.omega0();
    let leftmost = lam
        .pfe()
        .terms
        .iter()
        .map(|t| t.pole.re)
        .fold(0.0, f64::min);
    [0.0, 1e-4 * w0, -3.0, leftmost - 8.0 * w0]
}

/// Imaginary parts probed on each line: a grid across 1.3 bands, both
/// signed zeros, the aliases `m·ω₀` and every pole's `Im`.
fn line_ims(lam: &EffectiveGain) -> Vec<f64> {
    let w0 = lam.omega0();
    let mut ims: Vec<f64> = (0..=48)
        .map(|k| w0 * 1.3 * (k as f64 / 48.0 - 0.5))
        .collect();
    ims.extend([0.0, -0.0, w0, -2.0 * w0]);
    ims.extend(lam.pfe().terms.iter().map(|t| t.pole.im));
    ims
}

#[test]
fn line_evaluator_matches_lattice_sum_reference() {
    let mut h = Fnv1a::new();
    for lam in line_models() {
        let w0 = lam.omega0();
        for re in scan_lines(&lam) {
            let line = lam.line(re);
            for im in line_ims(&lam) {
                let s = Complex::new(re, im);
                let mut reference = Complex::ZERO;
                for t in &lam.pfe().terms {
                    reference += t.coeff * lattice_sum(s - t.pole, w0, t.order);
                }
                let point = lam.eval(s);
                let on_line = line.eval(im);
                for v in [point, on_line] {
                    assert_eq!(v.re.to_bits(), reference.re.to_bits(), "s={s}");
                    assert_eq!(v.im.to_bits(), reference.im.to_bits(), "s={s}");
                }
                write_c(&mut h, point);
            }
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "94acfb8f66347b9c");
}

#[test]
fn coth_bits() {
    // Both branches, the switchover at |Re| = 20 and signed zeros.
    let xs = [
        0.0, -0.0, 1e-3, -0.7, 3.5, 19.999, 20.0, 20.001, -20.5, 300.0,
    ];
    let ys = [0.0, -0.0, 0.4, -2.9, 1e3, std::f64::consts::FRAC_PI_2];
    let mut h = Fnv1a::new();
    for x in xs {
        for y in ys {
            write_c(&mut h, Complex::new(x, y).coth());
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "83495f30d4f4e827");
}

#[test]
fn dominant_poles_bits() {
    let mut h = Fnv1a::new();
    let mut found = 0;
    for i in 0..16 {
        let p = candidate_params(1, i, false);
        let poles = candidate_design(&p)
            .and_then(|d| PllModel::builder(d).build())
            .and_then(|m| dominant_poles(&m));
        match poles {
            Ok(poles) => {
                found += poles.len();
                h.write_u64(poles.len() as u64);
                for z in poles {
                    write_c(&mut h, z);
                }
            }
            Err(e) => h.write_str(&format!("err:{e}")),
        }
    }
    assert!(found >= 16, "only {found} poles over 16 designs");
    assert_eq!(format!("{:016x}", h.finish()), "f1d181d89d07dc62");
}

#[test]
fn explore_screen_verdict_bits() {
    let mut h = Fnv1a::new();
    let mut ws = ExploreWorkspace::default();
    let mut passed = 0;
    for i in 0..96 {
        let p = candidate_params(1, i, false);
        let Ok(model) = candidate_design(&p).and_then(|d| PllModel::builder(d).build()) else {
            h.write_str("failed");
            continue;
        };
        for min_pm in [30.0, 50.0, 65.0] {
            let pass = screen_passes(&model, &p, min_pm, &mut ws);
            passed += pass as usize;
            h.write_u64(pass as u64);
        }
    }
    assert!(passed > 0 && passed < 3 * 96, "{passed} verdicts passed");
    assert_eq!(format!("{:016x}", h.finish()), "0361e067283775c4");
}
