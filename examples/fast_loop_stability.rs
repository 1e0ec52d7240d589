//! Fast-loop stability study: how far can `ω_UG/ω₀` be pushed?
//!
//! The paper's motivating scenario — a PLL with a fast feedback loop —
//! swept across the ratio `ω_UG/ω₀`, comparing three verdicts:
//!
//! 1. classical LTI analysis (Routh on `1 + A`, phase margin of `A`):
//!    blind to the ratio, always says "fine";
//! 2. the HTM effective gain `λ` (phase margin + period-strip Nyquist);
//! 3. the Hein–Scott z-domain model (Jury test) — must agree with (2)
//!    on the boundary since both describe the same sampled system.
//!
//! Run with `cargo run --release --example fast_loop_stability`.

use htmpll::core::{analyze, PllDesign, PllModel};
use htmpll::lti::{is_hurwitz, Tf};
use htmpll::par::Deadline;
use htmpll::zdomain::{reference_design_stability_limit, CpPllZModel};

fn lti_closed_loop_stable(a: &Tf) -> bool {
    match a.feedback_unity() {
        Ok(cl) => is_hurwitz(cl.den()),
        Err(_) => false,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("ratio    PM_LTI   PM_eff   LTI-stable  HTM-stable  z-stable");
    for &ratio in &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4] {
        let design = PllDesign::reference_design(ratio)?;
        let a = design.open_loop_gain();
        let model = PllModel::builder(design.clone()).build()?;
        let report = analyze(&model, &Deadline::none())?;
        let zmodel = CpPllZModel::from_design(&design)?;
        println!(
            "{ratio:5.2}   {:6.2}°  {:6.2}°   {:^10}  {:^10}  {:^8}",
            report.phase_margin_lti_deg,
            report.phase_margin_eff_deg,
            lti_closed_loop_stable(&a),
            report.nyquist_stable,
            zmodel.is_stable()?,
        );
    }

    let limit = reference_design_stability_limit(0.05, 0.6, 1e-4);
    println!("\nsampling stability limit (Jury bisection): ω_UG/ω₀ = {limit:.4}");
    println!("classical LTI analysis predicts stability at ANY ratio — the");
    println!("time-varying analysis is what catches the fast-loop failure.");
    Ok(())
}
