//! Quickstart: analyze one PLL design with both the classical LTI
//! approximation and the paper's time-varying (HTM) method.
//!
//! Run with `cargo run --example quickstart`.

use htmpll::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's "typical loop design" (Fig. 5): open-loop gain with
    // three poles (two at DC) and one zero, unity-gain frequency
    // normalized to 1 rad/s. The single knob is how fast the loop is
    // relative to the reference: ω_UG/ω₀.
    let ratio = 0.15;
    let design = PllDesign::reference_design(ratio)?;
    println!("design: {design}");
    println!(
        "reference: ω₀ = {:.4} rad/s (ω_UG/ω₀ = {ratio})",
        design.omega_ref()
    );

    let model = PllModel::builder(design).build()?;
    let report = analyze(&model, &Deadline::none())?;

    println!("\n--- classical LTI analysis (textbook) ---");
    println!("unity-gain frequency : {:.4} rad/s", report.omega_ug_lti);
    println!("phase margin         : {:.2}°", report.phase_margin_lti_deg);
    println!("closed-loop peaking  : {:.2} dB", report.peaking_lti_db);

    println!("\n--- time-varying (HTM) analysis — what the loop actually sees ---");
    println!(
        "effective ω_UG        : {:.4} rad/s ({:.2}× the LTI value)",
        report.omega_ug_eff,
        report.omega_ug_eff / report.omega_ug_lti
    );
    println!(
        "effective phase margin: {:.2}°",
        report.phase_margin_eff_deg
    );
    println!("closed-loop peaking   : {:.2} dB", report.peaking_db);
    println!(
        "margin degradation    : {:.2}° ({:.1} % of the LTI prediction)",
        report.phase_margin_degradation_deg(),
        100.0 * report.phase_margin_degradation_rel()
    );
    println!("HTM-Nyquist stable    : {}", report.nyquist_stable);

    // A few closed-loop transfer points: LTI vs time-varying.
    println!("\n  ω/ω_UG   |H00| LTI   |H00| HTM");
    for w in [0.2, 0.5, 1.0, 2.0, 3.0] {
        println!(
            "  {w:6.2}   {:9.4}   {:9.4}",
            model.h00_lti(w).abs(),
            model.h00(w).abs()
        );
    }

    // Cross-check one point against the behavioral time-domain simulator
    // (this is what the paper's Fig. 6 "marks" are).
    let params = SimParams::from_design(model.design());
    let m = measure_h00(
        &params,
        &SimConfig::default(),
        1.0,
        &MeasureOptions::default(),
    );
    println!(
        "\nsimulated |H00({:.3})| = {:.4}  (HTM predicts {:.4})",
        m.omega,
        m.h.abs(),
        model.h00(m.omega).abs()
    );
    Ok(())
}
