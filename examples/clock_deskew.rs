//! Clock de-skew buffer: a divider-less, fast PLL tracking a digital
//! clock — the application where the paper's warning bites hardest.
//!
//! De-skew loops want the widest possible bandwidth so the output clock
//! tracks reference wander, which pushes `ω_UG/ω₀` up. This example
//! walks the trade-off: tracking error vs. effective phase margin, and
//! shows a time-varying VCO (periodic ISF) shifting the answer.
//!
//! Run with `cargo run --release --example clock_deskew`.

use htmpll::core::{analyze, PllDesign, PllModel};
use htmpll::htm::Truncation;
use htmpll::num::Complex;
use htmpll::par::{Deadline, ThreadBudget};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("De-skew loop bandwidth trade-off (reference wander at 0.05·ω_UG):");
    println!("ratio   |1−H00| wander-err   PM_eff     verdict");
    for &ratio in &[0.02, 0.05, 0.1, 0.2, 0.3] {
        let design = PllDesign::reference_design(ratio)?;
        let model = PllModel::builder(design).build()?;
        let report = analyze(&model, ThreadBudget::Auto, &Deadline::none())?;
        // Tracking error for slow reference wander: |1 − H00| at low ω.
        let err = model.error_transfer(0.05).abs();
        let verdict = if !report.nyquist_stable {
            "UNSTABLE"
        } else if report.phase_margin_eff_deg < 30.0 {
            "marginal"
        } else {
            "ok"
        };
        println!(
            "{ratio:5.2}   {err:18.4e}   {:6.2}°   {verdict}",
            report.phase_margin_eff_deg
        );
    }

    // Time-varying VCO: a ring-oscillator-like ISF with strong first and
    // second harmonics. The rank-one closed form still applies; compare
    // baseband responses and the first-harmonic conversion gain.
    println!("\nTime-varying VCO (ISF harmonics v₁/v₀ = 0.5, v₂/v₀ = 0.2), ratio = 0.15:");
    let design = PllDesign::reference_design(0.15)?;
    let v0 = design.v0();
    let ti = PllModel::builder(design.clone()).build()?;
    let isf = vec![
        Complex::from_re(0.2 * v0),
        Complex::from_re(0.5 * v0),
        Complex::from_re(v0),
        Complex::from_re(0.5 * v0),
        Complex::from_re(0.2 * v0),
    ];
    let tv = PllModel::builder(design).vco_isf(isf).build()?;
    let trunc = Truncation::new(12);
    println!("  ω      |H00| TI-VCO   |H00| TV-VCO   |H(+1←0)| TV");
    for &w in &[0.1, 0.5, 1.0, 2.0] {
        let s = Complex::from_im(w);
        let h_ti = ti.closed_loop_htm(s, trunc)?.0.band(0, 0);
        let htm_tv = tv.closed_loop_htm(s, trunc)?.0;
        println!(
            "  {w:4.1}   {:11.4}   {:11.4}   {:11.4}",
            h_ti.abs(),
            htm_tv.band(0, 0).abs(),
            htm_tv.band(1, 0).abs()
        );
    }
    println!("\nA time-varying ISF adds band-conversion paths (|H(+1←0)| > 0 even");
    println!("at DC-side offsets) — spurs that no LTI model can produce.");
    Ok(())
}
