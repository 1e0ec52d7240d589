//! Frequency-synthesizer design walkthrough with physical units.
//!
//! Designs a 10 MHz-reference, ÷64 integer-N synthesizer (640 MHz out),
//! sizes the charge-pump filter, and checks the loop with both the LTI
//! and the time-varying analysis; then verifies lock acquisition with
//! the behavioral simulator.
//!
//! Run with `cargo run --release --example frequency_synthesizer`.

use htmpll::core::{analyze, LoopFilter, PllDesign, PllModel};
use htmpll::par::{Deadline, ThreadBudget};
use htmpll::sim::{acquire_lock, LockOptions, SimConfig, SimParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Target: 640 MHz from a 10 MHz crystal, loop bandwidth ~500 kHz.
    let f_ref = 10.0e6;
    let n = 64.0;
    let f_out = n * f_ref;
    let wug_target = 2.0 * std::f64::consts::PI * 500.0e3;

    // One call does the textbook walk: zero a factor 4 below crossover,
    // pole a factor 4 above, 1 nF of filter capacitance, charge pump
    // solved for |A(jω_UG)| = 1.
    let kvco = 2.0 * std::f64::consts::PI * 100.0e6;
    let design = PllDesign::synthesize(f_ref, n, kvco, wug_target, 4.0, 1.0e-9)?;
    if let LoopFilter::SecondOrder(filter) = design.filter() {
        println!(
            "filter: R = {:.1} Ω, C1 = {:.3} nF, C2 = {:.3} pF",
            filter.r(),
            filter.c1() * 1e9,
            filter.c2() * 1e12
        );
    }
    println!("charge pump: Icp = {:.1} µA", design.icp() * 1e6);
    let model = PllModel::builder(design.clone()).build()?;
    let report = analyze(&model, ThreadBudget::Auto, &Deadline::none())?;

    println!(
        "\nsynthesizer: {:.0} MHz out from {:.0} MHz reference (÷{n})",
        f_out / 1e6,
        f_ref / 1e6
    );
    println!(
        "loop crossover: {:.1} kHz (ω_UG/ω₀ = {:.3})",
        report.omega_ug_lti / (2.0 * std::f64::consts::PI) / 1e3,
        report.omega_ug_ratio
    );
    println!(
        "phase margin: {:.1}° (LTI) → {:.1}° (time-varying)",
        report.phase_margin_lti_deg, report.phase_margin_eff_deg
    );
    println!(
        "closed-loop −3 dB bandwidth: {:.1} kHz",
        report.bandwidth_3db.unwrap_or(f64::NAN) / (2.0 * std::f64::consts::PI) / 1e3
    );
    println!(
        "peaking: {:.2} dB (LTI predicted {:.2} dB)",
        report.peaking_db, report.peaking_lti_db
    );

    // Reference spur estimate: the HTM band transfer |H_{1,0}| at small
    // offsets tells how baseband reference noise leaks to the first
    // reference harmonic of the output phase.
    let w_off = 0.05 * report.omega_ug_lti;
    let spur = model.h_band(1, w_off).abs();
    println!(
        "band transfer |H(+1 ← 0)| near DC: {:.2e} ({:.1} dBc-ish)",
        spur,
        20.0 * spur.log10()
    );

    // Lock acquisition from a 0.5 % VCO detuning.
    let result = acquire_lock(
        &SimParams::from_design(&design),
        &SimConfig::default(),
        5e-3,
        &LockOptions::default(),
    );
    if result.locked {
        println!(
            "\nlock acquired in {:.1} µs ({:.0} reference cycles) from 0.5 % detuning",
            result.lock_time * 1e6,
            result.lock_time * f_ref
        );
    } else {
        println!(
            "\nloop failed to lock within the horizon (error {:.3e})",
            result.final_error
        );
    }
    Ok(())
}
