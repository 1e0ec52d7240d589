//! The margins from unit-circle roots against the 2,048-point scans
//! they replace.
//!
//! `loop_margins` (root finding; `analyze` reports its margins) and
//! `scan_margins` (the full scans) must return bitwise-equal `Margins`
//! for `A(jω)` and `λ(jω)` and the same `beyond_sampling_limit` flag —
//! or the same error — on every design here: the xcheck quick corpus,
//! the Fig. 7 reference designs, Padé-delayed and time-varying-VCO
//! models, and the first 500 seed-1 explore candidates. The ignored
//! test extends the candidates to 10,000 (release; `scripts/ci.sh`
//! runs it) and also requires that root finding never fell back to the
//! scan.

use htmpll::core::explore::candidate_design;
use htmpll::core::{
    candidate_params, loop_margins, scan_margins, CoreError, LoopMargins, PllDesign, PllModel,
};
use htmpll::lti::Margins;
use htmpll::num::Complex;
use htmpll::obs;
use htmpll::par::{Deadline, ThreadBudget};

/// Every bit of `m`, the sampling-limit flag included.
fn bits(m: &LoopMargins) -> Vec<u64> {
    let margins = |m: &Margins| {
        [
            m.omega_ug.to_bits(),
            m.phase_margin_deg.to_bits(),
            m.omega_pc.map_or(u64::MAX, f64::to_bits),
            m.gain_margin_db.map_or(u64::MAX, f64::to_bits),
        ]
    };
    let mut out = margins(&m.lti).to_vec();
    out.extend(margins(&m.eff));
    out.push(m.beyond_sampling_limit as u64);
    out
}

/// Asserts the root path and the scan agree to the bit on `model`;
/// returns whether the model had margins at all.
fn same_bits(model: &PllModel, what: &str) -> bool {
    let (threads, none) = (ThreadBudget::Fixed(1), Deadline::none());
    match (
        loop_margins(model, threads, &none),
        scan_margins(model, threads, &none),
    ) {
        (Ok(roots), Ok(scan)) => {
            assert_eq!(bits(&roots), bits(&scan), "{what}: {roots:?} vs {scan:?}");
            true
        }
        (Err(roots), Err(scan)) => {
            assert_eq!(roots.to_string(), scan.to_string(), "{what}");
            false
        }
        (roots, scan) => panic!("{what}: {roots:?} vs {scan:?}"),
    }
}

fn model(design: Result<PllDesign, CoreError>) -> Option<PllModel> {
    PllModel::builder(design.ok()?).build().ok()
}

/// The first `n` seed-1 explore candidates; returns how many had
/// margins.
fn candidates(n: u64) -> usize {
    (0..n)
        .filter_map(|i| {
            let p = candidate_params(1, i, false);
            Some(same_bits(
                &model(candidate_design(&p))?,
                &format!("candidate {i}"),
            ))
        })
        .filter(|&ok| ok)
        .count()
}

#[test]
fn xcheck_quick_corpus() {
    let corpus = htmpll::xcheck::corpus("quick").expect("quick corpus");
    for s in &corpus {
        assert!(same_bits(&s.model().expect("model"), &s.name), "{}", s.name);
    }
}

#[test]
fn fig7_reference_designs() {
    let mut beyond = 0;
    for k in 1..=24 {
        let ratio = 0.02 * k as f64;
        let m = model(PllDesign::reference_design(ratio)).expect("reference design");
        assert!(same_bits(&m, &format!("ratio {ratio}")));
        beyond += loop_margins(&m, ThreadBudget::Fixed(1), &Deadline::none())
            .expect("margins")
            .beyond_sampling_limit as usize;
    }
    // The sweep crosses the sampling limit, so both branches run.
    assert!(beyond > 0 && beyond < 24, "{beyond} of 24 beyond the limit");
}

#[test]
fn pade_delayed_designs() {
    for ratio in [0.03, 0.1, 0.2, 0.3] {
        for (frac, order) in [(0.05, 1), (0.2, 2), (0.5, 3)] {
            let d = PllDesign::reference_design(ratio).expect("design");
            let tau = frac * 2.0 * std::f64::consts::PI / d.omega_ref();
            let m = PllModel::builder(d)
                .loop_delay(tau, order)
                .build()
                .expect("model");
            same_bits(&m, &format!("ratio {ratio}, delay {frac}·T, order {order}"));
        }
    }
}

#[test]
fn time_varying_vco_designs() {
    for ratio in [0.05, 0.15, 0.3] {
        for a1 in [0.3, 0.9] {
            let d = PllDesign::reference_design(ratio).expect("design");
            let v0 = d.v0();
            let side = Complex::from_re(a1 * v0 / 2.0);
            let m = PllModel::builder(d)
                .vco_isf(vec![side, Complex::from_re(v0), side])
                .build()
                .expect("model");
            assert!(same_bits(&m, &format!("ratio {ratio}, a1 {a1}")));
        }
    }
}

#[test]
fn first_500_explore_candidates() {
    let ok = candidates(500);
    assert!(ok >= 400, "only {ok} of 500 candidates have margins");
}

#[test]
#[ignore = "10,000 designs: run in release (scripts/ci.sh)"]
fn all_10000_explore_candidates_without_scan_fallback() {
    obs::override_filter("core=info");
    obs::reset();
    let ok = candidates(10_000);
    assert!(ok >= 8_000, "only {ok} of 10,000 candidates have margins");
    let count = |key: &str| -> u64 {
        obs::snapshot()
            .iter()
            .filter(|s| s.key == key)
            .map(|s| s.count)
            .sum()
    };
    assert_eq!(
        count("core.margins.scan_fallback"),
        0,
        "root finding fell back to the scan"
    );
    // A hidden crossing is no error (the scan misses it too); report it.
    eprintln!(
        "hidden crossings: {}",
        count("core.margins.hidden_crossings")
    );
}
