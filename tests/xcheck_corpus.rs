//! Cross-stack differential verification, exercised through the facade.
//!
//! The quick corpus must reconcile the λ(s), z-domain, and time-domain
//! stacks with zero mismatches, and the report digest must be identical
//! across repeated runs and thread budgets — the corpus is the contract
//! that the three models describe the same physics.

use htmpll::par::ThreadBudget;
use htmpll::prelude::*;

#[test]
fn quick_corpus_has_no_cross_stack_mismatches() {
    let report = run_corpus("quick", ThreadBudget::Fixed(1)).expect("quick corpus runs");
    assert_eq!(
        report.mismatches(),
        0,
        "cross-stack mismatches:\n{}",
        report.render_table()
    );
    // Every scenario must contribute checks; an empty scenario would mean
    // a stack silently dropped out of the reconciliation.
    for s in &report.scenarios {
        assert!(
            !s.checks.is_empty(),
            "scenario {} ran no checks",
            s.scenario
        );
    }
    assert!(report.total_checks() >= 20, "corpus too thin");
}

#[test]
fn report_digest_is_deterministic_across_thread_budgets() {
    let r1 = run_corpus("quick", ThreadBudget::Fixed(1)).expect("threads=1");
    let r4 = run_corpus("quick", ThreadBudget::Fixed(4)).expect("threads=4");
    assert_eq!(r1.digest(), r4.digest(), "digest varies with thread count");
    assert_eq!(
        r1.to_json(),
        r4.to_json(),
        "report varies with thread count"
    );
}

#[test]
fn unknown_corpus_is_rejected() {
    assert!(run_corpus("no-such-corpus", ThreadBudget::Fixed(1)).is_err());
}

/// A loop zero between the axis and the winding contour: the shaped
/// reference design at ratio 0.284, spread 6 has its first strip pole
/// at 8.216e-5 + 1.7606j, right of the axis but left of the contour at
/// `Re s = 10⁻⁴·ω_UG`. `analyze` rightly calls it unstable while the
/// winding count reads 0; the row compares the two counts right of the
/// same contour, so it agrees.
#[test]
fn strip_zero_left_of_the_winding_contour_grades_agree() {
    use htmpll::xcheck::{run_scenario, FilterKind, Scenario};
    let s = Scenario {
        name: "shaped-0.284-spread-6".into(),
        ratio: 0.284,
        filter: FilterKind::Second { spread: 6.0 },
        delay: None,
        isf: false,
        sim: false,
    };
    let model = s.model().expect("model builds");
    let report = analyze(&model, &Deadline::none()).expect("analyze");
    assert!(!report.nyquist_stable);
    let first = dominant_poles(&model).expect("poles")[0];
    assert!(
        first.re > 0.0 && first.re < 1e-4 * report.omega_ug_lti,
        "{first}"
    );

    let rep = run_scenario(&s).expect("scenario runs");
    let row = rep
        .checks
        .iter()
        .find(|c| c.check == "strip-roots-vs-winding")
        .expect("strip-roots-vs-winding row");
    assert!(matches!(row.verdict, Verdict::Agree), "{:?}", row.verdict);
}
