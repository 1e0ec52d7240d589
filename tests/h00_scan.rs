//! `analyze`'s one-pass closed-loop `H₀,₀` scan against the two-pass
//! extractors it replaced.
//!
//! `bandwidth_3db`, `peaking_db`, `peaking_lti_db` and `quality` must be
//! bitwise what `bandwidth_3db_precomputed` and `peaking_db_precomputed`
//! give over `margin_scan_grid(ω_UG·10⁻⁴, 100·ω_UG)` with `model.h00`
//! and `model.h00_lti`, plus the dense probe at the effective crossover
//! — or `analyze` must fail as the margins do — on every design here:
//! the xcheck quick corpus, the Fig. 7 reference designs, Padé-delayed
//! and time-varying-VCO models, and the first 500 seed-1 explore
//! candidates. The ignored test extends the candidates to 10,000
//! (release; `scripts/ci.sh` runs it). A scan with grid points on the
//! aliased-integrator poles `mω₀` checks the pass itself against the
//! same extractors.

use htmpll::core::explore::candidate_design;
use htmpll::core::{
    analyze, candidate_params, loop_margins, AnalysisReport, CoreError, KernelPolicy, PllDesign,
    PllModel, PointQuality, QualitySummary, SweepCache,
};
use htmpll::htm::TruncationSpec;
use htmpll::lti::{
    bandwidth_3db_precomputed, margin_scan_grid, peaking_db_precomputed, ClosedLoopScan,
};
use htmpll::num::Complex;
use htmpll::par::{Deadline, ThreadBudget};

/// The closed-loop fields of a report, every bit.
fn bits(bw: Option<f64>, pk: f64, pk_lti: f64, q: &QualitySummary) -> Vec<u64> {
    vec![
        bw.map_or(u64::MAX, f64::to_bits),
        pk.to_bits(),
        pk_lti.to_bits(),
        q.exact as u64,
        q.refined as u64,
        q.perturbed as u64,
        q.failed as u64,
        q.worst_cond.to_bits(),
        q.worst_residual.to_bits(),
    ]
}

fn report_bits(r: &AnalysisReport) -> Vec<u64> {
    bits(r.bandwidth_3db, r.peaking_db, r.peaking_lti_db, &r.quality)
}

/// The closed-loop fields by the two-pass extractors, or the margin
/// error that stops `analyze` first.
fn oracle(model: &PllModel) -> Result<Vec<u64>, CoreError> {
    let m = loop_margins(model, ThreadBudget::Fixed(1), &Deadline::none())?;
    let w_ref = m.lti.omega_ug * 1e-4;
    let grid = margin_scan_grid(w_ref, 100.0 * m.lti.omega_ug);
    let h: Vec<Complex> = grid.iter().map(|&w| model.h00(w)).collect();
    let h_lti: Vec<Complex> = grid.iter().map(|&w| model.h00_lti(w)).collect();
    let bw = bandwidth_3db_precomputed(|w| model.h00(w), w_ref, &grid, &h);
    let pk = peaking_db_precomputed(|w| model.h00(w), w_ref, &h);
    let pk_lti = peaking_db_precomputed(|w| model.h00_lti(w), w_ref, &h_lti);
    let mut q = QualitySummary::default();
    for v in &h {
        let point = if v.re.is_finite() && v.im.is_finite() {
            PointQuality::Exact
        } else {
            PointQuality::Failed {
                reason: "non-finite scan value".into(),
            }
        };
        q.absorb(&point, 0.0, 0.0);
    }
    match SweepCache::default().dense_robust(
        model,
        Complex::from_im(m.eff.omega_ug),
        model.resolve_truncation(TruncationSpec::default()),
        KernelPolicy::default(),
    ) {
        Ok(d) => q.absorb(&d.quality, d.report.cond_estimate, d.report.residual),
        Err(reason) => q.absorb(&PointQuality::Failed { reason }, 0.0, 0.0),
    }
    Ok(bits(bw, pk, pk_lti, &q))
}

/// Asserts `analyze` and the oracle agree to the bit on `model`;
/// returns whether the model had an analysis at all.
fn same_bits(model: &PllModel, what: &str) -> bool {
    match (
        analyze(model, ThreadBudget::Fixed(1), &Deadline::none()),
        oracle(model),
    ) {
        (Ok(r), Ok(expect)) => {
            assert_eq!(report_bits(&r), expect, "{what}: {r:?}");
            true
        }
        (Err(got), Err(expect)) => {
            assert_eq!(got.to_string(), expect.to_string(), "{what}");
            false
        }
        (got, expect) => panic!("{what}: {got:?} vs {expect:?}"),
    }
}

fn model(design: Result<PllDesign, CoreError>) -> Option<PllModel> {
    PllModel::builder(design.ok()?).build().ok()
}

/// The first `n` seed-1 explore candidates; returns how many had an
/// analysis.
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
    for k in 1..=24 {
        let ratio = 0.02 * k as f64;
        let m = model(PllDesign::reference_design(ratio)).expect("reference design");
        assert!(same_bits(&m, &format!("ratio {ratio}")));
    }
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
    assert!(ok >= 400, "only {ok} of 500 candidates have an analysis");
}

#[test]
fn grid_points_on_the_aliased_integrator_poles() {
    // The scan of the reference design with the grid point nearest each
    // mω₀ (m = 1…9) moved onto it: λ is at its pole there (about 10³⁰
    // in floating point) and H₀,₀ at the bottom of its notch.
    let m = model(PllDesign::reference_design(0.1)).expect("model");
    let w0 = m.design().omega_ref();
    let lti = loop_margins(&m, ThreadBudget::Fixed(1), &Deadline::none())
        .expect("margins")
        .lti;
    let w_ref = lti.omega_ug * 1e-4;
    let mut grid = margin_scan_grid(w_ref, 100.0 * lti.omega_ug);
    for k in 1..=9 {
        let pole = k as f64 * w0;
        let i = grid.partition_point(|&w| w < pole);
        grid[i] = pole;
    }
    let a: Vec<Complex> = grid.iter().map(|&w| m.open_loop().eval_jw(w)).collect();
    let h: Vec<Complex> = grid.iter().map(|&w| m.h00(w)).collect();
    let h_lti: Vec<Complex> = grid.iter().map(|&w| m.h00_lti(w)).collect();
    let mut scan = ClosedLoopScan::new(m.h00(w_ref));
    for ((&w, &a), &h) in grid.iter().zip(&a).zip(&h) {
        scan.push(w, a, h);
    }
    let got = scan.finish(|w| m.h00(w), |w| m.h00_lti(w), w_ref);
    let bw = bandwidth_3db_precomputed(|w| m.h00(w), w_ref, &grid, &h);
    assert_eq!(got.bandwidth_3db.map(f64::to_bits), bw.map(f64::to_bits));
    let pk = peaking_db_precomputed(|w| m.h00(w), w_ref, &h);
    assert_eq!(got.peaking_db.to_bits(), pk.to_bits());
    let pk_lti = peaking_db_precomputed(|w| m.h00_lti(w), w_ref, &h_lti);
    assert_eq!(got.peaking_lti_db.to_bits(), pk_lti.to_bits());
    let non_finite = h.iter().filter(|v| !(v.re.is_finite() && v.im.is_finite()));
    assert_eq!(got.non_finite, non_finite.count());
}

#[test]
#[ignore = "10,000 designs: run in release (scripts/ci.sh)"]
fn all_10000_explore_candidates() {
    let ok = candidates(10_000);
    assert!(
        ok >= 8_000,
        "only {ok} of 10,000 candidates have an analysis"
    );
}
