//! Escalating, panic-free dense solves: refined partial pivoting →
//! complete pivoting → Tikhonov perturbation.
//!
//! The dense closed-loop path inverts `I + G̃(s)` on frequency grids that
//! deliberately probe near-instability regimes (ω_UG → ω₀, points close
//! to closed-loop poles). There a plain partial-pivot LU either fails
//! outright or silently loses most of its digits. [`RobustLu`] climbs an
//! escalation ladder instead of giving up:
//!
//! 1. **Refined partial pivot** — [`Lu::factor`] plus one step of
//!    iterative refinement per solve, gated on the pivot growth and a
//!    cheap condition estimate.
//! 2. **Complete (full) pivoting** — [`Lu::factor_complete`]: row *and*
//!    column pivoting bounds element growth where partial pivoting
//!    cannot.
//! 3. **Tikhonov perturbation** — a tiny diagonal shift
//!    `A + δI, δ = ‖A‖_max·n·√ε` (with 1 in place of `‖A‖_max` for the
//!    zero matrix), then complete pivoting, as the last resort on a
//!    matrix that is singular to working precision. The solution is
//!    that of a nearby well-posed problem; the report marks it
//!    [`SolveReport::perturbed`].
//!
//! Both pivot rules are the one [`Lu`] type; every rung solves with
//! refinement against the original matrix. Each solve returns its value
//! with the completed [`SolveReport`] (rungs tried, residual, condition
//! estimate, growth), so callers can grade each grid point
//! (`Exact`/`Refined`/`Perturbed`) instead of aborting a whole sweep.
//!
//! ```
//! use htmpll_num::{CMat, Complex, RobustLu, SolveStage};
//!
//! // Exactly singular: a plain LU refuses, the robust ladder perturbs.
//! let a = CMat::from_rows(2, 2, &[
//!     Complex::from_re(1.0), Complex::from_re(2.0),
//!     Complex::from_re(2.0), Complex::from_re(4.0),
//! ]);
//! let r = RobustLu::factor(&a).unwrap();
//! assert!(r.report().perturbed);
//! let (x, report) = r.solve(&[Complex::from_re(1.0), Complex::from_re(2.0)]).unwrap();
//! assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
//! assert_eq!(report.accepted_stage(), SolveStage::Tikhonov);
//! ```

use crate::complex::Complex;
use crate::lu::{Lu, LuError};
use crate::mat::CMat;
use std::fmt;

/// Condition-estimate gate: beyond this, a partial-pivot solve keeps
/// fewer than ~4 correct digits in double precision and the ladder
/// escalates to complete pivoting.
pub const COND_GATE: f64 = 1e12;

/// Pivot-growth gate for the partial-pivot stage: growth far above 1
/// means elimination amplified entries and the factorization is not to
/// be trusted even if no pivot underflowed.
pub const GROWTH_GATE: f64 = 1e8;

/// One rung of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStage {
    /// Closed-form structured solve: rank-one Sherman–Morrison or a
    /// diagonal reciprocal, used when the operator's structured
    /// representation admits one.
    Structured,
    /// Partial (row) pivoting with one-step iterative refinement.
    RefinedPartial,
    /// Complete (row + column) pivoting.
    FullPivot,
    /// Diagonal Tikhonov perturbation `A + δI`, then complete pivoting.
    Tikhonov,
}

impl fmt::Display for SolveStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStage::Structured => write!(f, "structured"),
            SolveStage::RefinedPartial => write!(f, "refined-partial"),
            SolveStage::FullPivot => write!(f, "full-pivot"),
            SolveStage::Tikhonov => write!(f, "tikhonov"),
        }
    }
}

/// What the escalation ladder did for one factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Ladder rungs tried, in order; the last one is the rung that
    /// produced the accepted factorization.
    pub stages_tried: Vec<SolveStage>,
    /// Relative backward residual `‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of
    /// the solve that returned this report (its worst column for a
    /// matrix solve; 0.0 in the factor-time [`RobustLu::report`]).
    pub residual: f64,
    /// Condition estimate `‖A‖₁·‖A⁻¹‖₁` of the accepted factorization
    /// (of the *perturbed* matrix on the Tikhonov rung).
    pub cond_estimate: f64,
    /// True when the accepted factorization is of `A + δI`, not `A`.
    pub perturbed: bool,
    /// True when the solve that returned this report kept an
    /// iterative-refinement correction (it reduced the residual) in any
    /// column.
    pub refinement_kept: bool,
    /// Pivot growth of the accepted factorization.
    pub pivot_growth: f64,
}

impl SolveReport {
    /// The rung that produced the accepted factorization.
    pub fn accepted_stage(&self) -> SolveStage {
        *self
            .stages_tried
            .last()
            .unwrap_or(&SolveStage::RefinedPartial)
    }

    /// True when the ladder went beyond the first rung.
    pub fn escalated(&self) -> bool {
        self.stages_tried.len() > 1
    }
}

/// Escalating dense factorization of `A`: refined partial pivot →
/// complete pivoting → Tikhonov-perturbed complete pivoting. See the
/// [module docs](self) for the ladder; [`RobustLu::report`] records
/// which rungs ran.
#[derive(Debug, Clone)]
pub struct RobustLu {
    /// The original matrix — kept for residual computation and
    /// iterative refinement (refinement against `A` also pulls a
    /// Tikhonov-perturbed solve back toward the unperturbed problem).
    a: CMat,
    /// The accepted factorization (of `A + δI` on the Tikhonov rung).
    lu: Lu,
    report: SolveReport,
}

/// Content hash of a matrix's first row (up to 8 entries) — the fault
/// key for `lu.pivot_fail`, chosen so injection decisions depend on
/// *what* is being factored, never on call order or thread schedule.
fn content_key(a: &CMat) -> u64 {
    let n = a.rows().min(8);
    let mut bytes = Vec::with_capacity(n * 16);
    for j in 0..n {
        let v = a[(0, j)];
        bytes.extend_from_slice(&v.re.to_bits().to_le_bytes());
        bytes.extend_from_slice(&v.im.to_bits().to_le_bytes());
    }
    htmpll_fault::fnv64(&bytes)
}

impl RobustLu {
    /// Factors `A`, escalating as far as needed.
    ///
    /// # Errors
    ///
    /// [`LuError::NotSquare`] for rectangular inputs and
    /// [`LuError::NonFinite`] for NaN/∞ entries. A merely singular or
    /// ill-conditioned finite matrix never errors — the Tikhonov rung
    /// always produces *some* factorization, flagged
    /// [`SolveReport::perturbed`].
    pub fn factor(a: &CMat) -> Result<RobustLu, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        if !a.is_finite() {
            return Err(LuError::NonFinite);
        }
        htmpll_obs::counter!("num", "robust.factor").inc();
        let _span =
            htmpll_obs::span_labeled_at("num", "robust_factor", htmpll_obs::Level::Debug, || {
                format!("n={}", a.rows())
            });
        let mut stages = vec![SolveStage::RefinedPartial];

        // Fault site `lu.pivot_fail`: pretend rung 1's gates failed so
        // the ladder escalates to complete pivoting (a `Refined`
        // verdict, never a wrong value). Keyed by matrix content, not
        // call order, so a given matrix faults identically at every
        // thread count.
        let pivot_fault =
            htmpll_fault::enabled() && htmpll_fault::fires("lu.pivot_fail", content_key(a));
        if pivot_fault {
            htmpll_obs::counter!("num", "fault.pivot_fail").inc();
        }

        // Rung 1: refined partial pivot, gated on growth + condition.
        if !pivot_fault {
            if let Ok(lu) = Lu::factor(a) {
                let cond = lu.cond_estimate(a);
                if lu.pivot_growth() <= GROWTH_GATE && cond.is_finite() && cond <= COND_GATE {
                    return Ok(RobustLu::accept(a, lu, cond, stages, false));
                }
            }
        }

        // Rung 2: complete pivoting.
        htmpll_obs::counter!("num", "robust.escalate_full").inc();
        htmpll_obs::instant("num", || {
            format!("ladder{{stage=full-pivot,n={}}}", a.rows())
        });
        stages.push(SolveStage::FullPivot);
        if let Ok(lu) = Lu::factor_complete(a) {
            let cond = lu.cond_estimate(a);
            if cond.is_finite() && cond <= COND_GATE {
                return Ok(RobustLu::accept(a, lu, cond, stages, false));
            }
        }

        // Rung 3: Tikhonov. δ scales with ‖A‖_max (absolute fallback for
        // the zero matrix) so the shift is tiny relative to the data but
        // large relative to roundoff.
        htmpll_obs::counter!("num", "robust.escalate_tikhonov").inc();
        htmpll_obs::instant("num", || format!("ladder{{stage=tikhonov,n={}}}", a.rows()));
        stages.push(SolveStage::Tikhonov);
        let n = a.rows();
        let scale = if a.norm_max() > 0.0 {
            a.norm_max()
        } else {
            1.0
        };
        let delta = scale * (n.max(1) as f64) * f64::EPSILON.sqrt();
        let mut perturbed = a.clone();
        for i in 0..n {
            perturbed[(i, i)] += Complex::from_re(delta);
        }
        let lu = Lu::factor_complete(&perturbed)?;
        let cond = lu.cond_estimate(&perturbed);
        Ok(RobustLu::accept(a, lu, cond, stages, true))
    }

    /// Wraps the accepted factorization with its factor-time report; a
    /// solve fills in the residual and refinement outcome.
    fn accept(a: &CMat, lu: Lu, cond: f64, stages: Vec<SolveStage>, perturbed: bool) -> RobustLu {
        let report = SolveReport {
            stages_tried: stages,
            residual: 0.0,
            cond_estimate: cond,
            perturbed,
            refinement_kept: false,
            pivot_growth: lu.pivot_growth(),
        };
        RobustLu {
            a: a.clone(),
            lu,
            report,
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// What the ladder did (stages, condition estimate, perturbation);
    /// the residual reads 0.0 until a solve completes it.
    pub fn report(&self) -> &SolveReport {
        &self.report
    }

    /// Relative backward residual `‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`
    /// of a candidate solution against the **original** matrix.
    fn rel_residual(&self, b: &[Complex], x: &[Complex], r: &[Complex]) -> f64 {
        let rn = r.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let xn = x.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let bn = b.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let denom = self.a.norm_max() * xn + bn;
        if denom > 0.0 {
            rn / denom
        } else {
            rn
        }
    }

    fn residual_vec(&self, b: &[Complex], x: &[Complex]) -> Vec<Complex> {
        let ax = self.a.mul_vec(x);
        b.iter().zip(&ax).map(|(bi, axi)| *bi - *axi).collect()
    }

    /// One refined solve of `A x = b`: the solution, its relative
    /// residual and whether the refinement correction was kept.
    fn solve_refined(&self, b: &[Complex]) -> Result<(Vec<Complex>, f64, bool), LuError> {
        if b.len() != self.dim() {
            return Err(LuError::DimensionMismatch);
        }
        if !b.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            return Err(LuError::NonFinite);
        }
        let x0 = self.lu.solve(b)?;
        let r0 = self.residual_vec(b, &x0);
        let res0 = self.rel_residual(b, &x0, &r0);

        // One refinement step: solve A d = r, candidate x1 = x0 + d —
        // but only when the raw solve actually lost digits; a residual
        // already at working precision has nothing left to recover and
        // should grade `Exact`.
        let refined = if res0 <= 64.0 * f64::EPSILON {
            None
        } else {
            match self.lu.solve(&r0) {
                Ok(d) => {
                    let x1: Vec<Complex> = x0.iter().zip(&d).map(|(x, d)| *x + *d).collect();
                    let r1 = self.residual_vec(b, &x1);
                    let res1 = self.rel_residual(b, &x1, &r1);
                    if res1.is_finite() && res1 < res0 {
                        htmpll_obs::counter!("num", "robust.refine_kept").inc();
                        Some((x1, res1))
                    } else {
                        None
                    }
                }
                Err(_) => None,
            }
        };
        let (x, residual, kept) = match refined {
            Some((x1, res1)) => (x1, res1, true),
            None => (x0, res0, false),
        };
        if !x.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            return Err(LuError::NonFinite);
        }
        Ok((x, residual, kept))
    }

    /// The factor-time report completed by a solve.
    fn completed(&self, residual: f64, refinement_kept: bool) -> SolveReport {
        SolveReport {
            residual,
            refinement_kept,
            ..self.report.clone()
        }
    }

    /// Solves `A x = b` with one step of iterative refinement against
    /// the original matrix; the correction is kept only when it reduces
    /// the residual. Returns the solution with the completed
    /// [`SolveReport`] (this solve's residual and refinement outcome).
    ///
    /// # Errors
    ///
    /// [`LuError::DimensionMismatch`] for a wrong-length `b` and
    /// [`LuError::NonFinite`] when `b` contains NaN/∞.
    pub fn solve(&self, b: &[Complex]) -> Result<(Vec<Complex>, SolveReport), LuError> {
        let (x, residual, kept) = self.solve_refined(b)?;
        Ok((x, self.completed(residual, kept)))
    }

    /// Solves `A X = B` column by column with refinement; the reported
    /// residual is the worst column residual and `refinement_kept` is
    /// set when any column kept its correction.
    ///
    /// # Errors
    ///
    /// [`LuError::DimensionMismatch`] when `B.rows() != dim()`;
    /// [`LuError::NonFinite`] when `B` contains NaN/∞.
    pub fn solve_mat(&self, b: &CMat) -> Result<(CMat, SolveReport), LuError> {
        if b.rows() != self.dim() {
            return Err(LuError::DimensionMismatch);
        }
        let mut out = CMat::zeros(b.rows(), b.cols());
        let mut worst = 0.0f64;
        let mut any_kept = false;
        for j in 0..b.cols() {
            let (col, residual, kept) = self.solve_refined(&b.col(j))?;
            worst = worst.max(residual);
            any_kept |= kept;
            for (i, v) in col.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok((out, self.completed(worst, any_kept)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn random_like(n: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64) / (u32::MAX as f64) - 0.5
        };
        CMat::from_fn(n, n, |_, _| c(next(), next()))
    }

    #[test]
    fn well_conditioned_stays_on_first_rung() {
        let a = random_like(8, 3);
        let r = RobustLu::factor(&a).unwrap();
        assert_eq!(r.report().stages_tried, vec![SolveStage::RefinedPartial]);
        assert!(!r.report().perturbed);
        assert!(!r.report().escalated());
        let b: Vec<Complex> = (0..8).map(|i| c(i as f64, -1.0)).collect();
        let (x, report) = r.solve(&b).unwrap();
        // Residual at working precision.
        assert!(report.residual < 1e-12, "residual {}", report.residual);
        // Verify against the plain solver.
        let plain = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (x, y) in x.iter().zip(&plain) {
            assert!((*x - *y).abs() < 1e-10);
        }
    }

    #[test]
    fn pivot_fail_injection_escalates_to_full_pivot() {
        let a = random_like(8, 3);
        htmpll_fault::install(
            htmpll_fault::FaultPlan::parse("seed=1;lu.pivot_fail=always").unwrap(),
        );
        let faulted = {
            let _scope = htmpll_fault::scope_guard(Some(7));
            RobustLu::factor(&a).unwrap()
        };
        htmpll_fault::clear();
        // Forced past rung 1: the ladder escalated but the result is
        // still unperturbed (Refined, not Perturbed — a correct value).
        assert!(faulted.report().escalated(), "{:?}", faulted.report());
        assert!(!faulted.report().perturbed);
        // Without an ambient scope the same plan never fires, so code
        // outside explicit fault scopes is immune.
        htmpll_fault::install(
            htmpll_fault::FaultPlan::parse("seed=1;lu.pivot_fail=always").unwrap(),
        );
        let unscoped = RobustLu::factor(&a).unwrap();
        htmpll_fault::clear();
        assert!(!unscoped.report().escalated());
    }

    #[test]
    fn full_pivot_matches_partial_on_regular_matrix() {
        let a = random_like(10, 17);
        let b: Vec<Complex> = (0..10).map(|i| c(0.3 * i as f64, 1.0)).collect();
        let full = Lu::factor_complete(&a).unwrap().solve(&b).unwrap();
        let partial = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (x, y) in full.iter().zip(&partial) {
            assert!((*x - *y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn full_pivot_inverse_roundtrip() {
        let a = random_like(9, 23);
        let inv = Lu::factor_complete(&a).unwrap().inverse().unwrap();
        assert!((&a * &inv).max_diff(&CMat::identity(9)) < 1e-10);
    }

    #[test]
    fn singular_matrix_perturbs_and_solves() {
        // Rank-one 3×3: plain LU errors, robust ladder ends on Tikhonov.
        let u = [c(1.0, 0.0), c(2.0, 1.0), c(-0.5, 0.3)];
        let a = CMat::outer(&u, &u);
        assert!(Lu::factor(&a).is_err());
        let r = RobustLu::factor(&a).unwrap();
        assert!(r.report().perturbed);
        assert_eq!(r.report().accepted_stage(), SolveStage::Tikhonov);
        assert!(r
            .report()
            .stages_tried
            .contains(&SolveStage::RefinedPartial));
        assert!(r.report().stages_tried.contains(&SolveStage::FullPivot));
        // Consistent rhs (in the range of A): the perturbed solve must
        // produce a finite solution with small residual.
        let b = a.mul_vec(&[Complex::ONE, Complex::ONE, Complex::ONE]);
        let (x, report) = r.solve(&b).unwrap();
        assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
        assert!(report.residual < 1e-6, "residual {}", report.residual);
    }

    #[test]
    fn near_singular_escalates_but_stays_unperturbed_or_perturbed() {
        // ε-perturbed rank-one matrix: cond ≈ 1/ε blows past the gate.
        let u = [c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)];
        let mut a = CMat::outer(&u, &u);
        for i in 0..3 {
            a[(i, i)] += Complex::from_re(1e-14);
        }
        let r = RobustLu::factor(&a).unwrap();
        assert!(r.report().escalated());
        let b = [Complex::ONE, Complex::ONE, Complex::ONE];
        let (x, _) = r.solve(&b).unwrap();
        assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
    }

    #[test]
    fn nan_matrix_rejected_not_panicking() {
        let mut a = CMat::identity(3);
        a[(1, 1)] = c(f64::NAN, 0.0);
        assert_eq!(RobustLu::factor(&a).unwrap_err(), LuError::NonFinite);
        assert_eq!(Lu::factor_complete(&a).unwrap_err(), LuError::NonFinite);
    }

    #[test]
    fn infinite_rhs_rejected() {
        let a = CMat::identity(2);
        let r = RobustLu::factor(&a).unwrap();
        let b = [c(1.0, 0.0), c(f64::INFINITY, 0.0)];
        assert_eq!(r.solve(&b).unwrap_err(), LuError::NonFinite);
    }

    #[test]
    fn rectangular_rejected() {
        let a = CMat::zeros(2, 3);
        assert_eq!(RobustLu::factor(&a).unwrap_err(), LuError::NotSquare);
        assert_eq!(Lu::factor_complete(&a).unwrap_err(), LuError::NotSquare);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = RobustLu::factor(&CMat::identity(3)).unwrap();
        assert_eq!(
            r.solve(&[Complex::ONE; 2]).unwrap_err(),
            LuError::DimensionMismatch
        );
        assert_eq!(
            r.solve_mat(&CMat::zeros(2, 2)).unwrap_err(),
            LuError::DimensionMismatch
        );
        let f = Lu::factor_complete(&CMat::identity(3)).unwrap();
        assert_eq!(
            f.solve(&[Complex::ONE; 2]).unwrap_err(),
            LuError::DimensionMismatch
        );
    }

    #[test]
    fn zero_matrix_perturbs_to_identity_scale() {
        let a = CMat::zeros(4, 4);
        let r = RobustLu::factor(&a).unwrap();
        assert!(r.report().perturbed);
        let (x, _) = r.solve(&[Complex::ONE; 4]).unwrap();
        assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
    }

    #[test]
    fn refinement_reduces_residual_on_ill_conditioned_system() {
        // Hilbert-like matrix: notoriously ill conditioned; refinement
        // must never make the residual worse.
        let n = 8;
        let a = CMat::from_fn(n, n, |i, j| c(1.0 / ((i + j + 1) as f64), 0.0));
        let r = RobustLu::factor(&a).unwrap();
        let b: Vec<Complex> = (0..n).map(|i| c(1.0 + i as f64, 0.0)).collect();
        let (_, report) = r.solve(&b).unwrap();
        // Compare with the raw (unrefined) partial-pivot solve residual.
        if let Ok(lu) = Lu::factor(&a) {
            let raw = lu.solve(&b).unwrap();
            let raw_r = r.residual_vec(&b, &raw);
            let raw_res = r.rel_residual(&b, &raw, &raw_r);
            assert!(
                report.residual <= raw_res * (1.0 + 1e-12),
                "refined {} vs raw {}",
                report.residual,
                raw_res
            );
        }
    }

    #[test]
    fn solve_mat_aggregates_worst_residual() {
        let a = random_like(6, 99);
        let r = RobustLu::factor(&a).unwrap();
        let b = random_like(6, 100);
        let (x, report) = r.solve_mat(&b).unwrap();
        assert!(report.residual < 1e-10);
        assert!((&a * &x).max_diff(&b) < 1e-9);
    }

    #[test]
    fn solve_returns_completed_report() {
        let a = random_like(5, 7);
        let b: Vec<Complex> = (0..5).map(|i| c(i as f64, 0.5)).collect();
        let (x, report) = RobustLu::factor(&a).unwrap().solve(&b).unwrap();
        assert_eq!(x.len(), 5);
        assert!(report.cond_estimate >= 1.0);
        assert!(!report.perturbed);
    }

    #[test]
    fn stage_display() {
        assert_eq!(SolveStage::Structured.to_string(), "structured");
        assert_eq!(SolveStage::RefinedPartial.to_string(), "refined-partial");
        assert_eq!(SolveStage::FullPivot.to_string(), "full-pivot");
        assert_eq!(SolveStage::Tikhonov.to_string(), "tikhonov");
    }
}
