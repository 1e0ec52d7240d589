//! Per-point quality verdicts for graceful-degradation sweeps.
//!
//! Grid evaluations near the interesting regimes — ω_UG → ω₀, points on
//! or next to closed-loop poles, extreme truncations — used to abort the
//! whole sweep on the first ill-conditioned solve. The robust grid entry
//! points instead finish every point and attach a [`PointQuality`]
//! verdict, aggregated into a [`QualitySummary`] so callers (and the
//! `plltool doctor` health check) can see at a glance how much of a grid
//! degraded and how badly.

use crate::error::CoreError;
use htmpll_num::SolveReport;
use std::fmt;

/// Failure-reason prefix for points (and whole analyses) that ran out
/// of budget: every deadline-induced `Failed` verdict starts with this
/// string, so the service layer can distinguish "the budget expired"
/// (retryable with a larger `--deadline-ms`) from genuine numerical
/// failure.
pub const DEADLINE_REASON: &str = "deadline exceeded";

/// How trustworthy one grid point is.
#[derive(Debug, Clone, PartialEq)]
pub enum PointQuality {
    /// First-rung solve, condition and pivot-growth gates passed, no
    /// refinement correction needed: full working precision.
    Exact,
    /// The solve needed help — an iterative-refinement correction was
    /// kept or the solver escalated to complete pivoting — but the
    /// result satisfies the residual check against the *original*
    /// matrix. Trustworthy.
    Refined,
    /// The matrix was singular (or ill-conditioned beyond the gate) to
    /// working precision; the value solves a Tikhonov-perturbed nearby
    /// problem `A + δI`. Magnitudes are indicative, fine structure is
    /// not — treat as "the loop is on/near a pole here".
    Perturbed,
    /// No usable value could be produced (non-finite inputs, or the
    /// escalation ladder itself failed). The point's value is absent.
    Failed {
        /// Human-readable reason, e.g. the solver error.
        reason: String,
    },
}

impl PointQuality {
    /// True when the point carries a value (everything except
    /// [`PointQuality::Failed`]).
    pub fn is_usable(&self) -> bool {
        !matches!(self, PointQuality::Failed { .. })
    }

    /// True for the degraded verdicts (`Perturbed` or `Failed`).
    pub fn is_degraded(&self) -> bool {
        matches!(self, PointQuality::Perturbed | PointQuality::Failed { .. })
    }

    /// Short verdict slug without the failure reason (`exact`,
    /// `refined`, `perturbed`, `failed`) — for event labels and table
    /// columns where the full [`fmt::Display`] form is too wide.
    pub fn name(&self) -> &'static str {
        match self {
            PointQuality::Exact => "exact",
            PointQuality::Refined => "refined",
            PointQuality::Perturbed => "perturbed",
            PointQuality::Failed { .. } => "failed",
        }
    }

    /// Grades a solver report: `Perturbed` when the Tikhonov rung ran,
    /// `Refined` when the ladder escalated or a refinement correction
    /// was kept, `Exact` otherwise.
    pub fn from_report(report: &SolveReport) -> PointQuality {
        if report.perturbed {
            PointQuality::Perturbed
        } else if report.escalated() || report.refinement_kept {
            PointQuality::Refined
        } else {
            PointQuality::Exact
        }
    }
}

impl fmt::Display for PointQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointQuality::Exact => write!(f, "exact"),
            PointQuality::Refined => write!(f, "refined"),
            PointQuality::Perturbed => write!(f, "perturbed"),
            PointQuality::Failed { reason } => write!(f, "failed ({reason})"),
        }
    }
}

/// One evaluated grid point: the value (absent when the point failed),
/// its verdict and the numerical evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome<T> {
    /// The computed value; `None` exactly when `quality` is `Failed`.
    pub value: Option<T>,
    /// The verdict.
    pub quality: PointQuality,
    /// Condition estimate of the accepted factorization (0.0 for
    /// scalar/closed-form points with no factorization).
    pub cond: f64,
    /// Relative backward residual of the solve (0.0 when not
    /// applicable).
    pub residual: f64,
}

impl<T> PointOutcome<T> {
    /// A failed point with a reason.
    pub fn failed(reason: impl Into<String>) -> PointOutcome<T> {
        PointOutcome {
            value: None,
            quality: PointQuality::Failed {
                reason: reason.into(),
            },
            cond: 0.0,
            residual: 0.0,
        }
    }

    /// A point skipped because the sweep's budget expired before it was
    /// evaluated ([`DEADLINE_REASON`] as the failure reason).
    pub fn deadline_exceeded() -> PointOutcome<T> {
        PointOutcome::failed(DEADLINE_REASON)
    }

    /// True when this point failed because the budget expired rather
    /// than for a numerical reason.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(&self.quality, PointQuality::Failed { reason } if reason.starts_with(DEADLINE_REASON))
    }
}

/// A whole grid of [`PointOutcome`]s, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome<T> {
    /// One outcome per grid point, index-aligned with the input grid.
    pub points: Vec<PointOutcome<T>>,
}

impl<T> GridOutcome<T> {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Aggregates the verdicts.
    pub fn summary(&self) -> QualitySummary {
        let mut s = QualitySummary::default();
        for p in &self.points {
            s.absorb(&p.quality, p.cond, p.residual);
        }
        s
    }

    /// Collapses to plain values, erroring on the first `Failed` point
    /// (in grid order). Degraded-but-usable (`Perturbed`) points pass
    /// through — strict callers that also reject those should inspect
    /// [`GridOutcome::summary`].
    ///
    /// # Errors
    ///
    /// [`CoreError::SweepFailed`] naming the first failed point.
    pub fn into_strict(self) -> Result<Vec<T>, CoreError> {
        self.points
            .into_iter()
            .enumerate()
            .map(|(i, p)| match p.value {
                Some(v) => Ok(v),
                None => Err(CoreError::SweepFailed {
                    reason: format!("grid point {i}: {}", p.quality),
                }),
            })
            .collect()
    }
}

/// Aggregated verdict counts and worst-case numerical evidence for a
/// grid (or a whole analysis).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualitySummary {
    /// Points at full working precision.
    pub exact: usize,
    /// Points that needed refinement or pivoting escalation.
    pub refined: usize,
    /// Points solved through a Tikhonov-perturbed nearby problem.
    pub perturbed: usize,
    /// Points with no usable value.
    pub failed: usize,
    /// Worst (largest) condition estimate seen across the grid.
    pub worst_cond: f64,
    /// Worst (largest) relative backward residual seen across the grid.
    pub worst_residual: f64,
}

impl QualitySummary {
    /// Folds one point's verdict into the summary.
    pub fn absorb(&mut self, q: &PointQuality, cond: f64, residual: f64) {
        match q {
            PointQuality::Exact => self.exact += 1,
            PointQuality::Refined => self.refined += 1,
            PointQuality::Perturbed => self.perturbed += 1,
            PointQuality::Failed { .. } => self.failed += 1,
        }
        if cond.is_finite() && cond > self.worst_cond {
            self.worst_cond = cond;
        }
        if residual.is_finite() && residual > self.worst_residual {
            self.worst_residual = residual;
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &QualitySummary) {
        self.exact += other.exact;
        self.refined += other.refined;
        self.perturbed += other.perturbed;
        self.failed += other.failed;
        self.worst_cond = self.worst_cond.max(other.worst_cond);
        self.worst_residual = self.worst_residual.max(other.worst_residual);
    }

    /// Total points absorbed.
    pub fn total(&self) -> usize {
        self.exact + self.refined + self.perturbed + self.failed
    }

    /// Degraded points (`Perturbed` + `Failed`).
    pub fn degraded(&self) -> usize {
        self.perturbed + self.failed
    }
}

impl fmt::Display for QualitySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exact / {} refined / {} perturbed / {} failed (worst cond {:.3e}, worst residual {:.3e})",
            self.exact, self.refined, self.perturbed, self.failed, self.worst_cond, self.worst_residual
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-precision point.
    fn exact(value: f64) -> PointOutcome<f64> {
        PointOutcome {
            value: Some(value),
            quality: PointQuality::Exact,
            cond: 0.0,
            residual: 0.0,
        }
    }

    #[test]
    fn verdict_predicates() {
        assert!(PointQuality::Exact.is_usable());
        assert!(!PointQuality::Exact.is_degraded());
        assert!(PointQuality::Refined.is_usable());
        assert!(PointQuality::Perturbed.is_usable());
        assert!(PointQuality::Perturbed.is_degraded());
        let failed = PointQuality::Failed { reason: "x".into() };
        assert!(!failed.is_usable());
        assert!(failed.is_degraded());
        assert!(failed.to_string().contains('x'));
        assert_eq!(failed.name(), "failed");
        assert_eq!(PointQuality::Exact.name(), "exact");
        assert_eq!(PointQuality::Refined.name(), "refined");
        assert_eq!(PointQuality::Perturbed.name(), "perturbed");
    }

    #[test]
    fn summary_counts_and_worst_cases() {
        let grid = GridOutcome {
            points: vec![
                exact(1.0),
                PointOutcome {
                    value: Some(2.0),
                    quality: PointQuality::Refined,
                    cond: 1e10,
                    residual: 1e-13,
                },
                PointOutcome {
                    value: Some(3.0),
                    quality: PointQuality::Perturbed,
                    cond: 1e16,
                    residual: 1e-7,
                },
                PointOutcome::failed("nan input"),
            ],
        };
        let s = grid.summary();
        assert_eq!((s.exact, s.refined, s.perturbed, s.failed), (1, 1, 1, 1));
        assert_eq!(s.total(), 4);
        assert_eq!(s.degraded(), 2);
        assert_eq!(s.worst_cond, 1e16);
        assert_eq!(s.worst_residual, 1e-7);
        assert!(s.to_string().contains("1 perturbed"));
    }

    #[test]
    fn strict_collapse_errors_on_failed() {
        let ok: GridOutcome<f64> = GridOutcome {
            points: vec![exact(1.0), exact(2.0)],
        };
        assert_eq!(ok.into_strict().unwrap(), vec![1.0, 2.0]);
        let bad: GridOutcome<f64> = GridOutcome {
            points: vec![exact(1.0), PointOutcome::failed("pole")],
        };
        let err = bad.into_strict().unwrap_err();
        assert!(err.to_string().contains("pole"), "{err}");
    }

    #[test]
    fn merge_combines() {
        let mut a = QualitySummary {
            exact: 2,
            worst_cond: 1e3,
            ..QualitySummary::default()
        };
        let b = QualitySummary {
            failed: 1,
            worst_cond: 1e9,
            worst_residual: 1e-9,
            ..QualitySummary::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.worst_cond, 1e9);
        assert_eq!(a.worst_residual, 1e-9);
    }
}
