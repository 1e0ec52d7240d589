//! Cooperative deadlines for sweep workers.
//!
//! A [`Deadline`] is a cheap, cloneable budget handle checked at
//! per-point granularity by [`crate::par_map_cancellable`] and by
//! `core::sweep`'s grid loops. Expiry is **cooperative**: a worker
//! finishes the point it is on, then stops taking new points, so
//! an expired budget yields a partial result instead of a wedged
//! worker.
//!
//! ## Determinism
//!
//! Expiry decides *whether* a point is computed, never *what* is
//! computed: a completed point's bits are identical to the same point
//! in an unbudgeted run (asserted by the workspace's deadline tests).
//! The *set* of completed points under a wall-clock budget is timing-
//! dependent by nature; [`Deadline::after_checks`] gives tests and CI a
//! fully deterministic expiry (after a fixed number of expiry checks)
//! with the same code path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct DeadlineInner {
    /// Wall-clock budget, when time-based.
    started: Instant,
    budget: Option<Duration>,
    /// Deterministic budget: expire after this many [`Deadline::expired`]
    /// calls, when check-based.
    check_budget: Option<u64>,
    checks: AtomicU64,
}

/// A cooperative deadline handle. Clones share one budget.
///
/// [`Deadline::none`] (the `Default`) carries no state at all: every
/// check is a single `Option` test, so unbudgeted sweeps pay nothing.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    inner: Option<Arc<DeadlineInner>>,
}

impl Deadline {
    /// No budget: never expires.
    pub fn none() -> Deadline {
        Deadline { inner: None }
    }

    /// Expires `budget` after creation (checked cooperatively).
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            inner: Some(Arc::new(DeadlineInner {
                started: Instant::now(),
                budget: Some(budget),
                check_budget: None,
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// Expires after `n` calls to [`Deadline::expired`] — a fully
    /// deterministic budget for tests and CI (no wall clock involved).
    pub fn after_checks(n: u64) -> Deadline {
        Deadline {
            inner: Some(Arc::new(DeadlineInner {
                started: Instant::now(),
                budget: None,
                check_budget: Some(n),
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// Whether the budget is spent. Each call counts one
    /// check against an [`Deadline::after_checks`] budget.
    pub fn expired(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if let Some(n) = inner.check_budget {
            // fetch_add returns the pre-increment count: the first n
            // checks pass, the (n+1)-th expires.
            if inner.checks.fetch_add(1, Ordering::Relaxed) >= n {
                return true;
            }
        }
        match inner.budget {
            Some(budget) => inner.started.elapsed() >= budget,
            None => false,
        }
    }

    /// Whether more than `frac` of the budget is consumed — the
    /// degradation ladder's "deadline pressure" signal. `false` for
    /// unbounded deadlines; `true` once expired. Unlike
    /// [`Deadline::expired`], this does not count a check.
    pub fn pressed(&self, frac: f64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if let Some(n) = inner.check_budget {
            return inner.checks.load(Ordering::Relaxed) as f64 >= frac * n as f64;
        }
        match inner.budget {
            Some(budget) => inner.started.elapsed().as_secs_f64() >= frac * budget.as_secs_f64(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        for _ in 0..10 {
            assert!(!d.expired());
        }
        assert!(!d.pressed(0.0));
    }

    #[test]
    fn check_budget_is_deterministic() {
        let d = Deadline::after_checks(3);
        assert!(!d.expired());
        assert!(!d.expired());
        assert!(!d.expired());
        assert!(d.expired(), "4th check must expire a 3-check budget");
        assert!(d.expired(), "expiry is sticky");
    }

    #[test]
    fn clones_share_the_budget() {
        let d = Deadline::after_checks(2);
        let e = d.clone();
        assert!(!d.expired());
        assert!(!e.expired());
        assert!(d.expired(), "clone's checks count against one budget");
    }

    #[test]
    fn wall_clock_budget_expires() {
        let d = Deadline::after(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(!far.pressed(0.5));
    }

    #[test]
    fn pressed_tracks_check_consumption() {
        let d = Deadline::after_checks(10);
        assert!(!d.pressed(0.5));
        for _ in 0..6 {
            let _ = d.expired();
        }
        assert!(d.pressed(0.5), "6/10 checks is past half the budget");
        assert!(!d.pressed(0.9));
    }
}
