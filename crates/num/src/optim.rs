//! Scalar root bracketing and refinement.
//!
//! Margin extraction (unity-gain crossover, phase crossover, −3 dB
//! bandwidth) reduces to 1-D root finding on smooth functions of
//! frequency. This module provides grid bracketing plus Brent
//! refinement.
//!
//! ```
//! use htmpll_num::optim::brent;
//!
//! let f = |x: f64| x * x - 2.0;
//! let r = brent(f, 1.0, 2.0, 1e-14, 200).expect("bracketed");
//! assert!((r - 2f64.sqrt()).abs() < 1e-12);
//! ```

use std::fmt;

/// Error returned by the scalar root refiners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` do not straddle zero.
    NotBracketed {
        /// `f` at the left end of the interval.
        fa: f64,
        /// `f` at the right end of the interval.
        fb: f64,
    },
    /// The iteration budget was exhausted before reaching tolerance.
    MaxIterations,
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootError::NotBracketed { fa, fb } => {
                write!(f, "interval does not bracket a root (f(a)={fa}, f(b)={fb})")
            }
            RootError::MaxIterations => write!(f, "root refinement exceeded iteration budget"),
        }
    }
}

impl std::error::Error for RootError {}

/// Brent's method on a bracketing interval `[a, b]` with
/// `f(a)·f(b) ≤ 0`: inverse-quadratic / secant steps guarded by
/// bisection.
///
/// # Errors
///
/// [`RootError::NotBracketed`] when the signs agree;
/// [`RootError::MaxIterations`] when `max_iter` steps do not reach
/// `tol` (interval width).
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let cond_outside = !((lo.min(b) < s) && (s < lo.max(b)));
        let cond_slow = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0
        } else {
            (s - b).abs() >= (c - d).abs() / 2.0
        };
        let cond_tiny = if mflag {
            (b - c).abs() < tol
        } else {
            (c - d).abs() < tol
        };
        if cond_outside || cond_slow || cond_tiny {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations)
}

/// Scans `f` over a grid and returns every `(left, right)` cell whose
/// endpoints straddle zero (sign change or exact zero at the left edge).
///
/// Non-finite samples are skipped so pole crossings do not produce
/// spurious brackets.
pub fn find_brackets<F: FnMut(f64) -> f64>(mut f: F, grid: &[f64]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    for &x in grid {
        let fx = f(x);
        if let Some((px, pfx)) = prev {
            if straddles(pfx, fx) {
                out.push((px, x));
            }
        }
        prev = fx.is_finite().then_some((x, fx));
    }
    out
}

/// [`find_brackets`]' rule for one grid cell with endpoint values `fa`
/// (left) and `fb` (right): both finite, and a sign change or an exact
/// zero at the left edge.
pub fn straddles(fa: f64, fb: f64) -> bool {
    fa.is_finite() && fb.is_finite() && (fa == 0.0 || fa.signum() != fb.signum())
}

/// Builds a logarithmically spaced grid of `n ≥ 2` points from `a` to `b`
/// (both strictly positive).
///
/// # Panics
///
/// Panics when `a <= 0`, `b <= 0`, or `n < 2`.
pub fn log_grid(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(a > 0.0 && b > 0.0, "log grid endpoints must be positive");
    assert!(n >= 2, "log grid needs at least two points");
    let (la, lb) = (a.ln(), b.ln());
    (0..n).map(|k| log_grid_point(la, lb, k, n)).collect()
}

/// Point `k` of [`log_grid`]`(a, b, n)` from `la = ln a` and
/// `lb = ln b`: [`log_grid`] computes every point with this formula, so
/// a point computed alone has the bits of the same point in the grid.
pub fn log_grid_point(la: f64, lb: f64, k: usize, n: usize) -> f64 {
    (la + (lb - la) * k as f64 / (n - 1) as f64).exp()
}

/// Builds a linearly spaced grid of `n ≥ 2` points from `a` to `b`.
///
/// # Panics
///
/// Panics when `n < 2`.
pub fn lin_grid(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linear grid needs at least two points");
    (0..n)
        .map(|k| a + (b - a) * k as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_exact_endpoint() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12, 100).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-12, 100).unwrap(), 1.0);
    }

    #[test]
    fn brent_beats_bisection() {
        // Bisection needs ⌈log₂(2/1e-14)⌉ = 48 halvings here.
        let mut calls = 0;
        let r = brent(
            |x| {
                calls += 1;
                x.exp() - 3.0
            },
            0.0,
            2.0,
            1e-14,
            200,
        )
        .unwrap();
        assert!((r - 3f64.ln()).abs() < 1e-12);
        assert!(calls < 48, "{calls} calls");
    }

    #[test]
    fn brent_on_steep_function() {
        // x³ − 2x − 5 has a root near 2.0945514815.
        let r = brent(|x| x * x * x - 2.0 * x - 5.0, 2.0, 3.0, 1e-14, 200).unwrap();
        assert!((r - 2.0945514815423265).abs() < 1e-10);
    }

    #[test]
    fn brent_rejects_non_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NotBracketed { .. })
        ));
    }

    #[test]
    fn find_brackets_on_sine() {
        let grid = lin_grid(0.1, 9.9, 100);
        let brs = find_brackets(|x| x.sin(), &grid);
        // sin has zeros at π, 2π, 3π inside (0.1, 9.9).
        assert_eq!(brs.len(), 3);
        for (i, (a, b)) in brs.iter().enumerate() {
            let target = std::f64::consts::PI * (i + 1) as f64;
            assert!(*a < target && target < *b);
        }
    }

    #[test]
    fn find_brackets_skips_poles() {
        // tan has a pole at π/2 with a sign flip but non-finite values
        // near it are skipped by sampling tan at the pole cell.
        let grid = lin_grid(0.1, 3.0, 30);
        let brs = find_brackets(
            |x| {
                let t = x.tan();
                if t.abs() > 10.0 {
                    f64::NAN
                } else {
                    t
                }
            },
            &grid,
        );
        // tan's only zero in (0.1, 3.0) would be at π ≈ 3.14 (outside);
        // the sign flip across the pole at π/2 must not create a bracket
        // because the neighboring samples are masked non-finite.
        assert!(brs.is_empty(), "{brs:?}");
    }

    #[test]
    fn straddles_is_the_bracket_rule() {
        assert!(straddles(-1.0, 1.0));
        assert!(straddles(0.0, 1.0));
        assert!(!straddles(1.0, 0.0));
        assert!(!straddles(1.0, 2.0));
        assert!(!straddles(f64::NAN, 1.0));
        assert!(!straddles(-1.0, f64::INFINITY));
    }

    #[test]
    fn grids() {
        let g = log_grid(1.0, 100.0, 3);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 10.0).abs() < 1e-9);
        assert!((g[2] - 100.0).abs() < 1e-9);
        let l = lin_grid(0.0, 1.0, 5);
        assert_eq!(l, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_grid_rejects_nonpositive() {
        let _ = log_grid(0.0, 1.0, 4);
    }

    #[test]
    fn error_display() {
        let e = RootError::NotBracketed { fa: 1.0, fb: 2.0 };
        assert!(e.to_string().contains("bracket"));
        assert!(RootError::MaxIterations.to_string().contains("budget"));
    }
}
