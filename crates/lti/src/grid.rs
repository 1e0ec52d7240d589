//! Shared frequency grids for sweep-style computations.
//!
//! Every sweep entry point in the workspace — Bode responses, margin
//! scans, noise folding, spur tables — evaluates some response on a set
//! of frequencies. [`FrequencyGrid`] is the one vocabulary type for that
//! set, replacing the ad-hoc `(start, stop, n_points)` positional
//! triples that used to be re-invented (and re-ordered) per call site.
//!
//! ```
//! use htmpll_lti::FrequencyGrid;
//!
//! let g = FrequencyGrid::log(0.1, 10.0, 5).unwrap();
//! assert_eq!(g.len(), 5);
//! assert!((g.points()[2] - 1.0).abs() < 1e-12);
//! ```

use htmpll_num::optim::log_grid;
use std::fmt;

/// Error building a [`FrequencyGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridError {
    /// Fewer than two points requested.
    TooFewPoints,
    /// Endpoints out of order (`start >= stop`).
    EmptyRange,
    /// Log-family grids need strictly positive endpoints.
    NonPositive,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::TooFewPoints => write!(f, "frequency grid needs at least two points"),
            GridError::EmptyRange => write!(f, "frequency grid needs start < stop"),
            GridError::NonPositive => {
                write!(f, "logarithmic frequency grid needs positive endpoints")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// An ordered set of angular frequencies (rad/s) to evaluate a sweep on.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyGrid {
    points: Vec<f64>,
}

impl FrequencyGrid {
    /// `n ≥ 2` logarithmically spaced points on `[start, stop]`,
    /// `0 < start < stop`.
    ///
    /// # Errors
    ///
    /// [`GridError::TooFewPoints`] / [`GridError::EmptyRange`] /
    /// [`GridError::NonPositive`].
    pub fn log(start: f64, stop: f64, n: usize) -> Result<FrequencyGrid, GridError> {
        if n < 2 {
            return Err(GridError::TooFewPoints);
        }
        if start <= 0.0 || stop <= 0.0 {
            return Err(GridError::NonPositive);
        }
        if start.partial_cmp(&stop) != Some(std::cmp::Ordering::Less) {
            return Err(GridError::EmptyRange);
        }
        Ok(FrequencyGrid {
            points: log_grid(start, stop, n),
        })
    }

    /// Wraps an explicit, already-ordered point list.
    pub fn from_points(points: Vec<f64>) -> FrequencyGrid {
        FrequencyGrid { points }
    }

    /// The frequencies, in sweep order.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates the frequencies.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, f64>> {
        self.points.iter().copied()
    }

    /// Keeps only the frequencies satisfying `keep` (e.g. restricting a
    /// λ sweep to the first Nyquist band).
    pub fn retain<F: FnMut(f64) -> bool>(mut self, mut keep: F) -> FrequencyGrid {
        self.points.retain(|&w| keep(w));
        self
    }
}

impl From<Vec<f64>> for FrequencyGrid {
    fn from(points: Vec<f64>) -> Self {
        FrequencyGrid::from_points(points)
    }
}

impl<'a> IntoIterator for &'a FrequencyGrid {
    type Item = f64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, f64>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_matches_log_grid() {
        let g = FrequencyGrid::log(0.01, 100.0, 9).unwrap();
        assert_eq!(g.points(), log_grid(0.01, 100.0, 9).as_slice());
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            FrequencyGrid::log(1.0, 2.0, 1).unwrap_err(),
            GridError::TooFewPoints
        );
        assert_eq!(
            FrequencyGrid::log(0.0, 1.0, 4).unwrap_err(),
            GridError::NonPositive
        );
        assert_eq!(
            FrequencyGrid::log(1.0, 1.0, 4).unwrap_err(),
            GridError::EmptyRange
        );
        assert!(GridError::NonPositive.to_string().contains("positive"));
    }

    #[test]
    fn retain_and_iter() {
        let g = FrequencyGrid::from_points(vec![0.5, 1.5, 2.5]).retain(|w| w < 2.0);
        assert_eq!(g.points(), &[0.5, 1.5]);
        let collected: Vec<f64> = (&g).into_iter().collect();
        assert_eq!(collected, vec![0.5, 1.5]);
        let from: FrequencyGrid = vec![1.0, 2.0].into();
        assert_eq!(from.len(), 2);
    }
}
