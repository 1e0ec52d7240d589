//! LU decomposition with partial or complete pivoting for complex
//! matrices.
//!
//! The dense solve path of the HTM machinery — inverting `I + G̃(s)` when
//! no rank-one shortcut applies (e.g. time-varying VCOs) — runs through
//! [`Lu`]: [`Lu::factor`] pivots on rows, [`Lu::factor_complete`] on rows
//! and columns, and both share one elimination, solve and inverse.
//!
//! ```
//! use htmpll_num::{CMat, Complex, Lu};
//!
//! let a = CMat::from_rows(2, 2, &[
//!     Complex::new(2.0, 0.0), Complex::new(1.0, 0.0),
//!     Complex::new(1.0, 0.0), Complex::new(3.0, 0.0),
//! ]);
//! let lu = Lu::factor(&a).expect("nonsingular");
//! let x = lu.solve(&[Complex::new(3.0, 0.0), Complex::new(4.0, 0.0)]).unwrap();
//! assert!((x[0] - Complex::new(1.0, 0.0)).abs() < 1e-12);
//! assert!((x[1] - Complex::new(1.0, 0.0)).abs() < 1e-12);
//! ```

use crate::complex::Complex;
use crate::mat::CMat;
use std::fmt;

/// Error returned when a matrix cannot be factored or solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare,
    /// A zero (or numerically negligible) pivot was encountered at the
    /// given elimination step: the matrix is singular to working precision.
    Singular {
        /// Index of the failing elimination step.
        step: usize,
    },
    /// Right-hand-side length does not match the factored dimension.
    DimensionMismatch,
    /// The matrix (or right-hand side) contains NaN or ±∞ entries; no
    /// factorization, refinement or perturbation can recover from those.
    NonFinite,
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "matrix is not square"),
            LuError::Singular { step } => {
                write!(f, "matrix is singular to working precision at step {step}")
            }
            LuError::DimensionMismatch => write!(f, "right-hand side has the wrong dimension"),
            LuError::NonFinite => write!(f, "matrix contains non-finite (NaN/∞) entries"),
        }
    }
}

impl std::error::Error for LuError {}

/// An LU factorization `P A Q = L U` with partial (row) or complete
/// (row and column) pivoting.
///
/// [`Lu::factor`] searches column `k` for each pivot and leaves `Q = I`;
/// [`Lu::factor_complete`] searches the whole trailing block, which
/// bounds element growth where partial pivoting cannot. Everything past
/// the pivot search is shared.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implicit) and U (upper) factors.
    lu: CMat,
    /// Row permutation: `row_perm[i]` is the original row in position `i`.
    row_perm: Vec<usize>,
    /// Column permutation: `col_perm[j]` is the original column in
    /// position `j` (the identity under partial pivoting).
    col_perm: Vec<usize>,
    /// Sign of both permutations together (+1 or −1), used by the
    /// determinant.
    perm_sign: f64,
    /// Pivot growth `‖U‖_max/‖A‖_max`, recorded at factor time.
    growth: f64,
}

impl Lu {
    /// Factors a square matrix with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] for a rectangular input and
    /// [`LuError::Singular`] when a pivot underflows
    /// `‖A‖_max · n · ε` (the matrix is singular to working precision).
    pub fn factor(a: &CMat) -> Result<Lu, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        htmpll_obs::counter!("num", "lu.factor").inc();
        htmpll_obs::record!("num", "lu.dim").record(a.rows() as f64);
        let lu = Lu::eliminate(a, false)?;
        // Pivot growth ‖U‖_max/‖A‖_max ≫ 1 flags an ill-conditioned HTM
        // truncation long before the solve visibly misbehaves.
        let growth_rec = htmpll_obs::record!("num", "lu.pivot_growth", htmpll_obs::Level::Debug);
        if growth_rec.is_enabled() {
            growth_rec.record(lu.growth);
        }
        Ok(lu)
    }

    /// Factors a square matrix with complete (row and column) pivoting:
    /// slower than [`Lu::factor`], with bounded element growth.
    ///
    /// # Errors
    ///
    /// [`LuError::NotSquare`] for rectangular inputs,
    /// [`LuError::NonFinite`] for NaN/∞ entries and
    /// [`LuError::Singular`] when the largest remaining entry underflows
    /// `‖A‖_max · n · ε`.
    pub fn factor_complete(a: &CMat) -> Result<Lu, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        if !a.is_finite() {
            return Err(LuError::NonFinite);
        }
        htmpll_obs::counter!("num", "lu.full_pivot.factor").inc();
        Lu::eliminate(a, true)
    }

    /// Gaussian elimination on a square `a`; `complete` widens each
    /// pivot search from column `k` to the whole trailing block.
    fn eliminate(a: &CMat, complete: bool) -> Result<Lu, LuError> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut row_perm: Vec<usize> = (0..n).collect();
        let mut col_perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let norm_a = lu.norm_max();
        let tiny = norm_a * (n as f64) * f64::EPSILON;

        for k in 0..n {
            // The largest |entry| at/below row k, in column k or (complete
            // pivoting) in every trailing column, scanned row by row.
            let search_end = if complete { n } else { k + 1 };
            let (mut p, mut q) = (k, k);
            let mut best = lu[(k, k)].abs();
            for i in k..n {
                for j in k..search_end {
                    let v = lu[(i, j)].abs();
                    if v > best {
                        best = v;
                        p = i;
                        q = j;
                    }
                }
            }
            if best <= tiny || !best.is_finite() {
                return Err(LuError::Singular { step: k });
            }
            if p != k {
                lu.swap_rows(p, k);
                row_perm.swap(p, k);
                perm_sign = -perm_sign;
            }
            if q != k {
                lu.swap_cols(q, k);
                col_perm.swap(q, k);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == Complex::ZERO {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= m * ukj;
                }
            }
        }
        let growth = if norm_a > 0.0 {
            lu.norm_max() / norm_a
        } else {
            1.0
        };
        Ok(Lu {
            lu,
            row_perm,
            col_perm,
            perm_sign,
            growth,
        })
    }

    /// Pivot growth `‖U‖_max/‖A‖_max` of this factorization. Values far
    /// above 1 flag element growth during elimination — the classic early
    /// warning that partial pivoting is losing accuracy on this matrix.
    pub fn pivot_growth(&self) -> f64 {
        self.growth
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, LuError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LuError::DimensionMismatch);
        }
        // Apply the row permutation, then forward substitution (L has
        // unit diagonal).
        let mut y: Vec<Complex> = self.row_perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = y[i];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * *yj;
            }
            y[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = y[i];
            #[allow(clippy::needless_range_loop)] // y is mutated at i below
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * y[j];
            }
            y[i] = acc / self.lu[(i, i)];
        }
        // Undo the column permutation: x[col_perm[j]] = y[j].
        let mut x = vec![Complex::ZERO; n];
        for (j, &cj) in self.col_perm.iter().enumerate() {
            x[cj] = y[j];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::DimensionMismatch`] when `B.rows() != dim()`.
    pub fn solve_mat(&self, b: &CMat) -> Result<CMat, LuError> {
        if b.rows() != self.dim() {
            return Err(LuError::DimensionMismatch);
        }
        let mut out = CMat::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j))?;
            for (i, v) in col.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// The inverse matrix `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// matrix of matching dimension).
    pub fn inverse(&self) -> Result<CMat, LuError> {
        self.solve_mat(&CMat::identity(self.dim()))
    }

    /// The determinant, from the product of pivots and the sign of the
    /// row and column permutations.
    pub fn det(&self) -> Complex {
        let mut d = Complex::from_re(self.perm_sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// A cheap condition-number estimate `‖A‖₁ · ‖A⁻¹‖₁` (computes the
    /// explicit inverse; intended for diagnostics on the small matrices
    /// used by truncated HTMs).
    pub fn cond_estimate(&self, a: &CMat) -> f64 {
        match self.inverse() {
            Ok(inv) => a.norm_one() * inv.norm_one(),
            Err(_) => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn random_like(n: usize, seed: u64) -> CMat {
        // Small deterministic LCG so the test needs no external RNG.
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
    fn solve_known_system() {
        // (1+j)x + y = 2 ; x − y = j  →  hand-checked solution below.
        let a = CMat::from_rows(2, 2, &[c(1.0, 1.0), c(1.0, 0.0), c(1.0, 0.0), c(-1.0, 0.0)]);
        let b = [c(2.0, 0.0), c(0.0, 1.0)];
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        // Verify by substitution.
        let r0 = a[(0, 0)] * x[0] + a[(0, 1)] * x[1];
        let r1 = a[(1, 0)] * x[0] + a[(1, 1)] * x[1];
        assert!(r0.approx_eq(b[0], 1e-13));
        assert!(r1.approx_eq(b[1], 1e-13));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = random_like(12, 42);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!(prod.max_diff(&CMat::identity(12)) < 1e-10);
    }

    #[test]
    fn determinant_of_triangular() {
        let a = CMat::from_rows(
            3,
            3,
            &[
                c(2.0, 0.0),
                c(5.0, 1.0),
                c(0.0, 3.0),
                Complex::ZERO,
                c(0.0, 1.0),
                c(7.0, 0.0),
                Complex::ZERO,
                Complex::ZERO,
                c(3.0, 0.0),
            ],
        );
        let lu = Lu::factor(&a).unwrap();
        // det = 2 · j · 3 = 6j
        assert!(lu.det().approx_eq(c(0.0, 6.0), 1e-12));
    }

    #[test]
    fn determinant_tracks_row_swaps() {
        // A permutation matrix with one swap has det −1.
        let mut p = CMat::identity(3);
        p.swap_rows(0, 1);
        let lu = Lu::factor(&p).unwrap();
        assert!(lu.det().approx_eq(c(-1.0, 0.0), 1e-14));
    }

    #[test]
    fn complete_pivoting_det_tracks_column_swaps() {
        // The largest entry sits off the diagonal, so complete pivoting
        // swaps a column: det = 1·1 − 3·2 = −5 either way.
        let a = CMat::from_rows(2, 2, &[c(1.0, 0.0), c(3.0, 0.0), c(2.0, 0.0), c(1.0, 0.0)]);
        assert!(Lu::factor_complete(&a)
            .unwrap()
            .det()
            .approx_eq(c(-5.0, 0.0), 1e-14));
        assert!(Lu::factor(&a).unwrap().det().approx_eq(c(-5.0, 0.0), 1e-14));
        let b = random_like(7, 31);
        let full = Lu::factor_complete(&b).unwrap().det();
        assert!(full.approx_eq(Lu::factor(&b).unwrap().det(), 1e-12 * full.abs()));
    }

    #[test]
    fn singular_detected() {
        let a = CMat::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(2.0, 0.0), c(4.0, 0.0)]);
        match Lu::factor(&a) {
            Err(LuError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn not_square_rejected() {
        let a = CMat::zeros(2, 3);
        assert_eq!(Lu::factor(&a).unwrap_err(), LuError::NotSquare);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CMat::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert_eq!(
            lu.solve(&[Complex::ONE; 2]).unwrap_err(),
            LuError::DimensionMismatch
        );
        assert_eq!(
            lu.solve_mat(&CMat::zeros(2, 2)).unwrap_err(),
            LuError::DimensionMismatch
        );
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let a = random_like(5, 7);
        let b = random_like(5, 9);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        assert!((&a * &x).max_diff(&b) < 1e-11);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix would divide by zero immediately.
        let a = CMat::from_rows(
            2,
            2,
            &[Complex::ZERO, c(1.0, 0.0), c(1.0, 0.0), Complex::ZERO],
        );
        let x = Lu::factor(&a)
            .unwrap()
            .solve(&[c(3.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        assert!(x[0].approx_eq(c(4.0, 0.0), 1e-14));
        assert!(x[1].approx_eq(c(3.0, 0.0), 1e-14));
    }

    #[test]
    fn cond_estimate_identity_is_small() {
        let a = CMat::identity(4);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.cond_estimate(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert_eq!(LuError::NotSquare.to_string(), "matrix is not square");
        assert!(LuError::Singular { step: 3 }.to_string().contains("step 3"));
        assert!(LuError::DimensionMismatch.to_string().contains("dimension"));
    }
}
