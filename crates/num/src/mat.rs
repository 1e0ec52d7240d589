//! Dense complex matrices.
//!
//! [`CMat`] is a row-major dense matrix of [`Complex`] entries. It is the
//! concrete carrier for truncated harmonic transfer matrices and for the
//! linear solves behind closed-loop HTM evaluation.
//!
//! ```
//! use htmpll_num::{CMat, Complex};
//!
//! let a = CMat::identity(3);
//! let b = CMat::from_fn(3, 3, |i, j| Complex::new((i + j) as f64, 0.0));
//! assert_eq!((&a * &b), b);
//! ```

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        CMat { rows, cols, data }
    }

    /// Creates a matrix from a row-major slice of entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        CMat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[Complex]) -> Self {
        let n = diag.len();
        let mut m = CMat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// The outer product `u vᵀ` (no conjugation), a rank-one matrix.
    ///
    /// This is the natural shape of the sampling-PFD HTM `(ω₀/2π)·𝟙𝟙ᵀ`.
    pub fn outer(u: &[Complex], v: &[Complex]) -> Self {
        CMat::from_fn(u.len(), v.len(), |i, j| u[i] * v[j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major entry slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<Complex> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copies the main diagonal into a new vector.
    pub fn diag(&self) -> Vec<Complex> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: Complex) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .fold(Complex::ZERO, |acc, (a, b)| acc + *a * *b)
            })
            .collect()
    }

    /// Max-entry (Chebyshev) norm.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Induced 1-norm (max absolute column sum).
    pub fn norm_one(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Max-entry distance between two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_diff(&self, other: &CMat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Swaps columns `a` and `b` in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(i * self.cols + a, i * self.cols + b);
        }
    }

    /// True when every entry is finite (no NaN/±∞ real or imaginary
    /// part) — the boundary guard for the robust solve paths.
    pub fn is_finite(&self) -> bool {
        self.data
            .iter()
            .all(|z| z.re.is_finite() && z.im.is_finite())
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:.4}  ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| -*z).collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    /// Cache-friendly ikj-ordered matrix product.
    fn mul(self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in mul");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex::ZERO {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * *r;
                }
            }
        }
        out
    }
}

/// Matrix exponential `e^A` by scaling-and-squaring with a diagonal
/// Padé(6,6) approximant, after balancing.
///
/// A badly scaled matrix — the loop generator of a 10 MHz loop in SI
/// units has entries from 1 to 2.5e23·dt — first gets a diagonal
/// similarity `B = D⁻¹·A·D` (Parlett–Reinsch balancing) that brings its row and
/// column norms together, so the norm that sets the number of
/// squarings is no longer dominated by one huge entry that says nothing
/// about the small ones. `D` holds powers of two, so the similarity and
/// its inverse `e^A = D·e^B·D⁻¹` round nothing, and a matrix that needs
/// no balancing is exponentiated with exactly the old operations. The
/// scaling `2^{−s}` is an `f64` power of two, so no norm overflows it.
/// The simulator propagates with a per-component Taylor series instead;
/// this is a test reference.
///
/// # Errors
///
/// [`LuError::NotSquare`](crate::lu::LuError::NotSquare) for rectangular
/// inputs and [`LuError::NonFinite`](crate::lu::LuError::NonFinite) when the matrix contains NaN/∞ entries (the
/// Padé denominator solve would silently produce garbage otherwise).
pub fn expm(a: &CMat) -> Result<CMat, crate::lu::LuError> {
    if !a.is_square() {
        return Err(crate::lu::LuError::NotSquare);
    }
    if !a.is_finite() {
        return Err(crate::lu::LuError::NonFinite);
    }
    let n = a.rows();
    if n == 0 {
        return Ok(CMat::zeros(0, 0));
    }
    let d = balance(a);
    if d.iter().all(|&di| di == 1.0) {
        return expm_scaled(a);
    }
    let similar = |m: &CMat, inverse: bool| {
        CMat::from_fn(n, n, |i, j| {
            let f = if inverse { d[i] / d[j] } else { d[j] / d[i] };
            m[(i, j)].scale(f)
        })
    };
    Ok(similar(&expm_scaled(&similar(a, false))?, true))
}

/// Most sweeps [`balance`] makes over the matrix.
const BALANCE_SWEEPS: usize = 32;

/// The diagonal `d` (powers of two) of the balancing similarity
/// `D⁻¹·A·D`, by the Parlett–Reinsch iteration: per index `i`, with
/// `c` and `r` the off-diagonal 1-norms of column and row `i` of the
/// current `D⁻¹·A·D`, scale by the power of two `f` nearest `√(r/c)`
/// when that cuts `c + r` to `c·f + r/f < 0.95·(c + r)`. All ones when
/// no index gains that much.
fn balance(a: &CMat) -> Vec<f64> {
    let n = a.rows();
    let mut d = vec![1.0f64; n];
    for _ in 0..BALANCE_SWEEPS {
        let mut changed = false;
        for i in 0..n {
            let (mut c, mut r) = (0.0, 0.0);
            for j in (0..n).filter(|&j| j != i) {
                c += a[(j, i)].abs() * (d[i] / d[j]);
                r += a[(i, j)].abs() * (d[j] / d[i]);
            }
            if c == 0.0 || r == 0.0 {
                continue;
            }
            let k = ((r / c).log2() / 2.0).round().clamp(-256.0, 256.0);
            let f = 2f64.powi(k as i32);
            if c * f + r / f < 0.95 * (c + r) {
                d[i] *= f;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    d
}

/// [`expm`] of a finite, square, nonempty `a` without balancing.
fn expm_scaled(a: &CMat) -> Result<CMat, crate::lu::LuError> {
    let n = a.rows();
    // Scale so ‖A/2^s‖ is comfortably inside the Padé(6,6) radius.
    let norm = a.norm_one();
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil().max(0.0) as i32
    } else {
        0
    };
    let scaled = a.scale(crate::complex::Complex::from_re(0.5f64.powi(s)));

    // Padé(6,6): N(A) = Σ c_k A^k, D(A) = Σ c_k (−A)^k with
    // c_k = 6!·(12−k)! / (12!·k!·(6−k)!).
    let mut c = [0.0f64; 7];
    c[0] = 1.0;
    for k in 0..6 {
        c[k + 1] = c[k] * (6 - k) as f64 / ((12 - k) * (k + 1)) as f64;
    }
    let mut num = CMat::identity(n).scale(crate::complex::Complex::from_re(c[0]));
    let mut den = num.clone();
    let mut power = CMat::identity(n);
    for (k, &ck) in c.iter().enumerate().skip(1) {
        power = &power * &scaled;
        let term = power.scale(crate::complex::Complex::from_re(ck));
        num = &num + &term;
        if k % 2 == 0 {
            den = &den + &term;
        } else {
            den = &den - &term;
        }
    }
    // The denominator is nonsingular inside the scaling radius for any
    // finite input, but propagate rather than assert: a Result here keeps
    // the whole library path panic-free.
    let mut e = crate::lu::Lu::factor(&den)?.solve_mat(&num)?;
    for _ in 0..s {
        e = &e * &e;
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn constructors() {
        let z = CMat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&e| e == Complex::ZERO));

        let i3 = CMat::identity(3);
        assert_eq!(i3[(0, 0)], Complex::ONE);
        assert_eq!(i3[(0, 1)], Complex::ZERO);

        let d = CMat::from_diag(&[c(1.0, 0.0), c(0.0, 2.0)]);
        assert_eq!(d[(1, 1)], c(0.0, 2.0));
        assert_eq!(d[(1, 0)], Complex::ZERO);
        assert_eq!(d.diag(), vec![c(1.0, 0.0), c(0.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_rows_validates_length() {
        let _ = CMat::from_rows(2, 2, &[Complex::ZERO; 3]);
    }

    #[test]
    fn indexing_and_accessors() {
        let m = CMat::from_fn(2, 3, |i, j| c(i as f64, j as f64));
        assert_eq!(m[(1, 2)], c(1.0, 2.0));
        assert_eq!(m.row(1), &[c(1.0, 0.0), c(1.0, 1.0), c(1.0, 2.0)]);
        assert_eq!(m.col(2), vec![c(0.0, 2.0), c(1.0, 2.0)]);
        assert!(!m.is_square());
    }

    #[test]
    fn matmul_against_hand_computation() {
        // [1 j; 0 2] * [1 0; 1 1] = [1+j j; 2 2]
        let a = CMat::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 1.0), c(0.0, 0.0), c(2.0, 0.0)]);
        let b = CMat::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)]);
        let p = &a * &b;
        assert_eq!(p[(0, 0)], c(1.0, 1.0));
        assert_eq!(p[(0, 1)], c(0.0, 1.0));
        assert_eq!(p[(1, 0)], c(2.0, 0.0));
        assert_eq!(p[(1, 1)], c(2.0, 0.0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = CMat::from_fn(3, 3, |i, j| c((i * 3 + j) as f64, (i as f64) - (j as f64)));
        let i3 = CMat::identity(3);
        assert_eq!(&a * &i3, a);
        assert_eq!(&i3 * &a, a);
    }

    #[test]
    fn add_sub_neg_scale() {
        let a = CMat::from_fn(2, 2, |i, j| c((i + j) as f64, 1.0));
        let b = CMat::identity(2);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], c(1.0, 1.0));
        let d = &s - &b;
        assert_eq!(d, a);
        let n = -&a;
        assert_eq!(n[(0, 1)], c(-1.0, -1.0));
        let sc = a.scale(c(0.0, 1.0));
        assert_eq!(sc[(0, 1)], c(-1.0, 1.0)); // j·(1+j) = −1+j
    }

    #[test]
    fn mat_vec_product() {
        let a = CMat::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0), c(0.0, 0.0)]);
        let x = [c(1.0, 0.0), c(1.0, 0.0)];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![c(1.0, 1.0), c(2.0, 0.0)]);
    }

    #[test]
    fn outer_product_is_rank_one_shape() {
        let ones = vec![Complex::ONE; 3];
        let m = CMat::outer(&ones, &ones);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], Complex::ONE);
            }
        }
    }

    #[test]
    fn norms() {
        let a = CMat::from_rows(
            2,
            2,
            &[c(3.0, 4.0), Complex::ZERO, Complex::ZERO, Complex::ZERO],
        );
        assert!((a.norm_max() - 5.0).abs() < 1e-15);
        assert!((a.norm_one() - 5.0).abs() < 1e-15);
        // max_diff vs identity: largest entry distance is |3+4j − 1| = √20.
        let b = CMat::identity(2);
        assert!((a.max_diff(&b) - 20.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = CMat::from_fn(3, 2, |i, _| c(i as f64, 0.0));
        a.swap_rows(0, 2);
        assert_eq!(a[(0, 0)], c(2.0, 0.0));
        assert_eq!(a[(2, 0)], c(0.0, 0.0));
        a.swap_rows(1, 1); // no-op
        assert_eq!(a[(1, 0)], c(1.0, 0.0));
    }

    #[test]
    fn expm_diagonal() {
        let a = CMat::from_diag(&[c(1.0, 0.0), c(0.0, std::f64::consts::PI), c(-2.0, 1.0)]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - Complex::from_re(1f64.exp())).abs() < 1e-12);
        // e^{jπ} = −1.
        assert!((e[(1, 1)] + Complex::ONE).abs() < 1e-12);
        assert!((e[(2, 2)] - Complex::new(-2.0, 1.0).exp()).abs() < 1e-12);
        assert_eq!(e[(0, 1)], Complex::ZERO);
    }

    #[test]
    fn expm_rotation_generator() {
        // exp(t·[[0,−1],[1,0]]) is the rotation by t.
        let t = 0.7f64;
        let a = CMat::from_rows(2, 2, &[Complex::ZERO, c(-t, 0.0), c(t, 0.0), Complex::ZERO]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - Complex::from_re(t.cos())).abs() < 1e-12);
        assert!((e[(0, 1)] + Complex::from_re(t.sin())).abs() < 1e-12);
        assert!((e[(1, 0)] - Complex::from_re(t.sin())).abs() < 1e-12);
    }

    #[test]
    fn expm_nilpotent_exact() {
        // exp of a Jordan nilpotent: I + N + N²/2.
        let a = CMat::from_fn(3, 3, |i, j| {
            if j == i + 1 {
                c(2.0, 0.0)
            } else {
                Complex::ZERO
            }
        });
        let e = expm(&a).unwrap();
        assert!((e[(0, 1)] - c(2.0, 0.0)).abs() < 1e-12);
        assert!((e[(0, 2)] - c(2.0, 0.0)).abs() < 1e-12); // 2·2/2
        assert!((e[(0, 0)] - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn expm_group_property() {
        // e^{A}·e^{A} = e^{2A} (A commutes with itself).
        let a = CMat::from_fn(4, 4, |i, j| {
            c(0.2 * (i as f64 - j as f64), 0.1 * (i + j) as f64)
        });
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scale(c(2.0, 0.0))).unwrap();
        assert!((&e1 * &e1).max_diff(&e2) < 1e-10);
    }

    #[test]
    fn expm_large_norm_scaling() {
        // Forces several squaring steps.
        let a = CMat::from_diag(&[c(8.0, 3.0), c(-10.0, 0.0)]);
        let e = expm(&a).unwrap();
        assert!(
            (e[(0, 0)] - Complex::new(8.0, 3.0).exp()).abs()
                < 1e-6 * Complex::new(8.0, 3.0).exp().abs()
        );
        assert!((e[(1, 1)] - Complex::from_re((-10.0f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn expm_of_a_huge_nilpotent_entry_is_exact() {
        // ‖A‖₁ = 1e20 > 2⁶³·0.5 needs 68 squarings: the scaling is an
        // f64 power of two, not a shifted u64.
        let a = CMat::from_rows(2, 2, &[c(0.0, 0.0), c(1e20, 0.0), c(0.0, 0.0), c(0.0, 0.0)]);
        let e = expm(&a).unwrap();
        let want = [c(1.0, 0.0), c(1e20, 0.0), c(0.0, 0.0), c(1.0, 0.0)];
        for (k, w) in want.iter().enumerate() {
            assert_eq!(e[(k / 2, k % 2)], *w, "entry {k}");
        }
    }

    #[test]
    fn balancing_leaves_no_rounding() {
        // D⁻¹·A·D with D = diag(1, 2^40): the similarity is exact, so
        // the badly scaled matrix gets the well-scaled one's bits.
        let well = CMat::from_rows(
            2,
            2,
            &[c(-1.0, 0.0), c(0.5, 0.0), c(0.5, 0.0), c(-2.0, 0.0)],
        );
        let f = 2f64.powi(40);
        let bad = CMat::from_rows(
            2,
            2,
            &[c(-1.0, 0.0), c(0.5 * f, 0.0), c(0.5 / f, 0.0), c(-2.0, 0.0)],
        );
        assert_eq!(balance(&well), vec![1.0, 1.0]);
        let (e_well, e_bad) = (expm(&well).unwrap(), expm(&bad).unwrap());
        assert_eq!(e_bad[(0, 0)], e_well[(0, 0)]);
        assert_eq!(e_bad[(1, 1)], e_well[(1, 1)]);
        assert_eq!(e_bad[(0, 1)], e_well[(0, 1)].scale(f));
        assert_eq!(e_bad[(1, 0)], e_well[(1, 0)].scale(1.0 / f));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = &a * &b;
    }
}
