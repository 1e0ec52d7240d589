//! The harmonic transfer matrix value type.
//!
//! An [`Htm`] is one *evaluation* of a (truncated) harmonic transfer
//! matrix `H̃(s)` at a fixed Laplace point `s`: a complex matrix tagged
//! with its truncation and the fundamental `ω₀`, with accessors in
//! harmonic (band) coordinates. Element `(n, m)` describes the transfer
//! of signal content from the input band around `mω₀` to the output band
//! around `nω₀` (paper eq. 5/9 and Fig. 2).
//!
//! Storage is an [`HtmRepr`]: the structured variants (diagonal, banded
//! Toeplitz, rank one) carry O(n) data, and a block applied to a rank-one
//! HTM stays rank one; a dense `(2K+1)²` matrix is materialized lazily
//! only when a consumer actually asks for it ([`Htm::as_matrix`]).
//!
//! ```
//! use htmpll_htm::{Htm, Truncation};
//! use htmpll_num::Complex;
//!
//! let t = Truncation::new(1);
//! let id = Htm::identity(t, 1.0);
//! assert_eq!(id.band(0, 0), Complex::ONE);
//! assert_eq!(id.band(1, 0), Complex::ZERO);
//! ```

use crate::repr::HtmRepr;
use crate::trunc::Truncation;
use htmpll_num::{CMat, Complex, Lu, LuError, SolveReport};
use std::fmt;
use std::ops::Mul;
use std::sync::OnceLock;

/// A truncated harmonic transfer matrix evaluated at one Laplace point.
#[derive(Debug, Clone)]
pub struct Htm {
    trunc: Truncation,
    omega0: f64,
    repr: HtmRepr,
    /// Lazily materialized dense view of a structured `repr`.
    dense: OnceLock<CMat>,
}

impl Htm {
    /// Wraps an explicit matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix dimension does not match the truncation or
    /// `omega0 <= 0`.
    pub fn from_matrix(trunc: Truncation, omega0: f64, mat: CMat) -> Self {
        assert_eq!(
            (mat.rows(), mat.cols()),
            (trunc.dim(), trunc.dim()),
            "matrix does not match truncation dimension {}",
            trunc.dim()
        );
        Htm::from_repr(trunc, omega0, HtmRepr::Dense(mat))
    }

    /// Wraps a structured representation directly.
    ///
    /// # Panics
    ///
    /// Panics when the representation is inconsistent with the
    /// truncation dimension or `omega0 <= 0`.
    pub fn from_repr(trunc: Truncation, omega0: f64, repr: HtmRepr) -> Self {
        assert!(omega0 > 0.0, "fundamental frequency must be positive");
        assert!(
            repr.dim_ok(trunc.dim()),
            "{} repr does not match truncation dimension {}",
            repr.kind_name(),
            trunc.dim()
        );
        Htm {
            trunc,
            omega0,
            repr,
            dense: OnceLock::new(),
        }
    }

    /// Builds an HTM by evaluating `f(n, m)` over harmonic indices.
    pub fn from_fn<F: FnMut(i64, i64) -> Complex>(
        trunc: Truncation,
        omega0: f64,
        mut f: F,
    ) -> Self {
        htmpll_obs::counter!("htm", "from_fn.calls").inc();
        htmpll_obs::record!("htm", "from_fn.dim").record(trunc.dim() as f64);
        let mat = CMat::from_fn(trunc.dim(), trunc.dim(), |i, j| {
            f(trunc.harmonic_at(i), trunc.harmonic_at(j))
        });
        Htm::from_matrix(trunc, omega0, mat)
    }

    /// The identity HTM (the memoryless unity system).
    pub fn identity(trunc: Truncation, omega0: f64) -> Self {
        Htm::from_repr(
            trunc,
            omega0,
            HtmRepr::Diagonal(vec![Complex::ONE; trunc.dim()]),
        )
    }

    /// The truncation this HTM was evaluated under.
    pub fn truncation(&self) -> Truncation {
        self.trunc
    }

    /// The fundamental angular frequency `ω₀`.
    pub fn omega0(&self) -> f64 {
        self.omega0
    }

    /// The structured representation backing this HTM.
    pub fn repr(&self) -> &HtmRepr {
        &self.repr
    }

    /// Borrows a dense view of the matrix. For structured
    /// representations the dense matrix is materialized on first call
    /// and cached (an `htm.repr.densify` counter records the
    /// escalation); [`Htm::band`] and [`Htm::is_finite`] never trigger
    /// this.
    pub fn as_matrix(&self) -> &CMat {
        if let HtmRepr::Dense(m) = &self.repr {
            return m;
        }
        self.dense.get_or_init(|| {
            htmpll_obs::counter!("htm", "repr.densify").inc();
            self.repr.to_dense(self.trunc.dim())
        })
    }

    /// A copy of this HTM with the representation forced dense — the
    /// escape hatch for callers that explicitly want the unstructured
    /// kernels (cross-checks, benchmarks).
    pub fn densified(&self) -> Htm {
        Htm::from_matrix(self.trunc, self.omega0, self.as_matrix().clone())
    }

    /// True when every entry is finite (no NaN/∞), checked on the
    /// structured storage without densifying.
    pub fn is_finite(&self) -> bool {
        self.repr.is_finite()
    }

    /// Band-transfer element `H_{n,m}`: input band `mω₀` → output band
    /// `nω₀`. Reads through the structured representation — O(1), no
    /// densification.
    ///
    /// # Panics
    ///
    /// Panics when `|n| > K` or `|m| > K`.
    pub fn band(&self, n: i64, m: i64) -> Complex {
        let i = self
            .trunc
            .index_of(n)
            .expect("output harmonic outside truncation");
        let j = self
            .trunc
            .index_of(m)
            .expect("input harmonic outside truncation");
        self.repr.entry(self.trunc.dim(), i, j)
    }

    /// Scales every element, preserving the structured representation.
    pub fn scale(&self, k: Complex) -> Htm {
        Htm::from_repr(self.trunc, self.omega0, self.repr.scale(k))
    }

    /// Solves the feedback equation: returns `(I + self)⁻¹ · self`, the
    /// closed-loop HTM of a unity-negative-feedback loop with this
    /// open-loop gain (paper eq. 28), via dense LU. Always runs the
    /// dense kernels: this is the strict reference the structured
    /// solves are checked against.
    ///
    /// # Errors
    ///
    /// Returns the LU error when `I + G` is singular at this `s` — the
    /// loop is on a closed-loop pole.
    pub fn closed_loop(&self) -> Result<Htm, LuError> {
        let n = self.trunc.dim();
        let _span = htmpll_obs::span_labeled("htm", "closed_loop", || format!("dim={n}"));
        let i_plus_g = &CMat::identity(n) + self.as_matrix();
        let lu = Lu::factor(&i_plus_g)?;
        let solved = lu.solve_mat(self.as_matrix())?;
        // ‖(I+G)X − G‖_max: a telemetry-only backward check on the solve,
        // worth the extra matmul only when someone is looking.
        let residual = htmpll_obs::record!("htm", "closed_loop.residual", htmpll_obs::Level::Debug);
        if residual.is_enabled() {
            let diff = &(&i_plus_g * &solved) - self.as_matrix();
            residual.record(diff.norm_max());
        }
        Ok(Htm::from_matrix(self.trunc, self.omega0, solved))
    }

    /// [`closed_loop`](Htm::closed_loop) on the structure-aware
    /// escalating solver, with the [`SolveReport`] that grades the
    /// solve. The open loop's [`HtmRepr`] picks the kernel:
    /// rank-one Sherman–Morrison or diagonal reciprocal closed forms
    /// (O(n)), or the classic dense ladder
    /// (refined partial pivot → complete pivoting → Tikhonov
    /// perturbation) for everything else.
    /// Structured shortcuts are condition-gated and fall back to the
    /// dense ladder rather than return an untrustworthy answer; the
    /// returned [`SolveReport`] grades the point either way. Callers
    /// decide from `report.perturbed` / `report.residual` whether the
    /// point is trustworthy.
    ///
    /// # Errors
    ///
    /// [`LuError::NonFinite`] when the open-loop matrix contains NaN/∞
    /// entries — the only failure the ladder cannot absorb.
    pub fn closed_loop_factored_robust(&self) -> Result<(Htm, SolveReport), LuError> {
        crate::factor::closed_loop_robust(self)
    }

    /// Eigenvalues of the truncated HTM — the sample points of the
    /// **generalized Nyquist loci**. For a rank-one loop (sampling PFD)
    /// exactly one eigenvalue is nonzero and equals the truncated
    /// effective gain `λ(s)`; general LPTV interconnections produce a
    /// full set of loci whose `−1` encirclements decide stability
    /// (Möllerstedt & Bernhardsson).
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn eigenvalues(&self) -> Result<Vec<Complex>, htmpll_num::EigError> {
        let _span =
            htmpll_obs::span_labeled("htm", "eigenvalues", || format!("dim={}", self.trunc.dim()));
        htmpll_num::eigenvalues(self.as_matrix())
    }

    /// Checks shape compatibility for binary operations.
    fn assert_compatible(&self, other: &Htm) {
        assert_eq!(self.trunc, other.trunc, "truncation mismatch");
        assert!(
            (self.omega0 - other.omega0).abs() <= 1e-12 * self.omega0,
            "fundamental frequency mismatch: {} vs {}",
            self.omega0,
            other.omega0
        );
    }
}

impl PartialEq for Htm {
    /// Entry-wise equality — two HTMs are equal when they describe the
    /// same matrix, regardless of which [`HtmRepr`] stores it.
    fn eq(&self, other: &Self) -> bool {
        if self.trunc != other.trunc || self.omega0 != other.omega0 {
            return false;
        }
        let n = self.trunc.dim();
        (0..n).all(|i| (0..n).all(|j| self.repr.entry(n, i, j) == other.repr.entry(n, i, j)))
    }
}

impl fmt::Display for Htm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Htm(K={}, ω₀={}, {}×{})",
            self.trunc.order(),
            self.omega0,
            self.trunc.dim(),
            self.trunc.dim()
        )
    }
}

impl Mul for &Htm {
    type Output = Htm;
    /// Series connection: `self * rhs` is the system "`rhs` first, then
    /// `self`" — matrix order matches operator order (paper eq. 11:
    /// `H̃∘ = H̃₂ H̃₁` for `y = H₂[H₁[u]]`). A block applied to a
    /// rank-one HTM stays rank one; any other product is dense (see
    /// [`HtmRepr::mul`]).
    ///
    /// ```
    /// use htmpll_htm::{HtmBlock, LtiHtm, SamplerHtm, Truncation};
    /// use htmpll_lti::Tf;
    /// use htmpll_num::Complex;
    ///
    /// let w0 = 6.28;
    /// let (s, t) = (Complex::from_im(1.0), Truncation::new(2));
    /// // Signal through the sampler first: the later block multiplies
    /// // from the left.
    /// let g = &LtiHtm::new(Tf::integrator(), w0).htm(s, t) * &SamplerHtm::new(w0).htm(s, t);
    /// // The sampler makes g rank one, so the closed loop is the
    /// // Sherman–Morrison form `u·𝟙ᵀ/(1 + λ)`, no dense inversion.
    /// assert_eq!(g.repr().kind_name(), "rank-one");
    /// let (cl, _) = g.closed_loop_factored_robust().unwrap();
    /// assert_eq!(cl.repr().kind_name(), "rank-one");
    /// assert!(cl.as_matrix().max_diff(g.closed_loop().unwrap().as_matrix()) < 1e-12);
    /// ```
    fn mul(self, rhs: &Htm) -> Htm {
        self.assert_compatible(rhs);
        Htm::from_repr(
            self.trunc,
            self.omega0,
            self.repr.mul(&rhs.repr, self.trunc.dim()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: Truncation) -> Htm {
        Htm::from_fn(t, 2.0, |n, m| Complex::new(n as f64, m as f64))
    }

    #[test]
    fn band_indexing_matches_harmonics() {
        let t = Truncation::new(2);
        let h = sample(t);
        assert_eq!(h.band(-2, 1), Complex::new(-2.0, 1.0));
        assert_eq!(h.band(0, 0), Complex::ZERO);
        assert_eq!(h.band(2, -2), Complex::new(2.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "outside truncation")]
    fn band_out_of_range() {
        let h = sample(Truncation::new(1));
        let _ = h.band(2, 0);
    }

    #[test]
    fn identity_behaves() {
        let t = Truncation::new(2);
        let id = Htm::identity(t, 2.0);
        let h = sample(t);
        assert_eq!(&id * &h, h);
        assert_eq!(&h * &id, h);
    }

    #[test]
    fn structured_identity_is_diagonal() {
        // identity carries O(n) storage, and equality is
        // representation-independent.
        let t = Truncation::new(3);
        let id = Htm::identity(t, 2.0);
        assert_eq!(id.repr().kind_name(), "diagonal");
        let dense_id = Htm::from_matrix(t, 2.0, CMat::identity(t.dim()));
        assert_eq!(id, dense_id);
        assert_eq!(dense_id, id);
    }

    #[test]
    fn closed_loop_of_scalar_case() {
        // K=0 reduces to a scalar: G/(1+G).
        let t = Truncation::new(0);
        let g = Htm::from_fn(t, 1.0, |_, _| Complex::new(2.0, 1.0));
        let cl = g.closed_loop().unwrap();
        let expect = Complex::new(2.0, 1.0) / Complex::new(3.0, 1.0);
        assert!(cl.band(0, 0).approx_eq(expect, 1e-13));
    }

    #[test]
    fn closed_loop_matches_manual_inverse() {
        let t = Truncation::new(2);
        let g = Htm::from_fn(t, 1.0, |n, m| {
            Complex::new(0.1 * (n + m) as f64, 0.05 * (n - m) as f64)
        });
        let cl = g.closed_loop().unwrap();
        // Verify (I+G)·CL == G.
        let n = t.dim();
        let i_plus_g = &CMat::identity(n) + g.as_matrix();
        let back = &i_plus_g * cl.as_matrix();
        assert!(back.max_diff(g.as_matrix()) < 1e-12);
    }

    #[test]
    fn closed_loop_singular_detected() {
        // G = −I makes I+G singular.
        let t = Truncation::new(1);
        let g = Htm::identity(t, 1.0).scale(-Complex::ONE);
        assert!(g.closed_loop().is_err());
    }

    #[test]
    fn closed_loop_robust_survives_singular() {
        // G = −I: plain closed_loop errors; the robust path perturbs and
        // reports it.
        let t = Truncation::new(1);
        let g = Htm::identity(t, 1.0).scale(-Complex::ONE);
        assert!(g.closed_loop().is_err());
        let (cl, report) = g.closed_loop_factored_robust().unwrap();
        assert!(report.perturbed);
        assert!(cl.as_matrix().is_finite());
    }

    #[test]
    fn closed_loop_robust_matches_plain_when_regular() {
        let t = Truncation::new(2);
        let g = Htm::from_fn(t, 1.0, |n, m| {
            Complex::new(0.1 * (n + m) as f64, 0.05 * (n - m) as f64)
        });
        let plain = g.closed_loop().unwrap();
        let (robust, report) = g.closed_loop_factored_robust().unwrap();
        assert!(!report.perturbed);
        assert!(report.residual < 1e-12);
        assert!(plain.as_matrix().max_diff(robust.as_matrix()) < 1e-12);
    }

    #[test]
    fn densified_preserves_values() {
        let t = Truncation::new(2);
        let id = Htm::identity(t, 2.0);
        let dense = id.densified();
        assert_eq!(dense.repr().kind_name(), "dense");
        assert_eq!(dense, id);
        assert!(id.is_finite() && dense.is_finite());
    }

    #[test]
    #[should_panic(expected = "truncation mismatch")]
    fn incompatible_truncations_rejected() {
        let a = Htm::identity(Truncation::new(1), 1.0);
        let b = Htm::identity(Truncation::new(2), 1.0);
        let _ = &a * &b;
    }

    #[test]
    #[should_panic(expected = "frequency mismatch")]
    fn incompatible_omega_rejected() {
        let a = Htm::identity(Truncation::new(1), 1.0);
        let b = Htm::identity(Truncation::new(1), 2.0);
        let _ = &a * &b;
    }

    #[test]
    fn eigenvalues_of_rank_one_loop_reduce_to_lambda() {
        // G = u·𝟙ᵀ: one eigenvalue = Σu (the truncated λ), rest zero.
        let t = Truncation::new(3);
        let g = Htm::from_fn(t, 1.0, |n, _| Complex::new(0.1 * n as f64 + 0.4, 0.05));
        let evs = g.eigenvalues().unwrap();
        let lambda: Complex = t
            .harmonics()
            .map(|n| Complex::new(0.1 * n as f64 + 0.4, 0.05))
            .sum();
        assert!(
            evs.iter()
                .any(|e| (*e - lambda).abs() < 1e-10 * (1.0 + lambda.abs())),
            "λ {lambda} missing from {evs:?}"
        );
        let zeros = evs.iter().filter(|e| e.abs() < 1e-10).count();
        assert_eq!(zeros, t.dim() - 1);
    }

    #[test]
    fn display() {
        let h = Htm::identity(Truncation::new(2), 3.0);
        let s = format!("{h}");
        assert!(s.contains("K=2") && s.contains("5×5"), "{s}");
    }
}
