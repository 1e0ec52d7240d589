//! Structured storage behind [`Htm`](crate::Htm).
//!
//! Every HTM the paper builds is structured: LTI blocks are diagonal
//! (eq. 13), memoryless periodic multipliers are Toeplitz in the
//! Fourier coefficients `P_{n−m}` (eq. 16), the VCO is a banded
//! Toeplitz scaled per row by `1/(s+jnω₀)` (eq. 25), and the sampling
//! PFD is rank one (eq. 19–20). [`HtmRepr`] keeps that structure
//! explicit so the products and the closed-loop solve can use it.
//!
//! Because the sampling PFD makes the open loop rank one, the algebra
//! needs one structured product rule: a block applied to a rank-one
//! factor stays rank one, `A·(u·vᵀ) = (A·u)·vᵀ` — one O(n·b) mat-vec
//! ([`HtmRepr::mul`]). Any other product is multiplied densely.
//! [`scale`](HtmRepr::scale) keeps every variant, and the closed-loop
//! solve dispatches on the open loop's variant
//! ([`factor`](crate::factor)).

use htmpll_num::{CMat, Complex};

/// Structured representation of one truncated HTM evaluation.
///
/// All variants describe the same `n×n` complex matrix interface; `n`
/// is owned by the wrapping [`Htm`](crate::Htm) (the truncation
/// dimension) and passed into the methods that need it.
#[derive(Debug, Clone, PartialEq)]
pub enum HtmRepr {
    /// Diagonal matrix `D_{ii} = d[i]` — LTI blocks (paper eq. 13).
    Diagonal(Vec<Complex>),
    /// Banded Toeplitz with optional per-row scale:
    /// `B_{ij} = row_scale[i] · coeffs[(i−j)+b]` for `|i−j| ≤ b`,
    /// where `coeffs` is centered with odd length `2b+1`. Periodic
    /// multipliers (eq. 16, `row_scale = None`) and the VCO (eq. 25,
    /// `row_scale[i] = 1/(s+jn_iω₀)`).
    BandedToeplitz {
        /// Centered diagonal coefficients `[c_{−b}, …, c_0, …, c_{+b}]`.
        coeffs: Vec<Complex>,
        /// Optional per-row scaling (length `n`).
        row_scale: Option<Vec<Complex>>,
    },
    /// Rank one, `u·vᵀ`: the sampling PFD (eq. 19–20), the open loop
    /// it makes and the closed loop's Sherman–Morrison form.
    RankOne {
        /// Column factor.
        u: Vec<Complex>,
        /// Row factor (plain transpose, no conjugation).
        v: Vec<Complex>,
    },
    /// Unstructured fallback.
    Dense(CMat),
}

impl HtmRepr {
    /// Whether this representation is consistent with dimension `n`.
    pub fn dim_ok(&self, n: usize) -> bool {
        match self {
            HtmRepr::Diagonal(d) => d.len() == n,
            HtmRepr::BandedToeplitz { coeffs, row_scale } => {
                coeffs.len() % 2 == 1 && row_scale.as_ref().is_none_or(|r| r.len() == n)
            }
            HtmRepr::RankOne { u, v } => u.len() == n && v.len() == n,
            HtmRepr::Dense(m) => m.rows() == n && m.cols() == n,
        }
    }

    /// Short name of the variant, for diagnostics and obs labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            HtmRepr::Diagonal(_) => "diagonal",
            HtmRepr::BandedToeplitz { .. } => "banded-toeplitz",
            HtmRepr::RankOne { .. } => "rank-one",
            HtmRepr::Dense(_) => "dense",
        }
    }

    /// Entry `(i, j)` of the represented `n×n` matrix.
    pub fn entry(&self, n: usize, i: usize, j: usize) -> Complex {
        debug_assert!(i < n && j < n);
        match self {
            HtmRepr::Diagonal(d) => {
                if i == j {
                    d[i]
                } else {
                    Complex::ZERO
                }
            }
            HtmRepr::BandedToeplitz { coeffs, row_scale } => {
                let b = (coeffs.len() / 2) as i64;
                let k = i as i64 - j as i64;
                if k.abs() <= b {
                    let c = coeffs[(k + b) as usize];
                    match row_scale {
                        Some(rs) => rs[i] * c,
                        None => c,
                    }
                } else {
                    Complex::ZERO
                }
            }
            HtmRepr::RankOne { u, v } => u[i] * v[j],
            HtmRepr::Dense(m) => m[(i, j)],
        }
    }

    /// Densifies into a [`CMat`].
    pub fn to_dense(&self, n: usize) -> CMat {
        match self {
            HtmRepr::Dense(m) => m.clone(),
            _ => CMat::from_fn(n, n, |i, j| self.entry(n, i, j)),
        }
    }

    /// True when every stored value is finite (no NaN/∞).
    pub fn is_finite(&self) -> bool {
        let ok = |zs: &[Complex]| zs.iter().all(|z| z.re.is_finite() && z.im.is_finite());
        match self {
            HtmRepr::Diagonal(d) => ok(d),
            HtmRepr::BandedToeplitz { coeffs, row_scale } => {
                ok(coeffs) && row_scale.as_ref().is_none_or(|rs| ok(rs))
            }
            HtmRepr::RankOne { u, v } => ok(u) && ok(v),
            HtmRepr::Dense(m) => m.is_finite(),
        }
    }

    /// Scales every entry, preserving the representation.
    pub fn scale(&self, k: Complex) -> HtmRepr {
        match self {
            HtmRepr::Diagonal(d) => HtmRepr::Diagonal(d.iter().map(|x| *x * k).collect()),
            HtmRepr::BandedToeplitz { coeffs, row_scale } => HtmRepr::BandedToeplitz {
                coeffs: coeffs.iter().map(|x| *x * k).collect(),
                row_scale: row_scale.clone(),
            },
            HtmRepr::RankOne { u, v } => HtmRepr::RankOne {
                u: u.iter().map(|x| *x * k).collect(),
                v: v.clone(),
            },
            HtmRepr::Dense(m) => HtmRepr::Dense(m.scale(k)),
        }
    }

    /// Matrix–vector product `A x`, O(n·b) for the structured variants.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n`.
    pub fn mul_vec(&self, n: usize, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), n, "band-vector length must match dimension");
        match self {
            HtmRepr::Diagonal(d) => d.iter().zip(x).map(|(di, xi)| *di * *xi).collect(),
            HtmRepr::BandedToeplitz { coeffs, row_scale } => {
                // Diagonal p carries `coeffs[2b − p]` on entries
                // (i, i + p − b). The per-row scale is one elementwise
                // pass at the end.
                let b = coeffs.len() / 2;
                let mut out = toeplitz_passes(n, b, x, |p| coeffs[2 * b - p]);
                if let Some(rs) = row_scale {
                    for (o, r) in out.iter_mut().zip(rs) {
                        *o = *r * *o;
                    }
                }
                out
            }
            HtmRepr::RankOne { u, v } => {
                let vx: Complex = v.iter().zip(x).map(|(a, b)| *a * *b).sum();
                u.iter().map(|ui| *ui * vx).collect()
            }
            HtmRepr::Dense(m) => m.mul_vec(x),
        }
    }

    /// Product `self · rhs`. A structured block applied to a rank-one
    /// factor stays rank one, `A·(u·vᵀ) = (A·u)·vᵀ` — one O(n·b)
    /// mat-vec, the only product a sampled-PFD loop needs. Every other
    /// pair is multiplied densely.
    pub fn mul(&self, rhs: &HtmRepr, n: usize) -> HtmRepr {
        match rhs {
            HtmRepr::RankOne { u, v } => HtmRepr::RankOne {
                u: self.mul_vec(n, u),
                v: v.clone(),
            },
            _ => HtmRepr::Dense(&self.to_dense(n) * &rhs.to_dense(n)),
        }
    }
}

/// The product of an `n×n` banded Toeplitz operator of half-bandwidth
/// `b` with `x`, one pass per diagonal: diagonal `p ∈ 0..=2b` holds
/// `coeff(p)` on the entries `(i, i + p − b)`. Passes run in ascending
/// `p`, so each output sums its terms in ascending column order. The
/// band may be wider than the matrix, so only the diagonals
/// `|p − b| ≤ n − 1` run.
fn toeplitz_passes(
    n: usize,
    b: usize,
    x: &[Complex],
    coeff: impl Fn(usize) -> Complex,
) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    for p in b.saturating_sub(n - 1)..=(b + n - 1).min(2 * b) {
        let i0 = b.saturating_sub(p);
        let i1 = n - 1 - p.saturating_sub(b);
        let c = coeff(p);
        for (o, xj) in out[i0..=i1].iter_mut().zip(&x[i0 + p - b..]) {
            *o += c * *xj;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn diag(n: usize) -> HtmRepr {
        HtmRepr::Diagonal((0..n).map(|i| c(1.0 + i as f64, 0.5)).collect())
    }

    fn toeplitz(n: usize, scaled: bool) -> HtmRepr {
        HtmRepr::BandedToeplitz {
            coeffs: vec![c(0.2, -0.1), c(1.0, 0.0), c(0.3, 0.4)],
            row_scale: scaled.then(|| (0..n).map(|i| c(0.1 * i as f64 + 0.5, -0.2)).collect()),
        }
    }

    fn rank_one(n: usize) -> HtmRepr {
        HtmRepr::RankOne {
            u: (0..n).map(|i| c(0.3 * i as f64 + 0.1, 0.05)).collect(),
            v: (0..n).map(|i| c(0.7 - 0.1 * i as f64, 0.02)).collect(),
        }
    }

    /// The ground truth for every product.
    fn check_mul(a: &HtmRepr, b: &HtmRepr, n: usize, must_stay_structured: bool) {
        let fast = a.mul(b, n);
        let slow = &a.to_dense(n) * &b.to_dense(n);
        assert!(
            fast.to_dense(n).max_diff(&slow) < 1e-12,
            "{} · {} mismatch",
            a.kind_name(),
            b.kind_name()
        );
        if must_stay_structured {
            assert_ne!(
                fast.kind_name(),
                "dense",
                "{} · {} unexpectedly densified",
                a.kind_name(),
                b.kind_name()
            );
        }
    }

    #[test]
    fn mul_lattice_matches_dense() {
        let n = 7;
        let reprs = [
            diag(n),
            toeplitz(n, false),
            toeplitz(n, true),
            rank_one(n),
            HtmRepr::Dense(CMat::from_fn(n, n, |i, j| {
                c(0.1 * i as f64, 0.2 * j as f64)
            })),
        ];
        for a in &reprs {
            for b in &reprs {
                check_mul(a, b, n, false);
            }
        }
    }

    #[test]
    fn hot_path_combinations_stay_structured() {
        let n = 9;
        // The PLL chain: Diag·RankOne, BT·RankOne.
        check_mul(&diag(n), &rank_one(n), n, true);
        check_mul(&toeplitz(n, true), &rank_one(n), n, true);
        check_mul(&toeplitz(n, false), &rank_one(n), n, true);
        check_mul(&rank_one(n), &rank_one(n), n, true);
    }

    #[test]
    fn truncated_toeplitz_product_densifies() {
        // Truncated Toeplitz · Toeplitz is NOT Toeplitz (boundary
        // clipping) — the product must be dense rather than fake a
        // structured result.
        let n = 6;
        let fast = toeplitz(n, false).mul(&toeplitz(n, false), n);
        assert_eq!(fast.kind_name(), "dense");
        let slow = &toeplitz(n, false).to_dense(n) * &toeplitz(n, false).to_dense(n);
        assert!(fast.to_dense(n).max_diff(&slow) < 1e-14);
    }

    #[test]
    fn entry_and_aggregates_match_dense() {
        let n = 8;
        for r in [diag(n), toeplitz(n, true), rank_one(n)] {
            let d = r.to_dense(n);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(r.entry(n, i, j), d[(i, j)]);
                }
            }
            let x: Vec<Complex> = (0..n).map(|i| c(0.2 * i as f64, 1.0)).collect();
            let fast = r.mul_vec(n, &x);
            let slow = d.mul_vec(&x);
            for (f, s) in fast.iter().zip(&slow) {
                assert!((*f - *s).abs() < 1e-13);
            }
            assert!(r.is_finite());
            assert!(r.dim_ok(n));
        }
    }

    #[test]
    fn scale_preserves_structure() {
        let n = 6;
        let k = c(2.0, -1.0);
        for r in [diag(n), toeplitz(n, true), rank_one(n)] {
            let fast = r.scale(k);
            assert_eq!(fast.kind_name(), r.kind_name());
            assert!(fast.to_dense(n).max_diff(&r.to_dense(n).scale(k)) < 1e-12);
        }
    }

    #[test]
    fn non_finite_detected() {
        let r = HtmRepr::Diagonal(vec![Complex::ONE, c(f64::NAN, 0.0)]);
        assert!(!r.is_finite());
        let r = HtmRepr::BandedToeplitz {
            coeffs: vec![c(f64::INFINITY, 0.0)],
            row_scale: None,
        };
        assert!(!r.is_finite());
    }
}
