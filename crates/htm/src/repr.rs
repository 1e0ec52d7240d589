//! Structured storage behind [`Htm`](crate::Htm).
//!
//! Every HTM the paper builds is structured: LTI blocks are diagonal
//! (eq. 13), memoryless periodic multipliers are Toeplitz in the
//! Fourier coefficients `P_{n−m}` (eq. 16), the VCO is a banded
//! Toeplitz scaled per row by `1/(s+jnω₀)` (eq. 25), and the sampling
//! PFD is rank one (eq. 19–20). [`HtmRepr`] keeps that structure
//! explicit so composition (`mul`/`add`/`scale`) can propagate it and
//! the closed-loop solve can dispatch on it:
//!
//! * `Diagonal · BandedToeplitz` stays banded Toeplitz (the row scale
//!   absorbs the diagonal);
//! * anything structured times a rank-one factor stays rank one
//!   (`A·(u·vᵀ) = (A·u)·vᵀ` — one O(n·b) mat-vec);
//! * products that leave the lattice (e.g. two truncated Toeplitz
//!   operators, whose product is *not* Toeplitz at the truncation
//!   boundary) densify, and an obs counter records the escalation.
//!
//! The representable set is deliberately small: it is exactly what the
//! PLL chain `H̃_VCO·H̃_LF·H̃_PFD` and its `I + G̃` feedback operator
//! need to stay O(n·b) instead of O(n²)/O(n³).

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
    /// Rank-one plus a multiple of the identity: `u·vᵀ + shift·I`.
    /// The sampling PFD (eq. 19–20, `shift = 0`) and feedback operators
    /// `I + u·vᵀ` (`shift = 1`).
    RankOnePlus {
        /// Column factor.
        u: Vec<Complex>,
        /// Row factor (plain transpose, no conjugation).
        v: Vec<Complex>,
        /// Coefficient of the identity term.
        shift: Complex,
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
            HtmRepr::RankOnePlus { u, v, .. } => u.len() == n && v.len() == n,
            HtmRepr::Dense(m) => m.rows() == n && m.cols() == n,
        }
    }

    /// Short name of the variant, for diagnostics and obs labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            HtmRepr::Diagonal(_) => "diagonal",
            HtmRepr::BandedToeplitz { .. } => "banded-toeplitz",
            HtmRepr::RankOnePlus { .. } => "rank-one",
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
            HtmRepr::RankOnePlus { u, v, shift } => {
                let mut e = u[i] * v[j];
                if i == j {
                    e += *shift;
                }
                e
            }
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
            HtmRepr::RankOnePlus { u, v, shift } => {
                ok(u) && ok(v) && shift.re.is_finite() && shift.im.is_finite()
            }
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
            HtmRepr::RankOnePlus { u, v, shift } => HtmRepr::RankOnePlus {
                u: u.iter().map(|x| *x * k).collect(),
                v: v.clone(),
                shift: *shift * k,
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
            HtmRepr::RankOnePlus { u, v, shift } => {
                let vx: Complex = v.iter().zip(x).map(|(a, b)| *a * *b).sum();
                u.iter()
                    .zip(x)
                    .map(|(ui, xi)| *ui * vx + *shift * *xi)
                    .collect()
            }
            HtmRepr::Dense(m) => m.mul_vec(x),
        }
    }

    /// Transposed product `Aᵀ x` (plain transpose, no conjugation) —
    /// the row-factor update for `(u·vᵀ)·A = u·(Aᵀv)ᵀ`.
    fn transpose_mul_vec(&self, n: usize, x: &[Complex]) -> Vec<Complex> {
        match self {
            HtmRepr::Diagonal(d) => d.iter().zip(x).map(|(di, xi)| *di * *xi).collect(),
            HtmRepr::BandedToeplitz { coeffs, row_scale } => match row_scale {
                // Unscaled: in Bᵀ, diagonal p carries `coeffs[p]` on
                // entries (j, j + p − b).
                None => {
                    let b = coeffs.len() / 2;
                    toeplitz_passes(n, b, x, |p| coeffs[p])
                }
                // Row-scaled: (rs[i]·c)·x[i] per element, a row scan
                // over the band.
                Some(rs) => {
                    let b = coeffs.len() / 2;
                    (0..n)
                        .map(|j| {
                            let lo = j.saturating_sub(b);
                            let hi = (j + b).min(n - 1);
                            let mut acc = Complex::ZERO;
                            for i in lo..=hi {
                                let scaled = rs[i] * coeffs[i + b - j];
                                acc += scaled * x[i];
                            }
                            acc
                        })
                        .collect()
                }
            },
            HtmRepr::RankOnePlus { u, v, shift } => {
                let ux: Complex = u.iter().zip(x).map(|(a, b)| *a * *b).sum();
                v.iter()
                    .zip(x)
                    .map(|(vj, xj)| *vj * ux + *shift * *xj)
                    .collect()
            }
            HtmRepr::Dense(m) => (0..n)
                .map(|j| {
                    let mut acc = Complex::ZERO;
                    for (i, xi) in x.iter().enumerate() {
                        acc += m[(i, j)] * *xi;
                    }
                    acc
                })
                .collect(),
        }
    }

    /// Sum of all entries `𝟙ᵀA𝟙` without densifying.
    pub fn sum_entries(&self, n: usize) -> Complex {
        match self {
            HtmRepr::Diagonal(d) => d.iter().copied().sum(),
            HtmRepr::BandedToeplitz { coeffs, row_scale } => {
                let b = coeffs.len() / 2;
                let mut total = Complex::ZERO;
                for i in 0..n {
                    let lo = i.saturating_sub(b);
                    let hi = (i + b).min(n - 1);
                    let mut acc = Complex::ZERO;
                    for j in lo..=hi {
                        acc += coeffs[i + b - j];
                    }
                    total += match row_scale {
                        Some(rs) => rs[i] * acc,
                        None => acc,
                    };
                }
                total
            }
            HtmRepr::RankOnePlus { u, v, shift } => {
                let su: Complex = u.iter().copied().sum();
                let sv: Complex = v.iter().copied().sum();
                su * sv + *shift * Complex::from_re(n as f64)
            }
            HtmRepr::Dense(m) => m.sum_entries(),
        }
    }

    /// Structure-propagating product `self · rhs`. Combinations that
    /// leave the representable lattice densify (recorded on the
    /// `htm.repr.op_densified` counter).
    pub fn mul(&self, rhs: &HtmRepr, n: usize) -> HtmRepr {
        use HtmRepr::*;
        match (self, rhs) {
            (Diagonal(a), Diagonal(b)) => Diagonal(a.iter().zip(b).map(|(x, y)| *x * *y).collect()),
            // D·B: the diagonal folds into the row scale — exact, even
            // at the truncation boundary.
            (Diagonal(d), BandedToeplitz { coeffs, row_scale }) => BandedToeplitz {
                coeffs: coeffs.clone(),
                row_scale: Some(match row_scale {
                    Some(rs) => d.iter().zip(rs).map(|(x, y)| *x * *y).collect(),
                    None => d.clone(),
                }),
            },
            // B·D with a *constant* diagonal: fold into the coefficients.
            (BandedToeplitz { coeffs, row_scale }, Diagonal(d))
                if d.iter().all(|x| *x == d[0]) && !d.is_empty() =>
            {
                BandedToeplitz {
                    coeffs: coeffs.iter().map(|c| *c * d[0]).collect(),
                    row_scale: row_scale.clone(),
                }
            }
            // A·(u·vᵀ) = (A·u)·vᵀ — one structured mat-vec.
            (a, RankOnePlus { u, v, shift }) if *shift == Complex::ZERO => RankOnePlus {
                u: a.mul_vec(n, u),
                v: v.clone(),
                shift: Complex::ZERO,
            },
            // (u·vᵀ)·A = u·(Aᵀv)ᵀ.
            (RankOnePlus { u, v, shift }, a) if *shift == Complex::ZERO => RankOnePlus {
                u: u.clone(),
                v: a.transpose_mul_vec(n, v),
                shift: Complex::ZERO,
            },
            // Cheap dense combinations: row/column scaling by a diagonal.
            (Diagonal(d), Dense(m)) => Dense(CMat::from_fn(n, n, |i, j| d[i] * m[(i, j)])),
            (Dense(m), Diagonal(d)) => Dense(CMat::from_fn(n, n, |i, j| m[(i, j)] * d[j])),
            (Dense(a), Dense(b)) => Dense(a * b),
            // Everything else — notably truncated Toeplitz · Toeplitz,
            // which is NOT Toeplitz at the truncation boundary — falls
            // off the lattice.
            (a, b) => {
                htmpll_obs::counter!("htm", "repr.op_densified").inc();
                Dense(&a.to_dense(n) * &b.to_dense(n))
            }
        }
    }

    /// Structure-propagating sum `self + rhs`; see [`HtmRepr::mul`].
    pub fn add(&self, rhs: &HtmRepr, n: usize) -> HtmRepr {
        use HtmRepr::*;
        let constant_of = |d: &[Complex]| {
            if !d.is_empty() && d.iter().all(|x| *x == d[0]) {
                Some(d[0])
            } else {
                None
            }
        };
        match (self, rhs) {
            (Diagonal(a), Diagonal(b)) => Diagonal(a.iter().zip(b).map(|(x, y)| *x + *y).collect()),
            (
                BandedToeplitz {
                    coeffs: c1,
                    row_scale: r1,
                },
                BandedToeplitz {
                    coeffs: c2,
                    row_scale: r2,
                },
            ) if r1 == r2 => {
                let b = c1.len().max(c2.len()) / 2;
                let pick = |c: &[Complex], k: i64| {
                    let half = (c.len() / 2) as i64;
                    if k.abs() <= half {
                        c[(k + half) as usize]
                    } else {
                        Complex::ZERO
                    }
                };
                let coeffs = (-(b as i64)..=(b as i64))
                    .map(|k| pick(c1, k) + pick(c2, k))
                    .collect();
                BandedToeplitz {
                    coeffs,
                    row_scale: r1.clone(),
                }
            }
            // A constant diagonal shifts the Toeplitz center coefficient
            // (only without a row scale — the shift is not row-scaled).
            (Diagonal(d), BandedToeplitz { coeffs, row_scale })
            | (BandedToeplitz { coeffs, row_scale }, Diagonal(d))
                if row_scale.is_none() && constant_of(d).is_some() =>
            {
                let mut coeffs = coeffs.clone();
                let mid = coeffs.len() / 2;
                coeffs[mid] += d[0];
                BandedToeplitz {
                    coeffs,
                    row_scale: None,
                }
            }
            // A constant diagonal folds into the rank-one shift term.
            (Diagonal(d), RankOnePlus { u, v, shift })
            | (RankOnePlus { u, v, shift }, Diagonal(d))
                if constant_of(d).is_some() =>
            {
                RankOnePlus {
                    u: u.clone(),
                    v: v.clone(),
                    shift: *shift + d[0],
                }
            }
            (
                RankOnePlus {
                    u: u1,
                    v: v1,
                    shift: s1,
                },
                RankOnePlus {
                    u: u2,
                    v: v2,
                    shift: s2,
                },
            ) if v1 == v2 => RankOnePlus {
                u: u1.iter().zip(u2).map(|(x, y)| *x + *y).collect(),
                v: v1.clone(),
                shift: *s1 + *s2,
            },
            (
                RankOnePlus {
                    u: u1,
                    v: v1,
                    shift: s1,
                },
                RankOnePlus {
                    u: u2,
                    v: v2,
                    shift: s2,
                },
            ) if u1 == u2 => RankOnePlus {
                u: u1.clone(),
                v: v1.iter().zip(v2).map(|(x, y)| *x + *y).collect(),
                shift: *s1 + *s2,
            },
            (Dense(a), Dense(b)) => Dense(a + b),
            (a, b) => {
                htmpll_obs::counter!("htm", "repr.op_densified").inc();
                Dense(CMat::from_fn(n, n, |i, j| {
                    a.entry(n, i, j) + b.entry(n, i, j)
                }))
            }
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
        HtmRepr::RankOnePlus {
            u: (0..n).map(|i| c(0.3 * i as f64 + 0.1, 0.05)).collect(),
            v: (0..n).map(|i| c(0.7 - 0.1 * i as f64, 0.02)).collect(),
            shift: Complex::ZERO,
        }
    }

    /// The ground truth for every structured operation.
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

    fn check_add(a: &HtmRepr, b: &HtmRepr, n: usize, must_stay_structured: bool) {
        let fast = a.add(b, n);
        let slow = &a.to_dense(n) + &b.to_dense(n);
        assert!(
            fast.to_dense(n).max_diff(&slow) < 1e-12,
            "{} + {} mismatch",
            a.kind_name(),
            b.kind_name()
        );
        if must_stay_structured {
            assert_ne!(fast.kind_name(), "dense");
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
                check_add(a, b, n, false);
            }
        }
    }

    #[test]
    fn hot_path_combinations_stay_structured() {
        let n = 9;
        // The PLL chain: Diag·RankOne, BT·RankOne, Diag·BT.
        check_mul(&diag(n), &rank_one(n), n, true);
        check_mul(&toeplitz(n, true), &rank_one(n), n, true);
        check_mul(&diag(n), &toeplitz(n, true), n, true);
        check_mul(&diag(n), &diag(n), n, true);
        check_mul(&rank_one(n), &diag(n), n, true);
        check_mul(&rank_one(n), &toeplitz(n, false), n, true);
        check_mul(&rank_one(n), &rank_one(n), n, true);
        // Parallel sums that stay cheap.
        check_add(&diag(n), &diag(n), n, true);
        check_add(&toeplitz(n, false), &toeplitz(n, false), n, true);
        check_add(&rank_one(n), &rank_one(n), n, true); // same u and v
    }

    #[test]
    fn truncated_toeplitz_product_densifies() {
        // Truncated Toeplitz · Toeplitz is NOT Toeplitz (boundary
        // clipping) — the lattice must fall back to dense rather than
        // fake a structured result.
        let n = 6;
        let fast = toeplitz(n, false).mul(&toeplitz(n, false), n);
        assert_eq!(fast.kind_name(), "dense");
        let slow = &toeplitz(n, false).to_dense(n) * &toeplitz(n, false).to_dense(n);
        assert!(fast.to_dense(n).max_diff(&slow) < 1e-14);
    }

    #[test]
    fn identity_shift_addition() {
        let n = 5;
        let ones = HtmRepr::Diagonal(vec![Complex::ONE; n]);
        // I + u·vᵀ bumps the shift, exactly.
        let sum = ones.add(&rank_one(n), n);
        match &sum {
            HtmRepr::RankOnePlus { shift, .. } => assert_eq!(*shift, Complex::ONE),
            other => panic!("expected rank-one, got {}", other.kind_name()),
        }
        // I + Toeplitz bumps the center coefficient.
        let sum = ones.add(&toeplitz(n, false), n);
        match &sum {
            HtmRepr::BandedToeplitz { coeffs, .. } => {
                assert_eq!(coeffs[1], c(2.0, 0.0));
            }
            other => panic!("expected banded-toeplitz, got {}", other.kind_name()),
        }
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
            assert!((r.sum_entries(n) - d.sum_entries()).abs() < 1e-12);
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
