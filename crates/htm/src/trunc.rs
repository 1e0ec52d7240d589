//! Truncation bookkeeping for harmonic transfer matrices.
//!
//! An HTM is conceptually an ∞-dimensional matrix indexed by harmonic
//! numbers `n, m ∈ ℤ`. Numerically we truncate to `|n| ≤ K`, giving a
//! `(2K+1) × (2K+1)` matrix. [`Truncation`] maps between harmonic
//! indices and array positions so every call site agrees on the layout
//! (row/column 0 ↔ harmonic −K, center ↔ harmonic 0).
//!
//! ```
//! use htmpll_htm::Truncation;
//!
//! let t = Truncation::new(2);
//! assert_eq!(t.dim(), 5);
//! assert_eq!(t.index_of(0), Some(2));
//! assert_eq!(t.harmonic_at(4), 2);
//! ```

/// A symmetric harmonic truncation `−K ..= K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Truncation {
    k: usize,
}

impl Truncation {
    /// Creates a truncation keeping harmonics `−k ..= k`.
    pub const fn new(k: usize) -> Self {
        Truncation { k }
    }

    /// A [`TruncationSpec`] asking the consumer to pick the smallest
    /// order whose harmonic-sum tail stays below `tol` (resolved from
    /// the open-loop gain's roll-off, e.g. via
    /// `EffectiveGain::suggest_truncation` in `htmpll-core`).
    pub const fn auto(tol: f64) -> TruncationSpec {
        TruncationSpec::Auto { tol }
    }

    /// The truncation order `K`.
    pub const fn order(self) -> usize {
        self.k
    }

    /// Matrix dimension `2K + 1`.
    pub const fn dim(self) -> usize {
        2 * self.k + 1
    }

    /// Iterates harmonics in array order: `−K, −K+1, …, K`.
    pub fn harmonics(self) -> impl Iterator<Item = i64> {
        let k = self.k as i64;
        -k..=k
    }

    /// Array index of harmonic `m`, or `None` when `|m| > K`.
    pub fn index_of(self, m: i64) -> Option<usize> {
        let k = self.k as i64;
        if m.abs() <= k {
            Some((m + k) as usize)
        } else {
            None
        }
    }

    /// Harmonic number at array index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= dim()`.
    pub fn harmonic_at(self, idx: usize) -> i64 {
        assert!(idx < self.dim(), "index {idx} outside truncation");
        idx as i64 - self.k as i64
    }
}

impl Default for Truncation {
    /// `K = 8` keeps 17 harmonics — enough for <0.5 % truncation error on
    /// the loop shapes in this workspace (see the
    /// `lambda_exact_vs_truncated` bench).
    fn default() -> Self {
        Truncation::new(8)
    }
}

/// How a caller asks for a truncation order: either a fixed `K` or a
/// tolerance to be resolved against the model at hand. This is the one
/// defaulting story shared by every truncated evaluation path
/// (`lambda_tv`, `v_column`, `closed_loop_htm`, grid sweeps): APIs take
/// `impl Into<TruncationSpec>` so a plain [`Truncation`] still works,
/// and [`TruncationSpec::default`] (= `Truncation::auto(1e-3)`) is used
/// when the caller passes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruncationSpec {
    /// Use exactly this truncation.
    Fixed(Truncation),
    /// Pick the smallest order whose truncation error stays below `tol`.
    Auto {
        /// Tolerance on the neglected harmonic-sum tail.
        tol: f64,
    },
}

impl Default for TruncationSpec {
    /// `Auto { tol: 1e-3 }`: three-digit truncation accuracy.
    fn default() -> Self {
        TruncationSpec::Auto { tol: 1e-3 }
    }
}

impl From<Truncation> for TruncationSpec {
    fn from(t: Truncation) -> Self {
        TruncationSpec::Fixed(t)
    }
}

impl TruncationSpec {
    /// Resolves to a concrete truncation, calling `suggest(tol)` for the
    /// `Auto` variant. `suggest` returns the order `K` (not the matrix
    /// dimension).
    pub fn resolve_with<F: FnOnce(f64) -> usize>(self, suggest: F) -> Truncation {
        match self {
            TruncationSpec::Fixed(t) => t,
            TruncationSpec::Auto { tol } => Truncation::new(suggest(tol)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        assert_eq!(Truncation::new(0).dim(), 1);
        assert_eq!(Truncation::new(3).dim(), 7);
        assert_eq!(Truncation::new(3).order(), 3);
    }

    #[test]
    fn index_mapping_roundtrip() {
        let t = Truncation::new(4);
        for m in t.harmonics() {
            let idx = t.index_of(m).unwrap();
            assert_eq!(t.harmonic_at(idx), m);
        }
        assert_eq!(t.index_of(-4), Some(0));
        assert_eq!(t.index_of(4), Some(8));
        assert_eq!(t.index_of(5), None);
        assert_eq!(t.index_of(-5), None);
    }

    #[test]
    fn harmonics_order() {
        let t = Truncation::new(2);
        let h: Vec<i64> = t.harmonics().collect();
        assert_eq!(h, vec![-2, -1, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "outside truncation")]
    fn harmonic_at_bounds_checked() {
        Truncation::new(1).harmonic_at(3);
    }

    #[test]
    fn default_order() {
        assert_eq!(Truncation::default().order(), 8);
    }

    #[test]
    fn spec_resolution() {
        let fixed: TruncationSpec = Truncation::new(5).into();
        assert_eq!(fixed.resolve_with(|_| panic!("not consulted")).order(), 5);
        let auto = Truncation::auto(1e-4);
        assert_eq!(auto, TruncationSpec::Auto { tol: 1e-4 });
        assert_eq!(
            auto.resolve_with(|tol| (1.0 / tol) as usize).order(),
            10_000
        );
        assert_eq!(
            TruncationSpec::default(),
            TruncationSpec::Auto { tol: 1e-3 }
        );
    }
}
