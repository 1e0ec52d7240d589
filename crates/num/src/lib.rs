//! # htmpll-num — numerical substrate for the `htmpll` workspace
//!
//! Self-contained numerics used by every other crate in the workspace:
//!
//! * [`Complex`] — `f64` complex arithmetic with the elementary
//!   transcendental functions (including an overflow-safe `coth`).
//! * [`CMat`] — dense row-major complex matrices; the carrier for
//!   truncated harmonic transfer matrices.
//! * [`Lu`] — the one dense LU factorization, with partial
//!   ([`Lu::factor`]) or complete ([`Lu::factor_complete`]) pivoting:
//!   solve / inverse / determinant for the dense closed-loop HTM path.
//! * [`solve`] — escalating panic-free solves ([`RobustLu`]): refined
//!   partial pivoting → complete pivoting → Tikhonov perturbation; each
//!   solve returns its value with the [`SolveReport`] that grades it.
//! * [`eig`] — complex eigenvalues (Hessenberg + shifted QR) for the
//!   generalized-Nyquist analysis of non-rank-one LPTV loops.
//! * [`Poly`] — real-coefficient polynomials (transfer-function
//!   numerators/denominators) with complex Horner evaluation.
//! * [`roots`] — Aberth–Ehrlich simultaneous root finding plus root
//!   clustering for repeated-pole detection.
//! * [`jury`] — the Jury/Schur–Cohn test: are all roots of a real
//!   polynomial strictly inside the unit circle?
//! * [`special`] — exact harmonic lattice sums
//!   `Σ_m (z + jmω₀)^{−r}` via `coth` closed forms; the engine behind
//!   the exact effective open-loop gain `λ(s)` of a sampled PLL.
//! * [`optim`] — scalar bracketing / bisection / Brent refinement for
//!   margin and bandwidth extraction.
//! * [`quad`] — adaptive Simpson quadrature (linear and log-domain) for
//!   noise integrals.
//! * [`rng`] — vendored deterministic PRNG (SplitMix64 + xoshiro256++)
//!   for the behavioral simulator's jitter and noise draws.
//! * [`hash`] — deterministic FNV-1a content hashing for fingerprinting
//!   machine-readable reports (thread-count-invariance checks).
//! * [`cache`] — [`BoundedCache`], the one bounded LRU memo table (with
//!   [`CacheStats`]) behind the sweep, serve-tail and FFT-plan caches.
//!
//! Everything is implemented on `std` alone; no external numerics crates.
//!
//! ```
//! use htmpll_num::{Complex, Poly};
//!
//! // Evaluate H(s) = 1/(s² + s + 1) at s = jω.
//! let den = Poly::new(vec![1.0, 1.0, 1.0]);
//! let h = Complex::ONE / den.eval_complex(Complex::from_im(1.0));
//! assert!((h.abs() - 1.0).abs() < 1e-12); // |H(j·1)| = 1 at the resonance
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod complex;
pub mod eig;
pub mod hash;
pub mod jury;
pub mod lu;
pub mod mat;
pub mod optim;
pub mod poly;
pub mod quad;
pub mod rng;
pub mod roots;
pub mod simd;
pub mod solve;
pub mod special;

pub use cache::{BoundedCache, CacheStats};
pub use complex::{Complex, CothRe};
pub use eig::{eigenvalues, EigError};
pub use jury::{jury_stable, JuryError};
pub use lu::{Lu, LuError};
pub use mat::{expm, CMat};
pub use poly::Poly;
pub use solve::{RobustLu, SolveReport, SolveStage};
