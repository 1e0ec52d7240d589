//! # htmpll-xcheck — cross-stack differential verification
//!
//! The workspace computes the same physical quantities along three
//! independent routes:
//!
//! 1. **λ(s) stack** (`core`/`htm`): the exact `coth` lattice-sum
//!    effective gain, its truncated alias sum, the scalar closed forms
//!    `H₀,₀ = A/(1+λ)`, and the dense-LU harmonic-transfer-matrix
//!    reference path.
//! 2. **z-domain stack** (`zdomain`): the impulse-invariant Hein–Scott
//!    discrete model `G(z)`, its Jury stability verdict and sampled
//!    closed loop.
//! 3. **time-domain stack** (`sim`/`spectral`): the behavioral
//!    charge-pump simulator with tone/PSD measurement.
//!
//! Where the routes overlap they must agree — any systematic deviation
//! is a modeling bug in whichever stack a unit test happens not to
//! exercise. This crate runs a deterministic scenario corpus (seeded by
//! the vendored PRNG; `ω_UG/ω₀` from 0.01 to 0.45, 1st–3rd-order loop
//! filters, delay and ISF variants) through every overlapping
//! observable and grades each comparison on a physically-justified
//! tolerance ladder:
//!
//! * **exact tier** — algebraically identical quantities computed by
//!   independent algebra (e.g. `λ(jω)` vs `G(e^{jωT})`, which match
//!   exactly for relative degree ≥ 2 by impulse invariance): verdict
//!   [`Verdict::Agree`] at `1e-10`.
//! * **model tier** — quantities that differ by a *derivable* amount
//!   (truncation tails, half-sample Poisson corrections, solver
//!   roundoff): [`Verdict::ToleratedDivergence`] carrying the analytic
//!   bound and its reason.
//! * **statistical tier** — model vs finite-record simulation:
//!   tolerances set by record length and empirical extraction accuracy.
//!
//! Anything outside its bound is a [`Verdict::Mismatch`] — the
//! `plltool xcheck` subcommand exits 2 on any of those, making "the
//! three stacks agree" a CI-enforced invariant. The machine-readable
//! [`XcheckReport`] hashes to a deterministic FNV-1a digest that is
//! bitwise-identical across thread counts.

#![warn(missing_docs)]

pub mod checks;
pub mod corpus;
pub mod report;
pub mod tolerance;

pub use checks::{run_corpus, XcheckError};
pub use corpus::{corpus, FilterKind, Scenario};
pub use report::{CheckResult, ScenarioReport, Verdict, XcheckReport};
pub use tolerance::{ladder, EXACT_TIER};
