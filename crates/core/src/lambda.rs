//! The effective open-loop gain `λ(s)` of a sampled PLL.
//!
//! For a PLL with a sampling PFD and time-invariant VCO, closing the loop
//! through the rank-one PFD HTM yields (paper eq. 36–37)
//!
//! ```text
//! λ(s) = Σ_{m∈ℤ} A(s + jmω₀)
//! ```
//!
//! — the classical open-loop gain plus **all of its aliases**. The paper's
//! central claim is that loop stability is governed by the margins of
//! `λ(jω)`, not `A(jω)`; LTI analysis is the `λ ≈ A` approximation, valid
//! only while `ω_UG ≪ ω₀`.
//!
//! Two evaluation paths are provided:
//!
//! * **Exact** ([`EffectiveGain::eval`]): partial fractions of `A` plus
//!   the `coth` lattice-sum closed forms — this is the paper's "symbolic
//!   expressions" capability, exact for any rational strictly proper `A`.
//!   Scans along a vertical line `Re s = x` (the jω axis, a grid row)
//!   use [`EffectiveGain::line`], which computes the `x` half of every
//!   `coth` once per line and returns the same bits.
//! * **Truncated** ([`EffectiveGain::eval_truncated`]): brute-force
//!   `Σ_{|m| ≤ M}`, the numerical cross-check and the path that
//!   generalizes to non-rational gains.
//!
//! Every `coth` term is a Möbius map of `z = e^{2πs/ω₀}`, so `λ` is also
//! an exact rational function `N(z)/D(z)` ([`EffectiveGain::z_form`]).
//! Stability in the period strip and the strip poles are read off the
//! roots of the characteristic polynomial `D + N` of `1 + λ`, built on
//! demand (THEORY.md §3.1), so models that never ask — grids, the
//! simulator's references, screened-out candidates — never pay for it.
//!
//! ```
//! use htmpll_core::{EffectiveGain, PllDesign};
//! use htmpll_num::Complex;
//!
//! let d = PllDesign::reference_design(0.3).unwrap();
//! let lam = EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap();
//! let s = Complex::from_im(1.0);
//! let exact = lam.eval(s);
//! let approx = lam.eval_truncated(s, 4000);
//! assert!((exact - approx).abs() < 1e-3 * exact.abs());
//! ```

use crate::error::{positive, CoreError};
use htmpll_lti::{Crossings, Pfe, Tf};
use htmpll_num::hash::Fnv1a;
use htmpll_num::poly::cpoly_mul;
use htmpll_num::roots::{find_roots_graded, FindRootsError};
use htmpll_num::special::{lattice_poly, lattice_sum, MAX_LATTICE_ORDER};
use htmpll_num::{jury_stable, Complex, CothRe, Poly};

/// Per-term data hoisted out of the λ kernel: the lattice polynomial
/// `P_r` and the `(π/ω₀)^r` prefactor depend on the pole order alone,
/// so construction computes them once with the exact expressions
/// `lattice_sum` uses. `shares_coth` marks a term whose pole is bitwise
/// equal to the previous term's: its `coth` argument is then identical,
/// so the kernel reuses the previous `coth` value. `shares_sin_cos`
/// marks a new pole whose `Im` is bitwise equal to the previous pole's
/// (every real pole after a real pole): the `Im` of its `coth` argument
/// is then identical, so the kernel reuses the previous `sin_cos` when
/// both `Re` halves take the same [`CothRe`] branch.
#[derive(Debug, Clone)]
struct PreTerm {
    pole: Complex,
    coeff: Complex,
    poly: Vec<f64>,
    factor: Complex,
    shares_coth: bool,
    shares_sin_cos: bool,
}

/// The kernel's [`PreTerm`]s for `pfe`, in PFE term order.
fn pre_terms(pfe: &Pfe, omega0: f64) -> Vec<PreTerm> {
    pfe.terms
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let prev = k.checked_sub(1).map(|j| pfe.terms[j].pole);
            let same_re = prev.is_some_and(|p| p.re.to_bits() == t.pole.re.to_bits());
            let same_im = prev.is_some_and(|p| p.im.to_bits() == t.pole.im.to_bits());
            PreTerm {
                pole: t.pole,
                coeff: t.coeff,
                poly: lattice_poly(t.order),
                factor: Complex::from_re(std::f64::consts::PI / omega0).powi(t.order as i32),
                shares_coth: same_re && same_im,
                shares_sin_cos: same_im,
            }
        })
        .collect()
}

/// `λ = N(z)/D(z)` at `z = e^{2πs/ω₀}`, from the kernel's terms.
///
/// With `w = e^{2πp/ω₀}`, `coth(π(s − p)/ω₀) = (z + w)/(z − w)`, so a
/// distinct pole of highest order `R` contributes the factor
/// `(z − w)^R` to `D` and `Σ_r c·(π/ω₀)^r·Σ_k a_k (z + w)^k (z − w)^{R−k}`
/// (over its terms `c·P_r`, `P_r = Σ_k a_k c^k`) to `N`, times the other
/// poles' factors. A pole right of the axis (`|w| > 1`) uses
/// `(z/w ∓ 1)` instead, with `1/w` computed directly, so no
/// coefficient exceeds the data's own scale. Conjugate poles carry
/// conjugate data, so the coefficients are real up to rounding; the
/// imaginary residue is dropped. Returns `(N, D)`.
fn z_form(pre: &[PreTerm], omega0: f64) -> (Poly, Poly) {
    let scale = 2.0 * std::f64::consts::PI / omega0;
    // One (numerator, denominator factor) pair per distinct pole; the
    // PFE lists a pole's terms together, in ascending order.
    let mut groups: Vec<(Vec<Complex>, Vec<Complex>)> = Vec::new();
    let mut start = 0;
    while start < pre.len() {
        let len = 1 + pre[start + 1..]
            .iter()
            .take_while(|t| t.shares_coth)
            .count();
        let terms = &pre[start..start + len];
        start += len;
        let t = terms[0].pole.scale(scale);
        let (f, g) = if terms[0].pole.re <= 0.0 {
            let w = t.exp();
            ([-w, Complex::ONE], [w, Complex::ONE])
        } else {
            let v = (-t).exp();
            ([-Complex::ONE, v], [Complex::ONE, v])
        };
        let order = terms.iter().map(|t| t.poly.len() - 1).max().unwrap_or(0);
        let (mut fpow, mut gpow) = (vec![vec![Complex::ONE]], vec![vec![Complex::ONE]]);
        for k in 0..order {
            fpow.push(cpoly_mul(&fpow[k], &f));
            gpow.push(cpoly_mul(&gpow[k], &g));
        }
        let mut num = vec![Complex::ZERO; order + 1];
        for term in terms {
            let c = term.coeff * term.factor;
            for (k, &a) in term.poly.iter().enumerate() {
                if a != 0.0 {
                    for (o, v) in num.iter_mut().zip(cpoly_mul(&gpow[k], &fpow[order - k])) {
                        *o += c * v.scale(a);
                    }
                }
            }
        }
        groups.push((num, fpow.swap_remove(order)));
    }
    let mut n = vec![Complex::ZERO];
    let mut d = vec![Complex::ONE];
    for (i, (num_i, _)) in groups.iter().enumerate() {
        let mut term = num_i.clone();
        for (j, (_, den_j)) in groups.iter().enumerate() {
            if j != i {
                term = cpoly_mul(&term, den_j);
            }
        }
        n.resize(n.len().max(term.len()), Complex::ZERO);
        for (o, v) in n.iter_mut().zip(term) {
            *o += v;
        }
    }
    for (_, den) in &groups {
        d = cpoly_mul(&d, den);
    }
    let real = |p: Vec<Complex>| Poly::new(p.into_iter().map(|c| c.re).collect());
    (real(n), real(d))
}

/// [`EffectiveGain::strip_stable`] from a [`z_form`](EffectiveGain::z_form)
/// pair `(N, D)`: the Jury verdict on `D + N`.
pub(crate) fn strip_stable(n: &Poly, d: &Poly) -> bool {
    matches!(jury_stable(&(d + n)), Ok(true))
}

/// Largest `||z| − 1|` of a root that
/// [`EffectiveGain::axis_crossings`] takes for a point of the unit
/// circle: far below the angular width of a scan cell, far above the
/// root finder's error on a simple or a double root.
const UNIT_CIRCLE_TOL: f64 = 1e-6;

/// The effective open-loop gain `λ(s) = Σ_m A(s + jmω₀)`.
#[derive(Debug, Clone)]
pub struct EffectiveGain {
    a: Tf,
    pfe: Pfe,
    pre: Vec<PreTerm>,
    omega0: f64,
    fingerprint: u64,
}

/// `λ(s)` along one vertical line `Re s = x`, from
/// [`EffectiveGain::line`]: holds the `Re` half of every term's `coth`,
/// so a point costs only the `sin_cos` and the quotient of each distinct
/// pole. Scans build one per line (the jω axis, a grid row, the
/// winding-count oracle's contour) and share it across workers.
#[derive(Debug, Clone)]
pub struct LambdaLine<'a> {
    gain: &'a EffectiveGain,
    x: f64,
    halves: Vec<CothRe>,
}

impl LambdaLine<'_> {
    /// Exact `λ(x + j·y)`, bitwise identical to
    /// [`EffectiveGain::eval`] at `Complex::new(x, y)`. Counts one
    /// `core.lambda.eval`, like every pointwise evaluation.
    pub fn eval(&self, y: f64) -> Complex {
        htmpll_obs::counter!("core", "lambda.eval").inc();
        self.value(y)
    }

    fn value(&self, y: f64) -> Complex {
        self.gain
            .kernel(Complex::new(self.x, y), |k, _| self.halves[k])
    }
}

/// Relative distance below which an alias point `s ± jmω₀` counts as
/// "near" a pole of `A(s)` and is evaluated through the partial-fraction
/// residue expansion instead of the monomial-basis rational form. Within
/// this neighborhood the expanded denominator polynomial cancels
/// catastrophically (down to an exact floating-point zero on the pole
/// itself), while the residue form divides by `(s − p)` directly and
/// stays accurate to the residue precision.
const NEAR_POLE_REL: f64 = 1e-6;

impl EffectiveGain {
    /// Prepares the exact evaluator for the open-loop gain `a`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::OpenLoopNotStrictlyProper`] — the harmonic sum
    ///   diverges for non-strictly-proper gains.
    /// * [`CoreError::InvalidParameter`] — non-positive `omega0`.
    /// * Pole extraction failures are propagated.
    /// * [`CoreError::InvalidParameter`] with name `"pole multiplicity"`
    ///   when a pole multiplicity exceeds the supported lattice order.
    pub fn new(a: &Tf, omega0: f64) -> Result<EffectiveGain, CoreError> {
        positive("omega0", omega0)?;
        if !a.is_strictly_proper() {
            return Err(CoreError::OpenLoopNotStrictlyProper);
        }
        let pfe = Pfe::expand(a, 1e-6)?;
        if pfe.max_order() > MAX_LATTICE_ORDER {
            return Err(CoreError::InvalidParameter {
                name: "pole multiplicity",
                value: pfe.max_order() as f64,
            });
        }
        let mut h = Fnv1a::new();
        h.write_str("htmpll.lambda");
        h.write_f64(omega0);
        h.write_u64(a.num().coeffs().len() as u64);
        for &c in a.num().coeffs() {
            h.write_f64(c);
        }
        for &c in a.den().coeffs() {
            h.write_f64(c);
        }
        Ok(EffectiveGain {
            a: a.clone(),
            pre: pre_terms(&pfe, omega0),
            pfe,
            omega0,
            fingerprint: h.finish(),
        })
    }

    /// Stable identity hash over the defining data (`A(s)` coefficient
    /// bit patterns and `ω₀`): two evaluators with the same fingerprint
    /// produce bitwise-identical values at every `s`, so caches keyed by
    /// `(fingerprint, s)` may be shared across models safely.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying LTI open-loop gain `A(s)`.
    pub fn open_loop(&self) -> &Tf {
        &self.a
    }

    /// The partial-fraction expansion driving the exact evaluation.
    pub fn pfe(&self) -> &Pfe {
        &self.pfe
    }

    /// The reference fundamental `ω₀`.
    pub fn omega0(&self) -> f64 {
        self.omega0
    }

    /// `λ` as the exact rational function `(N, D)` of
    /// `z = e^{2πs/ω₀}`: `λ(s) = N(z)/D(z)` away from the poles. Factors
    /// of poles left of the axis are monic in `z`, those right of it are
    /// normalized to `z/w − 1`; the pair is unit-free (one loop shape
    /// gives the same coefficients at any `ω₀`).
    pub fn z_form(&self) -> (Poly, Poly) {
        z_form(&self.pre, self.omega0)
    }

    /// The characteristic polynomial `D + N` of `1 + λ = (D + N)/D` in
    /// `z = e^{2πs/ω₀}`. Its roots outside the unit circle are the zeros
    /// of `1 + λ` in the right half of the period strip; a nonzero root
    /// `z*` is the strip pole `s = (ω₀/2π)·ln z*`. A root at exactly
    /// `z = 0` comes from a pole so far left that `e^{2πp/ω₀}`
    /// underflowed, and stands for no finite zero. Built from
    /// [`z_form`](EffectiveGain::z_form) on every call.
    pub fn characteristic(&self) -> Poly {
        let (n, d) = self.z_form();
        &d + &n
    }

    /// The [`Crossings`] of `λ(jω)` in the first Nyquist band from its
    /// [`z_form`](EffectiveGain::z_form) pair `(N, D)` (THEORY.md §3.2).
    /// On the axis `z = e^{j2πω/ω₀}` lies on the unit circle, where
    /// `N(1/z) = conj N(z)` for real coefficients. So with
    /// `d = max(deg N, deg D)` and `N*(z) = z^d·N(1/z)` (the coefficients
    /// reversed), `|λ| = 1` at the unit-circle roots of
    /// `U = N·N* − D·D* = z^d·(|N|² − |D|²)` and `Im λ = 0` at those of
    /// `V = N·D* − N*·D = z^d·2j·Im(N·conj D)`. A root `z` with
    /// `arg z ∈ (0, π)` within [`UNIT_CIRCLE_TOL`] of the circle maps to
    /// `ω = (ω₀/2π)·arg z`.
    ///
    /// A pole of order `R` at `s = 0` puts `(z − 1)^R` in `D`, so `V`
    /// has a root at `z = 1` of multiplicity `R`, plus one when `R` is
    /// even (`V` is anti-self-reciprocal). That root is divided out
    /// first: the root finder would return it as a cluster of radius
    /// `~ε^{1/(R+1)}` around `z = 1`, whose members can land inside the
    /// scan window.
    ///
    /// # Errors
    ///
    /// The root finder's failure on either polynomial.
    pub(crate) fn axis_crossings(&self, n: &Poly, d: &Poly) -> Result<Crossings, FindRootsError> {
        let deg = n.degree().max(d.degree());
        let star = |p: &Poly| {
            let mut c = p.coeffs().to_vec();
            c.resize(deg + 1, 0.0);
            c.reverse();
            Poly::new(c)
        };
        let (ns, ds) = (star(n), star(d));
        let origin = self.pfe.terms.iter().filter(|t| t.pole == Complex::ZERO);
        let r = origin.map(|t| t.order).max().unwrap_or(0);
        let (v, _) = (&(n * &ds) - &(&ns * d)).div_rem(&Poly::from_real_roots(&vec![1.0; r | 1]));
        let freqs = |p: Poly| -> Result<Vec<f64>, FindRootsError> {
            let mut w: Vec<f64> = find_roots_graded(&p)?
                .into_iter()
                .filter(|z| z.im > 0.0 && (z.abs() - 1.0).abs() <= UNIT_CIRCLE_TOL)
                .map(|z| self.omega0 * z.arg() / (2.0 * std::f64::consts::PI))
                .collect();
            w.sort_by(f64::total_cmp);
            Ok(w)
        };
        Ok(Crossings {
            unity: freqs(&(n * &ns) - &(d * &ds))?,
            phase: freqs(v)?,
        })
    }

    /// Exact period-strip stability: `true` when `1 + λ(s)` has no zero
    /// with `Re s ≥ 0`, i.e. every root of
    /// [`characteristic`](EffectiveGain::characteristic) lies strictly
    /// inside the unit circle (Jury test). This is the rank-one HTM
    /// Nyquist verdict without a contour: no λ evaluation, no winding
    /// count.
    pub fn strip_stable(&self) -> bool {
        let (n, d) = self.z_form();
        strip_stable(&n, &d)
    }

    /// Exact `λ(s)` via lattice sums: for
    /// `A(s) = Σ c_{i,r}/(s − p_i)^r`,
    /// `λ(s) = Σ c_{i,r}·S_r(s − p_i; ω₀)` with
    /// `S₁(z) = (π/ω₀)·coth(πz/ω₀)`.
    pub fn eval(&self, s: Complex) -> Complex {
        htmpll_obs::counter!("core", "lambda.eval").inc();
        let scale = std::f64::consts::PI / self.omega0;
        self.kernel(s, |_, t| CothRe::new((s.re - t.pole.re) * scale))
    }

    /// The evaluator of `λ(x + jy)` along the vertical line `Re s = x`:
    /// it computes the `x` half of each term's `coth` ([`CothRe`]) once,
    /// here, and per point only the `y` half. Every value is bitwise
    /// identical to [`eval`](EffectiveGain::eval) at the same `s`.
    pub fn line(&self, x: f64) -> LambdaLine<'_> {
        let scale = std::f64::consts::PI / self.omega0;
        LambdaLine {
            gain: self,
            x,
            halves: self
                .pre
                .iter()
                .map(|t| CothRe::new((x - t.pole.re) * scale))
                .collect(),
        }
    }

    /// The one λ evaluation kernel behind [`eval`](EffectiveGain::eval)
    /// and [`LambdaLine::eval`]; they differ only in where the `Re` half of each `coth` comes from
    /// (`half(k, term)`, always `CothRe::new` of the `Re` part of the
    /// term's `coth` argument). Per term it performs exactly the
    /// operations of `c·lattice_sum(s − p, ω₀, r)` in the same order —
    /// `coth`, Horner from zero, `factor·h`, `coeff·(…)`, accumulate — so
    /// its output is bitwise identical to that reference; it only skips
    /// the per-call polynomial build, the `coth` of a repeated pole and
    /// the `sin_cos` of a pole with the previous pole's `Im`.
    #[inline]
    fn kernel(&self, s: Complex, half: impl Fn(usize, &PreTerm) -> CothRe) -> Complex {
        let scale = std::f64::consts::PI / self.omega0;
        let mut acc = Complex::ZERO;
        let mut c = Complex::ZERO;
        // Never compared on the first term: its `shares_*` flags are off.
        let mut re_half = CothRe::Near {
            cosh: 1.0,
            sinh: 0.0,
        };
        let mut trig = (0.0, 1.0);
        for (k, term) in self.pre.iter().enumerate() {
            if !term.shares_coth {
                let prev = re_half;
                re_half = half(k, term);
                if !(term.shares_sin_cos && re_half.same_branch(prev)) {
                    trig = re_half.sin_cos((s.im - term.pole.im) * scale);
                }
                c = re_half.coth(trig);
            }
            let mut h = Complex::ZERO;
            for &a in term.poly.iter().rev() {
                h = h * c + a;
            }
            acc += term.coeff * (term.factor * h);
        }
        acc
    }

    /// Exact `λ(jω)`.
    pub fn eval_jw(&self, omega: f64) -> Complex {
        self.eval(Complex::from_im(omega))
    }

    /// Evaluates `A(z)` for one alias term, routing points that fall
    /// within [`NEAR_POLE_REL`] of a pole of `A` through the
    /// partial-fraction residue expansion. The monomial-basis rational
    /// form loses all significance there — the expanded denominator
    /// cancels catastrophically and can even evaluate to an exact zero,
    /// producing `inf`/`NaN` — while the residue form keeps the singular
    /// `c/(z − p)^r` factor explicit, matching the behavior of the exact
    /// lattice-sum path at the same point.
    fn eval_alias_term(&self, z: Complex) -> Complex {
        let scale = 1.0 + z.abs();
        if self.pfe.min_pole_distance(z) < NEAR_POLE_REL * scale {
            htmpll_obs::counter!("core", "lambda.near_pole_pfe").inc();
            // Floor the singular distance at the rounding scale: a
            // bitwise-on-pole alias saturates at the same ~1/ε magnitude
            // the exact coth/csch² kernels reach on that grid point,
            // instead of overflowing to inf/NaN.
            self.pfe.eval_floored(z, f64::EPSILON * scale)
        } else {
            self.a.eval(z)
        }
    }

    /// Truncated sum `Σ_{|m| ≤ terms} A(s + jmω₀)` — the numerical
    /// cross-check for [`eval`](EffectiveGain::eval).
    ///
    /// Alias terms landing within `~1e-6` (relative) of a pole of `A`
    /// are evaluated through the PFE residue expansion so the truncated
    /// path stays finite and agrees with the exact path even when
    /// `s ± jmω₀` grazes a pole.
    pub fn eval_truncated(&self, s: Complex, terms: usize) -> Complex {
        htmpll_obs::counter!("core", "lambda.eval_truncated").inc();
        htmpll_obs::record!("core", "lambda.eval_truncated.terms").record(terms as f64);
        let mut acc = self.eval_alias_term(s);
        for m in 1..=terms as i64 {
            let shift = Complex::from_im(m as f64 * self.omega0);
            acc += self.eval_alias_term(s + shift) + self.eval_alias_term(s - shift);
        }
        acc
    }

    /// Exact derivative `dλ/ds`, from the lattice-sum identity
    /// `d/ds S_r(s − p) = −r·S_{r+1}(s − p)`.
    ///
    /// # Panics
    ///
    /// Panics if a pole multiplicity reaches the maximum supported
    /// lattice order (the derivative needs one order more); loop
    /// transfer functions sit far below that bound.
    pub fn eval_deriv(&self, s: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for term in &self.pfe.terms {
            let z = s - term.pole;
            acc -= term.coeff * (term.order as f64) * lattice_sum(z, self.omega0, term.order + 1);
        }
        acc
    }

    /// Suggests a truncation order `K` such that the truncated harmonic
    /// sum's tail `|Σ_{|m|>K} A(s + jmω₀)|` stays below `tol` anywhere
    /// on the imaginary axis, from the open-loop gain's high-frequency
    /// asymptote `A(s) ≈ c·s^{−d}` (relative degree `d ≥ 2`):
    /// `tail ≈ 2c/((d−1)·ω₀^d·K^{d−1})`.
    ///
    /// # Panics
    ///
    /// Panics when `tol <= 0`.
    pub fn suggest_truncation(&self, tol: f64) -> usize {
        assert!(tol > 0.0, "tolerance must be positive");
        let d = self.a.relative_degree().max(2) as f64;
        let c = (self.a.num().leading() / self.a.den().leading()).abs();
        let k = (2.0 * c / ((d - 1.0) * self.omega0.powf(d) * tol)).powf(1.0 / (d - 1.0));
        let k = (k.ceil() as usize).max(2);
        htmpll_obs::counter!("core", "lambda.suggest_truncation").inc();
        htmpll_obs::record!("core", "lambda.suggest_truncation.k").record(k as f64);
        k
    }

    /// Renders the **closed-form symbolic expression** for `λ(s)` — the
    /// capability the paper highlights ("can be used to obtain both
    /// numerical results and symbolic expressions"). Each simple pole
    /// contributes a `coth` term and each repeated pole a `csch²`-family
    /// derivative term:
    ///
    /// ```text
    /// λ(s) = Σᵢ cᵢ·Sᵣ(s − pᵢ; ω₀),  S₁(z) = (π/ω₀)·coth(π·z/ω₀)
    /// ```
    pub fn symbolic(&self) -> String {
        let mut out = String::from("λ(s) =");
        for (k, term) in self.pfe.terms.iter().enumerate() {
            if k > 0 {
                out.push_str(
                    "
      +",
                );
            }
            let pole = if term.pole.abs() < 1e-12 {
                "s".to_string()
            } else {
                format!("(s - ({:.6}))", term.pole)
            };
            let kernel = match term.order {
                1 => format!("(π/ω₀)·coth(π·{pole}/ω₀)"),
                2 => format!("(π/ω₀)²·csch²(π·{pole}/ω₀)"),
                r => format!("S_{r}({pole}; ω₀)   [∂^{}coth]", r - 1),
            };
            out.push_str(&format!(" ({:.6})·{kernel}", term.coeff));
        }
        out.push_str(&format!(
            "
      with ω₀ = {:.6} rad/s",
            self.omega0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;
    use htmpll_num::Poly;

    fn reference_lambda(ratio: f64) -> EffectiveGain {
        let d = PllDesign::reference_design(ratio).unwrap();
        EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap()
    }

    #[test]
    fn exact_matches_truncated_on_reference_loop() {
        let lam = reference_lambda(0.2);
        for w in [0.1, 0.5, 1.0, 2.0, 4.9] {
            let s = Complex::from_im(w);
            let exact = lam.eval(s);
            // The brute-force tail decays only like 1/M (the PFE has a
            // simple-pole component), so compare at two term counts and
            // require the longer sum to be closer to the exact value.
            let brute = lam.eval_truncated(s, 20_000);
            assert!(
                (exact - brute).abs() < 1e-4 * (1.0 + exact.abs()),
                "w={w}: exact {exact} vs brute {brute}"
            );
            let shorter = lam.eval_truncated(s, 2_000);
            assert!(
                (exact - brute).abs() < (exact - shorter).abs() + 1e-12,
                "w={w}: longer sum must approach the closed form"
            );
        }
    }

    #[test]
    fn slow_loop_lambda_approaches_a() {
        // ω_UG/ω₀ = 0.01: aliases sit 100× above crossover; near ω_UG the
        // LTI approximation is excellent.
        let lam = reference_lambda(0.01);
        let w = 1.0;
        let a = lam.open_loop().eval_jw(w);
        let l = lam.eval_jw(w);
        assert!(
            (l - a).abs() < 0.02 * a.abs(),
            "λ {l} should be close to A {a}"
        );
    }

    #[test]
    fn fast_loop_lambda_deviates_from_a() {
        // ω_UG/ω₀ = 0.5: the first alias lands right above crossover.
        let lam = reference_lambda(0.5);
        let w = 1.0;
        let a = lam.open_loop().eval_jw(w);
        let l = lam.eval_jw(w);
        assert!(
            (l - a).abs() > 0.2 * a.abs(),
            "λ {l} should deviate strongly from A {a}"
        );
    }

    #[test]
    fn conjugate_symmetry() {
        // A real ⇒ λ(s̄) = λ(s)̄; on the jω axis λ(−jω) = conj λ(jω).
        let lam = reference_lambda(0.3);
        let l_pos = lam.eval(Complex::from_im(0.7));
        let l_neg = lam.eval(Complex::from_im(-0.7));
        assert!((l_pos.conj() - l_neg).abs() < 1e-10 * l_pos.abs());
    }

    #[test]
    fn periodicity_in_omega0() {
        // λ(s + jω₀) = λ(s): the alias sum is invariant under a one-band
        // shift.
        let lam = reference_lambda(0.25);
        let s = Complex::new(0.1, 0.4);
        let a = lam.eval(s);
        let b = lam.eval(s + Complex::from_im(lam.omega0()));
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn axis_line_bitwise_matches_pointwise() {
        let lam = reference_lambda(0.3);
        let w0 = lam.omega0();
        // Regular points, a dense span, and pole-grazing frequencies
        // (λ blows up at k·ω₀; whatever bits the pointwise path produces
        // there, the axis line must reproduce).
        let mut omegas: Vec<f64> = (0..37).map(|i| 0.01 + 0.13 * i as f64).collect();
        omegas.extend([w0, 2.0 * w0, w0 + 1e-12, 0.0]);
        let axis = lam.line(0.0);
        for &w in &omegas {
            let v = axis.eval(w);
            let direct = lam.eval_jw(w);
            assert_eq!(direct.re.to_bits(), v.re.to_bits(), "w={w}");
            assert_eq!(direct.im.to_bits(), v.im.to_bits(), "w={w}");
        }
    }

    #[test]
    fn kernel_bitwise_matches_lattice_sum_reference() {
        // Type-II reference loop and a triple pole at the origin; points
        // on and off the axis, at the aliases k·ω₀ and on the poles.
        let triple = Tf::from_coeffs(vec![0.5, 1.0], vec![0.0, 0.0, 0.0, 2.0, 1.0]).unwrap();
        for lam in [
            reference_lambda(0.3),
            EffectiveGain::new(&triple, 5.0).unwrap(),
        ] {
            let w0 = lam.omega0();
            let mut pts: Vec<Complex> = (0..40)
                .map(|i| Complex::new(0.05 * (i % 3) as f64 - 0.05, 0.11 * i as f64 - 2.0))
                .collect();
            pts.extend([0.0, w0, -2.0 * w0].map(Complex::from_im));
            pts.extend(lam.pfe().terms.iter().map(|t| t.pole));
            for s in pts {
                let mut reference = Complex::ZERO;
                for t in &lam.pfe().terms {
                    reference += t.coeff * lattice_sum(s - t.pole, w0, t.order);
                }
                for v in [lam.eval(s), lam.line(s.re).eval(s.im)] {
                    assert_eq!(v.re.to_bits(), reference.re.to_bits(), "s={s}");
                    assert_eq!(v.im.to_bits(), reference.im.to_bits(), "s={s}");
                }
            }
        }
    }

    #[test]
    fn signed_zero_pole_im_keeps_its_own_sin_cos() {
        // Root snapping makes every real pole's Im +0.0, so a −0.0 can
        // only be planted: `s.im − (−0.0)` and `s.im − 0.0` differ at
        // s.im = −0.0, so the pole must not reuse its neighbour's
        // sin_cos. Poles 0 and −30 on ω₀ = 2π also put the two terms on
        // different coth branches on the far-left line.
        let a = Tf::from_coeffs(vec![1.0], vec![0.0, 30.0, 1.0]).unwrap();
        let mut lam = EffectiveGain::new(&a, 2.0 * std::f64::consts::PI).unwrap();
        let k = lam.pfe.terms.iter().position(|t| t.pole.re != 0.0).unwrap();
        lam.pfe.terms[k].pole.im = -0.0;
        lam.pre = pre_terms(&lam.pfe, lam.omega0);
        assert!(lam.pre.iter().all(|t| !t.shares_sin_cos));
        for x in [0.0, -3.0, -45.0] {
            let line = lam.line(x);
            for y in [-0.0, 0.0, 0.3, -1.7] {
                let s = Complex::new(x, y);
                let mut reference = Complex::ZERO;
                for t in &lam.pfe().terms {
                    reference += t.coeff * lattice_sum(s - t.pole, lam.omega0(), t.order);
                }
                for v in [lam.eval(s), line.eval(y)] {
                    assert_eq!(v.re.to_bits(), reference.re.to_bits(), "s={s}");
                    assert_eq!(v.im.to_bits(), reference.im.to_bits(), "s={s}");
                }
            }
        }
    }

    #[test]
    fn rejects_improper_gain() {
        let biproper = Tf::from_coeffs(vec![1.0, 1.0], vec![2.0, 1.0]).unwrap();
        assert!(matches!(
            EffectiveGain::new(&biproper, 1.0),
            Err(CoreError::OpenLoopNotStrictlyProper)
        ));
    }

    #[test]
    fn rejects_bad_omega() {
        let a = Tf::integrator();
        assert!(EffectiveGain::new(&a, 0.0).is_err());
    }

    #[test]
    fn simple_first_order_closed_form() {
        // A = 1/(s + 1): λ(s) = (π/ω₀)·coth(π(s+1)/ω₀).
        let a = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        let lam = EffectiveGain::new(&a, 2.0).unwrap();
        let s = Complex::new(0.5, 0.3);
        let expect = Complex::from_re(std::f64::consts::PI / 2.0)
            * ((s + 1.0).scale(std::f64::consts::PI / 2.0)).coth();
        assert!((lam.eval(s) - expect).abs() < 1e-12);
    }

    #[test]
    fn suggested_truncation_meets_tolerance() {
        let lam = reference_lambda(0.2);
        for tol in [1e-2, 1e-3, 1e-4] {
            let k = lam.suggest_truncation(tol);
            // Actual tail at a representative point.
            let s = Complex::from_im(0.7);
            let exact = lam.eval(s);
            let truncated = lam.eval_truncated(s, k);
            let tail = (exact - truncated).abs();
            assert!(tail <= 2.0 * tol, "tol {tol}: K = {k} leaves tail {tail}");
            // And the bound is not wildly pessimistic (within 100×).
            if k > 4 {
                let loose = lam.eval_truncated(s, k / 4);
                assert!((exact - loose).abs() > tail);
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let lam = reference_lambda(0.2);
        let s = Complex::new(0.05, 0.6);
        let h = 1e-6;
        let fd =
            (lam.eval(s + Complex::from_re(h)) - lam.eval(s - Complex::from_re(h))) / (2.0 * h);
        let exact = lam.eval_deriv(s);
        assert!(
            (fd - exact).abs() < 1e-5 * (1.0 + exact.abs()),
            "fd {fd} vs exact {exact}"
        );
        // And along the imaginary direction (analyticity check).
        let fd_im = (lam.eval(s + Complex::from_im(h)) - lam.eval(s - Complex::from_im(h)))
            / Complex::new(0.0, 2.0 * h);
        assert!((fd_im - exact).abs() < 1e-5 * (1.0 + exact.abs()));
    }

    #[test]
    fn symbolic_rendering_lists_all_poles() {
        let lam = reference_lambda(0.2);
        let text = lam.symbolic();
        // The charge-pump loop: coth (simple poles) + csch² (double pole
        // at DC) terms, and the fundamental.
        assert!(text.contains("coth"), "{text}");
        assert!(text.contains("csch²"), "{text}");
        assert!(text.contains("ω₀ = 5"), "{text}");
        // One separator line between consecutive terms.
        assert_eq!(text.matches("\n      +").count() + 1, lam.pfe().terms.len());
    }

    #[test]
    fn truncated_is_finite_on_pole_grazing_alias_points() {
        // Doctor-grid adversarial points: each `s` here lands some alias
        // `s ± jmω₀` bitwise-on a pole of A (double integrator at 0 via
        // s = jmω₀ / s = 0; filter pole −4 via s = −4 + j·2ω₀). The raw
        // rational form evaluated num/0 → inf there; the PFE route must
        // stay finite at the pole-scale magnitude the exact path reports.
        let lam = reference_lambda(0.2); // ω₀ = 5; A poles: 0 (×2), −4
        let w0 = lam.omega0();
        for s in [
            Complex::from_im(w0),
            Complex::from_im(3.0 * w0),
            Complex::ZERO,
            Complex::new(-4.0, 2.0 * w0),
        ] {
            let t = lam.eval_truncated(s, 50);
            assert!(t.is_finite(), "s={s}: truncated returned {t}");
            assert!(t.abs() > 1e9, "s={s}: expected pole-scale value, got {t}");
        }
    }

    #[test]
    fn truncated_matches_exact_near_alias_poles() {
        // Walk toward two alias poles from δ = 1e-3 down to 1e-9. Both
        // paths lose precision like ~ε/δ (the coth kernel through its
        // argument reduction, the residue route through the stored δ),
        // so the agreement bound tracks that conditioning; the old
        // monomial-basis path diverged from it and went non-finite.
        let lam = reference_lambda(0.2);
        let w0 = lam.omega0();
        for &delta in &[1e-3, 1e-5, 1e-7, 1e-9] {
            for s in [
                Complex::new(delta, w0),              // m=−1 alias near pole 0
                Complex::new(-4.0 + delta, 2.0 * w0), // m=−2 alias near pole −4
            ] {
                let exact = lam.eval(s);
                let trunc = lam.eval_truncated(s, 20_000);
                assert!(trunc.is_finite(), "δ={delta}, s={s}: {trunc}");
                let rel = (exact - trunc).abs() / exact.abs();
                let bound = 1e-5 + 40.0 * f64::EPSILON / delta;
                assert!(
                    rel < bound,
                    "δ={delta}, s={s}: exact {exact} vs truncated {trunc} (rel {rel} > {bound})"
                );
            }
        }
    }

    #[test]
    fn double_pole_at_origin_handled() {
        // A = 1/s² — pure double integrator; λ via csch² identity.
        let a = Tf::new(Poly::constant(1.0), Poly::new(vec![0.0, 0.0, 1.0])).unwrap();
        let lam = EffectiveGain::new(&a, 1.0).unwrap();
        let s = Complex::new(0.2, 0.1);
        // Tail of the order-2 sum decays like 1/M: 30k terms ⇒ ~7e−5.
        let brute = lam.eval_truncated(s, 30_000);
        assert!((lam.eval(s) - brute).abs() < 1e-4);
    }
}
