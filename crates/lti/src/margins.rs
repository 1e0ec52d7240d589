//! Stability margins of an open-loop frequency response.
//!
//! The functions here take a *generic* frequency response
//! `f(ω) → ℂ`. This is deliberate: the paper's central quantity, the
//! effective open-loop gain `λ(jω) = Σ_m A(j(ω + mω₀))`, is **not** a
//! rational function, yet its unity-gain frequency and phase margin are
//! exactly what Figure 7 reports. One margin extractor serves both the
//! classical LTI `A(jω)` and the time-varying `λ(jω)`.
//!
//! ```
//! use htmpll_lti::{stability_margins, Tf};
//!
//! // A(s) = 10/(s(s+1)): crossover near ω ≈ 3.08, PM ≈ 18°.
//! let a = Tf::from_coeffs(vec![10.0], vec![0.0, 1.0, 1.0]).unwrap();
//! let m = stability_margins(|w| a.eval_jw(w), 1e-3, 1e3).unwrap();
//! assert!((m.phase_margin_deg - 18.0).abs() < 0.5);
//! ```

use crate::tf::{Tf, TfError};
use htmpll_num::optim::{brent, find_brackets, log_grid, log_grid_point, straddles};
use htmpll_num::roots::find_roots_graded;
use htmpll_num::{Complex, Poly};
use std::fmt;

/// Error returned by margin extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarginError {
    /// The magnitude never crosses unity on the scanned interval.
    NoUnityCrossing,
    /// Root refinement failed (pathological response).
    RefineFailed,
}

impl fmt::Display for MarginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarginError::NoUnityCrossing => {
                write!(
                    f,
                    "open-loop magnitude never crosses 0 dB on the scan interval"
                )
            }
            MarginError::RefineFailed => write!(f, "margin refinement failed to converge"),
        }
    }
}

impl std::error::Error for MarginError {}

/// Stability margins of an open-loop response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Margins {
    /// Unity-gain (gain-crossover) frequency, rad/s. When the magnitude
    /// crosses 0 dB more than once this is the **last** downward
    /// crossing, which is the stability-relevant one for loop gains that
    /// eventually roll off.
    pub omega_ug: f64,
    /// Phase margin in degrees: `180° + arg f(jω_ug)`.
    pub phase_margin_deg: f64,
    /// Phase-crossover frequency (where the phase reaches −180° with the
    /// locus crossing the negative real axis), if found.
    pub omega_pc: Option<f64>,
    /// Gain margin in dB at `omega_pc`, if a phase crossover was found.
    pub gain_margin_db: Option<f64>,
}

/// Number of grid points used by the margin scans.
const SCAN_POINTS: usize = 2048;

/// The exact log-spaced grid every margin scan in this module evaluates
/// on. Callers build this grid, compute `f` at each point (in parallel,
/// or once for several extractors), and hand both to the
/// `*_precomputed` extractors; [`stability_margins`] is that sequence
/// for a closure.
pub fn margin_scan_grid(wmin: f64, wmax: f64) -> Vec<f64> {
    log_grid(wmin, wmax, SCAN_POINTS)
}

/// The points of [`margin_scan_grid`]`(wmin, wmax)`, bit for bit and in
/// order, computed one at a time instead of collected.
pub fn margin_scan_points(wmin: f64, wmax: f64) -> impl Iterator<Item = f64> {
    let (la, lb) = (wmin.ln(), wmax.ln());
    (0..SCAN_POINTS).map(move |k| log_grid_point(la, lb, k, SCAN_POINTS))
}

/// Replays `values[i]` for the `i`-th evaluation request; the scans
/// below visit grid points exactly once, in order.
fn replay<'a>(
    values: &'a [Complex],
    map: impl Fn(Complex) -> f64 + 'a,
) -> impl FnMut(f64) -> f64 + 'a {
    let mut idx = 0;
    move |_| {
        let v = map(values[idx]);
        idx += 1;
        v
    }
}

/// Extracts gain and phase margins of the open-loop response `f` over the
/// scan interval `[wmin, wmax]`.
///
/// Phase crossover is located as a zero of `Im f` with `Re f < 0`
/// (equivalent to the −180° crossing but immune to phase wrapping).
///
/// # Errors
///
/// [`MarginError::NoUnityCrossing`] when `|f|` never crosses 1 on the
/// interval.
pub fn stability_margins<F: FnMut(f64) -> Complex>(
    mut f: F,
    wmin: f64,
    wmax: f64,
) -> Result<Margins, MarginError> {
    let grid = margin_scan_grid(wmin, wmax);
    let values: Vec<Complex> = grid.iter().map(|&w| f(w)).collect();
    stability_margins_precomputed(f, &grid, &values)
}

/// [`stability_margins`] over precomputed `values = f(grid)`; `f` is
/// only called during root refinement (a handful of evaluations near
/// each crossing).
///
/// # Errors
///
/// [`MarginError::NoUnityCrossing`] when `|f|` never crosses 1 on the
/// grid.
///
/// # Panics
///
/// Panics when `grid` and `values` lengths differ.
pub fn stability_margins_precomputed<F: FnMut(f64) -> Complex>(
    f: F,
    grid: &[f64],
    values: &[Complex],
) -> Result<Margins, MarginError> {
    assert_eq!(grid.len(), values.len(), "grid/values length mismatch");
    // Work in log-magnitude so the function is well-scaled across decades.
    let unity = find_brackets(replay(values, |v| v.abs().ln()), grid);
    let phase = find_brackets(replay(values, |v| v.im), grid);
    select_margins(f, &unity, &phase)
}

/// The margins from grid brackets, by Brent on `f`: `unity` brackets
/// sign changes of `ln|f|`, `phase` those of `Im f`, each in ascending
/// order. The unity-gain frequency is the **last** unity bracket whose
/// refinement converges; the phase crossover is the **first** phase
/// bracket whose refinement converges with `Re f < 0` (equivalent to
/// the −180° crossing but immune to phase wrapping). Both the scan
/// ([`stability_margins_precomputed`]) and the root path
/// ([`margins_near`]) end here.
///
/// # Errors
///
/// [`MarginError::NoUnityCrossing`] when no unity bracket refines.
fn select_margins<F: FnMut(f64) -> Complex>(
    mut f: F,
    unity: &[(f64, f64)],
    phase: &[(f64, f64)],
) -> Result<Margins, MarginError> {
    let mut g = |w: f64| f(w).abs().ln();
    let omega_ug = unity
        .iter()
        .filter_map(|&(a, b)| brent(&mut g, a, b, 1e-12 * b, 200).ok())
        .last()
        .ok_or(MarginError::NoUnityCrossing)?;
    let phase_margin_deg = 180.0 + f(omega_ug).arg().to_degrees();

    let mut omega_pc = None;
    for &(a, b) in phase {
        if let Ok(w) = brent(|w| f(w).im, a, b, 1e-12 * b, 200) {
            if f(w).re < 0.0 {
                omega_pc = Some(w);
                break;
            }
        }
    }
    let gain_margin_db = omega_pc.map(|w| -20.0 * f(w).abs().log10());

    Ok(Margins {
        omega_ug,
        phase_margin_deg,
        omega_pc,
        gain_margin_db,
    })
}

/// Frequencies (rad/s) where a response crosses unit magnitude
/// (`unity`) or the real axis (`phase`), as located by root finding:
/// the candidates [`margins_near`] brackets on the scan grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Crossings {
    /// Frequencies where `|f| = 1`, ascending.
    pub unity: Vec<f64>,
    /// Frequencies where `Im f = 0`, ascending.
    pub phase: Vec<f64>,
}

/// [`stability_margins`] of `f` over `[wmin, wmax]` with `f` evaluated
/// only next to the given crossings, plus the number of hidden
/// crossings. Each crossing picks the cell of [`margin_scan_grid`] it
/// falls in; `f` is evaluated at the grid points of that cell and of
/// its two neighbours (each grid point from [`log_grid_point`], so its
/// bits are the scan's), and every one of those cells that passes
/// [`find_brackets`]' rule ([`straddles`]) is a bracket. The sorted,
/// deduplicated brackets go to the Brent selection
/// [`stability_margins_precomputed`] ends in. Whenever every sign
/// change of the scan lies next to a listed crossing, the result is
/// bitwise the scan's.
///
/// A crossing inside the window whose cells show no sign change is
/// *hidden*: an even number of crossings in one cell, which the scan
/// cannot see either. It is counted and adds no bracket, so the result
/// stays the scan's.
///
/// # Panics
///
/// Panics when `wmin <= 0` or `wmax <= 0`.
pub fn margins_near<F: FnMut(f64) -> Complex>(
    mut f: F,
    wmin: f64,
    wmax: f64,
    crossings: &Crossings,
) -> (Result<Margins, MarginError>, usize) {
    assert!(wmin > 0.0 && wmax > 0.0, "scan window must be positive");
    let n = SCAN_POINTS;
    let (la, lb) = (wmin.ln(), wmax.ln());
    // Grid points evaluated so far; a handful per crossing.
    let mut seen: Vec<(usize, Complex)> = Vec::new();
    let mut value = |k: usize| match seen.iter().find(|(j, _)| *j == k) {
        Some(&(_, v)) => v,
        None => {
            let v = f(log_grid_point(la, lb, k, n));
            seen.push((k, v));
            v
        }
    };
    let mut hidden = 0;
    let mut bracket = |roots: &[f64], g: fn(Complex) -> f64| {
        let mut out = Vec::new();
        for &w in roots {
            // Fractional grid index of w; skip crossings more than a
            // cell outside the window.
            let t = (w.ln() - la) / (lb - la) * (n - 1) as f64;
            if !(-1.0..=n as f64).contains(&t) {
                continue;
            }
            let k = (t.floor().max(0.0) as usize).min(n - 2);
            let before = out.len();
            for c in k.saturating_sub(1)..=(k + 1).min(n - 2) {
                if straddles(g(value(c)), g(value(c + 1))) {
                    out.push(c);
                }
            }
            if out.len() == before && (0.0..=(n - 1) as f64).contains(&t) {
                hidden += 1;
            }
        }
        out.sort_unstable();
        out.dedup();
        out.into_iter()
            .map(|c| {
                (
                    log_grid_point(la, lb, c, n),
                    log_grid_point(la, lb, c + 1, n),
                )
            })
            .collect::<Vec<_>>()
    };
    let unity = bracket(&crossings.unity, |v| v.abs().ln());
    let phase = bracket(&crossings.phase, |v| v.im);
    (select_margins(f, &unity, &phase), hidden)
}

/// The [`Crossings`] of `a(jω)`, from the positive real roots in
/// `y = (ω/ω₀)²` of `|num(jω)|² − |den(jω)|²` (unit magnitude) and of
/// `Im(num(jω)·conj(den(jω)))/ω` (real axis). With `x = ω/ω₀` the
/// even-power terms of `p(jω₀x)` are its real part and the odd-power
/// terms its imaginary part, so both are real polynomials in `y`;
/// normalizing by `ω₀` keeps their coefficients in range for designs in
/// physical units.
///
/// # Errors
///
/// [`TfError::Roots`] when either root solve fails, a zero polynomial
/// (`|a| ≡ 1` or `a` real along the whole axis) included.
pub fn lti_crossings(a: &Tf, omega0: f64) -> Result<Crossings, TfError> {
    // Real and imaginary parts of p(jω₀x) as polynomials in x.
    let parts = |p: &Poly| {
        let (mut re, mut im) = (Vec::new(), Vec::new());
        let mut scale = 1.0;
        for (k, &c) in p.coeffs().iter().enumerate() {
            let v = if k % 4 < 2 { c * scale } else { -c * scale };
            let (on, off) = if k % 2 == 0 {
                (&mut re, &mut im)
            } else {
                (&mut im, &mut re)
            };
            on.push(v);
            off.push(0.0);
            scale *= omega0;
        }
        (Poly::new(re), Poly::new(im))
    };
    let (nr, ni) = parts(a.num());
    let (dr, di) = parts(a.den());
    let unity = &(&(&nr * &nr) + &(&ni * &ni)) - &(&(&dr * &dr) + &(&di * &di));
    let phase = &(&ni * &dr) - &(&nr * &di);
    // unity is even in x, phase odd: keep the coefficients of x^{2k}
    // and x^{2k+1} as those of y^k.
    let in_y =
        |p: &Poly, odd: usize| Poly::new(p.coeffs().iter().skip(odd).step_by(2).copied().collect());
    let freqs = |p: Poly| -> Result<Vec<f64>, TfError> {
        let mut w: Vec<f64> = find_roots_graded(&p)?
            .into_iter()
            .filter(|y| y.re > 0.0 && y.im.abs() <= REAL_ROOT_TOL * y.re)
            .map(|y| omega0 * y.re.sqrt())
            .collect();
        w.sort_by(f64::total_cmp);
        Ok(w)
    };
    Ok(Crossings {
        unity: freqs(in_y(&unity, 0))?,
        phase: freqs(in_y(&phase, 1))?,
    })
}

/// Largest `|Im y|/Re y` of a root `y = (ω/ω₀)²` that
/// [`lti_crossings`] still takes for real: far below the relative
/// width of a scan cell, far above the root finder's error on a simple
/// or a double root.
const REAL_ROOT_TOL: f64 = 1e-6;

/// The −3 dB closed-loop bandwidth of a response `f` relative to its
/// value at `w_ref`: the **first** grid crossing of `|f(w_ref)|/√2`,
/// refined by Brent. (First, not last: sampled loops have periodic
/// notches at multiples of `ω₀`, and the band edge is the crossing
/// closest to the passband.) `values = f(grid)` are precomputed; `f` is
/// called once at `w_ref` and during root refinement.
///
/// Returns `None` when no such crossing exists on the grid.
///
/// # Panics
///
/// Panics when `grid` and `values` lengths differ.
pub fn bandwidth_3db_precomputed<F: FnMut(f64) -> Complex>(
    mut f: F,
    w_ref: f64,
    grid: &[f64],
    values: &[Complex],
) -> Option<f64> {
    assert_eq!(grid.len(), values.len(), "grid/values length mismatch");
    let target = f(w_ref).abs() / std::f64::consts::SQRT_2;
    if target == 0.0 || !target.is_finite() {
        return None;
    }
    let brackets = find_brackets(replay(values, |v| (v.abs() / target).ln()), grid);
    let mut g = |w: f64| (f(w).abs() / target).ln();
    brackets
        .into_iter()
        .filter_map(|(a, b)| brent(&mut g, a, b, 1e-12 * b, 200).ok())
        .next()
}

/// Maximum closed-loop magnitude (peaking) over precomputed grid
/// values, in dB relative to the response at `w_ref`; `f` is called
/// once, at `w_ref`. The scan grid is dense enough for the smooth
/// responses this crate targets, so the peak is not refined.
pub fn peaking_db_precomputed<F: FnMut(f64) -> Complex>(
    mut f: F,
    w_ref: f64,
    values: &[Complex],
) -> f64 {
    let base = f(w_ref).abs();
    let peak = values.iter().map(|v| v.abs()).fold(0.0, f64::max);
    20.0 * (peak / base).log10()
}

/// Relative distance from the −3 dB target, or from the running peak,
/// within which [`ClosedLoopScan`] computes a point's exact magnitude:
/// far above the few-ulp error of a squared magnitude, far below any
/// gap the scan resolves.
const EXACT_BAND: f64 = 1e-9;

/// Whether a squared magnitude `sq` lies where its square root is a
/// normal number and squaring lost nothing: `1e-300 ≤ sq ≤ 1e300`
/// (false for zero, NaN and ±∞ too).
fn in_safe_range(sq: f64) -> bool {
    (1e-300..=1e300).contains(&sq)
}

/// [`bandwidth_3db_precomputed`] and [`peaking_db_precomputed`] of a
/// closed loop `h = a/(1 + λ)`, and the peaking of its LTI counterpart
/// `a/(1 + a)`, in one pass over the scan points: call
/// [`push`](ClosedLoopScan::push) once per grid point in grid order,
/// then [`finish`](ClosedLoopScan::finish). No value is kept per
/// point, and the results are bitwise the two-pass extractors' over the
/// same grid and values.
///
/// A point is judged by squared magnitudes, which cost no square root
/// or logarithm: the bandwidth brackets take the sign of
/// `|h|² − target²`, and the peaks compare `|h|²` and `|a|²/|1 + a|²`
/// with the largest seen so far. Those comparisons decide the same as
/// the exact values unless two magnitudes nearly tie, so the exact
/// `ln(|h|/target)`, `|h|` or `|a/(1 + a)|` is computed only for the
/// peak itself, for a point within 10⁻⁹ (relative) of the target or
/// of the running peak, and for a point whose squared magnitude is
/// zero, non-finite or outside `[1e-300, 1e300]`. (Taking the exact
/// values at every point makes `analyze` about a third slower; see the
/// README's performance notes.)
#[derive(Debug, Clone)]
pub struct ClosedLoopScan {
    /// `|h(w_ref)|`, the peaking reference.
    ref_abs: f64,
    /// `ref_abs/√2`, or `None` when that is zero or not finite (no
    /// bandwidth, as in [`bandwidth_3db_precomputed`]).
    target: Option<f64>,
    /// `target²` when it is [`in_safe_range`]; otherwise every point
    /// takes the exact logarithm.
    target_sq: Option<f64>,
    /// The previous point and its bracket value (NaN before the first):
    /// a non-finite value brackets nothing ([`straddles`]), as in
    /// [`find_brackets`].
    prev: (f64, f64),
    brackets: Vec<(f64, f64)>,
    peak: Peak<Complex>,
    /// `a/(1 + a)` as the pair `(a, 1 + a)`.
    peak_lti: Peak<(Complex, Complex)>,
    points: usize,
    non_finite: usize,
}

/// A running maximum of exact magnitudes that computes the magnitude
/// of a point only when its squared magnitude `sq` cannot rank it: the
/// point with the largest in-range `sq` is held as `best` (its
/// magnitude taken at the end, or when a larger point displaces it
/// while within [`EXACT_BAND`] of it), and any other point enters
/// `abs` only when it is within the band of the largest `sq` or out of
/// range. A point it drops lies clearly below a point it keeps, and the
/// magnitude is monotone in the true `|·|²`, so the maximum is that of
/// every point.
#[derive(Debug, Clone, Copy)]
struct Peak<T> {
    /// The largest exact magnitude folded in (NaN ignored, as by
    /// `f64::max`), `best`'s excluded.
    abs: f64,
    /// The largest in-range squared magnitude, `best`'s.
    sq: f64,
    best: Option<T>,
    /// The exact magnitude of a point.
    exact: fn(T) -> f64,
}

impl<T: Copy> Peak<T> {
    fn new(exact: fn(T) -> f64) -> Peak<T> {
        Peak {
            abs: 0.0,
            sq: 0.0,
            best: None,
            exact,
        }
    }

    /// Folds in the point `v` of squared magnitude `sq`.
    fn fold(&mut self, sq: f64, v: T) {
        if !in_safe_range(sq) {
            self.abs = self.abs.max((self.exact)(v));
        } else if sq > self.sq {
            if let Some(old) = self.best.replace(v) {
                if self.sq >= sq * (1.0 - EXACT_BAND) {
                    self.abs = self.abs.max((self.exact)(old));
                }
            }
            self.sq = sq;
        } else if sq >= self.sq * (1.0 - EXACT_BAND) {
            self.abs = self.abs.max((self.exact)(v));
        }
    }

    /// The largest exact magnitude of every point folded in.
    fn max(&self) -> f64 {
        self.best
            .map_or(self.abs, |b| self.abs.max((self.exact)(b)))
    }
}

/// What a [`ClosedLoopScan`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSummary {
    /// The −3 dB bandwidth of `h` ([`bandwidth_3db_precomputed`]).
    pub bandwidth_3db: Option<f64>,
    /// The peaking of `h`, dB ([`peaking_db_precomputed`]).
    pub peaking_db: f64,
    /// The peaking of `a/(1 + a)`, dB ([`peaking_db_precomputed`]).
    pub peaking_lti_db: f64,
    /// Points pushed.
    pub points: usize,
    /// Points where `h` had a non-finite component.
    pub non_finite: usize,
}

impl ClosedLoopScan {
    /// A scan whose −3 dB target is `|h_ref|/√2` and whose peaking
    /// reference is `|h_ref|`, `h_ref` being `h` at the reference
    /// frequency.
    pub fn new(h_ref: Complex) -> ClosedLoopScan {
        let ref_abs = h_ref.abs();
        let target = ref_abs / std::f64::consts::SQRT_2;
        let target = (target != 0.0 && target.is_finite()).then_some(target);
        ClosedLoopScan {
            ref_abs,
            target,
            target_sq: target.map(|t| t * t).filter(|&t2| in_safe_range(t2)),
            prev: (f64::NAN, f64::NAN),
            brackets: Vec::new(),
            peak: Peak::new(Complex::abs),
            peak_lti: Peak::new(|(a, d)| (a / d).abs()),
            points: 0,
            non_finite: 0,
        }
    }

    /// Folds in the next grid point `w` with the open-loop value `a`
    /// and the closed-loop value `h` there.
    pub fn push(&mut self, w: f64, a: Complex, h: Complex) {
        self.points += 1;
        if !(h.re.is_finite() && h.im.is_finite()) {
            self.non_finite += 1;
        }
        let sq = h.norm_sqr();
        if let Some(target) = self.target {
            let g = match self.target_sq {
                Some(t2) if in_safe_range(sq) && (sq - t2).abs() > EXACT_BAND * t2 => {
                    (sq - t2).signum()
                }
                _ => (h.abs() / target).ln(),
            };
            if straddles(self.prev.1, g) {
                self.brackets.push((self.prev.0, w));
            }
            self.prev = (w, g);
        }
        self.peak.fold(sq, h);
        // Should |a|² or |1 + a|² overflow or underflow, their quotient
        // is 0, ∞, NaN or beyond 1e300 (|1 + a| is tiny only where
        // |a| ≈ 1), so `fold` takes the exact magnitude.
        let d = Complex::ONE + a;
        self.peak_lti.fold(a.norm_sqr() / d.norm_sqr(), (a, d));
    }

    /// The bandwidth and both peakings. `h` refines the bandwidth
    /// brackets with Brent, first bracket first, and the peakings are
    /// relative to `|h_ref|` (from [`new`](ClosedLoopScan::new)) and
    /// `|h_lti(w_ref)|`.
    pub fn finish<F, G>(self, mut h: F, mut h_lti: G, w_ref: f64) -> ClosedLoopSummary
    where
        F: FnMut(f64) -> Complex,
        G: FnMut(f64) -> Complex,
    {
        let peaking_db = 20.0 * (self.peak.max() / self.ref_abs).log10();
        let peaking_lti_db = 20.0 * (self.peak_lti.max() / h_lti(w_ref).abs()).log10();
        let bandwidth_3db = self.target.and_then(|target| {
            let mut g = |w: f64| (h(w).abs() / target).ln();
            self.brackets
                .iter()
                .find_map(|&(a, b)| brent(&mut g, a, b, 1e-12 * b, 200).ok())
        });
        ClosedLoopSummary {
            bandwidth_3db,
            peaking_db,
            peaking_lti_db,
            points: self.points,
            non_finite: self.non_finite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tf::Tf;

    /// The scan grid on `[wmin, wmax]` and `f` on it.
    fn scan(f: impl Fn(f64) -> Complex, wmin: f64, wmax: f64) -> (Vec<f64>, Vec<Complex>) {
        let grid = margin_scan_grid(wmin, wmax);
        let values = grid.iter().map(|&w| f(w)).collect();
        (grid, values)
    }

    #[test]
    fn textbook_second_order_loop() {
        // A(s) = 10/(s(s+1)). |A(jω)|=1 ⇒ ω⁴+ω²−100=0 ⇒ ω_ug² =
        // (−1+√401)/2 ⇒ ω_ug ≈ 3.0842; PM = 180 − 90 − atan(ω) ≈ 17.96°.
        let a = Tf::from_coeffs(vec![10.0], vec![0.0, 1.0, 1.0]).unwrap();
        let m = stability_margins(|w| a.eval_jw(w), 1e-3, 1e3).unwrap();
        let wug = ((-1.0 + 401f64.sqrt()) / 2.0).sqrt();
        assert!((m.omega_ug - wug).abs() < 1e-6, "{}", m.omega_ug);
        let pm = 90.0 - wug.atan().to_degrees();
        assert!((m.phase_margin_deg - pm).abs() < 1e-6);
        // Two poles only: phase never reaches −180°, so no gain margin.
        assert!(m.omega_pc.is_none());
        assert!(m.gain_margin_db.is_none());
    }

    #[test]
    fn third_order_loop_has_gain_margin() {
        // A(s) = 2/(s(s+1)²): phase crossover at ω = 1 where
        // A(j1) = 2/(j(j+1)²) = 2/(j·2j) = −1 ⇒ |A| = 1 ⇒ GM = 0 dB at
        // gain 2; scale down to gain 1 for GM = +6.02 dB.
        let a = Tf::new(
            htmpll_num::Poly::constant(1.0),
            &htmpll_num::Poly::x() * &htmpll_num::Poly::from_real_roots(&[-1.0, -1.0]),
        )
        .unwrap();
        let m = stability_margins(|w| a.eval_jw(w), 1e-3, 1e3).unwrap();
        let wpc = m.omega_pc.expect("phase crossover");
        assert!((wpc - 1.0).abs() < 1e-6);
        let gm = m.gain_margin_db.unwrap();
        assert!((gm - 20.0 * 2f64.log10()).abs() < 1e-6, "{gm}");
        assert!(m.phase_margin_deg > 0.0);
    }

    #[test]
    fn no_crossing_reported() {
        // |H| = 0.5 everywhere.
        let r = stability_margins(|_| Complex::from_re(0.5), 0.1, 10.0);
        assert_eq!(r.unwrap_err(), MarginError::NoUnityCrossing);
    }

    #[test]
    fn multiple_crossings_pick_last() {
        // Response that dips below unity and comes back: use
        // f(ω) = 10·(1+(jω/0.3))/( (jω)·(1+jω/30) ) — simple falling gain
        // with one crossing; then synthesize a double-crossing shape
        // directly instead.
        let f = |w: f64| {
            // Magnitude profile: 2 for w<1, 0.5 for 1<w<10, then rises to 2
            // above 10 and finally falls past 100. Smooth via logistic
            // interpolation; phase irrelevant for the crossing count.
            let m = 2.0 * (1.0 / (1.0 + (w / 1.0).powi(4)))
                + 0.5
                + 1.5 / (1.0 + ((w - 30.0) / 5.0).powi(2))
                - 0.49 / (1.0 + (300.0 / w).powi(4));
            Complex::from_re(m)
        };
        let (grid, values) = scan(f, 0.01, 1e4);
        let brackets = find_brackets(|w| f(w).abs().ln(), &grid);
        assert!(brackets.len() >= 2, "{brackets:?}");
        let (lo, hi) = *brackets.last().unwrap();
        let m = stability_margins_precomputed(f, &grid, &values).unwrap();
        assert!(lo < m.omega_ug && m.omega_ug < hi);
    }

    #[test]
    fn root_path_matches_the_scan_on_textbook_loops() {
        // 10/(s(s+1)): ω_ug² = (−1+√401)/2, no phase crossover.
        // 2/(s(s+1)²): phase crossover at ω = 1.
        let third = Tf::new(
            htmpll_num::Poly::constant(2.0),
            &htmpll_num::Poly::x() * &htmpll_num::Poly::from_real_roots(&[-1.0, -1.0]),
        )
        .unwrap();
        let second = Tf::from_coeffs(vec![10.0], vec![0.0, 1.0, 1.0]).unwrap();
        for (a, wug, wpc) in [
            (second, ((-1.0 + 401f64.sqrt()) / 2.0).sqrt(), None),
            (third, 1.0, Some(1.0)),
        ] {
            let c = lti_crossings(&a, 1.0).unwrap();
            assert_eq!(c.unity.len(), 1, "{c:?}");
            assert!((c.unity[0] - wug).abs() < 1e-9, "{c:?}");
            assert!(c.phase.iter().all(|&w| w > 0.0));
            if let Some(w) = wpc {
                assert!(c.phase.iter().any(|&p| (p - w).abs() < 1e-9), "{c:?}");
            }
            let (roots, hidden) = margins_near(|w| a.eval_jw(w), 1e-3, 1e3, &c);
            let scan = stability_margins(|w| a.eval_jw(w), 1e-3, 1e3).unwrap();
            assert_eq!(roots.unwrap(), scan);
            assert_eq!(hidden, 0);
        }
    }

    #[test]
    fn a_gain_real_along_the_axis_has_no_crossings_to_offer() {
        // 1/s²: Im A(jω) ≡ 0, so the phase polynomial vanishes and the
        // caller must fall back to the scan.
        let a = Tf::from_coeffs(vec![1.0], vec![0.0, 0.0, 1.0]).unwrap();
        assert!(matches!(lti_crossings(&a, 1.0), Err(TfError::Roots(_))));
    }

    #[test]
    fn a_crossing_without_a_sign_change_is_hidden() {
        // |f| = 2 everywhere: a listed crossing inside the window
        // brackets nothing, one outside it is not counted.
        let c = Crossings {
            unity: vec![1.0, 1e9],
            phase: Vec::new(),
        };
        let (m, hidden) = margins_near(|_| Complex::from_re(2.0), 0.1, 10.0, &c);
        assert_eq!(m.unwrap_err(), MarginError::NoUnityCrossing);
        assert_eq!(hidden, 1);
    }

    #[test]
    fn bandwidth_of_first_order() {
        let h = Tf::first_order_lowpass(5.0);
        let (grid, values) = scan(|w| h.eval_jw(w), 1e-3, 1e3);
        let bw = bandwidth_3db_precomputed(|w| h.eval_jw(w), 1e-3, &grid, &values).unwrap();
        assert!((bw - 5.0).abs() < 1e-6, "{bw}");
    }

    #[test]
    fn bandwidth_none_for_flat() {
        let (grid, values) = scan(|_| Complex::ONE, 0.1, 10.0);
        assert!(bandwidth_3db_precomputed(|_| Complex::ONE, 1.0, &grid, &values).is_none());
    }

    #[test]
    fn peaking_of_resonant_second_order() {
        // H(s) = 1/(s² + 2ζs + 1) with ζ = 0.1: peak ≈ 1/(2ζ√(1−ζ²)).
        let h = Tf::from_coeffs(vec![1.0], vec![1.0, 0.2, 1.0]).unwrap();
        let (_, values) = scan(|w| h.eval_jw(w), 1e-3, 1e3);
        let p = peaking_db_precomputed(|w| h.eval_jw(w), 1e-3, &values);
        let zeta: f64 = 0.1;
        let expect = 20.0 * (1.0 / (2.0 * zeta * (1.0 - zeta * zeta).sqrt())).log10();
        assert!((p - expect).abs() < 0.01, "{p} vs {expect}");
    }

    /// Pushes `(grid, a, h)` through a [`ClosedLoopScan`] and asserts
    /// that every result is bitwise the two-pass extractors' over the
    /// same values; `f` refines the bandwidth and gives `h(w_ref)`, and
    /// the LTI peaking is relative to `f(w_ref)/(1 + f(w_ref))`.
    fn pass_vs_oracle(
        grid: &[f64],
        a: &[Complex],
        h: &[Complex],
        f: impl Fn(f64) -> Complex,
        w_ref: f64,
    ) -> ClosedLoopSummary {
        let mut pass = ClosedLoopScan::new(f(w_ref));
        for ((&w, &a), &h) in grid.iter().zip(a).zip(h) {
            pass.push(w, a, h);
        }
        let f_lti = |w: f64| {
            let x = f(w);
            x / (Complex::ONE + x)
        };
        let got = pass.finish(&f, f_lti, w_ref);
        let lti: Vec<Complex> = a.iter().map(|&x| x / (Complex::ONE + x)).collect();
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!(
            bits(got.bandwidth_3db),
            bits(bandwidth_3db_precomputed(&f, w_ref, grid, h)),
            "bandwidth {:?}",
            got.bandwidth_3db
        );
        assert_eq!(
            got.peaking_db.to_bits(),
            peaking_db_precomputed(&f, w_ref, h).to_bits(),
            "peaking {}",
            got.peaking_db
        );
        assert_eq!(
            got.peaking_lti_db.to_bits(),
            peaking_db_precomputed(f_lti, w_ref, &lti).to_bits(),
            "LTI peaking {}",
            got.peaking_lti_db
        );
        assert_eq!(got.points, grid.len());
        let non_finite = h.iter().filter(|v| !(v.re.is_finite() && v.im.is_finite()));
        assert_eq!(got.non_finite, non_finite.count());
        got
    }

    /// `1, 2, …, n` as a grid.
    fn counting_grid(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn closed_loop_pass_matches_the_extractors_on_a_resonant_loop() {
        // A(s) = (1 + s/0.3)/(s²(1 + s/30)): a type-II loop with
        // peaking; h = A/(1 + A) twice over, so both peaks are the same.
        let a = Tf::from_coeffs(vec![1.0, 1.0 / 0.3], vec![0.0, 0.0, 1.0, 1.0 / 30.0]).unwrap();
        let h = |w: f64| {
            let v = a.eval_jw(w);
            v / (Complex::ONE + v)
        };
        let (grid, hv) = scan(h, 1e-3, 1e3);
        let av: Vec<Complex> = grid.iter().map(|&w| a.eval_jw(w)).collect();
        let got = pass_vs_oracle(&grid, &av, &hv, h, 1e-3);
        assert!(got.bandwidth_3db.is_some());
        assert!(got.peaking_db > 0.5, "{}", got.peaking_db);
    }

    #[test]
    fn closed_loop_pass_value_on_the_target_to_the_bit() {
        // |h(w_ref)|/√2 is the target; grid point 3 sits on it exactly,
        // so ln(|h|/target) is 0 there: a bracket with the zero on its
        // left edge in one run, on its right edge in the other. On the
        // target too are points whose |h|² rounds below or above
        // target², where the sign of |h|² − target² alone would differ.
        let h_ref = Complex::from_re(1.0);
        let t = h_ref.abs() / std::f64::consts::SQRT_2;
        let on = |theta: f64| Complex::new(t * theta.cos(), t * theta.sin());
        for on_target in [Complex::from_im(t), on(0.01), on(0.03)] {
            assert_eq!(on_target.abs(), t);
            let grid = counting_grid(6);
            for (before, after) in [(2.0, 0.5), (0.5, 2.0), (0.5, 0.5)] {
                let mut hv = vec![Complex::from_re(before * t); 3];
                hv.push(on_target);
                hv.extend([Complex::from_re(after * t); 2]);
                let f = |w: f64| {
                    let k = grid.iter().position(|&g| g == w);
                    k.map_or(h_ref, |k| hv[k])
                };
                let got = pass_vs_oracle(&grid, &hv, &hv, f, 0.0);
                if before < 1.0 || after < 1.0 {
                    assert_eq!(got.bandwidth_3db, Some(4.0), "{before} {after}");
                }
            }
        }
        assert!(on(0.01).norm_sqr() < t * t && on(0.03).norm_sqr() > t * t);
    }

    #[test]
    fn closed_loop_pass_signed_zeros() {
        let grid = counting_grid(6);
        let z = [
            Complex::from_re(2.0),
            Complex::ZERO,
            Complex::new(-0.0, -0.0),
            Complex::new(0.0, -0.0),
            Complex::from_re(0.1),
            Complex::from_re(3.0),
        ];
        // Linear between the last two points, where the only bracket is:
        // ln 0 = −∞ breaks the chain until then.
        let f = |w: f64| {
            if w == 0.0 {
                Complex::ONE
            } else {
                Complex::from_re(0.1 + (w - 5.0) * 2.9)
            }
        };
        let got = pass_vs_oracle(&grid, &z, &z, f, 0.0);
        assert_eq!(got.non_finite, 0);
        assert!(got.bandwidth_3db.is_some());
    }

    #[test]
    fn closed_loop_pass_non_finite_points() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let grid = counting_grid(9);
        let h = [
            Complex::from_re(1.0),
            Complex::new(nan, 0.0),
            Complex::from_re(0.2),
            Complex::new(inf, nan),
            Complex::new(-inf, 1.0),
            Complex::new(0.3, nan),
            Complex::from_re(0.1),
            Complex::new(1.0, -inf),
            Complex::from_re(0.9),
        ];
        // An aliased-integrator pole: 1 + λ is infinite or 0/0 there.
        let a: Vec<Complex> = [0.5, inf, nan, -inf, 1e3, 0.5, -1.0, 2.0, 0.1]
            .iter()
            .map(|&x| Complex::from_re(x))
            .collect();
        let on_pole = [
            Complex::ONE / (Complex::ONE + Complex::from_im(inf)),
            Complex::ONE / (Complex::ONE + Complex::ONE / Complex::ZERO),
        ];
        assert_eq!(on_pole[0], Complex::ZERO);
        assert!(on_pole[1].re.is_nan());
        let f = |w: f64| Complex::from_re(1.0 / w);
        let got = pass_vs_oracle(&grid, &a, &h, f, 1.0);
        assert_eq!(got.non_finite, 5);
        let mut h = h.to_vec();
        h[2] = on_pole[0];
        h[6] = on_pole[1];
        pass_vs_oracle(&grid, &a, &h, f, 1.0);
    }

    #[test]
    fn closed_loop_pass_extreme_magnitudes() {
        let grid = counting_grid(8);
        let big = |x: f64| Complex::new(x, x);
        for scale in [1.0, 1e200, 1e-200] {
            // Peaks and bracket points above 1e154 and below 1e-154,
            // with the target both in range and out of it.
            let h: Vec<Complex> = [1.0, 2e160, 3e160, 1e-170, 5e-160, 1.0, 0.2, 1e-300]
                .iter()
                .map(|&x| big(x * scale))
                .collect();
            let a: Vec<Complex> = [1e200, -1.0, 1e-200, 1e155, 1e-155, -1e160, 0.5, 2.0]
                .iter()
                .map(|&x| big(x * scale))
                .collect();
            pass_vs_oracle(&grid, &a, &h, |_| big(scale), 0.0);
        }
        // Around |h| = 1e-159 a square is subnormal, good to about 1e-6,
        // so |h|² can put a point just above the target below target²,
        // or misorder two near-equal magnitudes, by far more than
        // EXACT_BAND: such points must take their exact magnitudes.
        let ring = |m: f64| {
            (1..400).map(move |k| {
                let th = k as f64 * 0.003;
                Complex::new(m * th.cos(), m * th.sin())
            })
        };
        let h_ref = Complex::from_re(3.3033e-159);
        let t = h_ref.abs() / std::f64::consts::SQRT_2;
        let above = ring(t * (1.0 + 1e-11))
            .find(|h| h.abs() > t && h.norm_sqr() < t * t * (1.0 - 1e-7))
            .expect("a point above the target whose square reads below it");
        // The crossing lies between `above` and the last point, not
        // before `above`.
        let (up, down) = (Complex::from_re(2.0 * t), Complex::from_re(0.5 * t));
        let h = [up, up, above, down];
        let grid = counting_grid(4);
        let f = |w: f64| grid.iter().position(|&g| g == w).map_or(h_ref, |k| h[k]);
        let got = pass_vs_oracle(&grid, &h, &h, f, 0.0);
        assert!(got.bandwidth_3db.is_some());
        let m = 1.2e-159;
        let (hi, lo) = ring(m)
            .flat_map(|x| ring(m).map(move |y| (x, y)))
            .find(|(x, y)| x.abs() > y.abs() && x.norm_sqr() < y.norm_sqr() * (1.0 - 1e-7))
            .expect("a pair whose squares order the other way round");
        let one = Complex::from_re(m / 2.0);
        for h in [[one, hi, lo, one], [one, lo, hi, one]] {
            let got = pass_vs_oracle(&grid, &h, &h, |_| Complex::from_re(m), 0.0);
            assert_eq!(got.peaking_db, 20.0 * (hi.abs() / m).log10());
        }
    }

    #[test]
    fn closed_loop_pass_tied_peaks() {
        let grid = counting_grid(7);
        let p = Complex::new(3.0, 4.0);
        let next = Complex::new(f64::from_bits(3f64.to_bits() + 1), 4.0);
        // Two points on |h| = 5 whose |h|² order the other way round
        // from their |h|.
        let circle: Vec<Complex> = (1..400)
            .map(|k| {
                Complex::new(
                    5.0 * (k as f64 * 0.003).cos(),
                    5.0 * (k as f64 * 0.003).sin(),
                )
            })
            .collect();
        let (hi, lo) = circle
            .iter()
            .flat_map(|&x| circle.iter().map(move |&y| (x, y)))
            .find(|(x, y)| x.abs() > y.abs() && x.norm_sqr() < y.norm_sqr())
            .expect("a reversed pair");
        let one = Complex::ONE;
        let cases = [
            // An exact tie, a tie in |h| from different components, near
            // ties whose squares differ by an ulp either way, and the
            // reversed pair in both orders.
            [1.0, 2.0, 5.0, 1.0, 5.0, 0.5, 0.1].map(Complex::from_re),
            [p, Complex::from_re(1.0), Complex::new(4.0, 3.0), p, p, p, p],
            [p, next, p, one, next, p, one],
            [next, p, next, p, one, p, next],
            [one, hi, lo, one, one, one, one],
            [one, lo, hi, one, one, one, one],
        ];
        // Scaled exactly by 2^±530, the squares underflow or overflow.
        for scale in [1.0, 2f64.powi(-530), 2f64.powi(530)] {
            for h in cases {
                let h = h.map(|v| v * scale);
                // Relative to 5 the peakings are near 0 dB, where log10
                // tells neighbouring magnitudes apart.
                let f = |_| Complex::from_re(5.0 * scale);
                let got = pass_vs_oracle(&grid, &h, &h, f, 0.0);
                assert!(got.peaking_db.abs() < 1e-12, "{}", got.peaking_db);
            }
        }
    }

    #[test]
    fn closed_loop_pass_takes_the_bracket_brent_refines() {
        // |h| = target·(0.5 + e^{−(ln w)²}) crosses the target twice
        // around w = 1; the pushed first point is far above it, so the
        // first bracket (points 0–1) exists on the grid but not for the
        // refining function, and Brent fails there.
        let t = 1.0 / std::f64::consts::SQRT_2;
        let f = |w: f64| Complex::from_re(t * (0.5 + (-(w.ln().powi(2))).exp()));
        let (grid, mut hv) = scan(f, 0.01, 100.0);
        let f = |w: f64| if w == 0.0 { Complex::ONE } else { f(w) };
        hv[0] = Complex::from_re(2.0);
        let got = pass_vs_oracle(&grid, &hv, &hv, f, 0.0);
        let bw = got.bandwidth_3db.expect("second bracket");
        let rising = (-(0.5f64.ln())).sqrt();
        assert!((bw - (-rising).exp()).abs() < 1e-9, "{bw}");
    }

    #[test]
    fn error_display() {
        assert!(MarginError::NoUnityCrossing.to_string().contains("0 dB"));
        assert!(MarginError::RefineFailed.to_string().contains("converge"));
    }
}
