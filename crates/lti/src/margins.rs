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

use htmpll_num::optim::{brent, find_brackets, log_grid};
use htmpll_num::Complex;
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

/// All unity-gain crossover frequencies of `f` on a scan grid, in
/// ascending order: sign changes of `ln|f|` over precomputed
/// `values = f(grid)`, refined by Brent; `f` is only called during root
/// refinement.
///
/// # Panics
///
/// Panics when `grid` and `values` lengths differ.
fn unity_gain_crossings_precomputed<F: FnMut(f64) -> Complex>(
    mut f: F,
    grid: &[f64],
    values: &[Complex],
) -> Vec<f64> {
    assert_eq!(grid.len(), values.len(), "grid/values length mismatch");
    // Work in log-magnitude so the function is well-scaled across decades.
    let brackets = find_brackets(replay(values, |v| v.abs().ln()), grid);
    let mut g = |w: f64| f(w).abs().ln();
    brackets
        .into_iter()
        .filter_map(|(a, b)| brent(&mut g, a, b, 1e-12 * b, 200).ok())
        .collect()
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
    mut f: F,
    grid: &[f64],
    values: &[Complex],
) -> Result<Margins, MarginError> {
    let crossings = unity_gain_crossings_precomputed(&mut f, grid, values);
    let omega_ug = *crossings.last().ok_or(MarginError::NoUnityCrossing)?;
    let phase_margin_deg = 180.0 + f(omega_ug).arg().to_degrees();

    // Phase crossover: Im f = 0 with Re f < 0.
    let brackets = find_brackets(replay(values, |v| v.im), grid);
    let mut omega_pc = None;
    for (a, b) in brackets {
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
        let c = unity_gain_crossings_precomputed(f, &grid, &values);
        assert!(c.len() >= 2, "{c:?}");
        let m = stability_margins(f, 0.01, 1e4).unwrap();
        assert!((m.omega_ug - c.last().unwrap()).abs() < 1e-9);
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

    #[test]
    fn error_display() {
        assert!(MarginError::NoUnityCrossing.to_string().contains("0 dB"));
        assert!(MarginError::RefineFailed.to_string().contains("converge"));
    }
}
