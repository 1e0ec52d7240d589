//! Real state-space realization of a transfer function, and the two
//! ways the simulator moves it between events.
//!
//! The loop-filter network is `ẋ = Ax + B·i(t)`, `v = Cx + D·i(t)` in
//! controllable canonical form, built from any proper rational
//! transimpedance `Z(s)`. The charge-pump current is piecewise constant
//! between PFD events, and a time-invariant VCO integrates `v` into
//! phase linearly, so between events the loop is an LTI system with
//! constant inputs. The crate's `Propagator` builds its generator `M`
//! over `[x…, Φ, i]` and moves the loop exactly: one product with the
//! precomputed `e^{M·dt}` per whole sample interval, and a Taylor series
//! on `M` for a segment cut short by an event. The period-map simulator
//! (`fast`) uses the same propagator over a whole period.
//!
//! A VCO with an impulse sensitivity function makes `Φ̇` depend on
//! `cos(2πkΦ)`, which no matrix exponential covers; that path
//! integrates the companion form with fixed-step RK4 (`rk4_step`).
//!
//! Everything here is crate-private: the engine holds the filter state
//! and asks the realization only for its output and derivative.

use htmpll_lti::Tf;

/// A single-input single-output real state-space system in controllable
/// canonical form. It holds no state: callers keep the state vector.
#[derive(Debug, Clone)]
pub(crate) struct StateSpace {
    /// Denominator coefficients, monic, ascending (length n+1 with last
    /// element 1): the companion-form feedback row.
    den: Vec<f64>,
    /// Numerator coefficients mapped onto the state (length n).
    c_row: Vec<f64>,
    /// Direct feedthrough.
    d: f64,
}

impl StateSpace {
    /// Builds the controllable-canonical realization of a **proper**
    /// transfer function.
    ///
    /// # Panics
    ///
    /// Panics when the transfer function is improper (`deg num > deg
    /// den`) — physical loop filters never are.
    pub(crate) fn from_tf(tf: &Tf) -> StateSpace {
        assert!(
            tf.is_proper(),
            "state-space realization requires a proper transfer function"
        );
        let den_raw = tf.den().coeffs();
        let n = tf.den().degree();
        let lead = *den_raw.last().expect("nonzero denominator");
        // Monic denominator a_0 + a_1 s + … + s^n.
        let den: Vec<f64> = den_raw.iter().map(|c| c / lead).collect();
        // Split off direct feedthrough for biproper inputs:
        // N(s)/D(s) = d + R(s)/D(s) with deg R < n.
        let num_raw = tf.num().coeffs();
        let d = if tf.num().degree() == n && !tf.num().is_zero() {
            num_raw[n] / lead
        } else {
            0.0
        };
        let mut c_row = vec![0.0; n];
        for (k, c) in c_row.iter_mut().enumerate() {
            let num_k = num_raw.get(k).copied().unwrap_or(0.0) / lead;
            *c = num_k - d * den[k];
        }
        StateSpace { den, c_row, d }
    }

    /// Number of states.
    pub(crate) fn order(&self) -> usize {
        self.c_row.len()
    }

    /// The output `v = Cx + D·u` for state `x` and input `u`.
    pub(crate) fn eval_output(&self, x: &[f64], u: f64) -> f64 {
        self.c_row.iter().zip(x).map(|(c, x)| c * x).sum::<f64>() + self.d * u
    }

    /// State derivative `ẋ` for state `x` and constant input `u`
    /// (companion form); `out` has length [`order`](StateSpace::order).
    pub(crate) fn deriv(&self, x: &[f64], u: f64, out: &mut [f64]) {
        let n = x.len();
        if n == 0 {
            return;
        }
        out[..n - 1].copy_from_slice(&x[1..n]);
        let mut acc = u;
        for (k, &a) in self.den.iter().take(n).enumerate() {
            acc -= a * x[k];
        }
        out[n - 1] = acc;
    }
}

/// Taylor terms after which [`Propagator::step`] halves the segment
/// instead (only a generator stiff on the scale of the segment needs
/// that many).
const MAX_TAYLOR_TERMS: usize = 40;

/// Exact propagator of the loop between PFD events.
///
/// Over a segment with constant pump current `i` and constant VCO rate
/// offset `c` (center frequency plus white-FM draw) the loop is
/// `ẋ = Ax + B·i`, `Φ̇ = c + g·(Cx + D·i)`: an LTI system whose
/// generator over `[x…, Φ, i]` is `M = [[A, 0, B], [g·C, 0, g·D],
/// [0, 0, 0]]`, the current being a state of zero derivative. Nothing
/// depends on `Φ`, so the propagator maps `[x…, i]` to
/// `[x(h)…, ΔΦ(h)]`, with `c` contributing `c·h` to `ΔΦ` in closed
/// form; keeping the increment apart from the absolute phase keeps its
/// rounding at the size of one segment's advance.
///
/// Both the precomputed `e^{M·dt}` and shorter segments come from the
/// Taylor series of `e^{M·h}` with a per-component stopping test, which
/// no diagonal rescaling of the states changes. A norm-scaled Padé
/// exponential is not: in SI units `g·C` reaches 1e23 beside filter
/// entries near 1e6, and its squarings lose the small entries.
#[derive(Debug, Clone)]
pub(crate) struct Propagator {
    /// Filter order `n`.
    order: usize,
    /// Rows `[x…, Φ]` of `M` over the columns `[x…, i]` (`(n+1)×(n+1)`
    /// row-major; `M`'s `Φ` column is zero).
    gen: Vec<f64>,
    /// The same rows and columns of `e^{M·dt}`, the `Φ` row holding the
    /// increment.
    whole: Vec<f64>,
    /// The interval `whole` spans.
    dt: f64,
}

impl Propagator {
    /// Scratch values per row (`order + 1` rows) that
    /// [`step`](Propagator::step) needs.
    pub(crate) const SCRATCH_PER_ROW: usize = 3;

    /// Builds the propagator of `filter` driving `Φ̇ = c + g·v`
    /// (`g = phase_gain`) and precomputes its transition over `dt`.
    pub(crate) fn new(filter: &StateSpace, phase_gain: f64, dt: f64) -> Propagator {
        let n = filter.order();
        let w = n + 1;
        let mut gen = vec![0.0; w * w];
        for r in 1..n {
            gen[(r - 1) * w + r] = 1.0;
        }
        for k in 0..n {
            gen[(n - 1) * w + k] = -filter.den[k];
            gen[n * w + k] = phase_gain * filter.c_row[k];
        }
        if n > 0 {
            gen[(n - 1) * w + n] = 1.0;
        }
        gen[n * w + n] = phase_gain * filter.d;
        let mut p = Propagator {
            order: n,
            gen,
            whole: Vec::new(),
            dt,
        };
        // e^{M·dt} column by column: the series on each basis input.
        let mut whole = vec![0.0; w * w];
        let (mut basis, mut col) = (vec![0.0; w], vec![0.0; w]);
        let mut scratch = vec![0.0; Propagator::SCRATCH_PER_ROW * w];
        for j in 0..w {
            basis[j] = 1.0;
            p.step(dt, &basis[..n], basis[n], 0.0, &mut col, &mut scratch);
            basis[j] = 0.0;
            for (r, &v) in col.iter().enumerate() {
                whole[r * w + j] = v;
            }
        }
        p.whole = whole;
        p
    }

    /// The input column `[B…, g·D]` of `M`: where a unit charge moves
    /// `[x…, Φ]`.
    pub(crate) fn input_column(&self) -> Vec<f64> {
        let w = self.order + 1;
        (0..w).map(|r| self.gen[r * w + self.order]).collect()
    }

    /// `out = rows · [x…, i]` for an `(n+1)×(n+1)` row-major `rows`.
    fn apply(&self, rows: &[f64], x: &[f64], i: f64, out: &mut [f64]) {
        let n = self.order;
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(n + 1)) {
            *o = row[..n].iter().zip(x).map(|(a, x)| a * x).sum::<f64>() + row[n] * i;
        }
    }

    /// `Φ̇` at filter state `x`: `c + g·(Cx + D·i)`.
    pub(crate) fn phase_rate(&self, x: &[f64], i: f64, c: f64) -> f64 {
        let n = self.order;
        let row = &self.gen[n * (n + 1)..];
        row[..n].iter().zip(x).map(|(a, x)| a * x).sum::<f64>() + row[n] * i + c
    }

    /// Propagates over one whole sample interval `dt`: writes
    /// `[x(dt)…, ΔΦ(dt)]` to `out` (length `n + 1`).
    pub(crate) fn whole_step(&self, x: &[f64], i: f64, c: f64, out: &mut [f64]) {
        self.apply(&self.whole, x, i, out);
        out[self.order] += c * self.dt;
    }

    /// Propagates over `h ≥ 0` by the Taylor series of `e^{M·h}`: writes
    /// `[x(h)…, ΔΦ(h)]` to `out` (length `n + 1`). `scratch` must hold
    /// [`SCRATCH_PER_ROW`](Propagator::SCRATCH_PER_ROW)` · (n + 1)`
    /// values.
    ///
    /// The series stops once two successive terms are, in every
    /// component, below one rounding unit of the largest value that
    /// component has held, so the test does not depend on how the
    /// states are scaled. A series that has not converged after
    /// `MAX_TAYLOR_TERMS` terms is replaced by two half steps.
    pub(crate) fn step(
        &self,
        h: f64,
        x: &[f64],
        i: f64,
        c: f64,
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        if self.taylor(h, x, i, c, out, scratch) {
            return;
        }
        let n = self.order;
        let mut mid = vec![0.0; n + 1];
        self.step(0.5 * h, x, i, c, &mut mid, scratch);
        self.step(0.5 * h, &mid[..n], i, c, out, scratch);
        out[n] += mid[n];
    }

    /// The Taylor series of [`step`](Propagator::step); `false` when it
    /// did not converge within `MAX_TAYLOR_TERMS` terms.
    fn taylor(
        &self,
        h: f64,
        x: &[f64],
        i: f64,
        c: f64,
        out: &mut [f64],
        scratch: &mut [f64],
    ) -> bool {
        let n = self.order;
        let (term, rest) = scratch.split_at_mut(n + 1);
        let (next, big) = rest.split_at_mut(n + 1);
        let big = &mut big[..n + 1];
        out[..n].copy_from_slice(x);
        out[n] = 0.0;
        for (b, o) in big.iter_mut().zip(out.iter()) {
            *b = o.abs();
        }
        // First term h·M·[x…, i]; the later ones see no input.
        self.apply(&self.gen, x, i, term);
        term[n] += c;
        term.iter_mut().for_each(|t| *t *= h);
        let mut quiet = 0;
        for k in 2..=MAX_TAYLOR_TERMS + 1 {
            let mut small = true;
            let mut zero = true;
            for ((o, b), &t) in out.iter_mut().zip(big.iter_mut()).zip(term.iter()) {
                *o += t;
                *b = b.max(t.abs()).max(o.abs());
                small &= t.abs() <= f64::EPSILON * *b;
                zero &= t == 0.0;
            }
            quiet = if small { quiet + 1 } else { 0 };
            if zero || quiet == 2 {
                return true;
            }
            self.apply(&self.gen, &term[..n], 0.0, next);
            let scale = h / k as f64;
            for (t, nx) in term.iter_mut().zip(next.iter()) {
                *t = nx * scale;
            }
        }
        false
    }
}

/// Scratch slots per state that [`rk4_step`] needs: the four stage
/// derivatives and the stage argument.
pub(crate) const RK4_SCRATCH_PER_STATE: usize = 5;

/// One classic RK4 step of size `h` on `ẋ = f(x)`, in place and without
/// allocating. `deriv(x, out)` writes `f(x)` into `out`; `scratch` must
/// hold at least [`RK4_SCRATCH_PER_STATE`]`·x.len()` values and its
/// contents on entry are ignored.
pub(crate) fn rk4_step(
    x: &mut [f64],
    h: f64,
    scratch: &mut [f64],
    mut deriv: impl FnMut(&[f64], &mut [f64]),
) {
    let n = x.len();
    let (k1, rest) = scratch.split_at_mut(n);
    let (k2, rest) = rest.split_at_mut(n);
    let (k3, rest) = rest.split_at_mut(n);
    let (k4, rest) = rest.split_at_mut(n);
    let tmp = &mut rest[..n];
    deriv(x, k1);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k1[i];
    }
    deriv(tmp, k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k2[i];
    }
    deriv(tmp, k3);
    for i in 0..n {
        tmp[i] = x[i] + h * k3[i];
    }
    deriv(tmp, k4);
    for i in 0..n {
        x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_lti::response::step_response;

    /// The filter output `v = Cx + D·u` at each of the ascending times
    /// `ts`, marching `ss` from rest under the constant input `u` with
    /// the exact propagator (no phase gain).
    fn outputs_from_rest(ss: &StateSpace, u: f64, ts: &[f64]) -> Vec<f64> {
        let n = ss.order();
        let p = Propagator::new(ss, 0.0, 1.0);
        let (mut x, mut y) = (vec![0.0; n], vec![0.0; n + 1]);
        let mut scratch = vec![0.0; Propagator::SCRATCH_PER_ROW * (n + 1)];
        let mut t = 0.0;
        ts.iter()
            .map(|&t_next| {
                p.step(t_next - t, &x, u, 0.0, &mut y, &mut scratch);
                x.copy_from_slice(&y[..n]);
                t = t_next;
                ss.eval_output(&x, u)
            })
            .collect()
    }

    #[test]
    fn first_order_step_matches_analytic() {
        let tf = Tf::from_coeffs(vec![2.0], vec![3.0, 1.0]).unwrap();
        let ss = StateSpace::from_tf(&tf);
        assert_eq!(ss.order(), 1);
        let ts: Vec<f64> = (1..=50).map(|k| 0.05 * k as f64).collect();
        for (t, v) in ts.iter().zip(outputs_from_rest(&ss, 1.0, &ts)) {
            let expect = (2.0 / 3.0) * (1.0 - (-3.0 * t).exp());
            assert!((v - expect).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn second_order_matches_pfe_step() {
        // Cross-check against the exact PFE-based step response.
        let tf = Tf::from_coeffs(vec![5.0, 1.0], vec![4.0, 1.2, 1.0]).unwrap();
        let ts: Vec<f64> = (1..=20).map(|k| 0.2 * k as f64).collect();
        let exact = step_response(&tf, &ts).unwrap();
        let ss = StateSpace::from_tf(&tf);
        for ((t, v), e) in ts.iter().zip(outputs_from_rest(&ss, 1.0, &ts)).zip(&exact) {
            assert!((v - e).abs() < 1e-8, "t={t}: {v} vs {e}");
        }
    }

    #[test]
    fn biproper_direct_feedthrough() {
        // (s+2)/(s+1): D = 1, instantaneous response to input.
        let tf = Tf::from_coeffs(vec![2.0, 1.0], vec![1.0, 1.0]).unwrap();
        let ss = StateSpace::from_tf(&tf);
        assert!((ss.eval_output(&[0.0], 1.0) - 1.0).abs() < 1e-12); // v = D·u
                                                                    // Settles to DC gain 2.
        let v = outputs_from_rest(&ss, 1.0, &[20.0])[0];
        assert!((v - 2.0).abs() < 1e-6);
    }

    #[test]
    fn integrator_ramps() {
        let ss = StateSpace::from_tf(&Tf::integrator());
        let v = outputs_from_rest(&ss, 3.0, &[2.5])[0];
        assert!((v - 7.5).abs() < 1e-10);
    }

    #[test]
    fn charge_pump_filter_realization() {
        // The actual loop-filter shape: integrator + zero + HF pole.
        let f = htmpll_lti::ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0).unwrap();
        let ss = StateSpace::from_tf(&f.impedance());
        assert_eq!(ss.order(), 2);
        // Constant current in: output ramps at I/C_total plus transient.
        let v = outputs_from_rest(&ss, 1.0, &[50.0, 51.0]);
        // Long-term slope = 1/(C1+C2) = 1.
        assert!((v[1] - v[0] - 1.0).abs() < 1e-6, "slope {}", v[1] - v[0]);
    }

    /// The reference loop's filter, VCO phase gain `K_vco/2π` and
    /// period.
    fn reference_loop() -> (StateSpace, f64, f64) {
        let d = htmpll_core::PllDesign::reference_design(0.1).unwrap();
        let ss = StateSpace::from_tf(&d.filter().impedance());
        (ss, d.kvco() / (2.0 * std::f64::consts::PI), 1.0 / d.f_ref())
    }

    /// `[x(h)…, ΔΦ(h)]` from `expm` of the augmented generator over `h`
    /// (`[x…, Φ, i]`, rebuilt from the propagator's rows), plus `c·h`.
    fn expm_reference(p: &Propagator, h: f64, x: &[f64], i: f64, c: f64) -> Vec<f64> {
        use htmpll_num::{expm, CMat, Complex};
        let n = p.order;
        let m = CMat::from_fn(n + 2, n + 2, |r, j| match (r, j) {
            (r, _) if r > n => Complex::ZERO,
            (_, j) if j == n => Complex::ZERO,
            (r, j) => Complex::from_re(p.gen[r * (n + 1) + j.min(n)]),
        });
        let e = expm(&m.scale(Complex::from_re(h))).unwrap();
        let mut out: Vec<f64> = (0..=n)
            .map(|r| (0..n).map(|j| e[(r, j)].re * x[j]).sum::<f64>() + e[(r, n + 1)].re * i)
            .collect();
        out[n] += c * h;
        out
    }

    fn assert_close(got: &[f64], want: &[f64], rel: f64, what: &str) {
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= rel * w.abs(),
                "{what}, component {k}: {g} vs {w}"
            );
        }
    }

    /// `[x(h), ΔΦ(h)]` of `ẋ = −a·x + i`, `Φ̇ = c + g·k·x` in closed form.
    fn first_order(a: f64, k: f64, g: f64, h: f64, x: f64, i: f64, c: f64) -> [f64; 2] {
        let rise = -(-a * h).exp_m1(); // 1 − e^{−ah}
        let ramp = (a * h + (-a * h).exp_m1()) / a; // h − rise/a
        [
            (-a * h).exp() * x + rise / a * i,
            c * h + g * k * (x * rise / a + i * ramp / a),
        ]
    }

    #[test]
    fn propagator_matches_expm_at_random_lengths() {
        let (ss, gain, t_ref) = reference_loop();
        let n = ss.order();
        let dt = t_ref / 32.0;
        let p = Propagator::new(&ss, gain, dt);
        let mut rng = htmpll_num::rng::Rng::seed_from_u64(26);
        let mut out = vec![0.0; n + 1];
        let mut scratch = vec![0.0; Propagator::SCRATCH_PER_ROW * (n + 1)];
        for case in 0..200 {
            let h = dt * rng.range(1e-6, 1.0);
            let x: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            let i = rng.range(-1.0, 1.0);
            let c = rng.range(0.5, 2.0);
            p.step(h, &x, i, c, &mut out, &mut scratch);
            let want = expm_reference(&p, h, &x, i, c);
            assert_close(&out, &want, 1e-12, &format!("case {case}, h = {h:e}"));
        }
        // The precomputed whole step is e^{M·dt} too.
        let x = [0.3, -0.7];
        p.whole_step(&x, 0.4, 1.6, &mut out);
        assert_close(
            &out,
            &expm_reference(&p, dt, &x, 0.4, 1.6),
            1e-12,
            "whole step",
        );
    }

    #[test]
    fn propagator_is_exact_in_si_units() {
        // A 10 MHz loop in SI units: g·k = 1e23 beside a = 2.5e6, the
        // spread that defeats a norm-scaled Padé exponential.
        let (a, k, g) = (2.5e6, 1e15, 1e8);
        let ss = StateSpace::from_tf(&Tf::from_coeffs(vec![k], vec![a, 1.0]).unwrap());
        let dt = 1e-7 / 32.0;
        let p = Propagator::new(&ss, g, dt);
        let (x, i, c) = (3e-13, 2e-4, 2.4e9);
        let mut out = [0.0; 2];
        p.whole_step(&[x], i, c, &mut out);
        assert_close(&out, &first_order(a, k, g, dt, x, i, c), 1e-12, "whole");
        let mut scratch = [0.0; 2 * Propagator::SCRATCH_PER_ROW];
        p.step(0.3 * dt, &[x], i, c, &mut out, &mut scratch);
        let want = first_order(a, k, g, 0.3 * dt, x, i, c);
        assert_close(&out, &want, 1e-12, "partial");
    }

    #[test]
    fn propagator_halves_segments_its_series_cannot_span() {
        // a·h = 30 is past what the series reaches in MAX_TAYLOR_TERMS
        // terms, so it halves; the precomputed whole step does too.
        let (a, g, c, h) = (30.0, 0.5, 2.0, 1.0);
        let ss = StateSpace::from_tf(&Tf::from_coeffs(vec![1.0], vec![a, 1.0]).unwrap());
        let p = Propagator::new(&ss, g, h);
        let mut scratch = [0.0; 2 * Propagator::SCRATCH_PER_ROW];
        let mut out = [0.0; 2];
        assert!(!p.taylor(h, &[1.0], 0.0, c, &mut out, &mut scratch));
        let want = first_order(a, 1.0, g, h, 1.0, 0.5, c);
        p.step(h, &[1.0], 0.5, c, &mut out, &mut scratch);
        assert_close(&out, &want, 1e-10, "halved step");
        p.whole_step(&[1.0], 0.5, c, &mut out);
        assert_close(&out, &want, 1e-10, "halved whole step");
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn improper_rejected() {
        let _ = StateSpace::from_tf(&Tf::from_coeffs(vec![0.0, 1.0], vec![1.0]).unwrap());
    }
}
