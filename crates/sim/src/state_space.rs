//! Real state-space realization of a transfer function, with RK4
//! integration.
//!
//! The loop-filter network is simulated as `ẋ = Ax + B·i(t)`,
//! `v = Cx + D·i(t)` in controllable canonical form, built from any
//! proper rational transimpedance `Z(s)`. The charge-pump current is
//! piecewise constant between PFD events, so fixed-step RK4 with
//! substepping tied to the fastest pole is accurate to O(h⁴) and has no
//! discontinuity inside any step.
//!
//! ```
//! use htmpll_sim::state_space::StateSpace;
//! use htmpll_lti::Tf;
//!
//! // 1/(s+1) driven by a unit step: v(t) = 1 − e^{−t}.
//! let mut ss = StateSpace::from_tf(&Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap());
//! ss.step(1.0, 1.0, 64);
//! assert!((ss.output(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
//! ```

use htmpll_lti::Tf;

/// A single-input single-output real state-space system in controllable
/// canonical form.
#[derive(Debug, Clone)]
pub struct StateSpace {
    /// Denominator coefficients, monic, ascending (length n+1 with last
    /// element 1): the companion-form feedback row.
    den: Vec<f64>,
    /// Numerator coefficients mapped onto the state (length n).
    c_row: Vec<f64>,
    /// Direct feedthrough.
    d: f64,
    /// State vector (length n).
    x: Vec<f64>,
}

impl StateSpace {
    /// Builds the controllable-canonical realization of a **proper**
    /// transfer function.
    ///
    /// # Panics
    ///
    /// Panics when the transfer function is improper (`deg num > deg
    /// den`) — physical loop filters never are.
    pub fn from_tf(tf: &Tf) -> StateSpace {
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
        StateSpace {
            den,
            c_row,
            d,
            x: vec![0.0; n],
        }
    }

    /// Number of states.
    pub fn order(&self) -> usize {
        self.x.len()
    }

    /// Borrows the state vector.
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Overwrites the state vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_state(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.x.len(), "state length mismatch");
        self.x.copy_from_slice(x);
    }

    /// Resets the state to zero.
    pub fn reset(&mut self) {
        self.x.iter_mut().for_each(|v| *v = 0.0);
    }

    /// The output `v = Cx + D·u` for the current state and input `u`.
    pub fn output(&self, u: f64) -> f64 {
        self.eval_output(&self.x, u)
    }

    /// The output for an **explicit** state vector (used by callers that
    /// co-integrate this system inside a larger ODE).
    pub fn eval_output(&self, x: &[f64], u: f64) -> f64 {
        self.c_row.iter().zip(x).map(|(c, x)| c * x).sum::<f64>() + self.d * u
    }

    /// The state derivative for an explicit state vector; `out` must
    /// have length [`order`](StateSpace::order).
    pub fn eval_deriv(&self, x: &[f64], u: f64, out: &mut [f64]) {
        self.deriv(x, u, out);
    }

    /// State derivative for constant input `u` (companion form).
    fn deriv(&self, x: &[f64], u: f64, out: &mut [f64]) {
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

    /// Advances the state by `h` seconds with constant input `u`, using
    /// `substeps` RK4 sub-intervals.
    ///
    /// # Panics
    ///
    /// Panics when `substeps == 0` or `h < 0`.
    pub fn step(&mut self, h: f64, u: f64, substeps: usize) {
        assert!(substeps > 0, "need at least one substep");
        assert!(h >= 0.0, "negative step");
        if h == 0.0 || self.x.is_empty() {
            return;
        }
        let hs = h / substeps as f64;
        let mut x = std::mem::take(&mut self.x);
        let mut scratch = vec![0.0; RK4_SCRATCH_PER_STATE * x.len()];
        for _ in 0..substeps {
            rk4_step(&mut x, hs, &mut scratch, |x, out| self.deriv(x, u, out));
        }
        self.x = x;
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

    #[test]
    fn first_order_step_matches_analytic() {
        let tf = Tf::from_coeffs(vec![2.0], vec![3.0, 1.0]).unwrap();
        let mut ss = StateSpace::from_tf(&tf);
        assert_eq!(ss.order(), 1);
        let mut t = 0.0;
        for _ in 0..50 {
            ss.step(0.05, 1.0, 8);
            t += 0.05;
            let t_now: f64 = t;
            let expect = (2.0 / 3.0) * (1.0 - (-3.0 * t_now).exp());
            assert!((ss.output(1.0) - expect).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn second_order_matches_pfe_step() {
        // Cross-check against the exact PFE-based step response.
        let tf = Tf::from_coeffs(vec![5.0, 1.0], vec![4.0, 1.2, 1.0]).unwrap();
        let ts: Vec<f64> = (1..=20).map(|k| 0.2 * k as f64).collect();
        let exact = step_response(&tf, &ts).unwrap();
        let mut ss = StateSpace::from_tf(&tf);
        let mut t = 0.0;
        for (t_target, e) in ts.iter().zip(&exact) {
            ss.step(t_target - t, 1.0, 64);
            t = *t_target;
            assert!(
                (ss.output(1.0) - e).abs() < 1e-8,
                "t={t}: {} vs {e}",
                ss.output(1.0)
            );
        }
    }

    #[test]
    fn biproper_direct_feedthrough() {
        // (s+2)/(s+1): D = 1, instantaneous response to input.
        let tf = Tf::from_coeffs(vec![2.0, 1.0], vec![1.0, 1.0]).unwrap();
        let ss = StateSpace::from_tf(&tf);
        assert!((ss.output(1.0) - 1.0).abs() < 1e-12); // x = 0, v = D·u
        let mut ss = ss;
        ss.step(20.0, 1.0, 2000);
        // Settles to DC gain 2.
        assert!((ss.output(1.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn integrator_ramps() {
        let mut ss = StateSpace::from_tf(&Tf::integrator());
        ss.step(2.5, 3.0, 16);
        assert!((ss.output(3.0) - 7.5).abs() < 1e-10);
    }

    #[test]
    fn charge_pump_filter_realization() {
        // The actual loop-filter shape: integrator + zero + HF pole.
        let f = htmpll_lti::ChargePumpFilter2::from_pole_zero(0.25, 4.0, 1.0).unwrap();
        let tf = f.impedance();
        let mut ss = StateSpace::from_tf(&tf);
        assert_eq!(ss.order(), 2);
        // Constant current in: output ramps at I/C_total plus transient.
        ss.step(50.0, 1.0, 5000);
        let v50 = ss.output(1.0);
        ss.step(1.0, 1.0, 100);
        let v51 = ss.output(1.0);
        // Long-term slope = 1/(C1+C2) = 1.
        assert!((v51 - v50 - 1.0).abs() < 1e-6, "slope {}", v51 - v50);
    }

    #[test]
    fn zero_step_is_identity() {
        let tf = Tf::from_coeffs(vec![1.0], vec![1.0, 1.0]).unwrap();
        let mut ss = StateSpace::from_tf(&tf);
        ss.step(1.0, 1.0, 8);
        let before = ss.state().to_vec();
        ss.step(0.0, 5.0, 8);
        assert_eq!(ss.state(), &before[..]);
    }

    #[test]
    fn state_accessors() {
        let tf = Tf::from_coeffs(vec![1.0], vec![1.0, 0.5, 1.0]).unwrap();
        let mut ss = StateSpace::from_tf(&tf);
        ss.set_state(&[1.0, 2.0]);
        assert_eq!(ss.state(), &[1.0, 2.0]);
        ss.reset();
        assert_eq!(ss.state(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn improper_rejected() {
        let _ = StateSpace::from_tf(&Tf::differentiator());
    }
}
