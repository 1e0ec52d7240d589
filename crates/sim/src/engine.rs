//! Event-driven behavioral PLL simulation engine.
//!
//! This is the workspace's stand-in for the paper's Matlab/Simulink
//! verification model: the PFD is a tri-state flip-flop pair whose
//! output pulses have **finite width** (the phase error), the charge
//! pump drives the loop-filter state space with piecewise-constant
//! current, and the VCO integrates the control voltage into phase.
//! Between events a time-invariant VCO makes the loop linear, so it is
//! propagated exactly (a precomputed `e^{M·dt}` per sample interval, a
//! Taylor series for shorter segments); a VCO with an impulse
//! sensitivity function falls back to RK4. Divided-VCO edges are located
//! by a safeguarded Newton iteration on the propagated phase, so the
//! only modeling difference from the HTM prediction is the
//! pulse-width-vs-impulse approximation itself (paper Fig. 4).
//!
//! Phases are expressed in the paper's **time units**: `θ(t)` is the
//! time displacement of zero crossings, with `θ/T ≪ 1` in lock.
//!
//! ```no_run
//! use htmpll_core::PllDesign;
//! use htmpll_sim::engine::{PllSim, SimConfig, SimParams};
//!
//! let d = PllDesign::reference_design(0.1).unwrap();
//! let mut sim = PllSim::new(SimParams::from_design(&d), SimConfig::default());
//! let trace = sim.run(50.0 * sim.params().t_ref, &|_t| 0.0);
//! assert!(trace.theta_vco.iter().all(|th| th.abs() < 1e-6)); // stays locked
//! ```

use crate::pfd::TriStatePfd;
use crate::state_space::{rk4_step, Propagator, StateSpace, RK4_SCRATCH_PER_STATE};
use htmpll_core::PllDesign;
use htmpll_lti::Tf;
use htmpll_num::rng::Rng;

/// Physical parameters of the simulated loop.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Reference period `T = 1/f_ref` (s).
    pub t_ref: f64,
    /// Charge-pump current (A).
    pub i_cp: f64,
    /// VCO gain (rad/s per V).
    pub kvco: f64,
    /// Feedback divider `N`.
    pub divider: f64,
    /// Loop-filter transimpedance `Z(s)` (V/A).
    pub filter: Tf,
    /// VCO free-running frequency at zero control voltage (Hz). Lock
    /// requires `f_center ≈ N/t_ref`; offsets exercise acquisition.
    pub f_center: f64,
    /// Fractional UP/DOWN charge-pump current mismatch: the UP current
    /// is `I_cp·(1 + cp_mismatch)` while DOWN stays `I_cp`. Zero for an
    /// ideal pump.
    pub cp_mismatch: f64,
    /// Constant leakage current (A) always flowing into the loop-filter
    /// node. In lock the pump must cancel it each period, producing a
    /// static phase offset `θ ≈ +I_leak·T/I_cp` and a reference spur.
    pub leakage: f64,
    /// PFD reset delay (s): after both flip-flops go high they stay
    /// high for this long before the AND reset fires — the standard
    /// anti-dead-zone pulse. With a current mismatch it produces a
    /// static phase offset `θ ≈ cp_mismatch·reset_delay`.
    pub reset_delay: f64,
    /// Periodic VCO gain modulation (impulse sensitivity function):
    /// centered cosine-series coefficients `[a₁, a₂, …]` making the
    /// instantaneous gain `K_vco·(1 + Σ_k aₖ·cos(2πk·Φ))` where `Φ` is
    /// the VCO phase in cycles. Empty = time-invariant (the paper's §5
    /// setup); nonempty exercises the §3.3 time-varying machinery.
    pub isf_cosine: Vec<f64>,
    /// Divider offset sequence for fractional-N operation: when set,
    /// divided edge `k` uses ratio `divider + div_sequence[k mod len]`
    /// (e.g. a MASH sigma-delta output). `f_center` should then be
    /// `(divider + mean(offsets))·f_ref` for lock.
    pub div_sequence: Option<Vec<i64>>,
    /// Charge-pump turn-on time (s): a flip-flop must have been high at
    /// least this long before its current source conducts, so pulses
    /// narrower than `dead_zone` deliver **no** charge — the classic PFD
    /// dead zone. Small phase errors then go uncorrected and the locked
    /// loop wanders inside ±`dead_zone` instead of converging; a
    /// `reset_delay ≥ dead_zone` restores linear behavior (both sources
    /// conduct on every cycle).
    pub dead_zone: f64,
}

impl SimParams {
    /// Derives simulation parameters from a [`PllDesign`], centered for
    /// perfect lock at zero control voltage.
    pub fn from_design(d: &PllDesign) -> SimParams {
        SimParams {
            t_ref: 1.0 / d.f_ref(),
            i_cp: d.icp(),
            kvco: d.kvco(),
            divider: d.divider(),
            filter: d.filter().impedance(),
            f_center: d.divider() * d.f_ref(),
            cp_mismatch: 0.0,
            leakage: 0.0,
            reset_delay: 0.0,
            dead_zone: 0.0,
            isf_cosine: Vec::new(),
            div_sequence: None,
        }
    }
}

/// Numerical configuration of the engine.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Uniform output samples per reference period.
    pub samples_per_ref: usize,
    /// RK4 substeps per sample interval (before event splitting). Used
    /// only when [`SimParams::isf_cosine`] is nonempty: a time-invariant
    /// VCO is propagated exactly, one segment per sample interval.
    pub substeps: usize,
    /// RMS white jitter added to each reference edge (seconds); 0
    /// disables the noise source.
    pub ref_jitter_rms: f64,
    /// One-sided PSD of white VCO **frequency** noise, in Hz²/Hz
    /// (white FM — the free-running oscillator's 1/f² phase noise).
    /// Implemented as an independent frequency offset per propagation
    /// segment with variance `S/(2h)`, which makes the accumulated VCO
    /// phase a Brownian motion of rate `S/2` cycles²/s.
    pub vco_fm_psd: f64,
    /// Seed for the jitter generator (deterministic runs).
    pub jitter_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            samples_per_ref: 32,
            substeps: 4,
            ref_jitter_rms: 0.0,
            vco_fm_psd: 0.0,
            jitter_seed: 0x5eed,
        }
    }
}

/// Uniformly sampled simulation record.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Sample interval (s).
    pub dt: f64,
    /// Time of the first sample (s).
    pub t0: f64,
    /// Reference phase modulation `θ_ref(t)` at the samples (time units).
    pub theta_ref: Vec<f64>,
    /// Divided-VCO phase `θ(t)` at the samples (time units).
    pub theta_vco: Vec<f64>,
    /// Loop-filter output (VCO control) voltage at the samples.
    pub v_ctrl: Vec<f64>,
}

impl Trace {
    /// Sample times of the record.
    pub fn times(&self) -> Vec<f64> {
        (0..self.theta_vco.len())
            .map(|k| self.t0 + k as f64 * self.dt)
            .collect()
    }

    /// Least-squares removal of mean and linear trend from `θ` —
    /// needed before spectral analysis of fractional-N records, where
    /// integer-divider-referenced `θ` ramps at `frac/N`.
    pub fn detrended_theta(&self) -> Vec<f64> {
        let n = self.theta_vco.len() as f64;
        let tbar = (n - 1.0) / 2.0;
        let ybar = self.theta_vco.iter().sum::<f64>() / n;
        let (mut sxy, mut sxx) = (0.0, 0.0);
        for (k, y) in self.theta_vco.iter().enumerate() {
            let x = k as f64 - tbar;
            sxy += x * (y - ybar);
            sxx += x * x;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        self.theta_vco
            .iter()
            .enumerate()
            .map(|(k, y)| y - ybar - slope * (k as f64 - tbar))
            .collect()
    }
}

/// The behavioral PLL simulator.
#[derive(Debug, Clone)]
pub struct PllSim {
    params: SimParams,
    config: SimConfig,
    filter: StateSpace,
    pfd: TriStatePfd,
    /// Current simulation time (s).
    t: f64,
    /// VCO phase in cycles (of the undivided VCO).
    phi: f64,
    /// Index of the next reference edge.
    next_ref_index: u64,
    /// VCO cycle count at which the next divided edge fires.
    next_div_cycles: f64,
    rng: Rng,
    /// Jitter of the upcoming reference edge (drawn once per edge).
    pending_jitter: f64,
    /// Time of the upcoming reference edge under the current run's
    /// modulation: solved when a run starts and after each edge fires,
    /// the only points where its inputs change.
    next_ref: f64,
    /// Current VCO frequency-noise offset (Hz), redrawn per segment.
    fm_noise: f64,
    /// Absolute time of a scheduled delayed PFD reset, if any.
    pending_reset: Option<f64>,
    /// Time the UP flip-flop last went high (dead-zone bookkeeping).
    up_since: Option<f64>,
    /// Time the DOWN flip-flop last went high.
    down_since: Option<f64>,
    /// Count of divided edges fired (indexes the divider sequence).
    div_edge_index: usize,
    /// How the loop moves between events.
    stepper: Stepper,
    /// Event-loop work space, `[y | stepper scratch]`: the segment's
    /// end state `[x…, ΔΦ]` (length `filter order + 1`) and the
    /// propagator's or [`rk4_step`]'s scratch.
    scratch: Vec<f64>,
}

/// How [`PllSim`] propagates the loop between events.
#[derive(Debug, Clone)]
enum Stepper {
    /// Time-invariant VCO: the loop is linear between events and is
    /// propagated exactly, with no substeps.
    Exact(Propagator),
    /// VCO with an impulse sensitivity function: `Φ̇` depends on
    /// `cos(2πkΦ)`, so segments are single RK4 steps of at most
    /// `max_segment` (`dt / substeps`).
    Rk4 {
        /// Longest segment (s).
        max_segment: f64,
    },
}

/// Iterations (Newton or bisection steps) after which [`edge_time`]
/// stops and returns its bracket's upper end, where `ΔΦ ≥ target`.
const MAX_EDGE_ITERATIONS: usize = 60;

/// Time `τ ∈ [0, h]` at which a segment's phase increment reaches
/// `target`, given that it is `at_end ≥ target` at `h` (and zero at 0).
///
/// `eval(τ)` propagates the segment to `τ` and returns `(ΔΦ(τ), Φ̇(τ))`.
/// The iteration starts from the chord, keeps a bracket around the
/// crossing, and takes the Newton step `τ − (ΔΦ − target)/Φ̇` unless it
/// leaves the bracket, in which case it bisects. It stops once a step is
/// shorter than `tol`. The last `eval` call is at the returned time, so
/// the caller's propagated state belongs to it.
fn edge_time(
    h: f64,
    target: f64,
    at_end: f64,
    tol: f64,
    mut eval: impl FnMut(f64) -> (f64, f64),
) -> f64 {
    if target <= 0.0 {
        eval(0.0);
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0, h);
    let mut tau = h * (target / at_end);
    for _ in 0..MAX_EDGE_ITERATIONS {
        let (dphi, rate) = eval(tau);
        let f = dphi - target;
        if f >= 0.0 {
            hi = tau;
        } else {
            lo = tau;
        }
        let mut next = tau - f / rate;
        if !(next > lo && next < hi) {
            next = 0.5 * (lo + hi);
        }
        if f == 0.0 || (next - tau).abs() <= tol {
            return tau;
        }
        tau = next;
    }
    eval(hi);
    hi
}

impl PllSim {
    /// Creates a simulator starting in perfect lock at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters or configuration.
    pub fn new(params: SimParams, config: SimConfig) -> PllSim {
        assert!(params.t_ref > 0.0, "reference period must be positive");
        assert!(params.kvco > 0.0, "VCO gain must be positive");
        assert!(params.divider >= 1.0, "divider must be at least 1");
        assert!(params.f_center > 0.0, "center frequency must be positive");
        assert!(
            config.samples_per_ref > 0,
            "need at least one sample per period"
        );
        assert!(config.substeps > 0, "need at least one substep");
        let filter = StateSpace::from_tf(&params.filter);
        let pfd = TriStatePfd::new(params.i_cp);
        let mut rng = Rng::seed_from_u64(config.jitter_seed);
        let pending_jitter = draw_jitter(&mut rng, config.ref_jitter_rms);
        let divider = params.divider;
        let dt = params.t_ref / config.samples_per_ref as f64;
        let rows = filter.order() + 1;
        let (stepper, work) = if params.isf_cosine.is_empty() {
            let gain = params.kvco / (2.0 * std::f64::consts::PI);
            let p = Propagator::new(&filter, gain, dt);
            (Stepper::Exact(p), Propagator::SCRATCH_PER_ROW)
        } else {
            let max_segment = dt / config.substeps as f64;
            (Stepper::Rk4 { max_segment }, RK4_SCRATCH_PER_STATE)
        };
        let scratch = vec![0.0; (1 + work) * rows];
        PllSim {
            params,
            config,
            filter,
            pfd,
            t: 0.0,
            phi: 0.0,
            next_ref_index: 1,
            // First divided edge after N VCO cycles, aligned with the
            // first reference edge at t = T.
            next_div_cycles: divider,
            rng,
            pending_jitter,
            // Solved against the modulation at the start of each run.
            next_ref: f64::INFINITY,
            fm_noise: 0.0,
            pending_reset: None,
            up_since: None,
            down_since: None,
            div_edge_index: 0,
            stepper,
            scratch,
        }
    }

    /// The physical parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Divided-VCO phase deviation `θ(t)` in time units:
    /// `θ = Φ·T/N − t` (zero while perfectly locked and aligned).
    pub fn theta_vco(&self) -> f64 {
        self.phi * self.params.t_ref / self.params.divider - self.t
    }

    /// Instantaneous loop-filter input current including charge-pump
    /// mismatch and leakage (UP and DOWN branches summed separately so
    /// the reset-delay overlap interval carries the mismatch current).
    fn filter_current(&self) -> f64 {
        let dz = self.params.dead_zone;
        let conducting = |high: bool, since: Option<f64>| {
            high && since.is_some_and(|t0| self.t - t0 >= dz - 1e-300)
        };
        let up = if conducting(self.pfd.up(), self.up_since) {
            self.params.i_cp * (1.0 + self.params.cp_mismatch)
        } else {
            0.0
        };
        let down = if conducting(self.pfd.down(), self.down_since) {
            self.params.i_cp
        } else {
            0.0
        };
        up - down + self.params.leakage
    }

    /// Next time a currently-high flip-flop crosses its dead-zone
    /// turn-on boundary (a current discontinuity the integrator must
    /// not step across).
    fn next_turn_on(&self) -> f64 {
        let dz = self.params.dead_zone;
        if dz == 0.0 {
            return f64::INFINITY;
        }
        let mut next = f64::INFINITY;
        if self.pfd.up() {
            if let Some(t0) = self.up_since {
                if self.t < t0 + dz {
                    next = next.min(t0 + dz);
                }
            }
        }
        if self.pfd.down() {
            if let Some(t0) = self.down_since {
                if self.t < t0 + dz {
                    next = next.min(t0 + dz);
                }
            }
        }
        next
    }

    /// Routes a PFD edge through the delayed-reset logic, keeping the
    /// dead-zone turn-on timestamps current.
    fn pfd_edge(&mut self, is_ref: bool) {
        if is_ref {
            htmpll_obs::counter!("sim", "pfd.ref_edges").inc();
        } else {
            htmpll_obs::counter!("sim", "pfd.div_edges").inc();
        }
        let (up_before, down_before) = (self.pfd.up(), self.pfd.down());
        if self.params.reset_delay > 0.0 {
            if is_ref {
                self.pfd.set_up();
            } else {
                self.pfd.set_down();
            }
            if self.pfd.up() && self.pfd.down() && self.pending_reset.is_none() {
                self.pending_reset = Some(self.t + self.params.reset_delay);
            }
        } else if is_ref {
            self.pfd.ref_edge();
        } else {
            self.pfd.vco_edge();
        }
        // Rising edges start the turn-on clocks; falling edges clear them.
        if self.pfd.up() && !up_before {
            self.up_since = Some(self.t);
        }
        if self.pfd.down() && !down_before {
            self.down_since = Some(self.t);
        }
        if !self.pfd.up() {
            self.up_since = None;
        }
        if !self.pfd.down() {
            self.down_since = None;
        }
    }

    /// Instantaneous VCO control voltage.
    pub fn v_ctrl(&self) -> f64 {
        self.filter.output(self.filter_current())
    }

    /// Detunes the VCO center frequency by a fractional offset (for lock
    /// acquisition studies).
    pub fn detune(&mut self, fractional_offset: f64) {
        self.params.f_center *= 1.0 + fractional_offset;
    }

    /// Time of reference edge `k` under modulation `θ_ref`: solves
    /// `t + θ_ref(t) = k·T` by fixed-point iteration (converges because
    /// `|θ_ref′| ≪ 1` for small-signal modulation), plus per-edge jitter.
    fn ref_edge_time(&self, k: u64, modulation: &dyn Fn(f64) -> f64) -> f64 {
        let target = k as f64 * self.params.t_ref;
        let mut t = target - modulation(target);
        for _ in 0..8 {
            t = target - modulation(t);
        }
        t + self.pending_jitter
    }

    /// `Φ̇` of the ISF VCO at filter state `x` and phase
    /// `self.phi + dphi`, with pump current `i` and rate offset `c`.
    fn isf_phase_rate(&self, x: &[f64], dphi: f64, i: f64, c: f64) -> f64 {
        let v = self.filter.eval_output(x, i);
        // Time-varying sensitivity: gain modulated over the VCO cycle.
        let phi = self.phi + dphi; // VCO phase in cycles
        let mut gain = 1.0;
        for (k, &a) in self.params.isf_cosine.iter().enumerate() {
            gain += a * (2.0 * std::f64::consts::PI * (k + 1) as f64 * phi).cos();
        }
        c + self.params.kvco * gain / (2.0 * std::f64::consts::PI) * v
    }

    /// Propagates the loop from the current state over `h` with pump
    /// current `i` and VCO rate offset `c` (`f_center` plus the white-FM
    /// draw), writing `[x(h)…, ΔΦ(h)]` to `y`. `whole` marks a segment
    /// spanning one whole sample interval.
    fn propagate(&self, h: f64, whole: bool, i: f64, c: f64, y: &mut [f64], work: &mut [f64]) {
        let x0 = self.filter.state();
        let n = x0.len();
        match &self.stepper {
            Stepper::Exact(p) if whole => p.whole_step(x0, i, c, y),
            Stepper::Exact(p) => p.step(h, x0, i, c, y, work),
            Stepper::Rk4 { .. } => {
                y[..n].copy_from_slice(x0);
                y[n] = 0.0;
                rk4_step(y, h, work, |z, out| {
                    self.filter.eval_deriv(&z[..n], i, &mut out[..n]);
                    out[n] = self.isf_phase_rate(&z[..n], z[n], i, c);
                });
            }
        }
    }

    /// `Φ̇` at the end state `y = [x…, ΔΦ]` of a segment that
    /// [`propagate`](PllSim::propagate) moved with `i` and `c`.
    fn phase_rate(&self, y: &[f64], i: f64, c: f64) -> f64 {
        let n = y.len() - 1;
        match &self.stepper {
            Stepper::Exact(p) => p.phase_rate(&y[..n], i, c),
            Stepper::Rk4 { .. } => self.isf_phase_rate(&y[..n], y[n], i, c),
        }
    }

    /// Advances exactly to `t_target`, firing PFD events on the way, and
    /// returns the number of propagation segments. Expects `next_ref` to
    /// be solved under `modulation`.
    fn advance_to(&mut self, t_target: f64, modulation: &dyn Fn(f64) -> f64) -> u64 {
        // A whole sample interval is one exact segment; RK4 substeps it.
        let max_segment = match self.stepper {
            Stepper::Exact(_) => f64::INFINITY,
            Stepper::Rk4 { max_segment } => max_segment,
        };
        let time_eps = 1e-13 * self.params.t_ref;
        let mut guard = 0usize;
        let guard_max = 1000 * (((t_target - self.t) / max_segment).abs() as usize + 10);
        let mut segments = 0u64;
        // Moved out for the loop so the propagation can borrow `self`;
        // moving a `Vec` does not allocate.
        let mut scratch = std::mem::take(&mut self.scratch);
        let nf = self.filter.order();
        let (y, work) = scratch.split_at_mut(nf + 1);
        let t_start = self.t;
        while self.t < t_target - time_eps {
            guard += 1;
            assert!(guard < guard_max, "event loop failed to make progress");
            let next_ref = self.next_ref;
            let next_reset = self.pending_reset.unwrap_or(f64::INFINITY);
            let seg_end = (self.t + max_segment)
                .min(t_target)
                .min(next_ref)
                .min(next_reset)
                .min(self.next_turn_on());
            let h = seg_end - self.t;
            if h <= time_eps {
                // We are sitting on an event: fire it.
                if (next_reset - self.t).abs() <= 2.0 * time_eps || next_reset <= self.t {
                    self.pfd.reset();
                    self.pending_reset = None;
                    self.up_since = None;
                    self.down_since = None;
                    continue;
                }
                if (self.next_turn_on() - self.t).abs() <= 2.0 * time_eps {
                    // Current discontinuity only: step past it.
                    self.t += time_eps;
                    continue;
                }
                if (next_ref - self.t).abs() <= 2.0 * time_eps.max(1e-300) || next_ref <= self.t {
                    self.fire_ref_edge(modulation);
                    continue;
                }
                self.t = seg_end;
                continue;
            }
            // Fresh white-FM draw for this segment: variance S/(2h)
            // makes the integrated phase Brownian with rate S/2,
            // independent of how events split the grid.
            if self.config.vco_fm_psd > 0.0 {
                let sigma = (self.config.vco_fm_psd / (2.0 * h)).sqrt();
                self.fm_noise = sigma * draw_gaussian(&mut self.rng);
            }
            let i_now = self.filter_current();
            let c = self.params.f_center + self.fm_noise;
            segments += 1;
            // A segment no event cut short is one whole sample interval.
            let whole = self.t == t_start && seg_end == t_target;
            self.propagate(h, whole, i_now, c, y, work);
            let to_edge = self.next_div_cycles - self.phi;
            if y[nf] >= to_edge {
                // Divided-VCO edge inside the segment.
                let tau = edge_time(h, to_edge, y[nf], 1e-3 * time_eps, |tau| {
                    self.propagate(tau, false, i_now, c, y, work);
                    (y[nf], self.phase_rate(y, i_now, c))
                });
                self.filter.set_state(&y[..nf]);
                self.phi = self.next_div_cycles; // pin against drift
                self.t += tau;
                self.pfd_edge(false);
                let offset = match &self.params.div_sequence {
                    Some(seq) if !seq.is_empty() => seq[self.div_edge_index % seq.len()] as f64,
                    _ => 0.0,
                };
                self.div_edge_index += 1;
                self.next_div_cycles += self.params.divider + offset;
            } else {
                self.filter.set_state(&y[..nf]);
                self.phi += y[nf];
                self.t += h;
                if (self.t - next_ref).abs() <= time_eps {
                    self.fire_ref_edge(modulation);
                }
            }
        }
        self.scratch = scratch;
        self.t = t_target;
        segments
    }

    fn fire_ref_edge(&mut self, modulation: &dyn Fn(f64) -> f64) {
        self.pfd_edge(true);
        self.next_ref_index += 1;
        self.pending_jitter = draw_jitter(&mut self.rng, self.config.ref_jitter_rms);
        self.next_ref = self.ref_edge_time(self.next_ref_index, modulation);
    }

    /// Runs for `duration` seconds under the reference phase modulation
    /// `θ_ref(t)` (time units, absolute time argument), returning the
    /// uniformly sampled trace. Repeated calls continue from the current
    /// state, so a settle run can precede a measurement run.
    ///
    /// # Panics
    ///
    /// Panics when `duration <= 0`.
    pub fn run(&mut self, duration: f64, modulation: &dyn Fn(f64) -> f64) -> Trace {
        assert!(duration > 0.0, "duration must be positive");
        let _span = htmpll_obs::span_labeled("sim", "engine.run", || {
            format!("periods={:.0}", duration / self.params.t_ref)
        });
        let dt = self.params.t_ref / self.config.samples_per_ref as f64;
        let n = (duration / dt).round() as usize;
        let t0 = self.t;
        let mut theta_ref = Vec::with_capacity(n);
        let mut theta_vco = Vec::with_capacity(n);
        let mut v_ctrl = Vec::with_capacity(n);
        // The modulation may differ from the previous run's.
        self.next_ref = self.ref_edge_time(self.next_ref_index, modulation);
        let mut segments = 0;
        for k in 1..=n {
            segments += self.advance_to(t0 + k as f64 * dt, modulation);
            theta_ref.push(modulation(self.t));
            theta_vco.push(self.theta_vco());
            v_ctrl.push(self.v_ctrl());
        }
        htmpll_obs::counter!("sim", "engine.segments").add(segments);
        Trace {
            dt,
            t0: t0 + dt,
            theta_ref,
            theta_vco,
            v_ctrl,
        }
    }
}

fn draw_jitter(rng: &mut Rng, rms: f64) -> f64 {
    if rms == 0.0 {
        return 0.0;
    }
    rms * draw_gaussian(rng)
}

/// Standard normal sample by Box–Muller.
fn draw_gaussian(rng: &mut Rng) -> f64 {
    rng.gaussian()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll_core::PllDesign;

    fn reference_sim(ratio: f64) -> PllSim {
        let d = PllDesign::reference_design(ratio).unwrap();
        PllSim::new(SimParams::from_design(&d), SimConfig::default())
    }

    #[test]
    fn newton_edge_time_matches_bisection_on_the_propagator() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let params = SimParams::from_design(&d);
        let t_ref = params.t_ref;
        let ss = StateSpace::from_tf(&params.filter);
        let dt = t_ref / 32.0;
        let p = Propagator::new(&ss, params.kvco / (2.0 * std::f64::consts::PI), dt);
        // Mid-pulse: pump on, filter charged, so Φ̇ drifts over the
        // segment and the phase is not a straight line.
        let (x, i, c) = ([0.02, -0.5], params.i_cp, params.f_center);
        let mut y = [0.0; 3];
        let mut scratch = [0.0; 3 * Propagator::SCRATCH_PER_ROW];
        let mut dphi = |tau: f64, y: &mut [f64; 3]| {
            p.step(tau, &x, i, c, y, &mut scratch);
            y[2]
        };
        let at_end = dphi(dt, &mut y);
        let tol = 1e-16 * t_ref;
        for frac in [1e-6, 0.013, 0.37, 0.5, 0.91, 1.0] {
            let target = frac * at_end;
            let mut evals = 0;
            let tau = edge_time(dt, target, at_end, tol, |tau| {
                evals += 1;
                let v = dphi(tau, &mut y);
                (v, p.phase_rate(&y[..2], i, c))
            });
            let (mut lo, mut hi) = (0.0, dt);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if dphi(mid, &mut y) >= target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            assert!(
                (tau - hi).abs() <= 1e-13 * t_ref,
                "target {frac}: Newton {tau} vs bisection {hi}"
            );
            assert!(evals <= 4, "target {frac}: {evals} evaluations");
        }
    }

    #[test]
    fn stays_locked_without_stimulus() {
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        let trace = sim.run(100.0 * t_ref, &|_| 0.0);
        for th in &trace.theta_vco {
            assert!(th.abs() < 1e-9 * t_ref, "drifted: {th}");
        }
        for v in &trace.v_ctrl {
            assert!(v.abs() < 1e-9, "control moved: {v}");
        }
    }

    #[test]
    fn tracks_static_phase_step() {
        // A constant θ_ref offset must be tracked to zero steady-state
        // error (type-2 loop).
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        let step = 0.01 * t_ref;
        let trace = sim.run(400.0 * t_ref, &move |_| step);
        let tail = &trace.theta_vco[trace.theta_vco.len() - 20..];
        for th in tail {
            assert!(
                (th - step).abs() < 0.05 * step,
                "steady-state error: {} vs {step}",
                th
            );
        }
    }

    #[test]
    fn tracks_frequency_step_type2() {
        // A reference frequency offset = ramp in θ_ref; a type-2 loop
        // tracks it with zero steady-state *phase* error.
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        let slope = 1e-4; // dθ_ref/dt (dimensionless frequency offset)
        let trace = sim.run(600.0 * t_ref, &move |t| slope * t);
        let last_t = trace.t0 + (trace.theta_vco.len() - 1) as f64 * trace.dt;
        let expect = slope * last_t;
        let got = *trace.theta_vco.last().unwrap();
        assert!(
            (got - expect).abs() < 0.05 * expect.abs(),
            "{got} vs {expect}"
        );
    }

    #[test]
    fn sinusoidal_modulation_produces_response_at_same_frequency() {
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        let w_m = 0.5; // rad/s, well inside the loop bandwidth (ω_UG = 1)
        let amp = 1e-3 * t_ref;
        let modulation = move |t: f64| amp * (w_m * t).sin();
        // Settle, then measure.
        let _ = sim.run(400.0 * t_ref, &modulation);
        let trace = sim.run(800.0 * t_ref, &modulation);
        let peak = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        // In-band modulation is tracked: output amplitude ≈ input.
        assert!(peak > 0.8 * amp && peak < 1.6 * amp, "peak {peak} vs {amp}");
    }

    #[test]
    fn trace_shape() {
        let mut sim = reference_sim(0.2);
        let t_ref = sim.params().t_ref;
        let trace = sim.run(10.0 * t_ref, &|_| 0.0);
        assert_eq!(trace.theta_ref.len(), trace.theta_vco.len());
        assert_eq!(trace.theta_ref.len(), trace.v_ctrl.len());
        assert_eq!(trace.theta_ref.len(), 10 * 32);
        assert!((trace.dt - t_ref / 32.0).abs() < 1e-15);
    }

    #[test]
    fn jitter_source_injects_noise() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let cfg = SimConfig {
            ref_jitter_rms: 1e-4,
            ..SimConfig::default()
        };
        let mut sim = PllSim::new(SimParams::from_design(&d), cfg);
        let t_ref = sim.params().t_ref;
        let trace = sim.run(300.0 * t_ref, &|_| 0.0);
        let rms = (trace.theta_vco.iter().map(|v| v * v).sum::<f64>()
            / trace.theta_vco.len() as f64)
            .sqrt();
        assert!(rms > 1e-6, "jitter should propagate, rms {rms}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let cfg = SimConfig {
            ref_jitter_rms: 1e-4,
            ..SimConfig::default()
        };
        let run = || {
            let mut s = PllSim::new(SimParams::from_design(&d), cfg);
            s.run(50.0 * s.params().t_ref, &|_| 0.0).theta_vco
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn leakage_creates_static_phase_offset() {
        // In lock the pump cancels the leakage once per period with a
        // pulse of width |θ|: θ_static ≈ −I_leak·T/I_cp.
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.leakage = 1e-4 * params.i_cp;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let t_ref = params.t_ref;
        let trace = sim.run(2000.0 * t_ref, &|_| 0.0);
        let expect = params.leakage * t_ref / params.i_cp;
        let got = *trace.theta_vco.last().unwrap();
        assert!(
            (got - expect).abs() < 0.2 * expect.abs(),
            "{got} vs {expect}"
        );
    }

    #[test]
    fn leakage_produces_reference_spur() {
        // The once-per-period correction pulse is a periodic
        // disturbance: the output phase spectrum grows a line at f_ref.
        use htmpll_spectral::{periodogram, Window};
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.leakage = 5e-3 * params.i_cp;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let t_ref = params.t_ref;
        let _ = sim.run(500.0 * t_ref, &|_| 0.0);
        let trace = sim.run(1024.0 * t_ref, &|_| 0.0);
        let fs = 1.0 / trace.dt;
        // Remove the static offset before the PSD.
        let mean = trace.theta_vco.iter().sum::<f64>() / trace.theta_vco.len() as f64;
        let centered: Vec<f64> = trace.theta_vco.iter().map(|v| v - mean).collect();
        let psd = periodogram(&centered, fs, Window::Hann).expect("psd");
        let f_ref = 1.0 / t_ref;
        let near = |f: f64| {
            psd.iter()
                .filter(|(ff, _)| (ff - f).abs() < 0.03 * f_ref)
                .map(|&(_, p)| p)
                .fold(0.0f64, f64::max)
        };
        let spur = near(f_ref);
        let floor = near(0.62 * f_ref).max(near(1.45 * f_ref));
        assert!(
            spur > 30.0 * floor,
            "spur {spur} should stand above floor {floor}"
        );
    }

    #[test]
    fn mismatch_keeps_lock_and_perturbs_response() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.cp_mismatch = 0.2;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let t_ref = params.t_ref;
        let trace = sim.run(500.0 * t_ref, &|t| 1e-3 * t_ref * (0.5 * t).sin());
        // Still locked (bounded error)...
        let peak = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak < 0.05 * t_ref, "{peak}");
    }

    #[test]
    fn reset_delay_alone_is_benign() {
        // With an ideal (matched) pump, the anti-dead-zone pulse adds
        // equal UP and DOWN charge: no static offset.
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.reset_delay = 0.02 * params.t_ref;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let trace = sim.run(1000.0 * params.t_ref, &|_| 0.0);
        let tail = *trace.theta_vco.last().unwrap();
        assert!(tail.abs() < 1e-3 * params.t_ref, "offset {tail}");
    }

    #[test]
    fn mismatch_with_reset_delay_creates_static_offset() {
        // Charge balance across the overlap window: the VCO must lead by
        // θ ≈ mismatch·delay/(1+mismatch)·… ≈ mismatch·delay to first
        // order, so the DOWN pulse outweighs the boosted UP pulse.
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.cp_mismatch = 0.2;
        params.reset_delay = 0.02 * params.t_ref;
        let mut sim = PllSim::new(params.clone(), SimConfig::default());
        let trace = sim.run(2000.0 * params.t_ref, &|_| 0.0);
        let got = *trace.theta_vco.last().unwrap();
        let expect = params.cp_mismatch * params.reset_delay;
        assert!(
            (got - expect).abs() < 0.25 * expect.abs(),
            "{got} vs {expect}"
        );
    }

    #[test]
    fn dead_zone_leaves_small_errors_uncorrected() {
        // A static reference offset smaller than the dead zone produces
        // pulses too narrow to conduct: the loop never pulls the error
        // in (the classic PFD dead-zone failure).
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        let t_ref = params.t_ref;
        params.dead_zone = 5e-3 * t_ref;
        let offset = 2e-3 * t_ref; // inside the dead zone
        let mut sim = PllSim::new(params, SimConfig::default());
        let trace = sim.run(600.0 * t_ref, &move |_| offset);
        let err = offset - *trace.theta_vco.last().unwrap();
        assert!(
            err.abs() > 0.5 * offset,
            "dead zone should leave most of the offset: residual {err}"
        );
    }

    #[test]
    fn reset_delay_cures_the_dead_zone() {
        // With an anti-dead-zone pulse (reset delay ≥ dead zone) both
        // sources conduct every cycle and linear correction returns.
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        let t_ref = params.t_ref;
        params.dead_zone = 5e-3 * t_ref;
        params.reset_delay = 1.5 * params.dead_zone;
        let offset = 2e-3 * t_ref;
        let mut sim = PllSim::new(params, SimConfig::default());
        let trace = sim.run(600.0 * t_ref, &move |_| offset);
        let err = offset - *trace.theta_vco.last().unwrap();
        assert!(
            err.abs() < 0.1 * offset,
            "anti-dead-zone pulse should restore tracking: residual {err}"
        );
    }

    #[test]
    fn trace_utilities() {
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        let trace = sim.run(20.0 * t_ref, &|t| 1e-4 * t); // ramp stimulus
        let times = trace.times();
        assert_eq!(times.len(), trace.theta_vco.len());
        assert!((times[1] - times[0] - trace.dt).abs() < 1e-15);
        // Detrending removes the tracked ramp.
        let det = trace.detrended_theta();
        let rms = (det.iter().map(|v| v * v).sum::<f64>() / det.len() as f64).sqrt();
        let raw_rms = (trace.theta_vco.iter().map(|v| v * v).sum::<f64>()
            / trace.theta_vco.len() as f64)
            .sqrt();
        assert!(rms < 0.3 * raw_rms, "{rms} vs {raw_rms}");
    }

    #[test]
    #[should_panic(expected = "reference period")]
    fn rejects_bad_period() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut p = SimParams::from_design(&d);
        p.t_ref = 0.0;
        let _ = PllSim::new(p, SimConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_zero_samples() {
        let d = PllDesign::reference_design(0.1).unwrap();
        let cfg = SimConfig {
            samples_per_ref: 0,
            ..SimConfig::default()
        };
        let _ = PllSim::new(SimParams::from_design(&d), cfg);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn rejects_nonpositive_duration() {
        let mut sim = reference_sim(0.1);
        let _ = sim.run(0.0, &|_| 0.0);
    }

    #[test]
    fn all_non_idealities_combined_stay_locked() {
        // Mismatch + leakage + reset delay + dead zone + TV ISF + jitter
        // + VCO noise, all at once: the event loop must stay consistent
        // and the loop must remain locked (bounded error).
        let d = PllDesign::reference_design(0.1).unwrap();
        let mut params = SimParams::from_design(&d);
        params.cp_mismatch = 0.1;
        params.leakage = 5e-4 * params.i_cp;
        params.reset_delay = 0.01 * params.t_ref;
        params.dead_zone = 0.004 * params.t_ref;
        params.isf_cosine = vec![0.3];
        let cfg = SimConfig {
            ref_jitter_rms: 5e-5 * params.t_ref,
            vco_fm_psd: 1e-9,
            ..SimConfig::default()
        };
        let t_ref = params.t_ref;
        let mut sim = PllSim::new(params, cfg);
        let trace = sim.run(800.0 * t_ref, &|t| 5e-4 * t_ref * (0.5 * t).sin());
        let peak = trace.theta_vco.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak < 0.1 * t_ref, "lost lock: peak {peak}");
        // And the state stays finite throughout.
        assert!(trace.v_ctrl.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn detune_shifts_control_voltage() {
        // After detuning, the locked loop must hold a control voltage
        // that cancels the offset: v = −Δω_free/K_vco-ish.
        let mut sim = reference_sim(0.1);
        let t_ref = sim.params().t_ref;
        sim.detune(1e-4);
        let trace = sim.run(2000.0 * t_ref, &|_| 0.0);
        let f_c = sim.params().f_center;
        let expect = -(1e-4 / (1.0 + 1e-4)) * f_c * 2.0 * std::f64::consts::PI / sim.params().kvco;
        let v_tail = *trace.v_ctrl.last().unwrap();
        assert!(
            (v_tail - expect).abs() < 0.05 * expect.abs(),
            "{v_tail} vs {expect}"
        );
    }
}
