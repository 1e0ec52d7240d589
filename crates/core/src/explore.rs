//! Streaming design-space exploration: seeded Monte-Carlo / Halton
//! candidate generation, a cheap closed-form screening cascade, and
//! deterministic streaming Pareto-front extraction.
//!
//! [`optimize_loop`](crate::optimize::optimize_loop) tunes one design;
//! [`explore`] sweeps 10⁵–10⁶ of them. Each candidate is a point in the
//! four-axis box (ω_UG/ω₀, zero/pole spread, charge-pump scale,
//! divider N); the explorer synthesizes the loop filter for every
//! point, screens it with a coarse closed-form λ(jω) margin scan, runs
//! the full [`analyze`] stage only on
//! survivors, and streams the results through a bounded Pareto front
//! over **(phase margin × bandwidth × peaking × spur level × lock
//! time)**. Memory stays flat: nothing is retained per candidate
//! beyond the front itself and per-block scratch.
//!
//! # Determinism contract
//!
//! The front is **bitwise identical for any thread count and any block
//! size** (as long as the front capacity is not exceeded — see
//! [`ExploreReport::pruned`]):
//!
//! * candidate `i`'s parameters are a pure function of `(seed, i)`
//!   ([`candidate_params`] — one [`Rng::for_stream`] stream per index,
//!   or a seed-rotated Halton point in quasi mode);
//! * evaluation happens in fixed-size blocks of [`EXPLORE_BLOCK`]
//!   consecutive candidates, dispatched through
//!   [`par_map_cancellable`] which places results by block index;
//! * each block keeps its own bounded front (capacity ≥ block size, so
//!   per-block pruning never occurs) and the blocks merge
//!   **sequentially in index order**, which makes the global insertion
//!   sequence "ascending candidate index" regardless of which worker
//!   evaluated which block.
//!
//! A point dropped inside a block was dominated by another point of
//! the same block and would have been rejected (or later removed) by
//! the identical global insertion sequence, so per-block filtering
//! never changes the merged outcome.
//!
//! ```
//! use htmpll_core::explore::{explore, ExploreSpec};
//! use htmpll_par::Deadline;
//!
//! let spec = ExploreSpec {
//!     candidates: 64,
//!     seed: 1,
//!     refine_rounds: 0,
//!     ..ExploreSpec::default()
//! };
//! let report = explore(&spec, &Deadline::none()).unwrap();
//! assert!(!report.front.is_empty());
//! // Every front member is feasible and non-dominated.
//! assert!(report.front.iter().all(|p| p.pm_eff_deg >= spec.min_pm_deg));
//! ```

use crate::analysis::analyze;
use crate::closed_loop::PllModel;
use crate::design::PllDesign;
use crate::error::CoreError;
use crate::quality::QualitySummary;
use crate::spurs::LeakageSpurs;
use htmpll_num::hash::Fnv1a;
use htmpll_num::rng::{radical_inverse, Rng};
use htmpll_par::{par_map_cancellable, Deadline, ThreadBudget};

/// Reference frequency shared by every candidate (Hz). The explorer
/// varies loop *shape*, not the reference: 10 MHz is the workhorse
/// crystal frequency of integer-N synthesizers.
pub const EXPLORE_F_REF: f64 = 10.0e6;

/// VCO gain shared by every candidate (rad/s per V): 100 MHz/V.
const KVCO: f64 = 2.0 * std::f64::consts::PI * 100.0e6;

/// Total loop-filter capacitance budget (F) handed to
/// [`PllDesign::synthesize`] — fixes the impedance level so the
/// synthesized charge-pump current stays in a realistic range.
const C_TOTAL: f64 = 1.0e-9;

/// Leakage current driving the reference-spur objective (A). Constant
/// **absolute** leakage, so designs that synthesize a small charge-pump
/// current pay a genuinely larger static phase offset (spurs trade
/// against the other objectives instead of cancelling out). 100 nA is
/// a pessimistic (leaky-switch) corner: it pushes first spurs into the
/// −60…−90 dBc band where a spur ceiling actually discriminates.
const I_LEAK: f64 = 1.0e-7;

/// Candidates per evaluation block. Fixed — never derived from the
/// thread count — so the block partition (and therefore the merge
/// order) is identical for 1 and N workers.
pub const EXPLORE_BLOCK: usize = 256;

/// Points in the coarse screening scan of `|λ(jω)|`.
const SCREEN_POINTS: usize = 32;

/// Phase-margin slack (degrees) below `min_pm_deg` that the coarse
/// screen still lets through to the full stage — the 32-point scan is
/// an estimate, and a false reject silently loses a feasible design
/// while a false accept merely costs one full analysis.
const SCREEN_SLACK_DEG: f64 = 6.0;

/// Candidate parameter ranges: ω_UG/ω₀ (log-uniform), zero/pole spread
/// (uniform), charge-pump scale (log-uniform), divider (log-uniform,
/// rounded to an integer). The box is deliberately wide — spreads down
/// to 1.5 (≈23° LTI margin) and charge pumps detuned ±4× from the
/// synthesized value — because exploration earns its keep exactly
/// where most of the space is junk and the screen discards it cheaply.
const RATIO_RANGE: (f64, f64) = (0.02, 0.45);
const SPREAD_RANGE: (f64, f64) = (1.5, 8.0);
const ICP_SCALE_RANGE: (f64, f64) = (0.25, 4.0);
const DIVIDER_RANGE: (f64, f64) = (8.0, 512.0);

/// One point in the four-axis candidate space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignParams {
    /// Target crossover as a fraction of the reference: `ω_UG/ω₀`.
    pub ratio: f64,
    /// Zero/pole spread of the synthesized filter (zero at
    /// `ω_UG/spread`, pole at `spread·ω_UG`).
    pub spread: f64,
    /// Multiplier on the synthesized charge-pump current — detunes the
    /// loop away from its designed crossover.
    pub icp_scale: f64,
    /// Feedback divider N (integer-valued, stored as `f64`).
    pub divider: f64,
}

impl DesignParams {
    /// Canonical identity of the point: the IEEE-754 bit patterns of
    /// its four coordinates. Used for deduplication, canonical front
    /// ordering, and the report digest.
    pub fn key(&self) -> [u64; 4] {
        [
            self.ratio.to_bits(),
            self.spread.to_bits(),
            self.icp_scale.to_bits(),
            self.divider.to_bits(),
        ]
    }
}

/// A feasible design together with its five Pareto objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Where in the candidate space this design lives.
    pub params: DesignParams,
    /// Effective (time-varying) phase margin in degrees — maximize.
    pub pm_eff_deg: f64,
    /// Closed-loop −3 dB bandwidth in rad/s (0 when no −3 dB point was
    /// found in the scan window) — maximize.
    pub bandwidth_3db: f64,
    /// Closed-loop passband peaking in dB — minimize.
    pub peaking_db: f64,
    /// First reference spur in dBc at the synthesizer output under the
    /// fixed leakage current — minimize.
    pub spur_dbc: f64,
    /// Second-order settling estimate `4/(ζ·ω_UG,eff)` with
    /// `ζ ≈ PM°/100`, in seconds — minimize.
    pub lock_time_s: f64,
}

impl DesignPoint {
    /// `true` when `self` is at least as good as `other` in every
    /// objective and strictly better in at least one.
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let ge = self.pm_eff_deg >= other.pm_eff_deg
            && self.bandwidth_3db >= other.bandwidth_3db
            && self.peaking_db <= other.peaking_db
            && self.spur_dbc <= other.spur_dbc
            && self.lock_time_s <= other.lock_time_s;
        let strict = self.pm_eff_deg > other.pm_eff_deg
            || self.bandwidth_3db > other.bandwidth_3db
            || self.peaking_db < other.peaking_db
            || self.spur_dbc < other.spur_dbc
            || self.lock_time_s < other.lock_time_s;
        ge && strict
    }

    /// Fixed scalarization used **only** to pick a victim when the
    /// front exceeds its capacity: a weighted sum over the five
    /// objectives that depends on nothing but the point itself, so the
    /// pruning decision is reproducible. Not a quality metric.
    fn prune_score(&self) -> f64 {
        self.pm_eff_deg / 60.0 + (self.bandwidth_3db.max(1.0)).log10() / 8.0
            - self.peaking_db / 12.0
            - (self.spur_dbc + 120.0) / 120.0
            - (self.lock_time_s.max(1e-12)).log10() / 8.0
    }
}

/// A bounded streaming Pareto front.
///
/// Insertion keeps the set mutually non-dominated; when the capacity
/// is exceeded the point with the lowest fixed prune score (a weighted
/// sum over the five objectives) is evicted (counted in
/// [`ParetoFront::pruned`]). With pruning never triggered, the final
/// *set* is invariant to insertion order; the stored order is the
/// insertion order of the surviving points.
#[derive(Debug, Clone)]
pub struct ParetoFront {
    cap: usize,
    points: Vec<DesignPoint>,
    /// Non-dominated points evicted because the front was full.
    pub pruned: usize,
}

impl ParetoFront {
    /// An empty front holding at most `cap` points (`cap ≥ 1`).
    pub fn new(cap: usize) -> ParetoFront {
        ParetoFront {
            cap: cap.max(1),
            points: Vec::new(),
            pruned: 0,
        }
    }

    /// Offers a point; returns `true` when it joined the front.
    pub fn insert(&mut self, p: DesignPoint) -> bool {
        if self
            .points
            .iter()
            .any(|q| q.dominates(&p) || q.params.key() == p.params.key())
        {
            return false;
        }
        self.points.retain(|q| !p.dominates(q));
        self.points.push(p);
        if self.points.len() > self.cap {
            // Deterministic eviction: worst fixed scalar score, ties
            // broken by the canonical parameter key.
            let victim = self
                .points
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.prune_score()
                        .total_cmp(&b.prune_score())
                        .then_with(|| a.params.key().cmp(&b.params.key()))
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.points.remove(victim);
            self.pruned += 1;
        }
        true
    }

    /// Merges `other` into `self`, preserving `other`'s stored order.
    pub fn merge(&mut self, other: &ParetoFront) {
        for p in &other.points {
            self.insert(*p);
        }
        self.pruned += other.pruned;
    }

    /// The current front members, in insertion order.
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// Consumes the front into a canonically ordered vector (sorted by
    /// the parameter bit patterns), the order every report exposes.
    pub fn into_sorted(mut self) -> Vec<DesignPoint> {
        self.points.sort_by_key(|p| p.params.key());
        self.points
    }
}

/// What to explore and how hard.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Monte-Carlo / Halton candidates in the initial round.
    pub candidates: usize,
    /// Seed of the deterministic candidate stream.
    pub seed: u64,
    /// Feasibility floor: designs with an effective phase margin below
    /// this (degrees) never enter the front.
    pub min_pm_deg: f64,
    /// Feasibility ceiling on the first reference spur (dBc): designs
    /// above it never enter the front. The spur is closed-form, so the
    /// screen enforces this **exactly** (no slack) at the cost of a
    /// single open-loop evaluation.
    pub max_spur_dbc: f64,
    /// Capacity of the merged front.
    pub front_cap: usize,
    /// Adaptive grid-refinement rounds around the front (0 disables).
    pub refine_rounds: usize,
    /// Run the coarse λ screen before the full analysis stage. `false`
    /// sends every candidate through the full stage (the baseline the
    /// screening speedup is measured against).
    pub screen: bool,
    /// Draw candidates from a seed-rotated Halton sequence instead of
    /// independent xoshiro streams: better space coverage at the same
    /// determinism.
    pub quasi: bool,
    /// Worker budget for the block dispatch.
    pub threads: ThreadBudget,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            candidates: 5000,
            seed: 1,
            min_pm_deg: 50.0,
            max_spur_dbc: -65.0,
            front_cap: 256,
            refine_rounds: 1,
            screen: true,
            quasi: false,
            threads: ThreadBudget::Auto,
        }
    }
}

/// Everything a finished exploration reports.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The Pareto front, canonically ordered by parameter bits.
    pub front: Vec<DesignPoint>,
    /// Candidates requested in the Monte-Carlo round.
    pub candidates: usize,
    /// Candidates actually evaluated (MC round; less than `candidates`
    /// only under deadline pressure).
    pub evaluated: usize,
    /// Refinement candidates evaluated on top of the MC round.
    pub refined: usize,
    /// Candidates rejected by the coarse closed-form screen.
    pub screened_out: usize,
    /// Candidates that reached the full analysis stage.
    pub full_analyses: usize,
    /// Full-stage candidates rejected as infeasible (unstable, beyond
    /// the sampling limit, or below the phase-margin floor).
    pub infeasible: usize,
    /// Candidates whose synthesis or analysis failed outright.
    pub failed: usize,
    /// Candidates skipped because the deadline expired.
    pub skipped: usize,
    /// Non-dominated points evicted by the front capacity; `0` means
    /// the front is exactly the non-dominated set of everything
    /// evaluated, invariant to evaluation order.
    pub pruned: usize,
    /// Numerical-quality roll-up of every full analysis that ran.
    pub quality: QualitySummary,
    /// Degradation steps taken under deadline pressure (empty on an
    /// unconstrained run).
    pub degradation: Vec<String>,
    /// FNV-1a digest over the canonical front (parameter and objective
    /// bits) — the determinism fingerprint CI pins.
    pub digest: String,
    /// Wall-clock time of the run in nanoseconds (not part of the
    /// digest).
    pub elapsed_ns: u64,
    /// Evaluated candidates per second of wall clock.
    pub designs_per_sec: f64,
}

/// The deterministic parameters of candidate `index` under `seed`.
///
/// Monte-Carlo mode keys one [`Rng::for_stream`] stream per index;
/// quasi mode uses a 4-D Halton point (bases 2/3/5/7) under a
/// seed-derived Cranley–Patterson rotation. Either way the result is a
/// pure function of `(seed, index, quasi)`.
pub fn candidate_params(seed: u64, index: u64, quasi: bool) -> DesignParams {
    let u = if quasi {
        let mut rot = Rng::for_stream(seed, u64::MAX);
        let mut u = [0.0; 4];
        for (dim, base) in [2u64, 3, 5, 7].into_iter().enumerate() {
            let v = radical_inverse(index + 1, base) + rot.uniform();
            u[dim] = v - v.floor();
        }
        u
    } else {
        let mut rng = Rng::for_stream(seed, index);
        [rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()]
    };
    let log_span = |u: f64, (lo, hi): (f64, f64)| (lo.ln() + u * (hi / lo).ln()).exp();
    DesignParams {
        ratio: log_span(u[0], RATIO_RANGE),
        spread: SPREAD_RANGE.0 + u[1] * (SPREAD_RANGE.1 - SPREAD_RANGE.0),
        icp_scale: log_span(u[2], ICP_SCALE_RANGE),
        divider: log_span(u[3], DIVIDER_RANGE).round(),
    }
}

/// Builds the physical design for a candidate point: synthesize the
/// loop filter for the target crossover, then rebuild with the scaled
/// charge-pump current (keeping the synthesized filter), which detunes
/// the true crossover and margin away from the design target.
///
/// # Errors
///
/// The synthesis or builder failure for an unrealizable point.
pub fn candidate_design(p: &DesignParams) -> Result<PllDesign, CoreError> {
    let omega_ug = p.ratio * 2.0 * std::f64::consts::PI * EXPLORE_F_REF;
    let base = PllDesign::synthesize(EXPLORE_F_REF, p.divider, KVCO, omega_ug, p.spread, C_TOTAL)?;
    if p.icp_scale == 1.0 {
        return Ok(base);
    }
    PllDesign::builder()
        .f_ref(EXPLORE_F_REF)
        .icp(base.icp() * p.icp_scale)
        .kvco(KVCO)
        .divider(p.divider)
        .filter(base.filter().clone())
        .build()
}

/// Per-block scratch: the screening scan reuses these buffers across
/// every candidate of one block (contents never carry information
/// between candidates — each screen overwrites them).
#[derive(Debug, Default)]
pub struct ExploreWorkspace {
    mag: Vec<f64>,
    phase: Vec<f64>,
}

/// Coarse closed-form screen: scan `|λ(jω)|` on `SCREEN_POINTS` (32) log
/// points across the first Nyquist band, estimate the unity crossing
/// and its phase margin by interpolation. Returns `false` (reject)
/// when the loop is beyond the sampling limit (no crossing), the
/// estimated margin is below `min_pm` minus `SCREEN_SLACK_DEG` (6°), or
/// the gain goes non-finite. `ws` is scratch.
pub fn screen_passes(
    model: &PllModel,
    p: &DesignParams,
    min_pm: f64,
    ws: &mut ExploreWorkspace,
) -> bool {
    let w0 = model.design().omega_ref();
    let wug = p.ratio * w0;
    let lo = wug / 16.0;
    let hi = 0.499_999 * w0;
    // NaN-safe rejection of a degenerate or inverted scan band.
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return false;
    }
    let axis = model.lambda().line(0.0);
    ws.mag.clear();
    ws.phase.clear();
    let step = (hi / lo).ln() / (SCREEN_POINTS - 1) as f64;
    for i in 0..SCREEN_POINTS {
        let w = (lo.ln() + i as f64 * step).exp();
        let v = axis.eval(w);
        if !(v.re.is_finite() && v.im.is_finite()) {
            return false;
        }
        ws.mag.push(v.abs());
        ws.phase.push(v.arg().to_degrees());
    }
    // First magnitude crossing of unity, scanning upward.
    let mut pm = None;
    if ws.mag[0] < 1.0 {
        // Already below unity at the bottom of the band: treat the
        // first point as the crossover estimate (very detuned loop —
        // let the full stage decide).
        pm = Some(180.0 + ws.phase[0]);
    } else {
        for i in 1..SCREEN_POINTS {
            if ws.mag[i] < 1.0 {
                // Interpolate the phase at the crossing in log-|λ|.
                let (m0, m1) = (ws.mag[i - 1].ln(), ws.mag[i].ln());
                let t = if m1 < m0 { m0 / (m0 - m1) } else { 0.5 };
                pm = Some(180.0 + ws.phase[i - 1] + t * (ws.phase[i] - ws.phase[i - 1]));
                break;
            }
        }
    }
    match pm {
        // |λ| ≥ 1 across the whole band: at/beyond the sampling limit.
        None => false,
        Some(pm) => pm.is_finite() && pm >= min_pm - SCREEN_SLACK_DEG,
    }
}

/// What one candidate contributed to a block.
enum Outcome {
    Point(DesignPoint),
    ScreenedOut,
    Infeasible,
    Failed,
    Deadline,
}

/// Full evaluation of one candidate: build, screen, analyze, reduce to
/// the five objectives.
fn evaluate(
    p: &DesignParams,
    spec: &ExploreSpec,
    deadline: &Deadline,
    ws: &mut ExploreWorkspace,
    quality: &mut QualitySummary,
) -> Outcome {
    let design = match candidate_design(p) {
        Ok(d) => d,
        Err(_) => return Outcome::Failed,
    };
    let model = match PllModel::builder(design).build() {
        Ok(m) => m,
        Err(_) => return Outcome::Failed,
    };
    // The spur ceiling is closed-form — one open-loop evaluation — so
    // the cascade checks it first and exactly: the full stage below
    // applies the identical test, which is what keeps the front
    // independent of whether the screen ran.
    let spur_dbc = LeakageSpurs::new(&model, I_LEAK).level_dbc(1);
    if !spur_dbc.is_finite() {
        return Outcome::Failed;
    }
    if spec.screen {
        if spur_dbc > spec.max_spur_dbc {
            return Outcome::ScreenedOut;
        }
        if !screen_passes(&model, p, spec.min_pm_deg, ws) {
            return Outcome::ScreenedOut;
        }
    }
    // Inner analysis always runs single-threaded: parallelism lives at
    // the block level, and a fixed inner budget keeps the per-candidate
    // arithmetic identical no matter how blocks land on workers.
    let report = match analyze(&model, ThreadBudget::Fixed(1), deadline) {
        Ok(r) => r,
        Err(CoreError::DeadlineExceeded { .. }) => return Outcome::Deadline,
        Err(_) => return Outcome::Failed,
    };
    quality.merge(&report.quality);
    if report.beyond_sampling_limit
        || !report.nyquist_stable
        || report.phase_margin_eff_deg < spec.min_pm_deg
        || spur_dbc > spec.max_spur_dbc
    {
        return Outcome::Infeasible;
    }
    let zeta = (report.phase_margin_eff_deg / 100.0).clamp(0.05, 1.2);
    let lock_time_s = 4.0 / (zeta * report.omega_ug_eff);
    let point = DesignPoint {
        params: *p,
        pm_eff_deg: report.phase_margin_eff_deg,
        bandwidth_3db: report.bandwidth_3db.unwrap_or(0.0),
        peaking_db: report.peaking_db,
        spur_dbc,
        lock_time_s,
    };
    let finite = point.pm_eff_deg.is_finite()
        && point.bandwidth_3db.is_finite()
        && point.peaking_db.is_finite()
        && point.spur_dbc.is_finite()
        && point.lock_time_s.is_finite();
    if finite {
        Outcome::Point(point)
    } else {
        Outcome::Failed
    }
}

/// A bounded front plus counters over a run of candidates: one per
/// evaluated block, and one for the whole exploration that the blocks
/// fold into in index order. A block's front capacity always covers
/// the whole block, so blocks never prune — all capacity pressure is
/// resolved in the deterministic sequential merge.
struct Tally {
    front: ParetoFront,
    evaluated: usize,
    screened_out: usize,
    full: usize,
    infeasible: usize,
    failed: usize,
    skipped: usize,
    quality: QualitySummary,
}

fn eval_block(
    params: impl ExactSizeIterator<Item = DesignParams>,
    spec: &ExploreSpec,
    deadline: &Deadline,
) -> Tally {
    let mut ws = ExploreWorkspace::default();
    let mut out = Tally::new(params.len().max(1));
    for p in params {
        if deadline.expired() {
            out.skipped += 1;
            continue;
        }
        match evaluate(&p, spec, deadline, &mut ws, &mut out.quality) {
            Outcome::Deadline => {
                out.skipped += 1;
                continue;
            }
            Outcome::ScreenedOut => out.screened_out += 1,
            Outcome::Infeasible => {
                out.full += 1;
                out.infeasible += 1;
            }
            Outcome::Failed => out.failed += 1,
            Outcome::Point(pt) => {
                out.full += 1;
                out.front.insert(pt);
            }
        }
        out.evaluated += 1;
    }
    out
}

impl Tally {
    fn new(cap: usize) -> Tally {
        Tally {
            front: ParetoFront::new(cap),
            evaluated: 0,
            screened_out: 0,
            full: 0,
            infeasible: 0,
            failed: 0,
            skipped: 0,
            quality: QualitySummary::default(),
        }
    }

    /// `total` is the number of candidates the (possibly skipped) block
    /// covered.
    fn absorb(&mut self, block: Option<Tally>, total: usize) {
        match block {
            None => self.skipped += total,
            Some(b) => {
                self.front.merge(&b.front);
                self.evaluated += b.evaluated;
                self.screened_out += b.screened_out;
                self.full += b.full;
                self.infeasible += b.infeasible;
                self.failed += b.failed;
                self.skipped += b.skipped;
                self.quality.merge(&b.quality);
            }
        }
    }
}

/// Runs `count` candidates, the `i`-th being `candidate(i)`, through
/// the block pipeline and folds the blocks into `tally` in index order.
/// Each block generates its own candidates inside the parallel map.
fn run_round(
    tally: &mut Tally,
    count: usize,
    candidate: impl Fn(usize) -> DesignParams + Sync,
    spec: &ExploreSpec,
    deadline: &Deadline,
) {
    let blocks: Vec<usize> = (0..count).step_by(EXPLORE_BLOCK).collect();
    let slots = par_map_cancellable(spec.threads, &blocks, deadline, |_, &start| {
        let end = (start + EXPLORE_BLOCK).min(count);
        eval_block((start..end).map(&candidate), spec, deadline)
    });
    for (slot, &start) in slots.into_iter().zip(&blocks) {
        tally.absorb(slot, EXPLORE_BLOCK.min(count - start));
    }
}

/// The refinement stencil around one front point for round `round`:
/// one step down and one step up per axis, with the step shrinking
/// geometrically each round.
fn stencil(p: &DesignParams, round: usize) -> [DesignParams; 8] {
    let rel = 0.15 / (1 << round) as f64;
    let clampr = |v: f64, (lo, hi): (f64, f64)| v.clamp(lo, hi);
    let mut out = [*p; 8];
    for (slot, dir) in [(0usize, 1.0 - rel), (1, 1.0 + rel)] {
        out[slot].ratio = clampr(p.ratio * dir, RATIO_RANGE);
        out[2 + slot].spread = clampr(
            p.spread + (dir - 1.0) * (SPREAD_RANGE.1 - SPREAD_RANGE.0),
            SPREAD_RANGE,
        );
        out[4 + slot].icp_scale = clampr(p.icp_scale * dir, ICP_SCALE_RANGE);
        out[6 + slot].divider = clampr((p.divider * dir).round(), DIVIDER_RANGE);
    }
    out
}

/// FNV-1a over the canonical front: every point contributes its four
/// parameter and five objective bit patterns.
fn front_digest(front: &[DesignPoint]) -> String {
    let mut h = Fnv1a::new();
    for p in front {
        for w in p.params.key() {
            h.write_u64(w);
        }
        for x in [
            p.pm_eff_deg,
            p.bandwidth_3db,
            p.peaking_db,
            p.spur_dbc,
            p.lock_time_s,
        ] {
            h.write_f64(x);
        }
    }
    h.finish_hex()
}

/// Runs the exploration under a cooperative [`Deadline`]
/// ([`Deadline::none`] never expires).
///
/// Deadline pressure degrades, never corrupts: blocks that miss the
/// budget are skipped whole (counted in [`ExploreReport::skipped`] and
/// noted in [`ExploreReport::degradation`]) and the front is built
/// from completed blocks only. When not a single block completed the
/// run fails with [`CoreError::DeadlineExceeded`] so callers can
/// surface a retryable error instead of an empty front.
///
/// # Errors
///
/// `candidates == 0` is rejected as an invalid parameter; a fully
/// exhausted budget surfaces as [`CoreError::DeadlineExceeded`].
pub fn explore(spec: &ExploreSpec, deadline: &Deadline) -> Result<ExploreReport, CoreError> {
    if spec.candidates == 0 {
        return Err(CoreError::InvalidParameter {
            name: "candidates",
            value: 0.0,
        });
    }
    let _span = htmpll_obs::span_labeled("core", "explore", || {
        format!("candidates={},seed={}", spec.candidates, spec.seed)
    });
    let t0 = std::time::Instant::now();
    let mut degradation = Vec::new();
    let mut tally = Tally::new(spec.front_cap);

    run_round(
        &mut tally,
        spec.candidates,
        |i| candidate_params(spec.seed, i as u64, spec.quasi),
        spec,
        deadline,
    );
    if tally.skipped > 0 {
        degradation.push(format!(
            "deadline pressure: evaluated {} of {} candidates; front reflects completed blocks only",
            tally.evaluated, spec.candidates
        ));
    }
    if tally.evaluated == 0 {
        return Err(CoreError::DeadlineExceeded { phase: "explore" });
    }

    // Adaptive refinement: probe a shrinking stencil around the
    // current front. The stencil is generated from the canonically
    // sorted front, so the probe list (and everything downstream) is
    // deterministic.
    let mc_evaluated = tally.evaluated;
    for round in 0..spec.refine_rounds {
        if deadline.expired() || deadline.pressed(0.8) {
            degradation.push(format!(
                "deadline pressure: skipped refinement round {} of {}",
                round + 1,
                spec.refine_rounds
            ));
            break;
        }
        let mut snapshot = tally.front.clone().into_sorted();
        snapshot.truncate(spec.front_cap);
        let mut seen: std::collections::BTreeSet<[u64; 4]> =
            snapshot.iter().map(|p| p.params.key()).collect();
        let mut probes = Vec::new();
        for p in &snapshot {
            for q in stencil(&p.params, round) {
                if seen.insert(q.key()) {
                    probes.push(q);
                }
            }
        }
        if probes.is_empty() {
            break;
        }
        let before = tally.evaluated;
        run_round(&mut tally, probes.len(), |i| probes[i], spec, deadline);
        if tally.evaluated == before {
            break;
        }
    }

    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let front = tally.front.clone().into_sorted();
    let digest = front_digest(&front);
    let designs_per_sec = if elapsed_ns == 0 {
        0.0
    } else {
        tally.evaluated as f64 / (elapsed_ns as f64 / 1e9)
    };
    htmpll_obs::counter!("core", "explore.candidates").add(tally.evaluated as u64);
    htmpll_obs::counter!("core", "explore.screened_out").add(tally.screened_out as u64);
    htmpll_obs::counter!("core", "explore.full_analyses").add(tally.full as u64);
    htmpll_obs::counter!("core", "explore.front_size").add(front.len() as u64);
    htmpll_obs::counter!("core", "explore.designs_per_sec").add(designs_per_sec as u64);

    Ok(ExploreReport {
        front,
        candidates: spec.candidates,
        evaluated: tally.evaluated,
        refined: tally.evaluated - mc_evaluated,
        screened_out: tally.screened_out,
        full_analyses: tally.full,
        infeasible: tally.infeasible,
        failed: tally.failed,
        skipped: tally.skipped,
        pruned: tally.front.pruned,
        quality: tally.quality,
        degradation,
        digest,
        elapsed_ns,
        designs_per_sec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::DEADLINE_REASON;

    fn quick_spec(candidates: usize) -> ExploreSpec {
        ExploreSpec {
            candidates,
            seed: 7,
            refine_rounds: 0,
            ..ExploreSpec::default()
        }
    }

    #[test]
    fn candidate_params_are_pure_and_in_range() {
        for quasi in [false, true] {
            for i in 0..200u64 {
                let a = candidate_params(3, i, quasi);
                let b = candidate_params(3, i, quasi);
                assert_eq!(a.key(), b.key());
                assert!((RATIO_RANGE.0..=RATIO_RANGE.1).contains(&a.ratio));
                assert!((SPREAD_RANGE.0..=SPREAD_RANGE.1).contains(&a.spread));
                assert!((ICP_SCALE_RANGE.0..=ICP_SCALE_RANGE.1).contains(&a.icp_scale));
                assert!((DIVIDER_RANGE.0..=DIVIDER_RANGE.1).contains(&a.divider));
                assert_eq!(a.divider, a.divider.round());
            }
        }
    }

    #[test]
    fn seeds_and_modes_give_distinct_corpora() {
        let a = candidate_params(1, 5, false);
        let b = candidate_params(2, 5, false);
        assert_ne!(a.key(), b.key());
        let q1 = candidate_params(1, 5, true);
        let q2 = candidate_params(2, 5, true);
        assert_ne!(q1.key(), q2.key());
        assert_ne!(a.key(), q1.key());
    }

    #[test]
    fn dominance_is_irreflexive_and_directional() {
        let base = DesignPoint {
            params: candidate_params(1, 0, false),
            pm_eff_deg: 50.0,
            bandwidth_3db: 1e6,
            peaking_db: 2.0,
            spur_dbc: -60.0,
            lock_time_s: 1e-5,
        };
        assert!(!base.dominates(&base));
        let mut better = base;
        better.pm_eff_deg = 55.0;
        assert!(better.dominates(&base));
        assert!(!base.dominates(&better));
        let mut tradeoff = base;
        tradeoff.pm_eff_deg = 55.0;
        tradeoff.peaking_db = 3.0;
        assert!(!tradeoff.dominates(&base));
        assert!(!base.dominates(&tradeoff));
    }

    #[test]
    fn front_keeps_only_non_dominated() {
        let mk = |pm: f64, pk: f64| DesignPoint {
            params: DesignParams {
                ratio: pm / 1000.0,
                spread: 4.0,
                icp_scale: 1.0,
                divider: 64.0,
            },
            pm_eff_deg: pm,
            bandwidth_3db: 1e6,
            peaking_db: pk,
            spur_dbc: -60.0,
            lock_time_s: 1e-5,
        };
        let mut f = ParetoFront::new(16);
        assert!(f.insert(mk(50.0, 2.0)));
        assert!(f.insert(mk(60.0, 1.0))); // dominates the first
        assert_eq!(f.points().len(), 1);
        assert!(!f.insert(mk(55.0, 1.5))); // dominated
        assert!(f.insert(mk(70.0, 3.0))); // trade-off: joins
        assert_eq!(f.points().len(), 2);
        assert_eq!(f.pruned, 0);
    }

    #[test]
    fn front_capacity_prunes_deterministically() {
        let mk = |i: usize| DesignPoint {
            params: DesignParams {
                ratio: 0.02 + i as f64 * 1e-3,
                spread: 4.0,
                icp_scale: 1.0,
                divider: 64.0,
            },
            pm_eff_deg: 30.0 + i as f64,
            bandwidth_3db: 1e6,
            peaking_db: 1.0 + i as f64, // trade-off chain: all non-dominated
            spur_dbc: -60.0,
            lock_time_s: 1e-5,
        };
        let mut f = ParetoFront::new(4);
        for i in 0..8 {
            f.insert(mk(i));
        }
        assert_eq!(f.points().len(), 4);
        assert_eq!(f.pruned, 4);
        let mut g = ParetoFront::new(4);
        for i in 0..8 {
            g.insert(mk(i));
        }
        assert_eq!(
            f.clone().into_sorted(),
            g.into_sorted(),
            "same insertion sequence must prune identically"
        );
    }

    #[test]
    fn explore_smoke_produces_feasible_front() {
        let spec = quick_spec(96);
        let report = explore(&spec, &Deadline::none()).unwrap();
        assert_eq!(report.evaluated, 96);
        assert_eq!(report.skipped, 0);
        assert!(report.degradation.is_empty());
        assert!(!report.front.is_empty());
        assert_eq!(
            report.evaluated,
            report.screened_out + report.full_analyses + report.failed
        );
        for p in &report.front {
            assert!(p.pm_eff_deg >= spec.min_pm_deg);
            assert!(p.spur_dbc.is_finite());
            assert!(p.lock_time_s > 0.0);
        }
        // Mutually non-dominated.
        for a in &report.front {
            for b in &report.front {
                assert!(!a.dominates(b), "front contains a dominated point");
            }
        }
    }

    #[test]
    fn screening_rejects_only_infeasible_designs() {
        // Everything the screen rejects must be something the full
        // stage would also reject — compare front digests with the
        // screen on and off.
        let mut spec = quick_spec(96);
        let with_screen = explore(&spec, &Deadline::none()).unwrap();
        spec.screen = false;
        let without = explore(&spec, &Deadline::none()).unwrap();
        assert_eq!(
            with_screen.digest, without.digest,
            "screen must not change the front"
        );
        assert!(with_screen.screened_out > 0, "screen should reject some");
        assert!(with_screen.full_analyses < without.full_analyses);
    }

    #[test]
    fn thread_count_does_not_change_the_front() {
        let mut spec = quick_spec(128);
        spec.threads = ThreadBudget::Fixed(1);
        let one = explore(&spec, &Deadline::none()).unwrap();
        spec.threads = ThreadBudget::Fixed(4);
        let four = explore(&spec, &Deadline::none()).unwrap();
        assert_eq!(one.digest, four.digest);
        assert_eq!(one.front.len(), four.front.len());
        for (a, b) in one.front.iter().zip(&four.front) {
            assert_eq!(a.params.key(), b.params.key());
            assert_eq!(a.pm_eff_deg.to_bits(), b.pm_eff_deg.to_bits());
            assert_eq!(a.bandwidth_3db.to_bits(), b.bandwidth_3db.to_bits());
            assert_eq!(a.peaking_db.to_bits(), b.peaking_db.to_bits());
            assert_eq!(a.spur_dbc.to_bits(), b.spur_dbc.to_bits());
            assert_eq!(a.lock_time_s.to_bits(), b.lock_time_s.to_bits());
        }
    }

    #[test]
    fn refinement_only_improves_the_front() {
        let mut spec = quick_spec(64);
        let base = explore(&spec, &Deadline::none()).unwrap();
        spec.refine_rounds = 1;
        let refined = explore(&spec, &Deadline::none()).unwrap();
        assert!(refined.refined > 0, "refinement should evaluate probes");
        // Every refined front point is feasible and the front is still
        // mutually non-dominated.
        for a in &refined.front {
            assert!(a.pm_eff_deg >= spec.min_pm_deg);
            for b in &refined.front {
                assert!(!a.dominates(b));
            }
        }
        // No base front member dominates any refined front member —
        // the refined front is at least as good everywhere.
        for old in &base.front {
            assert!(
                !refined.front.iter().any(|new| old.dominates(new)),
                "refinement must never regress the front"
            );
        }
    }

    #[test]
    fn deadline_degrades_without_corrupting() {
        let spec = quick_spec(64);
        // A checks-budget deadline large enough to finish some blocks
        // deterministically but not all of them.
        let deadline = Deadline::after_checks(40_000);
        match explore(&spec, &deadline) {
            Ok(report) => {
                assert!(report.skipped > 0, "tight budget should skip blocks");
                assert!(!report.degradation.is_empty());
                for a in &report.front {
                    assert!(a.pm_eff_deg >= spec.min_pm_deg);
                    for b in &report.front {
                        assert!(!a.dominates(b));
                    }
                }
            }
            Err(CoreError::DeadlineExceeded { .. }) => {} // zero blocks fit
            Err(e) => panic!("unexpected error: {e}"),
        }
        // An immediately-expired budget is a clean retryable error.
        let err = explore(&spec, &Deadline::after_checks(1)).unwrap_err();
        assert!(err.to_string().starts_with(DEADLINE_REASON), "{err}");
    }

    #[test]
    fn zero_candidates_is_invalid() {
        let spec = ExploreSpec {
            candidates: 0,
            ..ExploreSpec::default()
        };
        assert!(explore(&spec, &Deadline::none()).is_err());
    }
}
