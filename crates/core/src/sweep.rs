//! Parallel frequency-sweep engine: one spec, one cache, every grid.
//!
//! Every frequency-grid computation in the workspace — Bode responses,
//! margin scans, noise folding, spur tables, dense closed-loop solves —
//! is a map of an expensive pure function over an ordered set of
//! frequencies. This module provides the shared vocabulary for those
//! maps:
//!
//! * [`SweepSpec`] — *what* to evaluate: the [`FrequencyGrid`], the
//!   harmonic-truncation policy ([`TruncationSpec`], fixed or
//!   tail-tolerance-driven) and the thread budget
//!   ([`htmpll_par::ThreadBudget`]).
//! * [`SweepCache`] — *what to reuse*: dense closed-loop solves
//!   memoized by the bit patterns of `s` (and the truncation order), so
//!   a repeated grid through the same cache — a warm pass, a refinement
//!   pass — skips the HTM assembly and the solve entirely. It is a thin
//!   wrapper over [`htmpll_num::BoundedCache`], bounded and LRU-evicted.
//!   Grid callers pass one explicitly; one-off probes (such as
//!   [`analyze`](crate::analyze)'s closed-loop probe) solve uncached.
//! * Grid entry points on the model types:
//!   [`EffectiveGain::eval_grid`],
//!   [`PllModel::closed_loop_htm_grid_robust`] (per-point
//!   [`PointQuality`] verdicts; strict callers collapse them with
//!   [`GridOutcome::into_strict`]),
//!   [`NoiseModel::output_psd_grid`], [`LeakageSpurs::scan`] and the
//!   generic [`bode_grid`].
//!
//! All of them run on the `htmpll-par` deterministic pool: results are
//! **bitwise-identical for any thread count**, because each grid point
//! is evaluated by a pure function and placed by index.
//!
//! ```
//! use htmpll_core::{bode_grid, PllDesign, PllModel, SweepSpec};
//!
//! let m = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
//!     .build()
//!     .unwrap();
//! let spec = SweepSpec::log(1e-2, 2.0, 64).unwrap();
//! let h = bode_grid(|w| m.h00(w), &spec);
//! assert_eq!(h.len(), 64);
//! assert!(h[0].mag_db > -1.0); // in-band: the loop tracks the reference
//! ```

use crate::closed_loop::PllModel;
use crate::lambda::EffectiveGain;
use crate::noise::NoiseModel;
use crate::quality::{GridOutcome, PointOutcome, PointQuality};
use crate::spurs::LeakageSpurs;
use htmpll_htm::{Htm, Truncation, TruncationSpec};
use htmpll_lti::{bode_from_values, BodePoint, FrequencyGrid, GridError};
use htmpll_num::{BoundedCache, CacheStats, Complex, SolveReport};
use htmpll_par::{par_map, par_map_cancellable, Deadline, ThreadBudget};
use std::sync::Arc;

/// Hard ceiling on automatically chosen truncation orders for **matrix**
/// paths. The tail-tolerance heuristic
/// ([`EffectiveGain::suggest_truncation`]) can suggest orders in the
/// tens of thousands for scalar truncated sums; a dense HTM at that
/// order would be absurd (dimension `2K+1`), and in practice the matrix
/// paths converge far earlier because the closed form carries the exact
/// λ. Auto resolution clamps to this bound.
pub const MAX_AUTO_TRUNCATION: usize = 64;

/// Entry cap of [`SweepCache::new`] — generous (a dense K=24 entry is
/// ~38 KB, so the cap bounds the cache at around a gigabyte) but
/// finite, so long sessions cannot grow without limit.
pub const DEFAULT_CACHE_CAP: usize = 32_768;

/// Which closed-loop kernels a sweep runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Dispatch on the open loop's structured representation: rank-one
    /// and diagonal closed forms, the dense ladder for everything else.
    /// The fast default.
    #[default]
    Structured,
    /// Force the dense escalating ladder — the strict reference
    /// kernels, used by cross-checks and benchmarks.
    Dense,
}

impl KernelPolicy {
    /// Human-readable name (`structured` / `dense`).
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Structured => "structured",
            KernelPolicy::Dense => "dense",
        }
    }
}

/// A frequency sweep specification: grid + truncation policy + thread
/// budget. One `SweepSpec` drives every grid entry point in the crate,
/// replacing per-call-site `(start, stop, n, k, threads)` tuples.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Frequencies to evaluate, in sweep order.
    pub grid: FrequencyGrid,
    /// Harmonic truncation policy for HTM-valued sweeps; ignored by
    /// scalar closed-form sweeps. Defaults to `Auto { tol: 1e-3 }`.
    pub trunc: TruncationSpec,
    /// Worker-thread budget; defaults to `Auto` (the `HTMPLL_THREADS`
    /// environment variable, then the machine's parallelism).
    pub threads: ThreadBudget,
    /// Which closed-loop kernels dense sweeps use; defaults to
    /// [`KernelPolicy::Structured`].
    pub kernel: KernelPolicy,
    /// Cooperative budget for robust grid sweeps: once it expires, the
    /// remaining points are skipped with a
    /// [`DEADLINE_REASON`](crate::quality::DEADLINE_REASON)-prefixed
    /// `Failed` verdict instead of wedging a worker. Defaults to
    /// [`Deadline::none`] (no budget, zero overhead).
    pub deadline: Deadline,
}

impl SweepSpec {
    /// Wraps an existing grid with default truncation and thread policy.
    pub fn new(grid: impl Into<FrequencyGrid>) -> SweepSpec {
        SweepSpec {
            grid: grid.into(),
            trunc: TruncationSpec::default(),
            threads: ThreadBudget::Auto,
            kernel: KernelPolicy::default(),
            deadline: Deadline::none(),
        }
    }

    /// Log-spaced sweep over `[start, stop]` with `n` points.
    ///
    /// # Errors
    ///
    /// Propagates [`GridError`] for bad endpoints or point counts.
    pub fn log(start: f64, stop: f64, n: usize) -> Result<SweepSpec, GridError> {
        Ok(SweepSpec::new(FrequencyGrid::log(start, stop, n)?))
    }

    /// Sets the truncation policy (a fixed [`Truncation`] coerces).
    #[must_use]
    pub fn with_truncation(mut self, trunc: impl Into<TruncationSpec>) -> SweepSpec {
        self.trunc = trunc.into();
        self
    }

    /// Sets the thread budget (a `usize` coerces; `0` means auto).
    #[must_use]
    pub fn with_threads(mut self, threads: impl Into<ThreadBudget>) -> SweepSpec {
        self.threads = threads.into();
        self
    }

    /// Sets the closed-loop kernel policy.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelPolicy) -> SweepSpec {
        self.kernel = kernel;
        self
    }

    /// Sets the cooperative deadline (clones share the caller's budget,
    /// so one request-level deadline can bound several sweeps).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> SweepSpec {
        self.deadline = deadline;
        self
    }
}

/// One dense closed-loop solve: the closed-loop HTM and its evidence.
/// Solved through the structure-dispatching factor path (closed forms
/// for rank-one/diagonal loops, otherwise the escalating dense ladder),
/// so the solve carries its own verdict: check
/// [`DenseSolve::quality`] before trusting fine structure near a
/// closed-loop pole.
#[derive(Debug)]
pub struct DenseSolve {
    /// The closed-loop HTM `(I + G̃)⁻¹G̃`.
    pub htm: Htm,
    /// Solver evidence: stages tried, residual, condition estimate.
    pub report: SolveReport,
    /// The graded verdict derived from `report`.
    pub quality: PointQuality,
}

/// Dense-solve key: `(model fingerprint, s.re bits, s.im bits,
/// truncation order, kernel-policy byte)`. The fingerprint makes one
/// cache safe to share across different models.
type DenseKey = (u64, u64, u64, usize, u8);

/// Memoized dense closed-loop solves, keyed by the model fingerprint
/// ([`PllModel::fingerprint`]), the **bit patterns** of the Laplace
/// point, the truncation order and the kernel policy. Bitwise keys make
/// the cache exact — no tolerance tuning — and deterministic: a hit
/// returns the identical value the first evaluation produced.
///
/// A thin wrapper over [`BoundedCache`]: sharded, internally
/// synchronized, LRU-bounded at [`DEFAULT_CACHE_CAP`] entries by
/// default. Evictions feed the `core.sweep.cache_evictions` counter;
/// traffic and occupancy are in [`SweepCache::stats`].
#[derive(Debug)]
pub struct SweepCache {
    inner: BoundedCache<DenseKey, Result<Arc<DenseSolve>, String>>,
}

impl Default for SweepCache {
    fn default() -> SweepCache {
        SweepCache::new()
    }
}

impl SweepCache {
    /// An empty cache capped at [`DEFAULT_CACHE_CAP`] entries.
    pub fn new() -> SweepCache {
        SweepCache::with_capacity(DEFAULT_CACHE_CAP)
    }

    /// An empty cache holding at most `cap` entries (clamped to at
    /// least 1).
    pub fn with_capacity(cap: usize) -> SweepCache {
        SweepCache {
            inner: BoundedCache::new(cap),
        }
    }

    /// Dense closed-loop solve at `(s, trunc)` through the cache and
    /// the escalating solver: HTM assembly + factorization happen at
    /// most once per key, **including failures** (a failed point is
    /// memoized by its reason and not retried).
    ///
    /// # Errors
    ///
    /// The failure reason when no usable value exists at this point —
    /// non-finite `s`, non-finite open-loop entries, or a non-finite
    /// solve result. A merely singular `I + G̃` does **not** error: the
    /// Tikhonov rung produces a value graded
    /// [`PointQuality::Perturbed`]. Structured and dense kernels
    /// memoize under distinct keys: a cache warmed by one policy never
    /// answers for the other.
    pub fn dense_robust(
        &self,
        model: &PllModel,
        s: Complex,
        trunc: Truncation,
        kernel: KernelPolicy,
    ) -> Result<Arc<DenseSolve>, String> {
        let key = (
            model.fingerprint(),
            s.re.to_bits(),
            s.im.to_bits(),
            trunc.order(),
            kernel as u8,
        );
        if let Some(v) = self.inner.get(&key) {
            htmpll_obs::counter!("core", "sweep.dense_cache.hit").inc();
            htmpll_obs::instant_at("core", htmpll_obs::Level::Trace, || {
                format!("cache{{dense,hit,k={}}}", trunc.order())
            });
            return v;
        }
        htmpll_obs::counter!("core", "sweep.dense_cache.miss").inc();
        htmpll_obs::instant_at("core", htmpll_obs::Level::Trace, || {
            format!("cache{{dense,miss,k={}}}", trunc.order())
        });
        let entry = compute_dense(model, s, trunc, kernel);
        let evicted = self.inner.insert(key, entry.clone());
        if evicted > 0 {
            htmpll_obs::counter!("core", "sweep.cache_evictions").add(evicted);
            htmpll_obs::instant("core", || format!("cache{{evict,n={evicted}}}"));
        }
        entry
    }

    /// Snapshot of traffic and occupancy (entries include memoized
    /// failures).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// The uncached dense-point computation behind
/// [`SweepCache::dense_robust`] and the analysis probe, with the NaN/∞
/// boundary guards and the `robust.*` verdict counters.
pub(crate) fn compute_dense(
    model: &PllModel,
    s: Complex,
    trunc: Truncation,
    kernel: KernelPolicy,
) -> Result<Arc<DenseSolve>, String> {
    if !(s.re.is_finite() && s.im.is_finite()) {
        htmpll_obs::counter!("core", "robust.failed").inc();
        htmpll_obs::instant("core", || {
            format!("quality{{verdict=failed,s={s},k={}}}", trunc.order())
        });
        return Err(format!("non-finite Laplace point {s}"));
    }
    // Per-point solve latency: the span quantiles (p50/p99) are what
    // `plltool profile` attributes each phase with. Trace tier: on the
    // structured kernel a point costs ~3µs, so even one registry span
    // here would blow the <10% default-tracing overhead budget.
    let _point = htmpll_obs::span_at("core", "sweep_point", htmpll_obs::Level::Trace);
    let open = model.open_loop_htm(s, trunc);
    let open = match kernel {
        KernelPolicy::Structured => open,
        // Materialize the open loop so the solve goes through the
        // strict dense ladder regardless of available structure.
        KernelPolicy::Dense => open.densified(),
    };
    match open.closed_loop_factored_robust() {
        Ok((htm, report)) => {
            if !htm.is_finite() {
                htmpll_obs::counter!("core", "robust.failed").inc();
                htmpll_obs::instant("core", || {
                    format!("quality{{verdict=failed,s={s},k={}}}", trunc.order())
                });
                return Err(format!("non-finite closed-loop HTM at s = {s}"));
            }
            let quality = PointQuality::from_report(&report);
            match quality {
                PointQuality::Exact => htmpll_obs::counter!("core", "robust.exact").inc(),
                PointQuality::Refined => htmpll_obs::counter!("core", "robust.refined").inc(),
                PointQuality::Perturbed => htmpll_obs::counter!("core", "robust.perturbed").inc(),
                PointQuality::Failed { .. } => htmpll_obs::counter!("core", "robust.failed").inc(),
            }
            if quality.is_degraded() {
                // Verdict transition away from Exact, with the point that
                // caused it — the timeline shows *where* a sweep degrades.
                htmpll_obs::instant("core", || {
                    format!(
                        "quality{{verdict={},s={s},k={}}}",
                        quality.name(),
                        trunc.order()
                    )
                });
            }
            if report.escalated() {
                htmpll_obs::counter!("core", "robust.escalated").inc();
            }
            Ok(Arc::new(DenseSolve {
                htm,
                report,
                quality,
            }))
        }
        Err(e) => {
            htmpll_obs::counter!("core", "robust.failed").inc();
            htmpll_obs::instant("core", || {
                format!("quality{{verdict=failed,s={s},k={}}}", trunc.order())
            });
            Err(format!("closed-loop solve at s = {s}: {e}"))
        }
    }
}

/// Sweeps an arbitrary frequency response over `spec.grid` on the
/// parallel pool and assembles Bode points (magnitude + sequentially
/// unwrapped phase). Bitwise-identical to the sequential
/// [`bode_sweep`](htmpll_lti::bode_sweep) for any thread count.
pub fn bode_grid<F: Fn(f64) -> Complex + Sync>(f: F, spec: &SweepSpec) -> Vec<BodePoint> {
    let values = par_map(spec.threads, spec.grid.points(), |_, &w| f(w));
    bode_from_values(spec.grid.points(), &values)
}

/// Grid-point block size for the λ sweep: large enough to amortize one
/// pool task over many points, small enough to keep the parallel pool
/// load-balanced. Chunk boundaries are fixed by index, so the
/// partition — and with it every block result — is independent of the
/// thread count.
const LAMBDA_CHUNK: usize = 32;

impl EffectiveGain {
    /// Exact λ(jω) over `spec.grid`, evaluated on the parallel pool in
    /// 32-point blocks along one axis
    /// [`line`](EffectiveGain::line). Bitwise identical to pointwise
    /// [`EffectiveGain::eval_jw`] calls at any thread count.
    pub fn eval_grid(&self, spec: &SweepSpec) -> Vec<Complex> {
        let _span =
            htmpll_obs::span_labeled("core", "sweep.lambda", || format!("n={}", spec.grid.len()));
        let axis = self.line(0.0);
        let chunks: Vec<&[f64]> = spec.grid.points().chunks(LAMBDA_CHUNK).collect();
        let blocks = par_map(spec.threads, &chunks, |_, ws| {
            ws.iter().map(|&w| axis.eval(w)).collect::<Vec<_>>()
        });
        blocks.into_iter().flatten().collect()
    }
}

/// One graded dense solve as a sweep point.
fn point_outcome(solve: Result<Arc<DenseSolve>, String>) -> PointOutcome<Htm> {
    match solve {
        Ok(d) => PointOutcome {
            value: Some(d.htm.clone()),
            quality: d.quality.clone(),
            cond: d.report.cond_estimate,
            residual: d.report.residual,
        },
        Err(reason) => PointOutcome::failed(reason),
    }
}

impl PllModel {
    /// Resolves a truncation policy against this model: fixed orders
    /// pass through; `Auto { tol }` asks the effective gain for the
    /// order whose harmonic-sum tail stays below `tol`, clamped to
    /// [`MAX_AUTO_TRUNCATION`] (matrix dimensions must stay sane).
    pub fn resolve_truncation(&self, spec: impl Into<TruncationSpec>) -> Truncation {
        spec.into().resolve_with(|tol| {
            self.lambda()
                .suggest_truncation(tol)
                .min(MAX_AUTO_TRUNCATION)
        })
    }

    /// The truncation-escalation ladder for one starting order: the
    /// order itself, then double, then [`MAX_AUTO_TRUNCATION`] (deduped,
    /// ascending). Higher orders push the truncation tail — and with it
    /// the conditioning of `I + G̃` — down when the starting order's
    /// solve degrades.
    fn truncation_ladder(start: usize) -> Vec<usize> {
        let mut orders = vec![start];
        let doubled = (start.max(1) * 2).min(MAX_AUTO_TRUNCATION);
        if doubled > start {
            orders.push(doubled);
        }
        if MAX_AUTO_TRUNCATION > *orders.last().unwrap_or(&start) {
            orders.push(MAX_AUTO_TRUNCATION);
        }
        orders
    }

    /// One dense grid point through the cache, escalating the
    /// truncation order when the solve degrades. Pure per point (cache
    /// hits return the identical bits the first evaluation produced),
    /// so grid results are bitwise-identical for any thread count.
    fn dense_point_escalating(
        &self,
        s: Complex,
        trunc: Truncation,
        kernel: KernelPolicy,
        cache: &SweepCache,
        deadline: &Deadline,
    ) -> PointOutcome<Htm> {
        let mut best: Option<PointOutcome<Htm>> = None;
        for (attempt, &k) in Self::truncation_ladder(trunc.order()).iter().enumerate() {
            // First rung of the degradation ladder: under deadline
            // pressure, settle for the starting order's verdict instead
            // of burning the remaining budget on higher-K retries.
            if attempt > 0 && deadline.pressed(0.5) {
                htmpll_obs::counter!("core", "robust.trunc_capped").inc();
                break;
            }
            let outcome = point_outcome(cache.dense_robust(self, s, Truncation::new(k), kernel));
            if !outcome.quality.is_degraded() {
                if attempt > 0 {
                    htmpll_obs::counter!("core", "robust.trunc_escalated").inc();
                    htmpll_obs::instant("core", || {
                        format!("quality{{trunc-escalated,s={s},k={k}}}")
                    });
                }
                return outcome;
            }
            // Keep the least-bad attempt: a Perturbed value beats Failed;
            // the first Perturbed (lowest order) wins ties.
            let keep = match &best {
                None => true,
                Some(b) => b.value.is_none() && outcome.value.is_some(),
            };
            if keep {
                best = Some(outcome);
            }
        }
        best.unwrap_or_else(|| PointOutcome::failed("empty truncation ladder"))
    }

    /// Full dense closed-loop HTM at every grid frequency (`s = jω`),
    /// solved on the parallel pool with the truncation from
    /// `spec.trunc` — **graceful**: no point aborts the sweep. Each
    /// point carries a [`PointQuality`] verdict; a degraded solve
    /// automatically retries at higher truncation orders (up to
    /// [`MAX_AUTO_TRUNCATION`]) before settling for a `Perturbed` or
    /// `Failed` verdict. Repeated frequencies (and repeated calls
    /// through the same `cache`) reuse solved points, including
    /// memoized failures.
    pub fn closed_loop_htm_grid_robust(
        &self,
        spec: &SweepSpec,
        cache: &SweepCache,
    ) -> GridOutcome<Htm> {
        let trunc = self.resolve_truncation(spec.trunc);
        let _span = htmpll_obs::span_labeled("core", "sweep.htm_dense", || {
            format!(
                "n={} dim={} kernel={}",
                spec.grid.len(),
                trunc.dim(),
                spec.kernel.name()
            )
        });
        let slots =
            par_map_cancellable(spec.threads, spec.grid.points(), &spec.deadline, |_, &w| {
                // Fault sites, keyed by the frequency's bit pattern so a
                // given point faults identically at every thread count.
                htmpll_fault::panic_if("sweep.panic", w.to_bits());
                htmpll_fault::slow_if("sweep.slow", w.to_bits());
                if htmpll_fault::fires("sweep.nan", w.to_bits()) {
                    // Poison the Laplace point — but **bypass the cache**:
                    // a faulted value must never be memoized where
                    // non-faulted requests could observe it.
                    let poisoned = Complex::new(f64::NAN, w);
                    return point_outcome(compute_dense(self, poisoned, trunc, spec.kernel));
                }
                self.dense_point_escalating(
                    Complex::from_im(w),
                    trunc,
                    spec.kernel,
                    cache,
                    &spec.deadline,
                )
            });
        let points = slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(PointOutcome::deadline_exceeded))
            .collect();
        GridOutcome { points }
    }
}

impl NoiseModel<'_> {
    /// Output phase PSD over `spec.grid`, folding evaluated point-wise
    /// on the parallel pool. The PSD closures are shared across workers,
    /// hence the `Sync` bounds.
    pub fn output_psd_grid<R, V>(&self, spec: &SweepSpec, ref_psd: &R, vco_psd: &V) -> Vec<f64>
    where
        R: Fn(f64) -> f64 + Sync,
        V: Fn(f64) -> f64 + Sync,
    {
        let _span =
            htmpll_obs::span_labeled("core", "sweep.noise", || format!("n={}", spec.grid.len()));
        par_map(spec.threads, spec.grid.points(), |_, &w| {
            self.output_psd(w, ref_psd, vco_psd)
        })
    }
}

/// One predicted reference-spur line, as produced by
/// [`LeakageSpurs::scan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpurLine {
    /// Reference-harmonic index of the line (at `k·ω₀`).
    pub k: i64,
    /// Complex sideband amplitude `θ̃_k` (time units).
    pub sideband: Complex,
    /// Spur level at the synthesizer output, dBc.
    pub level_dbc: f64,
}

impl LeakageSpurs<'_> {
    /// Predicts the spur lines at `k·ω₀` for `k = 1..=k_max`, evaluated
    /// on the parallel pool.
    pub fn scan(&self, k_max: i64, threads: ThreadBudget) -> Vec<SpurLine> {
        let ks: Vec<i64> = (1..=k_max.max(0)).collect();
        let _span = htmpll_obs::span_labeled("core", "sweep.spurs", || format!("n={}", ks.len()));
        par_map(threads, &ks, |_, &k| SpurLine {
            k,
            sideband: self.sideband(k),
            level_dbc: self.level_dbc(k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;
    use htmpll_lti::bode_sweep;

    fn model(ratio: f64) -> PllModel {
        PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn spec_builders_compose() {
        let spec = SweepSpec::log(0.1, 10.0, 21)
            .unwrap()
            .with_truncation(Truncation::new(5))
            .with_threads(2);
        assert_eq!(spec.grid.len(), 21);
        assert!(matches!(spec.trunc, TruncationSpec::Fixed(t) if t.order() == 5));
    }

    #[test]
    fn lambda_grid_matches_pointwise() {
        let m = model(0.2);
        let spec = SweepSpec::log(1e-2, 2.0, 33).unwrap().with_threads(3);
        let grid_vals = m.lambda().eval_grid(&spec);
        for (&w, v) in spec.grid.points().iter().zip(&grid_vals) {
            let direct = m.lambda().eval_jw(w);
            assert_eq!(direct.re.to_bits(), v.re.to_bits());
            assert_eq!(direct.im.to_bits(), v.im.to_bits());
        }
    }

    #[test]
    fn bode_grid_matches_sequential_sweep() {
        let m = model(0.15);
        let spec = SweepSpec::log(1e-2, 3.0, 40).unwrap().with_threads(4);
        let par = bode_grid(|w| m.h00(w), &spec);
        let seq = bode_sweep(|w| m.h00(w), spec.grid.points());
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.mag_db.to_bits(), s.mag_db.to_bits());
            assert_eq!(p.phase_deg.to_bits(), s.phase_deg.to_bits());
        }
    }

    fn strict_grid(m: &PllModel, spec: &SweepSpec, cache: &SweepCache) -> Vec<Htm> {
        m.closed_loop_htm_grid_robust(spec, cache)
            .into_strict()
            .unwrap()
    }

    #[test]
    fn dense_cache_reuses_solves() {
        let m = model(0.25);
        let cache = SweepCache::new();
        let spec = SweepSpec::log(0.1, 2.0, 12)
            .unwrap()
            .with_truncation(Truncation::new(4))
            .with_threads(2);
        let a = strict_grid(&m, &spec, &cache);
        assert_eq!(cache.stats().entries, 12);
        // Second pass over the same grid: every point is a hit.
        let b = strict_grid(&m, &spec, &cache);
        assert_eq!(cache.stats().entries, 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_matrix().max_diff(y.as_matrix()), 0.0);
        }
        // And the cached result matches the uncached dense reference —
        // to rounding, not bitwise: the structured default closes the
        // rank-one loop by Sherman–Morrison, not the dense LU.
        let reference = m
            .open_loop_htm(Complex::from_im(spec.grid.points()[3]), Truncation::new(4))
            .closed_loop()
            .unwrap();
        assert!(a[3].as_matrix().max_diff(reference.as_matrix()) < 1e-12);
    }

    #[test]
    fn kernel_policies_agree_and_cache_separately() {
        let m = model(0.25);
        let cache = SweepCache::new();
        let spec = SweepSpec::log(0.1, 2.0, 8)
            .unwrap()
            .with_truncation(Truncation::new(4))
            .with_threads(2);
        let fast = strict_grid(&m, &spec, &cache);
        assert_eq!(cache.stats().entries, 8);
        let strict = strict_grid(&m, &spec.clone().with_kernel(KernelPolicy::Dense), &cache);
        // Distinct keys: the dense pass added its own 8 entries.
        assert_eq!(cache.stats().entries, 16);
        for (x, y) in fast.iter().zip(&strict) {
            assert!(x.as_matrix().max_diff(y.as_matrix()) < 1e-10);
        }
    }

    #[test]
    fn robust_grid_survives_on_pole_points() {
        // ω = ω₀ sits exactly on an aliased-integrator pole of the
        // open-loop HTM: the entries are non-finite there. The robust
        // grid must finish, fail that point with a verdict, and keep
        // full-precision values everywhere else.
        let m = model(0.2);
        let w0 = m.design().omega_ref();
        let grid = vec![0.1 * w0, w0, 0.45 * w0];
        let spec = SweepSpec::new(grid)
            .with_truncation(Truncation::new(4))
            .with_threads(2);
        let cache = SweepCache::new();
        let out = m.closed_loop_htm_grid_robust(&spec, &cache);
        assert_eq!(out.len(), 3);
        assert!(out.points[0].value.is_some());
        assert!(!out.points[0].quality.is_degraded());
        assert!(
            matches!(out.points[1].quality, PointQuality::Failed { .. }),
            "{:?}",
            out.points[1].quality
        );
        assert!(out.points[1].value.is_none());
        assert!(out.points[2].value.is_some());
        let s = out.summary();
        assert_eq!(s.failed, 1);
        assert_eq!(s.total(), 3);
        // The strict collapse names the failed point instead of
        // propagating a bare LuError.
        let err = m
            .closed_loop_htm_grid_robust(&spec, &cache)
            .into_strict()
            .unwrap_err();
        assert!(err.to_string().contains("grid point 1"), "{err}");
    }

    #[test]
    fn robust_grid_verdicts_thread_deterministic() {
        let m = model(0.3);
        let w0 = m.design().omega_ref();
        let grid = vec![0.05 * w0, w0, 0.3 * w0, 0.49 * w0];
        let spec = SweepSpec::new(grid).with_truncation(Truncation::new(3));
        let a = m.closed_loop_htm_grid_robust(&spec.clone().with_threads(1), &SweepCache::new());
        let b = m.closed_loop_htm_grid_robust(&spec.with_threads(4), &SweepCache::new());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.quality, y.quality);
            assert_eq!(x.cond.to_bits(), y.cond.to_bits());
            assert_eq!(x.residual.to_bits(), y.residual.to_bits());
            match (&x.value, &y.value) {
                (Some(hx), Some(hy)) => {
                    assert_eq!(hx.as_matrix().max_diff(hy.as_matrix()), 0.0);
                }
                (None, None) => {}
                _ => panic!("value presence differs between thread counts"),
            }
        }
    }

    #[test]
    fn deadline_yields_partial_grid_with_deadline_verdicts() {
        let m = model(0.2);
        let full_spec = SweepSpec::log(0.1, 2.0, 16)
            .unwrap()
            .with_truncation(Truncation::new(3))
            .with_threads(1);
        let full = m.closed_loop_htm_grid_robust(&full_spec, &SweepCache::new());
        let spec = full_spec.with_deadline(Deadline::after_checks(5));
        let out = m.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
        assert_eq!(out.len(), 16);
        let done = out.points.iter().filter(|p| p.value.is_some()).count();
        assert!(done > 0 && done < 16, "{done} of 16 completed");
        for (p, f) in out.points.iter().zip(&full.points) {
            match &p.value {
                // Completed points are bitwise identical to the
                // uncancelled run — cancellation decides whether, not what.
                Some(h) => {
                    let fh = f.value.as_ref().expect("full run has every point");
                    assert_eq!(h.as_matrix().max_diff(fh.as_matrix()), 0.0);
                }
                None => assert!(p.is_deadline_exceeded(), "{:?}", p.quality),
            }
        }
        assert_eq!(out.summary().failed, 16 - done);
    }

    #[test]
    fn truncation_ladder_shapes() {
        assert_eq!(
            PllModel::truncation_ladder(4),
            vec![4, 8, MAX_AUTO_TRUNCATION]
        );
        assert_eq!(
            PllModel::truncation_ladder(40),
            vec![40, MAX_AUTO_TRUNCATION]
        );
        assert_eq!(
            PllModel::truncation_ladder(MAX_AUTO_TRUNCATION),
            vec![MAX_AUTO_TRUNCATION]
        );
        assert_eq!(
            PllModel::truncation_ladder(0),
            vec![0, 2, MAX_AUTO_TRUNCATION]
        );
    }

    #[test]
    fn failed_points_are_memoized() {
        let m = model(0.2);
        let w0 = m.design().omega_ref();
        let cache = SweepCache::new();
        let t = Truncation::new(2);
        let first = cache.dense_robust(&m, Complex::from_im(w0), t, KernelPolicy::default());
        let second = cache.dense_robust(&m, Complex::from_im(w0), t, KernelPolicy::default());
        assert!(first.is_err());
        assert_eq!(first.unwrap_err(), second.unwrap_err());
        assert_eq!(cache.stats().entries, 1);
        // The second lookup answered from memory.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn cache_is_safe_across_models() {
        // Keys carry the model fingerprint, so one cache shared by two
        // different designs must keep their values apart.
        let a = model(0.2);
        let b = model(0.3);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), model(0.2).fingerprint());
        let cache = SweepCache::new();
        let s = Complex::from_im(0.7);
        let t = Truncation::new(3);
        let da = cache
            .dense_robust(&a, s, t, KernelPolicy::default())
            .unwrap();
        let db = cache
            .dense_robust(&b, s, t, KernelPolicy::default())
            .unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert!(da.htm.as_matrix().max_diff(db.htm.as_matrix()) > 1e-6);
        let direct = compute_dense(&b, s, t, KernelPolicy::default()).unwrap();
        assert_eq!(db.htm.as_matrix().max_diff(direct.htm.as_matrix()), 0.0);
        // Round trips stay hits for the right model.
        let da2 = cache
            .dense_robust(&a, s, t, KernelPolicy::default())
            .unwrap();
        assert_eq!(da.htm.as_matrix().max_diff(da2.htm.as_matrix()), 0.0);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn auto_truncation_is_clamped() {
        let m = model(0.2);
        let t = m.resolve_truncation(Truncation::auto(1e-12));
        assert!(t.order() <= MAX_AUTO_TRUNCATION);
        let fixed = m.resolve_truncation(Truncation::new(7));
        assert_eq!(fixed.order(), 7);
    }

    #[test]
    fn noise_grid_matches_pointwise() {
        let m = model(0.1);
        let n = NoiseModel::new(&m, 4);
        let spec = SweepSpec::log(1e-2, 2.0, 17).unwrap().with_threads(2);
        let flat = |_: f64| 1e-12;
        let vco = |f: f64| 1e-12 / (1.0 + f * f);
        let grid_vals = n.output_psd_grid(&spec, &flat, &vco);
        for (&w, v) in spec.grid.points().iter().zip(&grid_vals) {
            assert_eq!(n.output_psd(w, &flat, &vco).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn spur_scan_matches_pointwise() {
        let m = model(0.1);
        let s = LeakageSpurs::new(&m, 1e-3 * m.design().icp());
        let lines = s.scan(5, ThreadBudget::Fixed(2));
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert_eq!(line.sideband, s.sideband(line.k));
            assert_eq!(line.level_dbc.to_bits(), s.level_dbc(line.k).to_bits());
        }
        assert!(s.scan(0, ThreadBudget::Auto).is_empty());
    }
}
