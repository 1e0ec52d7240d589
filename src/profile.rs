//! Seeded profiling workload matrix with per-phase attribution.
//!
//! [`run_profile`] drives a deterministic matrix of representative
//! workloads — λ grid evaluation, cold and warm structured closed-loop
//! sweeps, the dense reference kernel, an adversarial robust grid with
//! on-pole points, and noise folding — each phase bracketed by an
//! [`crate::obs`] reset so the metric registry attributes counters,
//! per-point latency quantiles, cache traffic, solver-ladder stages and
//! worker busy time to exactly one phase. The result renders as the
//! `plltool profile` attribution table ([`ProfileReport::render_table`])
//! or as JSON ([`ProfileReport::to_json`]).
//!
//! Determinism: the workload depends only on [`ProfileSpec`] — the seed
//! perturbs the grid endpoints through a splitmix64 hash, never through
//! wall-clock or OS randomness — so two runs with the same spec evaluate
//! bit-identical grids (timings of course vary).

use crate::core::{
    KernelPolicy, NoiseModel, PllDesign, PllModel, QualitySummary, SweepCache, SweepSpec,
};
use crate::htm::Truncation;
use crate::obs;
use crate::par::ThreadBudget;
use crate::service::json::{num, opt_num};
use std::fmt::Write as _;
use std::time::Instant;

/// What to profile: the workload matrix is derived entirely from these
/// knobs, so a spec identifies a reproducible run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Loop-speed ratio ω_UG/ω₀ of the profiled design.
    pub ratio: f64,
    /// Grid points per sweep phase.
    pub points: usize,
    /// HTM truncation order for the closed-loop phases.
    pub trunc: usize,
    /// Repetitions of each phase (timings aggregate over all reps).
    pub reps: usize,
    /// Worker-thread budget for the sweep pool.
    pub threads: ThreadBudget,
    /// Deterministic grid-jitter seed (same seed ⇒ same grids).
    pub seed: u64,
}

impl Default for ProfileSpec {
    fn default() -> ProfileSpec {
        ProfileSpec {
            ratio: 0.1,
            points: 96,
            trunc: 8,
            reps: 1,
            threads: ThreadBudget::Auto,
            seed: 0,
        }
    }
}

/// Solver-ladder stage distribution harvested from the `num.robust.*`
/// counters of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderDist {
    /// Dense factorizations entered (first rung).
    pub factor: u64,
    /// Escalations to complete pivoting.
    pub escalate_full: u64,
    /// Escalations to the Tikhonov rung.
    pub escalate_tikhonov: u64,
}

/// Everything one profiling phase produced.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`lambda`, `htm_cold`, `htm_warm`, `dense`, `robust`,
    /// `noise`).
    pub name: &'static str,
    /// Wall-clock time over all reps, milliseconds.
    pub wall_ms: f64,
    /// Per-point solve latency median, microseconds (from the
    /// `core.sweep_point` span; `None` when the phase solved nothing).
    pub p50_us: Option<f64>,
    /// Per-point solve latency 99th percentile, microseconds.
    pub p99_us: Option<f64>,
    /// True while the quantiles are exact order statistics (they degrade
    /// to log₂-bucket upper bounds past 4096 points per phase).
    pub quantiles_exact: bool,
    /// Dense-cache hit rate in [0, 1]; `None` when the cache saw no
    /// traffic during the phase.
    pub cache_hit_rate: Option<f64>,
    /// Dense-cache entries evicted during the phase
    /// (`core.sweep.cache_evictions`) — nonzero means the working set
    /// outgrew the sweep cache's capacity (32,768 entries) and the
    /// phase is re-solving points it already paid for.
    pub cache_evictions: u64,
    /// Point-quality verdicts counted during the phase.
    pub verdicts: QualitySummary,
    /// Truncation-ladder re-runs (`core.robust.trunc_escalated`).
    pub trunc_escalated: u64,
    /// Solver-ladder stage distribution.
    pub ladder: LadderDist,
    /// Worker-pool utilization in [0, 1]: Σ busy time across workers
    /// divided by threads × wall; `None` when no pooled work ran.
    pub utilization: Option<f64>,
}

/// A full profiling run: the spec that produced it plus one
/// [`PhaseReport`] per phase, in execution order.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The workload spec.
    pub spec: ProfileSpec,
    /// Resolved worker-thread count used for utilization math.
    pub threads: usize,
    /// Per-phase attribution, in execution order.
    pub phases: Vec<PhaseReport>,
}

/// splitmix64 — deterministic grid jitter from the spec's seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A jitter factor in [0.95, 1.05], derived from the seed stream.
fn jitter(state: &mut u64) -> f64 {
    let u = splitmix64(state) as f64 / u64::MAX as f64;
    0.95 + 0.1 * u
}

/// Pulls a counter value out of a registry snapshot (0 when absent).
fn counter_of(snaps: &[obs::MetricSnapshot], key: &str) -> u64 {
    snaps.iter().find(|s| s.key == key).map_or(0, |s| s.count)
}

/// Harvests one phase's attribution from the metric registry (which the
/// caller reset at phase entry) and the measured wall time.
fn harvest(name: &'static str, wall_ms: f64, threads: usize) -> PhaseReport {
    let snaps = obs::snapshot();
    // Span keys are hierarchical (`core.sweep.htm_dense{n=96}/sweep_point`);
    // within one phase a single parent dominates, so take the
    // highest-count match rather than merging sketches.
    let point = snaps
        .iter()
        .filter(|s| s.key.starts_with("core.") && s.key.ends_with("sweep_point"))
        .max_by_key(|s| s.count);
    let (p50_us, p99_us, quantiles_exact) = match point {
        Some(p) => (
            p.p50.map(|v| v / 1e3),
            p.p99.map(|v| v / 1e3),
            p.quantiles_exact,
        ),
        None => (None, None, true),
    };
    let hits = counter_of(&snaps, "core.sweep.dense_cache.hit");
    let misses = counter_of(&snaps, "core.sweep.dense_cache.miss");
    let cache_hit_rate = if hits + misses > 0 {
        Some(hits as f64 / (hits + misses) as f64)
    } else {
        None
    };
    let verdicts = QualitySummary {
        exact: counter_of(&snaps, "core.robust.exact") as usize,
        refined: counter_of(&snaps, "core.robust.refined") as usize,
        perturbed: counter_of(&snaps, "core.robust.perturbed") as usize,
        failed: counter_of(&snaps, "core.robust.failed") as usize,
        ..QualitySummary::default()
    };
    let ladder = LadderDist {
        factor: counter_of(&snaps, "num.robust.factor"),
        escalate_full: counter_of(&snaps, "num.robust.escalate_full"),
        escalate_tikhonov: counter_of(&snaps, "num.robust.escalate_tikhonov"),
    };
    let busy_ns = snaps
        .iter()
        .find(|s| s.key == "par.worker_busy_ns")
        .map_or(0.0, |s| s.sum);
    let utilization = if busy_ns > 0.0 && wall_ms > 0.0 {
        Some((busy_ns / (threads as f64 * wall_ms * 1e6)).min(1.0))
    } else {
        None
    };
    PhaseReport {
        name,
        wall_ms,
        p50_us,
        p99_us,
        quantiles_exact,
        cache_hit_rate,
        cache_evictions: counter_of(&snaps, "core.sweep.cache_evictions"),
        verdicts,
        trunc_escalated: counter_of(&snaps, "core.robust.trunc_escalated"),
        ladder,
        utilization,
    }
}

/// Runs the profiling workload matrix and returns per-phase attribution.
///
/// Raises the obs filter to `debug` when per-point latency collection is
/// not already enabled (the attribution table is empty without it) and
/// resets the metric registry at every phase boundary — callers holding
/// accumulated metrics should export them first.
///
/// # Errors
///
/// A human-readable message when the design or a sweep grid cannot be
/// constructed (e.g. a ratio outside the reference-design family).
pub fn run_profile(spec: &ProfileSpec) -> Result<ProfileReport, String> {
    // Profiling wants the per-point latency histogram (`sweep_point`
    // lives at the trace tier precisely because it is per-point hot),
    // so raise the filter to `trace` unless it is already there.
    if !obs::enabled("core", obs::Level::Trace) {
        obs::override_filter("trace");
    }
    let design = PllDesign::reference_design(spec.ratio).map_err(|e| e.to_string())?;
    let model = PllModel::builder(design.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let w0 = design.omega_ref();
    let trunc = Truncation::new(spec.trunc.max(1));
    let points = spec.points.max(4);
    let reps = spec.reps.max(1);
    let threads = spec.threads.resolve();

    // Mixed with a fixed tag so a zero seed still jitters.
    let mut rng = spec.seed ^ 0x4854_4d50_4c4c_5052;
    let lam_spec = SweepSpec::log(1e-3 * w0 * jitter(&mut rng), 0.49 * w0, points)
        .map_err(|e| e.to_string())?
        .with_threads(spec.threads);
    let htm_spec = SweepSpec::log(1e-2 * w0 * jitter(&mut rng), 0.49 * w0, points)
        .map_err(|e| e.to_string())?
        .with_truncation(trunc)
        .with_threads(spec.threads);
    let dense_spec = htm_spec.clone().with_kernel(KernelPolicy::Dense);
    // Adversarial grid: healthy band points bracketing exact on-pole
    // evaluations at ω₀ and 0 aliases — exercises the verdict ladder.
    let mut adversarial = Vec::with_capacity(points);
    for (i, w) in lam_spec.grid.iter().enumerate() {
        adversarial.push(if i % 8 == 7 { w0 } else { w });
    }
    let robust_spec = SweepSpec::new(adversarial)
        .with_truncation(trunc)
        .with_threads(spec.threads);

    let mut phases = Vec::new();
    let mut phase =
        |name: &'static str, work: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
            obs::reset();
            let t0 = Instant::now();
            for _ in 0..reps {
                work()?;
            }
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            phases.push(harvest(name, wall_ms, threads));
            Ok(())
        };

    let lam = model.lambda();
    phase("lambda", &mut || {
        lam.eval_grid(&lam_spec);
        Ok::<(), String>(())
    })?;

    let warm_cache = SweepCache::new();
    phase("htm_cold", &mut || {
        model
            .closed_loop_htm_grid_robust(&htm_spec, &SweepCache::new())
            .into_strict()
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    // Pre-warm outside the timed region, then measure the all-hit pass.
    model
        .closed_loop_htm_grid_robust(&htm_spec, &warm_cache)
        .into_strict()
        .map_err(|e| e.to_string())?;
    phase("htm_warm", &mut || {
        model
            .closed_loop_htm_grid_robust(&htm_spec, &warm_cache)
            .into_strict()
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    phase("dense", &mut || {
        model
            .closed_loop_htm_grid_robust(&dense_spec, &SweepCache::new())
            .into_strict()
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    phase("robust", &mut || {
        let outcome = model.closed_loop_htm_grid_robust(&robust_spec, &SweepCache::new());
        let _ = outcome.summary();
        Ok::<(), String>(())
    })?;
    let noise = NoiseModel::new(&model, 4);
    phase("noise", &mut || {
        let _ = noise.output_psd_grid(&htm_spec, &|_| 1e-12, &|f| 1e-12 / (1.0 + f * f));
        Ok::<(), String>(())
    })?;

    Ok(ProfileReport {
        spec: spec.clone(),
        threads,
        phases,
    })
}

impl ProfileReport {
    /// Renders the per-phase attribution table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile — ratio {:.3}, {} pts, K = {}, reps {}, threads {}",
            self.spec.ratio, self.spec.points, self.spec.trunc, self.spec.reps, self.threads
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>9} {:>9} {:>7} {:>6} {:>22} {:>16} {:>6}",
            "phase",
            "wall_ms",
            "p50_us",
            "p99_us",
            "cache%",
            "evict",
            "verdicts e/r/p/f",
            "ladder f/fp/tik",
            "util%"
        );
        for p in &self.phases {
            let q = |v: Option<f64>| match v {
                Some(x) if p.quantiles_exact => format!("{x:.1}"),
                Some(x) => format!("≤{x:.1}"),
                None => "-".to_string(),
            };
            let cache = p
                .cache_hit_rate
                .map_or("-".to_string(), |r| format!("{:.1}", 100.0 * r));
            let util = p
                .utilization
                .map_or("-".to_string(), |u| format!("{:.1}", 100.0 * u));
            let verdicts = format!(
                "{}/{}/{}/{}",
                p.verdicts.exact, p.verdicts.refined, p.verdicts.perturbed, p.verdicts.failed
            );
            let ladder = format!(
                "{}/{}/{}",
                p.ladder.factor, p.ladder.escalate_full, p.ladder.escalate_tikhonov
            );
            let _ = writeln!(
                out,
                "{:<10} {:>10.2} {:>9} {:>9} {:>7} {:>6} {:>22} {:>16} {:>6}",
                p.name,
                p.wall_ms,
                q(p.p50_us),
                q(p.p99_us),
                cache,
                p.cache_evictions,
                verdicts,
                ladder,
                util
            );
        }
        out
    }

    /// Serializes the report as JSON (hand-rolled, schema version 1).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(
            out,
            "  \"spec\": {{\"ratio\": {}, \"points\": {}, \"trunc\": {}, \"reps\": {}, \"threads\": {}, \"seed\": {}}},",
            num(self.spec.ratio),
            self.spec.points,
            self.spec.trunc,
            self.spec.reps,
            self.threads,
            self.spec.seed
        );
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"wall_ms\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"quantiles_exact\": {}, \"cache_hit_rate\": {}, \"cache_evictions\": {}, \
                 \"verdicts\": {{\"exact\": {}, \"refined\": {}, \"perturbed\": {}, \"failed\": {}}}, \
                 \"trunc_escalated\": {}, \
                 \"ladder\": {{\"factor\": {}, \"escalate_full\": {}, \"escalate_tikhonov\": {}}}, \
                 \"utilization\": {}}}",
                p.name,
                num(p.wall_ms),
                opt_num(p.p50_us),
                opt_num(p.p99_us),
                p.quantiles_exact,
                opt_num(p.cache_hit_rate),
                p.cache_evictions,
                p.verdicts.exact,
                p.verdicts.refined,
                p.verdicts.perturbed,
                p.verdicts.failed,
                p.trunc_escalated,
                p.ladder.factor,
                p.ladder.escalate_full,
                p.ladder.escalate_tikhonov,
                opt_num(p.utilization)
            );
            out.push_str(if i + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_attributes_phases() {
        let spec = ProfileSpec {
            points: 16,
            trunc: 3,
            threads: ThreadBudget::Fixed(1),
            ..ProfileSpec::default()
        };
        let report = run_profile(&spec).expect("profile runs");
        crate::obs::override_filter("off");
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["lambda", "htm_cold", "htm_warm", "dense", "robust", "noise"]
        );
        let cold = &report.phases[1];
        let warm = &report.phases[2];
        assert!(cold.p50_us.is_some(), "cold sweep records point latency");
        assert_eq!(cold.cache_hit_rate, Some(0.0), "fresh cache: all misses");
        assert_eq!(warm.cache_hit_rate, Some(1.0), "warm cache: all hits");
        let dense = &report.phases[3];
        assert!(
            dense.ladder.factor > 0,
            "dense kernel enters the solver ladder: {:?}",
            dense.ladder
        );
        let robust = &report.phases[4];
        assert!(
            robust.verdicts.failed > 0,
            "on-pole points fail: {:?}",
            robust.verdicts
        );
        assert!(robust.verdicts.exact + robust.verdicts.refined > 0);

        let table = report.render_table();
        assert!(table.contains("phase"), "{table}");
        assert!(table.contains("htm_warm"), "{table}");
        let json = report.to_json();
        assert!(json.contains("\"cache_hit_rate\": 1"), "{json}");
        assert!(json.contains("\"name\": \"robust\""), "{json}");
    }

    #[test]
    fn seed_changes_grid_but_stays_deterministic() {
        let mut a = 7u64;
        let mut b = 7u64;
        assert_eq!(jitter(&mut a), jitter(&mut b));
        let mut c = 8u64;
        assert_ne!(jitter(&mut a), jitter(&mut c));
        let j = jitter(&mut c);
        assert!((0.95..=1.05).contains(&j));
    }
}
