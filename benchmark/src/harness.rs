//! What every workload shares: the seeded input generator, the timed
//! rep loop, set-up timing, correctness checks, the metric catalogue,
//! and the traced run that turns spans and registry counts into
//! per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use htmpll::obs;

use crate::host;
use crate::stats::quartiles;
use crate::trace::{spans_json, Tracer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Timed reps per run, whatever the time budget.
pub const MIN_REPS: usize = 3;
/// Reps in the traced half of a `--trace` run (fixed, so registry
/// counts per rep repeat exactly).
pub const TRACE_REPS: usize = 3;
/// Compute threads every workload may use.
pub const THREADS: usize = 2;
/// Obs filter of the traced reps.
const TRACE_FILTER: &str = "debug";

/// Per-layer metrics, reported by every traced run. Layers are named
/// after the program's modules; a metric a workload cannot observe
/// prints `n/a` (and `0` in the JSON line).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("requests.parse_us", "us"),
    ("requests.lines", "count"),
    ("service.handle_ms.analyze", "ms"),
    ("service.handle_ms.bode", "ms"),
    ("service.handle_ms.spur", "ms"),
    ("service.handle_ms.sweep", "ms"),
    ("service.handle_ms.explore", "ms"),
    ("service.envelope_us", "us"),
    ("service.tail_hit_ratio", "ratio"),
    ("service.batches", "1/rep"),
    ("service.batch_mean", "count"),
    ("service.wait_p50_ms", "ms"),
    ("service.open_p50_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("service.generator_late_ms", "ms"),
    ("core.analysis.calls", "1/rep"),
    ("core.lambda.evals", "1/rep"),
    ("core.lambda.grid_ms", "ms"),
    ("core.explore.screen_ratio", "ratio"),
    ("core.explore.full_analyses", "1/rep"),
    ("core.explore.front_size", "count"),
    ("core.explore.failed", "1/rep"),
    ("core.sweep.cold_ms", "ms"),
    ("core.sweep.warm_ms", "ms"),
    ("core.sweep.cache_hit_ratio", "ratio"),
    ("core.sweep.cache_evictions", "1/rep"),
    ("core.sweep.trunc_escalated", "1/rep"),
    ("core.sweep.failed_points", "1/rep"),
    ("core.noise.psd_grid_ms", "ms"),
    ("htm.closed_loop.rank_one", "1/rep"),
    ("htm.closed_loop.banded", "1/rep"),
    ("htm.closed_loop.structured_fallback", "1/rep"),
    ("htm.repr.densify", "1/rep"),
    ("num.robust.factor", "1/rep"),
    ("num.robust.factor_banded", "1/rep"),
    ("num.robust.escalations", "1/rep"),
    ("num.lu.factor", "1/rep"),
    ("par.tasks", "1/rep"),
    ("par.steals", "1/rep"),
    ("par.worker_busy_ms", "ms/rep"),
    ("par.utilization", "ratio"),
    ("sim.measure_h00_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ref_edges", "1/rep"),
    ("spectral.welch_ms", "ms"),
    ("spectral.fft.plan_hits", "1/rep"),
    ("spectral.fft.plan_builds", "1/rep"),
    ("obs.trace_overhead_pct", "%"),
    ("peak_rss_mb", "MiB"),
    ("error_frac", "ratio"),
];

/// Benchmark span name → (per-layer metric, scale from milliseconds).
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("requests.parse", "requests.parse_us", 1e3),
    ("service.handle.analyze", "service.handle_ms.analyze", 1.0),
    ("service.handle.bode", "service.handle_ms.bode", 1.0),
    ("service.handle.spur", "service.handle_ms.spur", 1.0),
    ("service.handle.sweep", "service.handle_ms.sweep", 1.0),
    ("service.handle.explore", "service.handle_ms.explore", 1.0),
    ("service.envelope", "service.envelope_us", 1e3),
    ("core.lambda.eval_grid", "core.lambda.grid_ms", 1.0),
    ("core.sweep.cold", "core.sweep.cold_ms", 1.0),
    ("core.sweep.warm", "core.sweep.warm_ms", 1.0),
    ("core.noise.psd_grid", "core.noise.psd_grid_ms", 1.0),
    ("sim.measure_h00", "sim.measure_h00_ms", 1.0),
    ("sim.run", "sim.run_ms", 1.0),
    ("spectral.welch", "spectral.welch_ms", 1.0),
];

/// Registry counter (summed over the traced reps) → per-rep metric.
const COUNTER_METRICS: &[(&[&str], &str)] = &[
    (&["core.lambda.eval"], "core.lambda.evals"),
    (
        &["core.sweep.cache_evictions"],
        "core.sweep.cache_evictions",
    ),
    (
        &["core.robust.trunc_escalated"],
        "core.sweep.trunc_escalated",
    ),
    (&["htm.closed_loop.rank_one"], "htm.closed_loop.rank_one"),
    (&["htm.closed_loop.banded"], "htm.closed_loop.banded"),
    (
        &["htm.closed_loop.structured_fallback"],
        "htm.closed_loop.structured_fallback",
    ),
    (&["htm.repr.densify"], "htm.repr.densify"),
    (&["num.robust.factor"], "num.robust.factor"),
    (&["num.robust.factor_banded"], "num.robust.factor_banded"),
    (
        &["num.robust.escalate_full", "num.robust.escalate_tikhonov"],
        "num.robust.escalations",
    ),
    (&["num.lu.factor"], "num.lu.factor"),
    (&["par.tasks"], "par.tasks"),
    (&["par.steals"], "par.steals"),
    (&["sim.pfd.ref_edges"], "sim.ref_edges"),
    (&["spectral.fft.plan_hits"], "spectral.fft.plan_hits"),
    (&["spectral.fft.plan_builds"], "spectral.fft.plan_builds"),
];

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Measuring budget of the run, seconds.
    pub seconds: f64,
    /// `Some(dir)`: the traced run, writing `dir/trace_<workload>.json`.
    pub trace_dir: Option<PathBuf>,
    /// Small inputs for the smoke test; not comparable with full runs.
    pub quick: bool,
}

/// SplitMix64: the benchmark's own input generator, so the inputs do
/// not change when the program under test changes its generators.
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }

    /// `n` draws from `[lo, hi)`, one per equal-width stratum, in
    /// shuffled order: every rep covers the whole range, so the work per
    /// rep varies little from seed to seed.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let w = (hi - lo) / n as f64;
        let mut xs: Vec<f64> = (0..n)
            .map(|i| lo + w * (i as f64 + self.uniform()))
            .collect();
        self.shuffle(&mut xs);
        xs
    }
}

/// One correctness check, aggregated over every time it ran.
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub runs: u64,
    pub failures: u64,
    /// The first failure's description.
    pub detail: String,
}

/// Correctness and operation counts of one run, and the host slowdown
/// that corrected each of its rep and set-up times.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: BTreeMap<String, Check>,
    pub attempted: u64,
    pub failed: u64,
    pub slowdowns: Vec<f64>,
}

impl Outcome {
    /// Records one evaluation of check `name`; `detail` is built only
    /// on failure.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl FnOnce() -> String) {
        let c = self.checks.entry(name.to_string()).or_default();
        c.runs += 1;
        if !pass {
            if c.failures == 0 {
                c.detail = detail();
            }
            c.failures += 1;
        }
    }

    /// Counts operations: `failed` of `attempted` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.values().all(|c| c.failures == 0)
    }
}

/// One timed rep: `items` units of work in `secs` of wall clock, and
/// the rep's sample of `latency_ms`.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub secs: f64,
    pub items: f64,
    pub latency_ms: f64,
}

impl Rep {
    /// The rep's times divided by the host slowdown around it.
    fn corrected(self, slowdown: f64) -> Rep {
        Rep {
            secs: self.secs / slowdown,
            latency_ms: self.latency_ms / slowdown,
            ..self
        }
    }
}

/// A reported metric. `value: None` means the workload cannot observe
/// it (`n/a`); `n` is the sample count behind the value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    pub n: usize,
}

/// A workload: generated inputs plus the calls it times.
pub trait Workload: Sized {
    /// Generates the inputs from the seed, builds the context and runs
    /// one small untimed warm-up unit.
    fn setup(cfg: &RunConfig) -> Self;

    /// One timed rep; checks its outputs after the clock stops. Every
    /// rep does the same work, so its samples are comparable.
    fn rep(&mut self, tr: &Tracer, parent: u64, out: &mut Outcome) -> Rep;

    /// Workload-specific per-layer metrics, after the traced reps.
    fn layers(
        &mut self,
        _tr: &Tracer,
        _out: &mut Outcome,
        _layers: &mut BTreeMap<&'static str, f64>,
    ) {
    }
}

/// Runs `f` with the obs registry off while tracing, so the library
/// calls a correctness check makes are not counted as the workload's.
pub fn unrecorded<R>(tr: &Tracer, f: impl FnOnce() -> R) -> R {
    if !tr.is_on() {
        return f();
    }
    obs::override_filter("off");
    let r = f();
    obs::override_filter(TRACE_FILTER);
    r
}

/// Runs timed reps until `budget` is spent (at least [`MIN_REPS`]);
/// `between` runs before each rep, outside its clock, with the time
/// spent so far. Each rep is corrected by the mean of the host
/// slowdowns read just before and just after it.
fn timed_reps<W: Workload>(
    w: &mut W,
    budget: Duration,
    min_reps: usize,
    tr: &Tracer,
    root: u64,
    out: &mut Outcome,
    mut between: impl FnMut(Duration),
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut before = host::slowdown();
    while reps.len() < min_reps || start.elapsed() < budget {
        between(start.elapsed());
        let span = tr.span("rep", root, 0);
        let rep = w.rep(tr, span.id(), out);
        drop(span);
        let after = host::slowdown();
        let slowdown = 0.5 * (before + after);
        out.slowdowns.push(slowdown);
        reps.push(rep.corrected(slowdown));
        before = after;
    }
    reps
}

/// Median rep time per item, seconds.
fn secs_per_item(reps: &[Rep]) -> f64 {
    let xs: Vec<f64> = reps.iter().map(|r| r.secs / r.items).collect();
    quartiles(&xs).1
}

fn metric(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    let (q1, med, q3) = quartiles(xs);
    Metric {
        name,
        unit,
        value: (!xs.is_empty()).then_some(med),
        q1: (!xs.is_empty()).then_some(q1),
        q3: (!xs.is_empty()).then_some(q3),
        n: xs.len(),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One [`Workload::setup`] and its seconds, corrected by the host
/// slowdowns read just before and just after it.
fn time_setup<W: Workload>(cfg: &RunConfig, slowdowns: &mut Vec<f64>) -> (W, f64) {
    let before = host::slowdown();
    let t = Instant::now();
    let w = W::setup(cfg);
    let secs = t.elapsed().as_secs_f64();
    let slowdown = 0.5 * (before + host::slowdown());
    slowdowns.push(slowdown);
    (w, secs / slowdown)
}

/// The untraced run: throughput, item latency and set-up time.
///
/// A shared host slows down in spells of seconds to minutes. Every rep
/// and set-up time is corrected by the host slowdown read around it
/// (see `host.rs`); reps are kept short and many, and every statistic
/// is a median, so what the correction misses moves a minority of
/// samples. The extra set-ups are spread over the measuring time for
/// the same reason.
pub fn run_untraced<W: Workload>(cfg: &RunConfig) -> (Vec<Metric>, Outcome) {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut setup_slowdowns = Vec::new();
    let (mut w, first) = time_setup::<W>(cfg, &mut setup_slowdowns);
    let mut setups = vec![first];
    let budget = Duration::from_secs_f64(cfg.seconds);
    let reps = timed_reps(&mut w, budget, MIN_REPS, &off, 0, &mut out, |elapsed| {
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if setups.len() < SETUP_REPS && elapsed >= due {
            setups.push(time_setup::<W>(cfg, &mut setup_slowdowns).1);
        }
    });
    while setups.len() < SETUP_REPS {
        setups.push(time_setup::<W>(cfg, &mut setup_slowdowns).1);
    }
    out.slowdowns.extend(setup_slowdowns);
    let throughput: Vec<f64> = reps.iter().map(|r| r.items / r.secs).collect();
    let lat: Vec<f64> = reps.iter().map(|r| r.latency_ms).collect();
    let metrics = vec![
        metric("throughput_per_s", "1/s", &throughput),
        metric("latency_p50_ms", "ms", &lat),
        metric("setup_s", "s", &setups),
    ];
    (metrics, out)
}

/// Sums registry cells whose key names `target.leaf`: counters by exact
/// key, spans by their leaf segment (span keys carry the parent path,
/// e.g. `core.explore/analyze{...}`). Returns `(count, sum)`.
fn registry_total(snap: &[obs::MetricSnapshot], key: &str) -> (u64, f64) {
    let (target, leaf) = key.split_once('.').unwrap_or((key, ""));
    snap.iter()
        .filter(|m| {
            let Some((t, path)) = m.key.split_once('.') else {
                return false;
            };
            let last = path.rsplit('/').next().unwrap_or(path);
            let last = last.split('{').next().unwrap_or(last);
            t == target && (path == leaf || last == leaf)
        })
        .fold((0, 0.0), |(c, s), m| (c + m.count, s + m.sum))
}

/// The traced run. Half the budget runs untraced reps (the overhead
/// baseline); then the obs registry and the benchmark spans switch on
/// for [`TRACE_REPS`] reps, whose counts become per-rep layer metrics.
/// End-to-end numbers never come from this run.
pub fn run_traced<W: Workload>(cfg: &RunConfig, name: &str) -> (Vec<Metric>, Outcome) {
    let mut out = Outcome::default();
    let mut w = W::setup(cfg);
    let budget = Duration::from_secs_f64(cfg.seconds / 2.0);
    let off = Tracer::new(false);
    let base = timed_reps(&mut w, budget, MIN_REPS, &off, 0, &mut out, |_| {});

    let tr = Tracer::new(true);
    obs::override_filter(TRACE_FILTER);
    obs::reset();
    let root = tr.span(name, 0, 0);
    let t = Instant::now();
    let traced = timed_reps(
        &mut w,
        Duration::ZERO,
        TRACE_REPS,
        &tr,
        root.id(),
        &mut out,
        |_| {},
    );
    let traced_wall_ns = t.elapsed().as_nanos() as f64;
    let snap = obs::snapshot();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    w.layers(&tr, &mut out, &mut layers);
    drop(root);

    let reps = TRACE_REPS as f64;
    for (keys, metric) in COUNTER_METRICS {
        let total: u64 = keys.iter().map(|k| registry_total(&snap, k).0).sum();
        layers.insert(metric, total as f64 / reps);
    }
    layers.insert(
        "core.analysis.calls",
        registry_total(&snap, "core.analyze").0 as f64 / reps,
    );
    let hits = registry_total(&snap, "core.sweep.lambda_cache.hit").0
        + registry_total(&snap, "core.sweep.dense_cache.hit").0;
    let misses = registry_total(&snap, "core.sweep.lambda_cache.miss").0
        + registry_total(&snap, "core.sweep.dense_cache.miss").0;
    if hits + misses > 0 {
        layers.insert(
            "core.sweep.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    let busy_ns = registry_total(&snap, "par.worker_busy_ns").1;
    layers.insert("par.worker_busy_ms", busy_ns / 1e6 / reps);
    layers.insert(
        "par.utilization",
        busy_ns / (THREADS as f64 * traced_wall_ns),
    );
    for (span, metric, scale) in SPAN_METRICS {
        if let Some(ms) = tr.p50_ms(span) {
            layers.insert(metric, ms * scale);
        }
    }
    layers.insert(
        "obs.trace_overhead_pct",
        (secs_per_item(&traced) / secs_per_item(&base) - 1.0) * 100.0,
    );
    layers.insert("peak_rss_mb", peak_rss_mb());
    layers.insert(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    obs::override_filter("off");

    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("trace_{name}.json"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans_json(name, &tr.spans())));
        out.check("trace.span_file_written", written.is_ok(), || {
            format!("{}: {:?}", path.display(), written.err())
        });
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layers.get(name).copied(),
            q1: None,
            q3: None,
            n: 1,
        })
        .collect();
    (metrics, out)
}
