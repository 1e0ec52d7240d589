//! Tracing-overhead benchmark, run by `scripts/ci.sh` as the <10 %
//! default-tracing overhead guard.
//!
//! Measures the same structured-kernel closed-loop sweep (K = 24, 96-pt
//! grid by default) in four configurations:
//!
//! 1. **disabled** — obs filter off: every instrumentation site is one
//!    relaxed atomic load and a branch; this is the shipping default.
//! 2. **debug** — debug filter, no session: counters, per-sweep spans,
//!    and quantile reservoirs record; per-point sites stay off.
//! 3. **enabled** — debug filter plus an active trace session: what
//!    `plltool trace <cmd>` runs by default.
//! 4. **trace** — the deepest tier (`--obs trace` + session): per-point
//!    latency spans and per-point attribution instants also record.
//!
//! The reported `overhead_pct` is the enabled-over-disabled wall-time
//! increase (best-of-reps on both sides); `trace_overhead_pct` is the
//! same for the deepest tier, which deliberately trades overhead for
//! per-point detail. A final microbenchmark hammers one disabled counter
//! site to report the per-hit cost of instrumented code when collection
//! is off.
//!
//! Prints one JSON object to stdout. Usage:
//!
//! ```sh
//! cargo run --release --example bench_profile -- [--points N] [--trunc K] [--reps R]
//! ```

use htmpll::core::{PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::Truncation;
use htmpll::obs;
use htmpll::par::ThreadBudget;
use std::time::Instant;

fn main() {
    let mut points = 96usize;
    let mut trunc = 24usize;
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{what} needs an integer"))
        };
        match a.as_str() {
            "--points" => points = grab("--points"),
            "--trunc" => trunc = grab("--trunc"),
            "--reps" => reps = grab("--reps"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let design = PllDesign::reference_design(0.1).expect("reference design");
    let w0 = design.omega_ref();
    let model = PllModel::builder(design).build().expect("model");
    let spec = SweepSpec::log(1e-2 * w0, 0.49 * w0, points)
        .expect("grid")
        .with_truncation(Truncation::new(trunc))
        .with_threads(ThreadBudget::Fixed(1));
    let mut sweep = || {
        model
            .closed_loop_htm_grid_robust(&spec, &SweepCache::new())
            .into_strict()
            .expect("sweep");
    };

    // The four configs are interleaved round-robin (best-of per config)
    // rather than measured in blocks: on a busy host the noise floor
    // drifts over the process lifetime, and block measurement would
    // charge that drift to whichever config ran in the bad stretch.
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut disabled_ms = f64::INFINITY;
    let mut debug_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    let mut trace_ms = f64::INFINITY;
    let mut trace_events = 0usize;
    let mut deep_trace_events = 0usize;

    obs::override_filter("off");
    for _ in 0..3 {
        sweep(); // warm-up: page in code, allocator, caches
    }
    obs::reset();
    for _ in 0..reps.max(1) {
        // Disabled path: the zero-cost-when-off contract.
        obs::override_filter("off");
        disabled_ms = disabled_ms.min(timed(&mut sweep));

        // Metrics-only: debug collection, no trace session.
        obs::override_filter("debug");
        debug_ms = debug_ms.min(timed(&mut sweep));

        // Enabled: debug collection plus an active trace session — the
        // default `plltool trace` configuration.
        obs::trace_start(1 << 20);
        enabled_ms = enabled_ms.min(timed(&mut sweep));
        trace_events = obs::trace_stop().events.len();

        // Deepest tier: per-point spans and instants on top.
        obs::override_filter("trace");
        obs::trace_start(1 << 20);
        trace_ms = trace_ms.min(timed(&mut sweep));
        deep_trace_events = obs::trace_stop().events.len();
    }
    let point = obs::snapshot()
        .into_iter()
        .filter(|s| s.key.starts_with("core.") && s.key.ends_with("sweep_point"))
        .max_by_key(|s| s.count);
    let (p50_us, p99_us) = point.map_or((f64::NAN, f64::NAN), |p| {
        (
            p.p50.map_or(f64::NAN, |v| v / 1e3),
            p.p99.map_or(f64::NAN, |v| v / 1e3),
        )
    });
    obs::override_filter("off");

    // Disabled-site microbenchmark: per-hit cost with collection off.
    const HITS: u64 = 10_000_000;
    let t0 = Instant::now();
    for _ in 0..HITS {
        obs::counter!("bench", "disabled_site").inc();
    }
    let disabled_site_ns = t0.elapsed().as_secs_f64() * 1e9 / HITS as f64;

    let overhead_pct = 100.0 * (enabled_ms - disabled_ms) / disabled_ms;
    let trace_overhead_pct = 100.0 * (trace_ms - disabled_ms) / disabled_ms;
    println!(
        "{{\"points\": {points}, \"trunc\": {trunc}, \"reps\": {reps}, \
         \"disabled_ms\": {disabled_ms:.3}, \"debug_ms\": {debug_ms:.3}, \"enabled_ms\": {enabled_ms:.3}, \
         \"trace_ms\": {trace_ms:.3}, \"overhead_pct\": {overhead_pct:.2}, \
         \"trace_overhead_pct\": {trace_overhead_pct:.2}, \
         \"p50_us\": {p50_us:.2}, \"p99_us\": {p99_us:.2}, \
         \"trace_events\": {trace_events}, \"deep_trace_events\": {deep_trace_events}, \
         \"disabled_site_ns\": {disabled_site_ns:.2}, \"host_cores\": {}}}",
        htmpll::par::available_threads()
    );
}
