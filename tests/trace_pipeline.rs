//! End-to-end tests of the event-timeline tracing pipeline: target
//! coverage, single-thread determinism, exporter round-trips, and
//! thread-count stability of the aggregate metrics.
//!
//! Every test here mutates process-global obs state (filter, trace
//! session, registry), so they all serialize through [`obs_lock`].

use htmpll::core::{KernelPolicy, PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::Truncation;
use htmpll::obs;
use htmpll::par::ThreadBudget;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> PllModel {
    PllModel::builder(PllDesign::reference_design(0.1).expect("reference design"))
        .build()
        .expect("model builds")
}

/// Runs the reference workload — a dense-kernel closed-loop sweep plus a
/// robust grid with one on-pole point — under a trace session and
/// returns the timeline. The workload is deterministic: the grids depend
/// only on the design.
fn traced_sweep(threads: usize) -> obs::Trace {
    // `trace` (not `debug`): the per-point cache/dispatch instants
    // asserted below are the deepest opt-in tier.
    obs::override_filter("trace");
    obs::reset();
    obs::trace_start(1 << 16);
    let m = model();
    let w0 = m.design().omega_ref();
    let trunc = Truncation::new(3);
    let spec = SweepSpec::log(1e-2 * w0, 0.49 * w0, 24)
        .expect("grid")
        .with_truncation(trunc)
        .with_kernel(KernelPolicy::Dense)
        .with_threads(ThreadBudget::Fixed(threads));
    let cache = SweepCache::new();
    m.closed_loop_htm_grid_robust(&spec, &cache)
        .into_strict()
        .expect("sweep completes");
    let robust_spec = SweepSpec::new(vec![0.2 * w0, w0, 0.45 * w0])
        .with_truncation(trunc)
        .with_threads(ThreadBudget::Fixed(threads));
    let _ = m.closed_loop_htm_grid_robust(&robust_spec, &cache);
    obs::trace_stop()
}

/// Counter/quantile aggregates that must not depend on the thread count.
fn stable_aggregates() -> Vec<(String, u64, Option<f64>, Option<f64>)> {
    obs::snapshot()
        .iter()
        .filter(|s| {
            s.key.starts_with("core.robust.")
                || s.key == "num.lu.dim"
                || s.key == "par.tasks"
                || s.key.starts_with("core.sweep.dense_cache.")
        })
        .map(|s| {
            // Timing metrics are excluded; `num.lu.dim` observes matrix
            // dimensions, which are value-deterministic.
            if s.key == "num.lu.dim" {
                (s.key.clone(), s.count, s.p50, s.p99)
            } else {
                (s.key.clone(), s.count, None, None)
            }
        })
        .collect()
}

#[test]
fn trace_covers_every_pipeline_layer() {
    let _guard = obs_lock();
    let trace = traced_sweep(2);
    obs::override_filter("off");
    assert!(trace.dropped == 0, "capacity 65536 must not shed");
    let cats: std::collections::BTreeSet<&str> = trace.events.iter().map(|e| e.cat).collect();
    for cat in ["core", "htm", "num", "par"] {
        assert!(cats.contains(cat), "missing target {cat} in {cats:?}");
    }
    // Structured attribution events at the hot decision points.
    let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("cache{dense,miss")),
        "cache miss instants missing"
    );
    assert!(
        names.iter().any(|n| n.starts_with("dispatch{")),
        "kernel dispatch instants missing"
    );
    assert!(
        names.iter().any(|n| n.starts_with("quality{")),
        "verdict instants missing (robust grid has an on-pole point)"
    );
}

#[test]
fn single_thread_trace_is_deterministic() {
    let _guard = obs_lock();
    let a = traced_sweep(1);
    let b = traced_sweep(1);
    obs::override_filter("off");
    let shape = |t: &obs::Trace| -> Vec<(obs::TracePhase, &str, String)> {
        t.events
            .iter()
            .map(|e| (e.phase, e.cat, e.name.clone()))
            .collect()
    };
    assert_eq!(
        shape(&a),
        shape(&b),
        "same workload at 1 thread must produce the same event sequence"
    );
}

#[test]
fn chrome_export_parses_back_with_matching_event_count() {
    let _guard = obs_lock();
    let trace = traced_sweep(1);
    obs::override_filter("off");
    let json = obs::chrome_trace_json(&trace);
    let doc = obs::parse_json(&json).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.events.len());
    // Spot-check the schema of the first event.
    let first = &events[0];
    for field in ["name", "cat", "ph", "ts", "pid", "tid"] {
        assert!(first.get(field).is_some(), "missing field {field}");
    }
}

#[test]
fn flamegraph_folded_round_trips() {
    let _guard = obs_lock();
    let trace = traced_sweep(1);
    obs::override_filter("off");
    let folded = obs::flamegraph_folded(&trace);
    assert!(!folded.is_empty());
    let mut total_ns = 0u64;
    let mut saw_core_frame = false;
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("`stack ns` shape");
        assert!(!stack.is_empty());
        total_ns += ns.parse::<u64>().expect("integer self-time");
        if stack.split(';').any(|f| f.starts_with("core.")) {
            saw_core_frame = true;
        }
    }
    assert!(total_ns > 0, "spans must accumulate self time");
    assert!(saw_core_frame, "sweep frames missing:\n{folded}");
}

#[test]
fn aggregates_are_thread_count_stable() {
    let _guard = obs_lock();
    let _ = traced_sweep(1);
    let single = stable_aggregates();
    obs::override_filter("off");
    let _ = traced_sweep(2);
    let multi = stable_aggregates();
    obs::override_filter("off");
    assert!(
        single.iter().any(|(k, c, ..)| k == "num.lu.dim" && *c > 0),
        "workload must factor matrices: {single:?}"
    );
    assert_eq!(
        single, multi,
        "counts and value-quantiles must not depend on the thread count"
    );
}
