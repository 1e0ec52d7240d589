//! # htmpll-obs — dependency-free instrumentation for the htmpll workspace
//!
//! The HTM/λ(s)/simulation pipeline is quantitative infrastructure: its
//! value is *cheapness relative to* full harmonic-transfer-matrix
//! truncation and inversion, and that claim is unverifiable without a
//! measurement substrate. This crate provides one with **zero external
//! dependencies** (the workspace builds offline, so `tracing`/`log` are
//! not options):
//!
//! * named **counters** ([`counter!`]) — monotonic event counts,
//! * **histograms** ([`record!`]) — log₂-bucketed value distributions
//!   (truncation orders, pivot growth, iteration counts, residuals),
//! * RAII **spans** ([`span`], [`span_labeled`]) — monotonic wall-clock
//!   timers with parent/child nesting via a per-thread span stack,
//! * an **env filter** (`HTMPLL_OBS=htm=debug,sim=info`) so that disabled
//!   instrumentation costs one relaxed atomic load and a branch,
//! * **JSON** and human-table **exporters** ([`export_json`],
//!   [`export_table`]) over a global registry snapshot, including exact
//!   streaming **p50/p95/p99** on every histogram and span,
//! * **timeline tracing** ([`trace_start`]/[`trace_stop`]): per-thread
//!   event ring buffers capturing span begin/end and [`instant`]
//!   attribution markers, exported as Chrome Trace Format JSON
//!   ([`chrome_trace_json`], loadable in `chrome://tracing`/Perfetto) or
//!   folded-stack flamegraph text ([`flamegraph_folded`]).
//!
//! ## Enabling
//!
//! Instrumentation is **off by default**. Enable it with the `HTMPLL_OBS`
//! environment variable or programmatically with [`override_filter`]:
//!
//! ```text
//! HTMPLL_OBS=trace              # everything incl. per-point spans/markers
//! HTMPLL_OBS=debug              # counters, per-sweep spans, quantiles
//! HTMPLL_OBS=info               # everything, cheap sites only
//! HTMPLL_OBS=htm=debug,sim=info # per-target levels; unlisted targets off
//! HTMPLL_OBS=sim                # bare target ⇒ debug for that target
//! ```
//!
//! Targets are the short crate names used at the instrumentation sites:
//! `num`, `htm`, `core`, `sim`, `spectral` (plus any the application adds).
//!
//! ## Zero-cost-when-disabled contract
//!
//! Every instrumentation entry point first calls [`enabled`], which is a
//! single `Relaxed` atomic load and an integer compare when the filter
//! leaves the site disabled. No allocation, no locking, no `Instant::now()`
//! happens on a disabled path; label closures passed to [`span_labeled`]
//! are not invoked. This is what keeps λ-evaluation and simulator stepping
//! at their uninstrumented speed when `HTMPLL_OBS` is unset.
//!
//! ```
//! use htmpll_obs as obs;
//!
//! obs::override_filter("demo=debug");
//! {
//!     let _outer = obs::span("demo", "outer");
//!     let _inner = obs::span_labeled("demo", "inner", || "dim=5".to_string());
//!     obs::counter!("demo", "events").inc();
//!     obs::record!("demo", "order").record(12.0);
//! }
//! let json = obs::export_json();
//! assert!(json.contains("demo.outer"));
//! assert!(json.contains("demo.outer/inner{dim=5}"));
//! obs::override_filter("off");
//! ```

#![warn(missing_docs)]

mod events;
mod export;
mod filter;
mod quantile;
mod registry;
mod site;
mod span;
mod trace_export;

pub use events::{
    instant, instant_at, trace_active, trace_span, trace_start, trace_stop, Trace, TraceEvent,
    TracePhase, TraceSpan, DEFAULT_TRACE_CAPACITY,
};
pub use export::{describe_targets, export_json, export_table};
pub use filter::{enabled, init_from_env, override_filter, Level};
pub use registry::{clear, reset, snapshot, MetricKind, MetricSnapshot};
pub use site::{SiteCounter, SiteHistogram};
pub use span::{span, span_at, span_labeled, span_labeled_at, Span};
pub use trace_export::{
    chrome_trace_json, flamegraph_folded, parse_json, validate_json, JsonValue,
};

/// Declares a per-call-site counter and returns a `&'static SiteCounter`.
///
/// The site caches its registry cell after the first enabled hit, so a hot
/// loop pays one atomic load (the filter check) plus one atomic add when
/// enabled and only the filter check when disabled.
///
/// ```
/// use htmpll_obs as obs;
/// obs::counter!("demo", "calls").inc();                       // Info level
/// obs::counter!("demo", "deep.calls", obs::Level::Debug).add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($target:literal, $name:literal) => {{
        static SITE: $crate::SiteCounter =
            $crate::SiteCounter::new($target, $name, $crate::Level::Info);
        &SITE
    }};
    ($target:literal, $name:literal, $level:expr) => {{
        static SITE: $crate::SiteCounter = $crate::SiteCounter::new($target, $name, $level);
        &SITE
    }};
}

/// Declares a per-call-site histogram and returns a `&'static SiteHistogram`.
///
/// Values are accumulated into log₂ buckets together with count/sum/min/max,
/// which is enough to see both the magnitude distribution and the mean of
/// solver iteration counts, truncation orders, residuals, and durations.
///
/// ```
/// use htmpll_obs as obs;
/// obs::record!("demo", "iters").record(17.0);
/// obs::record!("demo", "residual", obs::Level::Debug).record(1e-12);
/// ```
#[macro_export]
macro_rules! record {
    ($target:literal, $name:literal) => {{
        static SITE: $crate::SiteHistogram =
            $crate::SiteHistogram::new($target, $name, $crate::Level::Info);
        &SITE
    }};
    ($target:literal, $name:literal, $level:expr) => {{
        static SITE: $crate::SiteHistogram = $crate::SiteHistogram::new($target, $name, $level);
        &SITE
    }};
}
