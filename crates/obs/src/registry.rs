//! The global metric registry.
//!
//! Metrics live in a lock-protected `BTreeMap` from key to a leaked
//! [`Cell`]. Cells are `&'static`, so call sites can cache them and update
//! through atomics (counters) or a short per-metric mutex (histograms and
//! spans) without re-taking the registry lock.

use crate::quantile::{bucket_quantile, exact_quantile, QuantileSketch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log₂ buckets: index `i` covers `[2^(i-64), 2^(i-63))`, with
/// index 0 also absorbing zero, negative, and non-finite values.
pub(crate) const BUCKETS: usize = 128;
const BUCKET_BIAS: i32 = 64;

/// What a metric cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonic event count.
    Counter,
    /// Distribution of recorded values.
    Histogram,
    /// Distribution of span durations (values are nanoseconds).
    Span,
}

impl MetricKind {
    /// Lower-case name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Span => "span",
        }
    }
}

#[derive(Debug)]
pub(crate) struct HistState {
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Box<[u64; BUCKETS]>,
    pub samples: QuantileSketch,
}

impl HistState {
    fn new() -> HistState {
        HistState {
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Box::new([0; BUCKETS]),
            samples: QuantileSketch::new(),
        }
    }

    fn zero(&mut self) {
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.buckets.fill(0);
        self.samples.clear();
    }
}

/// One registered metric. Counter updates touch only `count`; histogram
/// and span updates take the cell's own mutex.
#[derive(Debug)]
pub(crate) struct Cell {
    pub kind: MetricKind,
    pub count: AtomicU64,
    pub state: Mutex<HistState>,
}

/// Index of the log₂ bucket for a value.
pub(crate) fn bucket_index(v: f64) -> usize {
    // NaN, zero, and negatives all land in bucket 0.
    if v <= 0.0 || v.is_nan() || !v.is_finite() {
        return 0;
    }
    let e = v.log2().floor() as i32;
    (e + BUCKET_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
}

/// Upper bound (exclusive) of bucket `i`, as a power of two.
pub(crate) fn bucket_upper(i: usize) -> f64 {
    (2.0f64).powi(i as i32 - BUCKET_BIAS + 1)
}

impl Cell {
    /// Adds to a counter.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one observation into a histogram/span cell.
    pub fn observe(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.sum += v;
        st.min = st.min.min(v);
        st.max = st.max.max(v);
        st.buckets[bucket_index(v)] += 1;
        st.samples.record(v);
    }
}

type Registry = Mutex<BTreeMap<String, &'static Cell>>;

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Looks up (or creates) the cell for `key`. If the key exists with a
/// different kind, the existing cell wins — first registration fixes the
/// kind.
pub(crate) fn cell(key: &str, kind: MetricKind) -> &'static Cell {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = reg.get(key) {
        return c;
    }
    let c: &'static Cell = Box::leak(Box::new(Cell {
        kind,
        count: AtomicU64::new(0),
        state: Mutex::new(HistState::new()),
    }));
    reg.insert(key.to_string(), c);
    c
}

/// Point-in-time copy of one metric, as produced by [`snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric key, `target.path{label}`.
    pub key: String,
    /// Counter, histogram, or span.
    pub kind: MetricKind,
    /// Event count (counter value, or number of observations).
    pub count: u64,
    /// Sum of observed values (0 for counters). Span values are ns.
    pub sum: f64,
    /// Smallest observation, `None` before the first one.
    pub min: Option<f64>,
    /// Largest observation, `None` before the first one.
    pub max: Option<f64>,
    /// Non-empty log₂ buckets as `(upper_bound, count)` pairs.
    pub buckets: Vec<(f64, u64)>,
    /// Median observation; `None` for empty or counter metrics.
    pub p50: Option<f64>,
    /// 95th-percentile observation.
    pub p95: Option<f64>,
    /// 99th-percentile observation.
    pub p99: Option<f64>,
    /// True while p50/p95/p99 are exact order statistics; false once the
    /// per-cell sample reservoir (4096 raw values) overflowed and they
    /// degraded to log₂-bucket upper bounds.
    pub quantiles_exact: bool,
}

impl MetricSnapshot {
    /// Mean observation, `None` for empty or counter metrics.
    pub fn mean(&self) -> Option<f64> {
        if self.kind == MetricKind::Counter || self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Copies every registered metric, sorted by key.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .map(|(key, cell)| {
            let count = cell.count.load(Ordering::Relaxed);
            let st = cell.state.lock().unwrap_or_else(|e| e.into_inner());
            let observed = st.min.is_finite();
            let observations = st.buckets.iter().sum::<u64>();
            let (p50, p95, p99, quantiles_exact) = if observations == 0 {
                (None, None, None, true)
            } else if st.samples.is_exact() {
                let sorted = st.samples.sorted();
                (
                    Some(exact_quantile(&sorted, 0.50)),
                    Some(exact_quantile(&sorted, 0.95)),
                    Some(exact_quantile(&sorted, 0.99)),
                    true,
                )
            } else {
                let q = |p| Some(bucket_quantile(&st.buckets[..], observations, p, st.max));
                (q(0.50), q(0.95), q(0.99), false)
            };
            MetricSnapshot {
                key: key.clone(),
                kind: cell.kind,
                count,
                sum: st.sum,
                min: observed.then_some(st.min),
                max: observed.then_some(st.max),
                buckets: st
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (bucket_upper(i), c))
                    .collect(),
                p50,
                p95,
                p99,
                quantiles_exact,
            }
        })
        .collect()
}

/// Zeroes every metric's value while keeping registrations (cached
/// `&'static Cell` handles in call sites stay valid). Also versions the
/// per-thread span stacks: spans still open when `reset` runs belong to
/// the drained epoch, so they neither record on drop nor contribute
/// parent segments to spans opened afterwards.
pub fn reset() {
    crate::span::bump_epoch();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for cell in reg.values() {
        cell.count.store(0, Ordering::Relaxed);
        cell.state.lock().unwrap_or_else(|e| e.into_inner()).zero();
    }
}

/// Removes every registration. Cached site handles re-register on next
/// use. (The leaked cells are not freed; this is bounded by the number of
/// distinct keys ever used.) Versions the span stacks like [`reset`].
pub fn clear() {
    crate::span::bump_epoch();
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Serializes tests that touch the global registry/filter. The registry is
/// process-global, so concurrent unit tests would otherwise race through
/// `reset`/`override_filter`.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        // 1.0 has floor(log2) = 0 → bucket BIAS, upper bound 2.
        assert_eq!(bucket_index(1.0), 64);
        assert_eq!(bucket_upper(bucket_index(1.0)), 2.0);
        assert_eq!(bucket_index(1.5), 64);
        assert_eq!(bucket_index(2.0), 65);
        assert_eq!(bucket_index(0.5), 63);
        // Degenerate values collapse into bucket 0.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // Extremes clamp.
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
        // Every bucket's upper bound is above its lower neighbor's.
        assert!(bucket_upper(10) < bucket_upper(11));
    }

    #[test]
    fn observe_accumulates() {
        let _g = test_lock();
        let c = cell("test.registry.observe", MetricKind::Histogram);
        c.observe(4.0);
        c.observe(1.0);
        c.observe(0.25);
        let snap = snapshot()
            .into_iter()
            .find(|m| m.key == "test.registry.observe")
            .unwrap();
        assert_eq!(snap.count, 3);
        assert!((snap.sum - 5.25).abs() < 1e-12);
        assert_eq!(snap.min, Some(0.25));
        assert_eq!(snap.max, Some(4.0));
        assert_eq!(snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        assert!((snap.mean().unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn kind_is_fixed_by_first_registration() {
        let a = cell("test.registry.kind", MetricKind::Counter);
        let b = cell("test.registry.kind", MetricKind::Span);
        assert!(std::ptr::eq(a, b));
        assert_eq!(b.kind, MetricKind::Counter);
    }

    #[test]
    fn reset_zeroes_but_keeps_cells() {
        let _g = test_lock();
        let c = cell("test.registry.reset", MetricKind::Counter);
        c.add(7);
        reset();
        assert_eq!(c.count.load(Ordering::Relaxed), 0);
        // The same handle keeps working after reset.
        c.add(2);
        assert_eq!(c.count.load(Ordering::Relaxed), 2);
    }
}
