//! # htmpll-par — std-only parallel sweep engine
//!
//! Every headline quantity of the paper — the effective open-loop gain
//! `λ(s)`, closed-loop peaking via `(1 + λ(s))⁻¹`, noise folding through
//! the HTM — is evaluated on dense frequency grids, one independent point
//! at a time. This crate turns those embarrassingly parallel loops into
//! multi-core sweeps **without leaving `std`** (the workspace builds
//! offline, so `rayon`/`crossbeam` are not options):
//!
//! * [`par_map`] — map a pure function over a slice. The caller and up
//!   to `threads − 1` threads of **one persistent, process-wide pool**
//!   pull **chunks of work from a shared atomic cursor**
//!   (self-balancing: a worker that finishes its chunk steals the next
//!   one, so uneven per-point cost does not serialize the sweep). The
//!   pool grows to the largest budget any map asks for and keeps its
//!   threads warm across maps; because the caller always works, a map
//!   nested inside a map item cannot starve,
//! * [`par_map_cancellable`] — the same worker loop under a cooperative
//!   [`Deadline`] (a budget of wall-clock time or of checks, which only
//!   runs out; nothing cancels it), returning one `Option` slot per item,
//! * [`ThreadBudget`] — where the thread count comes from: an explicit
//!   request, the `HTMPLL_THREADS` environment variable, or the
//!   machine's available parallelism, always clamped to
//!   `1..=`[`MAX_THREADS`],
//! * `htmpll-obs` telemetry — tasks executed, chunks grabbed, steal
//!   counts and per-worker busy time under the `par` target, so
//!   `plltool metrics` can report parallel efficiency.
//!
//! ## Determinism contract
//!
//! `par_map` calls `f` exactly once per item and writes each result into
//! the output slot of its item's index. For a pure `f`, the output is
//! therefore **bitwise identical** for every thread count, including 1 —
//! scheduling only decides *who* computes a point, never *what* is
//! computed. The workspace's `parallel_determinism` integration test
//! asserts this end to end.
//!
//! ```
//! use htmpll_par::{par_map, ThreadBudget};
//!
//! let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let seq = par_map(ThreadBudget::Fixed(1), &xs, |_, &x| x.sqrt());
//! let par = par_map(ThreadBudget::Fixed(4), &xs, |_, &x| x.sqrt());
//! assert_eq!(seq, par); // bitwise: same ops, same order per item
//! ```

#![warn(missing_docs)]

pub mod cancel;
mod pool;

pub use cancel::Deadline;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable consulted by [`ThreadBudget::Auto`].
pub const THREADS_ENV: &str = "HTMPLL_THREADS";

/// The most threads any budget resolves to. The pool never shrinks, so
/// a thread count taken from untrusted input (a request field or
/// `HTMPLL_THREADS`) is clamped here rather than spawned.
pub const MAX_THREADS: usize = 256;

/// Where a sweep's worker-thread count comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ThreadBudget {
    /// `HTMPLL_THREADS` if set to a positive integer, otherwise the
    /// machine's available parallelism (clamped to [`MAX_THREADS`]).
    #[default]
    Auto,
    /// An explicit thread count (clamped to `1..=MAX_THREADS` at
    /// resolution).
    Fixed(usize),
}

impl From<usize> for ThreadBudget {
    /// `0` means [`ThreadBudget::Auto`]; any positive value is
    /// [`ThreadBudget::Fixed`].
    fn from(n: usize) -> Self {
        if n == 0 {
            ThreadBudget::Auto
        } else {
            ThreadBudget::Fixed(n)
        }
    }
}

impl ThreadBudget {
    /// Resolves to a concrete thread count in `1..=MAX_THREADS`.
    pub fn resolve(self) -> usize {
        let n = match self {
            ThreadBudget::Fixed(n) => n,
            ThreadBudget::Auto => match std::env::var(THREADS_ENV) {
                Ok(v) => match v.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => available_threads(),
                },
                Err(_) => available_threads(),
            },
        };
        n.clamp(1, MAX_THREADS)
    }
}

/// The machine's available parallelism (1 when undeterminable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Chunk size for `n` items across `threads` workers: ~4 chunks per
/// worker so a fast worker can steal from a slow one, but never so small
/// that the cursor contention dominates point cost.
pub(crate) fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).max(1)
}

/// Maps `f` over `items` in parallel, preserving item order in the
/// output. `f` receives `(index, &item)` and must be pure for the
/// determinism contract to hold (it is called exactly once per item
/// regardless of thread count).
///
/// With a resolved budget of 1 (or ≤ 1 items) the map runs inline on the
/// calling thread — no pool, no synchronization, and `htmpll-obs` span
/// nesting stays attached to the caller. Otherwise the caller works as
/// one of the map's threads and the shared pool supplies the rest.
///
/// # Panics
///
/// Propagates a panic from `f` on the calling thread, after every pool
/// thread working on this map has left it; the pool threads survive.
pub fn par_map<T, R, F>(budget: ThreadBudget, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut parts = map_chunks(budget, items, &Deadline::none(), f);
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut parts = parts.into_iter();
    let mut out = parts.next().map(|(_, p)| p).unwrap_or_default();
    out.reserve(items.len() - out.len());
    for (_, mut p) in parts {
        out.append(&mut p);
    }
    debug_assert_eq!(out.len(), items.len());
    out
}

/// [`par_map`] with a cooperative [`Deadline`]: the budget is checked
/// before every item, and once it expires no further item is started.
/// Returns one slot per item — `Some(r)` for items computed before
/// expiry, `None` for items skipped after it.
///
/// The determinism contract narrows but holds: a `Some` slot holds
/// exactly the bits [`par_map`] would have produced for that item, for
/// any thread count. Which slots are `Some` is timing-dependent under a
/// wall-clock budget; use [`Deadline::after_checks`] when the completed
/// *set* must also be reproducible. An unbounded deadline
/// ([`Deadline::none`]) adds one `Option` test per item over
/// [`par_map`].
pub fn par_map_cancellable<T, R, F>(
    budget: ThreadBudget,
    items: &[T],
    deadline: &Deadline,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut completed = 0usize;
    for (start, part) in map_chunks(budget, items, deadline, f) {
        completed += part.len();
        for (slot, r) in slots[start..].iter_mut().zip(part) {
            *slot = Some(r);
        }
    }
    if completed < n {
        htmpll_obs::counter!("par", "cancelled_tasks").add((n - completed) as u64);
    }
    slots
}

/// The one worker loop behind every map: runs `f` over `items`
/// until `deadline` expires and returns `(start_index, results)` per
/// chunk, in completion order. A chunk's results are a prefix of its
/// items (shorter only when the deadline expired mid-chunk); chunks
/// never grabbed are absent. With a resolved budget of 1 (or ≤ 1 items)
/// it runs inline as a single chunk; otherwise on the caller plus up to
/// `threads − 1` pool threads.
fn map_chunks<T, R, F>(
    budget: ThreadBudget,
    items: &[T],
    deadline: &Deadline,
    f: F,
) -> Vec<(usize, Vec<R>)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = budget.resolve().min(n.max(1));
    htmpll_obs::counter!("par", "tasks").add(n as u64);
    if threads <= 1 {
        // Same span as the threaded path so traces carry a `par` timeline
        // at every thread count; children still nest under the caller.
        let _span = htmpll_obs::span_labeled("par", "map", || format!("n={n},threads=1"));
        let mut out = Vec::with_capacity(n);
        for (i, t) in items.iter().enumerate() {
            if deadline.expired() {
                break;
            }
            out.push(f(i, t));
        }
        return vec![(0, out)];
    }

    let _span = htmpll_obs::span_labeled("par", "map", || format!("n={n},threads={threads}"));
    let telemetry = htmpll_obs::record!("par", "worker_busy_ns").is_enabled();
    // Fault scopes are thread-local; pool workers must re-establish
    // the caller's ambient scope or scope-gated injection sites would
    // silently stop firing above one thread (breaking the chaos
    // harness's thread-count invariance).
    let fault_scope = htmpll_fault::current_scope();
    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    // Workers publish (start_index, results) per chunk; callers place
    // them by start index, so placement is deterministic no matter
    // which worker computed which chunk.
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n / chunk + threads));
    pool::run(threads - 1, |widx| {
        let _fault = htmpll_fault::scope_guard(fault_scope);
        // Busy/steal timeline: the worker span brackets this worker's
        // busy life; each chunk is a child span; every grab after the
        // first is a steal marker. All trace-only (high cardinality
        // would pollute the metric registry).
        let _wspan = htmpll_obs::trace_span("par", || format!("worker{{w{widx}}}"));
        let started = telemetry.then(Instant::now);
        let mut grabbed = 0usize;
        loop {
            if deadline.expired() {
                break;
            }
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            if grabbed > 0 {
                htmpll_obs::instant("par", || format!("steal{{w{widx}@{start}}}"));
            }
            let _cspan = htmpll_obs::trace_span("par", || format!("chunk{{{start}..{end}}}"));
            let mut out = Vec::with_capacity(end - start);
            for (i, t) in items[start..end].iter().enumerate() {
                if !out.is_empty() && deadline.expired() {
                    break;
                }
                out.push(f(start + i, t));
            }
            parts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((start, out));
            grabbed += 1;
        }
        if grabbed > 0 {
            htmpll_obs::counter!("par", "chunks").add(grabbed as u64);
            // Everything beyond a worker's first grab came off the
            // shared cursor while other workers were busy: steals.
            htmpll_obs::counter!("par", "steals").add((grabbed - 1) as u64);
        }
        if let Some(t0) = started {
            htmpll_obs::record!("par", "worker_busy_ns").record(t0.elapsed().as_secs_f64() * 1e9);
        }
    });
    parts.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let out = par_map(ThreadBudget::Fixed(7), &xs, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(ThreadBudget::Fixed(4), &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(ThreadBudget::Fixed(4), &[9u8], |_, &x| x), vec![9]);
    }

    #[test]
    fn identical_across_thread_counts() {
        let xs: Vec<f64> = (1..500).map(|i| i as f64 * 0.37).collect();
        let f = |_: usize, &x: &f64| (x.sin() * x.sqrt()).exp();
        let one = par_map(ThreadBudget::Fixed(1), &xs, f);
        for t in [2, 3, 4, 9] {
            let many = par_map(ThreadBudget::Fixed(t), &xs, f);
            assert!(one
                .iter()
                .zip(&many)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different cost must all complete and land in
        // their slots.
        let xs: Vec<usize> = (0..97).collect();
        let out = par_map(ThreadBudget::Fixed(5), &xs, |_, &x| {
            let iters = if x % 10 == 0 { 20_000 } else { 10 };
            (0..iters).fold(x as f64, |a, _| a + (a * 1e-9).sin())
        });
        assert_eq!(out.len(), 97);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn budget_resolution() {
        assert_eq!(ThreadBudget::Fixed(0).resolve(), 1);
        assert_eq!(ThreadBudget::Fixed(3).resolve(), 3);
        // Resolving only computes a number: no thread starts here.
        assert_eq!(ThreadBudget::Fixed(1_000_000).resolve(), MAX_THREADS);
        assert_eq!(ThreadBudget::from(0usize), ThreadBudget::Auto);
        assert_eq!(ThreadBudget::from(2usize), ThreadBudget::Fixed(2));
        assert!(ThreadBudget::Auto.resolve() >= 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn chunking_covers_everything() {
        for n in [1usize, 2, 5, 16, 33, 1024] {
            for t in [1usize, 2, 4, 8] {
                let c = chunk_size(n, t);
                assert!(c >= 1);
                // Enough chunks to cover all items.
                assert!(c * n.div_ceil(c) >= n);
            }
        }
    }

    #[test]
    fn cancellable_with_unbounded_deadline_matches_par_map() {
        let xs: Vec<f64> = (1..300).map(|i| i as f64 * 0.41).collect();
        let f = |_: usize, &x: &f64| (x.cos() * x.sqrt()).to_bits();
        let plain = par_map(ThreadBudget::Fixed(3), &xs, f);
        let cancellable = par_map_cancellable(ThreadBudget::Fixed(3), &xs, &Deadline::none(), f);
        assert_eq!(cancellable.len(), xs.len());
        for (a, b) in plain.iter().zip(&cancellable) {
            assert_eq!(
                Some(*a),
                *b,
                "unbounded deadline must not skip or change items"
            );
        }
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let xs: Vec<usize> = (0..50).collect();
        let d = Deadline::after_checks(0);
        for t in [1usize, 4] {
            let out = par_map_cancellable(ThreadBudget::Fixed(t), &xs, &d, |_, &x| x);
            // The threaded path guarantees progress per grabbed chunk but
            // a spent budget never grabs one.
            assert!(out.iter().all(|s| s.is_none()), "threads={t}: {out:?}");
        }
    }

    #[test]
    fn partial_results_are_bitwise_identical_to_full_run() {
        let xs: Vec<f64> = (1..200).map(|i| i as f64 * 0.77).collect();
        let f = |_: usize, &x: &f64| (x.sin() * x.ln()).to_bits();
        let full = par_map(ThreadBudget::Fixed(1), &xs, f);
        for t in [1usize, 2, 5] {
            let d = Deadline::after_checks(40);
            let part = par_map_cancellable(ThreadBudget::Fixed(t), &xs, &d, f);
            let completed = part.iter().filter(|s| s.is_some()).count();
            assert!(
                completed < xs.len(),
                "threads={t}: a 40-check budget must expire mid-grid"
            );
            assert!(
                completed > 0,
                "threads={t}: some items must complete before expiry"
            );
            for (i, slot) in part.iter().enumerate() {
                if let Some(bits) = slot {
                    assert_eq!(
                        *bits, full[i],
                        "threads={t} item {i} changed under cancellation"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_timeline_has_worker_and_chunk_events() {
        // Pool threads are shared: the other tests of this binary run
        // their maps on the same threads while the process-global trace
        // session is open. Each item of this map emits a tag, and only
        // the worker spans that enclose a tag — this map's workers — are
        // checked.
        const TAG: &str = "item{trace_timeline}";
        htmpll_obs::trace_start(1 << 14);
        let xs: Vec<usize> = (0..64).collect();
        let _ = par_map(ThreadBudget::Fixed(2), &xs, |_, &x| {
            htmpll_obs::instant("par_test", || TAG.to_string());
            x + 1
        });
        let t = htmpll_obs::trace_stop();
        let is_worker =
            |e: &htmpll_obs::TraceEvent| e.cat == "par" && e.name.starts_with("worker{");
        let tids: std::collections::BTreeSet<u64> = t
            .events
            .iter()
            .filter(|e| e.cat == "par_test" && e.name == TAG)
            .map(|e| e.tid)
            .collect();
        let mut par_events: Vec<&htmpll_obs::TraceEvent> = Vec::new();
        for tid in tids {
            // The `par` events of the worker span open on this thread,
            // and whether a tag fell inside it.
            let mut open: Option<(Vec<&htmpll_obs::TraceEvent>, bool)> = None;
            for e in t.events.iter().filter(|e| e.tid == tid) {
                if is_worker(e) && e.phase == htmpll_obs::TracePhase::Begin {
                    open = Some((vec![e], false));
                } else if let Some((span, tagged)) = open.as_mut() {
                    if e.cat == "par_test" && e.name == TAG {
                        *tagged = true;
                    } else if e.cat == "par" {
                        span.push(e);
                    }
                    if is_worker(e) && e.phase == htmpll_obs::TracePhase::End {
                        let (span, tagged) = open.take().expect("a worker span is open");
                        if tagged {
                            par_events.extend(span);
                        }
                    }
                }
            }
        }
        assert!(
            par_events.iter().any(|e| e.name.starts_with("worker{")),
            "missing worker timeline: {par_events:?}"
        );
        assert!(
            par_events.iter().any(|e| e.name.starts_with("chunk{")),
            "missing chunk timeline: {par_events:?}"
        );
        // Every worker begin has a matching end.
        let begins = par_events
            .iter()
            .filter(|e| is_worker(e) && e.phase == htmpll_obs::TracePhase::Begin)
            .count();
        let ends = par_events
            .iter()
            .filter(|e| is_worker(e) && e.phase == htmpll_obs::TracePhase::End)
            .count();
        assert_eq!(begins, ends);
        assert!(begins >= 1);
    }

    /// The widest budget any test in this binary asks for, less the
    /// caller: the most pool threads the binary ever needs.
    const MAX_HELPERS: usize = 8;

    #[test]
    fn nested_maps_deeper_than_the_pool_complete() {
        // Every level asks for helpers while the levels above hold
        // them; the callers' own work carries each level through.
        fn level(depth: usize) -> u64 {
            if depth == 0 {
                return 1;
            }
            par_map(ThreadBudget::Fixed(3), &[0u8, 1], |_, _| level(depth - 1))
                .into_iter()
                .sum()
        }
        let depth = MAX_HELPERS + 2;
        assert!(depth > pool::threads());
        assert_eq!(level(depth), 1 << depth);
    }

    #[test]
    fn helper_panic_reraises_on_caller_and_pool_keeps_serving() {
        // Two one-item chunks, and each worker that takes one waits for
        // the other: the caller takes one item and a pool thread the
        // other, and only the pool thread panics.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(ThreadBudget::Fixed(2), &[0u8, 1], |_, &x| {
                barrier.wait();
                assert!(std::thread::current().id() == caller, "boom on a helper");
                x
            })
        }))
        .expect_err("the helper's panic reaches the caller");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("boom on a helper"), "payload: {msg:?}");
        // A pool thread still serves the next map: the barrier only
        // opens once a helper joins the caller.
        let barrier = std::sync::Barrier::new(2);
        let out = par_map(ThreadBudget::Fixed(2), &[3u8, 4], |_, &x| {
            barrier.wait();
            x * 2
        });
        assert_eq!(out, vec![6, 8]);
    }

    #[test]
    fn pool_threads_are_spawned_once() {
        fn os_threads() -> Option<usize> {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            let line = status.lines().find(|l| l.starts_with("Threads:"))?;
            line[8..].trim().parse().ok()
        }
        let before = os_threads();
        let ran_on = Mutex::new(std::collections::HashSet::new());
        let xs: Vec<usize> = (0..16).collect();
        for _ in 0..1000 {
            let out = par_map(ThreadBudget::Fixed(4), &xs, |_, &x| {
                ran_on.lock().unwrap().insert(std::thread::current().id());
                x + 1
            });
            assert_eq!(out[15], 16);
        }
        // A thread per map would show thousands of distinct threads.
        let ran_on = ran_on.into_inner().unwrap().len();
        assert!(ran_on <= 1 + MAX_HELPERS, "items ran on {ran_on} threads");
        assert!(
            pool::threads() <= MAX_HELPERS,
            "{} pool threads",
            pool::threads()
        );
        if let (Some(before), Some(after)) = (before, os_threads()) {
            // Room for the pool plus the test harness's own threads.
            assert!(
                after <= before + MAX_HELPERS + 16,
                "{before} -> {after} OS threads"
            );
        }
    }

    #[test]
    fn telemetry_counts_tasks_and_steals() {
        htmpll_obs::override_filter("par=debug");
        let xs: Vec<usize> = (0..256).collect();
        for cancellable in [false, true] {
            htmpll_obs::reset();
            if cancellable {
                let d = Deadline::none();
                let _ = par_map_cancellable(ThreadBudget::Fixed(4), &xs, &d, |_, &x| x + 1);
            } else {
                let _ = par_map(ThreadBudget::Fixed(4), &xs, |_, &x| x + 1);
            }
            let snap = htmpll_obs::snapshot();
            let get = |name: &str| {
                snap.iter()
                    .find(|m| m.key == name)
                    .unwrap_or_else(|| panic!("cancellable={cancellable}: missing metric {name}"))
            };
            assert!(get("par.tasks").count >= 256);
            assert!(get("par.chunks").count >= 1);
            let _ = get("par.worker_busy_ns");
        }
        htmpll_obs::override_filter("off");
    }
}
