//! Benchmark-side spans: the benchmark times its own calls into each
//! layer's public functions (the program under test is not modified).
//!
//! A span records its name, start, end, parent span and the id of the
//! item (request, explore request, design) it belongs to. Spans stay in
//! memory and are written out once, at the end of the traced run. A
//! layer's self time is its duration minus the part of that interval
//! covered by its children (children may overlap when they ran on
//! different threads, so the covered part is the union of their
//! intervals).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use htmpll::service::json::str_lit;

use crate::stats::{percentile, sorted};

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Parent span id (`0` for a root span).
    pub parent: u64,
    pub item: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

/// In-memory span recorder. A disabled tracer hands out inert guards
/// and never reads the clock, so untraced runs pay one branch per span.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    item: u64,
    name: String,
    start_ns: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (`0` = root) for `item`.
    pub fn span(&self, name: &str, parent: u64, item: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent,
                item,
                name: String::new(),
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            item,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking workload")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Median duration in milliseconds of the spans named `name`, or
    /// `None` when no such span was recorded.
    pub fn p50_ms(&self, name: &str) -> Option<f64> {
        let durs: Vec<f64> = self
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        (!durs.is_empty()).then(|| percentile(&sorted(&durs), 0.5))
    }
}

impl SpanGuard<'_> {
    /// The id children pass as their parent (`0` when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.on {
            return;
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            item: self.item,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            tid: TID.with(|t| *t),
        };
        // A poisoned store only means another workload thread panicked;
        // the panic itself fails the run, so dropping this span is fine.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent's own interval).
pub fn self_times_ns(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// The span file: every span with its self time, then a per-name
/// summary (count, total and median duration, total self time).
pub fn spans_json(workload: &str, spans: &[SpanRec]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = format!("{{\"workload\":{},\"spans\":[", str_lit(workload));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"item\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"tid\":{}}}",
            s.id,
            s.parent,
            s.item,
            str_lit(&s.name),
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0),
            s.tid
        ));
    }
    out.push_str("\n],\"summary\":{");
    let mut by_name: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(&s.name).or_default();
        e.0.push((s.end_ns - s.start_ns) as f64);
        e.1 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    for (i, (name, (durs, self_ns))) in by_name.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = sorted(durs);
        out.push_str(&format!(
            "\n{}:{{\"count\":{},\"total_ms\":{},\"p50_ms\":{},\"self_ms\":{}}}",
            str_lit(name),
            s.len(),
            s.iter().sum::<f64>() / 1e6,
            percentile(&s, 0.5) / 1e6,
            *self_ns as f64 / 1e6
        ));
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            item: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (two
        // threads), a third 90..120 is clipped to the parent.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 30),
            rec(3, 1, 20, 50),
            rec(4, 1, 90, 120),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&4], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("x", 0, 1);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        {
            let outer = t.span("outer", 0, 7);
            let _inner = t.span("inner", outer.id(), 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(t.p50_ms("inner").is_some() && t.p50_ms("nope").is_none());
        assert!(spans_json("w", &spans).contains("\"summary\""));
    }
}
