//! # `plltool serve` — a batched, cache-warm JSONL analysis service
//!
//! Long-running front-end over [`super::handle`]: requests arrive as
//! JSON lines (`{"id":...,"command":...,"params":{...}}`), responses
//! leave as `plltool/v1` envelope lines, **strictly in input order**
//! regardless of worker count or per-request runtime.
//!
//! ## Architecture
//!
//! ```text
//!            reader thread                dispatcher (caller thread)
//!  stdin ──► parse line ──► bounded ──► admission batch (≤ batch_max)
//!            + request id    queue        │  sort by (command, spec)
//!                            │            ▼
//!                     full? ─┤        par_map ──► envelope tails
//!              block (default)            │    (shared SweepCache +
//!              or shed (--shed)           │     response-tail cache)
//!                                         ▼
//!                               in-order flush (seq-keyed reorder map)
//! ```
//!
//! * **Backpressure**: the queue holds at most `queue_max` parsed
//!   requests. By default the reader *blocks* on a full queue (lossless
//!   backpressure through the pipe). With [`ServeOptions::shed`] it
//!   instead sheds the overflow request immediately with a structured
//!   `"code":"shed"` error so latency stays bounded.
//! * **Admission batching**: the dispatcher drains whatever is queued
//!   (up to `batch_max`) into one batch and sorts it by
//!   `(command, canonical spec)` before fanning out, so identical and
//!   near-identical specs land adjacently and reuse warm LU
//!   factorizations through the shared [`SweepCache`]
//!   within the batch — and across batches through the same cache.
//! * **Graceful degradation**: a request can fail three ways — a
//!   malformed line (`bad_request`), a handler error (`failed`, e.g. an
//!   invalid design), or a handler panic (`panic`, contained by
//!   `catch_unwind` inside the worker job). All three produce a
//!   response line; none of them takes the process or its neighbors in
//!   the batch down. Numerically adversarial specs degrade through the
//!   usual `PointQuality` ladder and still answer.
//! * **Determinism**: handlers are pure functions of the request (the
//!   caches are keyed by model fingerprint and return the same solves
//!   they would recompute), responses are reassembled by sequence
//!   number, and floats serialize via shortest-roundtrip `Display` —
//!   so the response stream is byte-identical for 1 or N workers.
//!
//! [`SweepCache`]: crate::core::SweepCache

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, ErrorKind, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::response::{envelope_tail, error_envelope, Response, ServiceError};
use super::{handlers, json, ServiceCtx};
use crate::obs::JsonValue;
use crate::par::{par_map, ThreadBudget};
use crate::requests::{Request, RequestId};
use htmpll_obs::counter;

/// Tuning knobs for one serve run. `Default` matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads per admission batch, the dispatcher included
    /// (`0` = auto-detect).
    pub workers: usize,
    /// Parsed requests admitted into the queue before backpressure.
    pub queue_max: usize,
    /// Largest admission batch handed to the workers at once.
    pub batch_max: usize,
    /// `true`: shed on a full queue (bounded latency); `false`
    /// (default): block the reader (lossless backpressure).
    pub shed: bool,
    /// Response-tail cache capacity in entries (`0` disables it).
    pub response_cache: usize,
    /// Emit a progress line to stderr every this many responses
    /// (`0` disables periodic logging).
    pub log_every: u64,
    /// Per-request wall-clock budget in milliseconds (`None` =
    /// unbounded). When set, a request that exceeds it answers with a
    /// retryable `"code":"deadline"` error (or a degraded partial
    /// result) instead of holding its batch, and a watchdog thread
    /// cancels in-flight work if the dispatcher stops making progress.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_max: 256,
            batch_max: 32,
            shed: false,
            response_cache: 1024,
            log_every: 0,
            deadline_ms: None,
        }
    }
}

/// What one serve run did, returned to the front-end for its summary
/// line. Latency is measured per request from parse to envelope.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Non-empty input lines seen.
    pub received: u64,
    /// Response lines written (== received on a clean run).
    pub responded: u64,
    /// Responses that carried an error member.
    pub errors: u64,
    /// Requests shed on a full queue (always 0 without `shed`).
    pub shed: u64,
    /// Admission batches dispatched.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Cross-request sweep-cache hits / misses at the end of the run.
    pub sweep_cache_hits: u64,
    /// See [`ServeSummary::sweep_cache_hits`].
    pub sweep_cache_misses: u64,
    /// Whole-response cache hits (identical spec re-asked).
    pub response_cache_hits: u64,
    /// Median request latency in nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile request latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Wall-clock for the whole run in nanoseconds.
    pub elapsed_ns: u64,
}

impl ServeSummary {
    /// One human line for stderr.
    pub fn render_line(&self) -> String {
        let denom = self.sweep_cache_hits + self.sweep_cache_misses;
        format!(
            "{} responses ({} errors, {} shed) in {:.3}s | {} batches (max {}) | \
             p50 {:.3}ms p99 {:.3}ms | sweep-cache {}/{} hits | response-cache {} hits",
            self.responded,
            self.errors,
            self.shed,
            self.elapsed_ns as f64 / 1e9,
            self.batches,
            self.max_batch,
            self.p50_latency_ns as f64 / 1e6,
            self.p99_latency_ns as f64 / 1e6,
            self.sweep_cache_hits,
            denom,
            self.response_cache_hits,
        )
    }
}

/// Recovers a poisoned mutex: serve state (counters, shed list, cache
/// maps) stays valid across a panic unwound mid-update. Every recovery
/// is counted (`serve/lock_poisoned`) so a fault-injection or chaos run
/// can verify the containment path actually executed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        counter!("serve", "lock_poisoned").inc();
        poisoned.into_inner()
    })
}

/// Live counters shared between the reader, the workers, and the
/// dispatcher; the `stats` request and the final summary read them.
#[derive(Default)]
struct ServeStats {
    received: AtomicU64,
    responded: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    dispatched: AtomicU64,
    max_batch: AtomicU64,
    queue_depth: AtomicU64,
    response_cache_hits: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl ServeStats {
    fn note_latency(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        htmpll_obs::record!("serve", "latency_ns").record(ns as f64);
        lock(&self.latencies_ns).push(ns);
    }

    /// (p50, p99, count) over latencies recorded so far, nearest-rank.
    fn latency_quantiles(&self) -> (u64, u64, usize) {
        let mut xs = lock(&self.latencies_ns).clone();
        xs.sort_unstable();
        (percentile(&xs, 0.50), percentile(&xs, 0.99), xs.len())
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Bounded cache of *id-less* envelope tails keyed by the canonical
/// request JSON, so an identical spec asked under a different id (or
/// with differently-spelled flags) is answered without recomputation.
/// Only fully-ok responses are stored; errors always recompute.
/// Eviction is FIFO — good enough for a repeated-spec working set.
struct TailCache {
    cap: usize,
    inner: Mutex<TailCacheInner>,
}

#[derive(Default)]
struct TailCacheInner {
    map: HashMap<String, String>,
    order: VecDeque<String>,
}

impl TailCache {
    fn new(cap: usize) -> TailCache {
        TailCache {
            cap,
            inner: Mutex::new(TailCacheInner::default()),
        }
    }

    fn get(&self, key: &str) -> Option<String> {
        lock(&self.inner).map.get(key).cloned()
    }

    fn put(&self, key: String, tail: String) {
        if self.cap == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.order.len() >= self.cap {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, tail);
    }

    fn len(&self) -> usize {
        lock(&self.inner).order.len()
    }
}

/// One parsed input line traveling reader → queue → dispatcher.
struct LineJob {
    seq: u64,
    id: RequestId,
    parsed: Result<Request, String>,
    t0: Instant,
}

/// Best-effort id recovery for lines that fail request parsing but are
/// still JSON objects, so the error response can carry the caller's id.
fn id_of_line(line: &str) -> RequestId {
    match crate::obs::parse_json(line) {
        Ok(v) => match v.get("id") {
            Some(JsonValue::Str(s)) => RequestId::Str(s.clone()),
            Some(JsonValue::Num(n)) => RequestId::Num(*n),
            _ => RequestId::None,
        },
        Err(_) => RequestId::None,
    }
}

/// Runs the service over a line-delimited input until EOF, writing one
/// envelope line per request to `output` in input order. Creates a
/// fresh context; see [`serve_unix`] for the socket front-end that
/// keeps it warm across connections.
pub fn serve_lines<R, W>(
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> Result<ServeSummary, String>
where
    R: BufRead + Send,
    W: Write,
{
    let ctx = Arc::new(ServiceCtx::with_deadline_ms(opts.deadline_ms));
    serve_on(&ctx, input, output, opts)
}

/// The serve core: one connection/stream against a shared context
/// (it outlives the call, carrying warm caches to the next one).
fn serve_on<R, W>(
    ctx: &Arc<ServiceCtx>,
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> Result<ServeSummary, String>
where
    R: BufRead + Send,
    W: Write,
{
    let start = Instant::now();
    let stats = Arc::new(ServeStats::default());
    let shed_list: Arc<Mutex<Vec<(u64, RequestId)>>> = Arc::new(Mutex::new(Vec::new()));
    let tails = Arc::new(TailCache::new(opts.response_cache));
    let batch_max = opts.batch_max.max(1);

    // Dispatcher heartbeat (milliseconds since `start`) for the
    // watchdog: stamped whenever the dispatcher makes progress.
    let heartbeat = Arc::new(AtomicU64::new(0));
    let watchdog_stop = Arc::new(AtomicBool::new(false));

    let run: Result<(), String> = std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<LineJob>(opts.queue_max.max(1));
        let reader_stats = Arc::clone(&stats);
        let reader_shed = Arc::clone(&shed_list);
        let shed_mode = opts.shed;

        // Watchdog: while requests are in flight, a dispatcher that has
        // not stamped its heartbeat within the grace window is treated
        // as wedged; every in-flight deadline is cancelled so the
        // workers unwind cooperatively into partial / deadline
        // responses. Only armed together with `--deadline-ms` — without
        // a budget there is no contract on how long a request may run.
        if let Some(deadline_ms) = opts.deadline_ms {
            let stop = Arc::clone(&watchdog_stop);
            let hb = Arc::clone(&heartbeat);
            let wd_ctx = Arc::clone(ctx);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    let now_ms = start.elapsed().as_millis() as u64;
                    let stale_ms = now_ms.saturating_sub(hb.load(Ordering::SeqCst));
                    let inflight = {
                        let mut handles = lock(&wd_ctx.inflight);
                        handles.retain(crate::par::WeakDeadline::is_alive);
                        handles.len()
                    };
                    if watchdog_should_trip(inflight, stale_ms, deadline_ms) {
                        counter!("serve", "watchdog_trips").inc();
                        eprintln!(
                            "serve: watchdog: dispatcher quiet for {stale_ms}ms with {inflight} \
                             in-flight request(s); cancelling their deadlines"
                        );
                        for handle in lock(&wd_ctx.inflight).iter() {
                            handle.cancel();
                        }
                        // Re-arm instead of re-tripping every tick.
                        hb.store(now_ms, Ordering::SeqCst);
                    }
                }
            });
        }

        let reader = scope.spawn(move || -> Result<(), String> {
            let mut seq: u64 = 0;
            for line in input.lines() {
                let line = match line {
                    Ok(line) => line,
                    // A client that vanishes mid-stream is EOF, not a
                    // serve failure: finish the work already admitted.
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
                        ) =>
                    {
                        counter!("serve", "broken_pipe").inc();
                        break;
                    }
                    Err(e) => return Err(format!("serve: read error: {e}")),
                };
                if line.trim().is_empty() {
                    continue;
                }
                reader_stats.received.fetch_add(1, Ordering::SeqCst);
                counter!("serve", "requests").inc();
                let (id, parsed) = match Request::from_json_line(&line) {
                    Ok((id, req)) => (id, Ok(req)),
                    Err(e) => (id_of_line(&line), Err(e)),
                };
                let job = LineJob {
                    seq,
                    id,
                    parsed,
                    t0: Instant::now(),
                };
                seq += 1;
                if shed_mode {
                    match tx.try_send(job) {
                        Ok(()) => {
                            reader_stats.queue_depth.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(TrySendError::Full(job)) => {
                            reader_stats.shed.fetch_add(1, Ordering::SeqCst);
                            counter!("serve", "shed").inc();
                            lock(&reader_shed).push((job.seq, job.id));
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            return Err("serve: dispatcher hung up".to_string());
                        }
                    }
                } else {
                    reader_stats.queue_depth.fetch_add(1, Ordering::SeqCst);
                    if tx.send(job).is_err() {
                        return Err("serve: dispatcher hung up".to_string());
                    }
                }
            }
            Ok(())
        });

        let dispatch: Result<(), String> = (|| {
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            let mut next_out: u64 = 0;
            let mut open = true;
            let mut client_gone = false;
            loop {
                heartbeat.store(start.elapsed().as_millis() as u64, Ordering::SeqCst);
                // Admit a batch: block for the first item, then drain
                // whatever else is already queued. In shed mode, wake
                // periodically so shed responses flush even while the
                // pipeline is otherwise idle.
                let mut batch: Vec<LineJob> = Vec::new();
                if open {
                    if opts.shed {
                        match rx.recv_timeout(Duration::from_millis(25)) {
                            Ok(job) => batch.push(job),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => open = false,
                        }
                    } else {
                        match rx.recv() {
                            Ok(job) => batch.push(job),
                            Err(_) => open = false,
                        }
                    }
                    while batch.len() < batch_max {
                        match rx.try_recv() {
                            Ok(job) => batch.push(job),
                            Err(_) => break,
                        }
                    }
                }
                stats
                    .queue_depth
                    .fetch_sub(batch.len() as u64, Ordering::SeqCst);
                // Stamp after admission (the blocking receive above can
                // legitimately sit idle for any length of time): the
                // watchdog only measures time spent *executing* a batch.
                heartbeat.store(start.elapsed().as_millis() as u64, Ordering::SeqCst);

                if !batch.is_empty() {
                    stats.batches.fetch_add(1, Ordering::SeqCst);
                    stats
                        .dispatched
                        .fetch_add(batch.len() as u64, Ordering::SeqCst);
                    stats
                        .max_batch
                        .fetch_max(batch.len() as u64, Ordering::SeqCst);
                    counter!("serve", "batches").inc();

                    // Partition: inline answers (errors, stats, cache
                    // hits) vs. jobs for the workers.
                    let mut work: Vec<(u64, RequestId, Request, Instant, String)> = Vec::new();
                    let mut stats_jobs: Vec<(u64, RequestId, Instant)> = Vec::new();
                    for job in batch {
                        // Fault site: pretend this line failed envelope
                        // parsing. Keyed by sequence number, so the set
                        // of corrupted lines is a pure function of the
                        // fault plan — independent of workers or timing.
                        let parsed = if htmpll_fault::fires_global("serve.malformed", job.seq) {
                            counter!("serve", "fault.malformed").inc();
                            Err(format!(
                                "fault injection: malformed envelope for line {}",
                                job.seq
                            ))
                        } else {
                            job.parsed
                        };
                        match parsed {
                            Err(message) => {
                                stats.errors.fetch_add(1, Ordering::SeqCst);
                                stats.note_latency(job.t0);
                                pending.insert(
                                    job.seq,
                                    error_envelope(&job.id, &ServiceError::bad_request(message)),
                                );
                            }
                            Ok(Request::Stats) => {
                                // Answered after the batch's pool work so
                                // it reflects the requests queued ahead
                                // of it (output order is seq-keyed and
                                // unaffected).
                                stats_jobs.push((job.seq, job.id, job.t0));
                            }
                            Ok(req) if !req.is_servable() => {
                                stats.errors.fetch_add(1, Ordering::SeqCst);
                                stats.note_latency(job.t0);
                                let err = ServiceError::unsupported(
                                    req.command(),
                                    format!(
                                        "`{}` mutates process-global state; run it via the plltool CLI",
                                        req.command()
                                    ),
                                );
                                pending.insert(job.seq, error_envelope(&job.id, &err));
                            }
                            Ok(req) => {
                                let key = req.canonical_json();
                                if let Some(tail) = tails.get(&key) {
                                    stats.response_cache_hits.fetch_add(1, Ordering::SeqCst);
                                    counter!("serve", "cache_hits").inc();
                                    stats.note_latency(job.t0);
                                    pending.insert(job.seq, assemble(&job.id, &tail));
                                } else {
                                    work.push((job.seq, job.id, req, job.t0, key));
                                }
                            }
                        }
                    }

                    // Sort for batch affinity: identical commands and
                    // specs sit in adjacent pool chunks, so their warm
                    // factorizations collide in the shared cache shards
                    // as closely in time as possible.
                    work.sort_by(|a, b| {
                        (a.2.command(), a.4.as_str(), a.0).cmp(&(b.2.command(), b.4.as_str(), b.0))
                    });

                    // Intra-batch dedup: identical specs that arrived in
                    // the *same* admission batch (so none of them could
                    // see the other's response-cache entry yet) compute
                    // once; the duplicates share the representative's
                    // tail. The sort above makes duplicates adjacent.
                    let mut dups: Vec<(u64, RequestId, Instant, String)> = Vec::new();
                    work.dedup_by(|item, kept| {
                        let dup = kept.4 == item.4;
                        if dup {
                            dups.push((item.0, item.1.clone(), item.3, item.4.clone()));
                        }
                        dup
                    });

                    let results = par_map(ThreadBudget::from(opts.workers), &work, |_, item| {
                        let (seq, id, req, t0, key) = item;
                        // Pin the ambient fault scope to the request's
                        // canonical spec: scope-gated fault rules then
                        // select the same victim *requests* regardless
                        // of worker count, batch shape, or arrival
                        // order.
                        let _fault_scope =
                            htmpll_fault::scope_guard(Some(htmpll_fault::fnv64(key.as_bytes())));
                        let resp = catch_unwind(AssertUnwindSafe(|| handlers::handle(req, ctx)))
                            .unwrap_or_else(|_| {
                                Response::Error(ServiceError {
                                    command: req.command().to_string(),
                                    code: "panic",
                                    message: "request handler panicked; the panic was \
                                                  contained and only this request failed"
                                        .to_string(),
                                    retryable: false,
                                    quality: None,
                                })
                            });
                        let ok = resp.failure().is_none();
                        let tail = envelope_tail(&resp, None);
                        stats.note_latency(*t0);
                        (*seq, id.clone(), tail, ok, key.clone())
                    });
                    let mut batch_tails: HashMap<String, (String, bool)> = HashMap::new();
                    for (seq, id, tail, ok, key) in results {
                        if ok {
                            tails.put(key.clone(), tail.clone());
                        } else {
                            stats.errors.fetch_add(1, Ordering::SeqCst);
                        }
                        pending.insert(seq, assemble(&id, &tail));
                        batch_tails.insert(key, (tail, ok));
                    }
                    for (seq, id, t0, key) in dups {
                        // The representative always ran; its tail is in
                        // `batch_tails` whether it succeeded or failed.
                        if let Some((tail, ok)) = batch_tails.get(&key) {
                            stats.response_cache_hits.fetch_add(1, Ordering::SeqCst);
                            counter!("serve", "cache_hits").inc();
                            if !ok {
                                stats.errors.fetch_add(1, Ordering::SeqCst);
                            }
                            stats.note_latency(t0);
                            pending.insert(seq, assemble(&id, tail));
                        }
                    }
                    for (seq, id, t0) in stats_jobs {
                        stats.note_latency(t0);
                        pending.insert(seq, stats_envelope(&id, &stats, ctx, &tails, start, opts));
                    }
                }

                // Shed responses join the reorder map out of band.
                for (seq, id) in lock(&shed_list).drain(..) {
                    let err = ServiceError {
                        command: String::new(),
                        code: "shed",
                        message: format!(
                            "queue full ({} deep); request shed — retry, or raise --queue-max / \
                             drop --shed for blocking backpressure",
                            opts.queue_max
                        ),
                        // Shedding is a load condition, not a property
                        // of the request: resubmitting can succeed.
                        retryable: true,
                        quality: None,
                    };
                    pending.insert(seq, error_envelope(&id, &err));
                }

                // In-order flush. A client that hangs up mid-stream
                // (BrokenPipe) downgrades writes to no-ops: the run
                // keeps draining its queue and counters instead of
                // aborting with half the batch unaccounted for.
                while let Some(line) = pending.remove(&next_out) {
                    if !client_gone {
                        client_gone = write_line(output, &line)?;
                    }
                    next_out += 1;
                    let responded = stats.responded.fetch_add(1, Ordering::SeqCst) + 1;
                    counter!("serve", "responses").inc();
                    if opts.log_every > 0 && responded % opts.log_every == 0 {
                        let sweep = ctx.cache.stats();
                        eprintln!(
                            "serve: {responded} responded | queue {} | shed {} | sweep-cache {}/{}",
                            stats.queue_depth.load(Ordering::SeqCst),
                            stats.shed.load(Ordering::SeqCst),
                            sweep.hits,
                            sweep.hits + sweep.misses,
                        );
                    }
                }
                if !client_gone {
                    match output.flush() {
                        Ok(()) => {}
                        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                            counter!("serve", "broken_pipe").inc();
                            client_gone = true;
                        }
                        Err(e) => return Err(format!("serve: flush error: {e}")),
                    }
                }

                if !open && pending.is_empty() && lock(&shed_list).is_empty() {
                    return Ok(());
                }
                if !open && batch_is_stalled(&pending, next_out, &shed_list) {
                    // Defensive: a sequence gap after EOF cannot fill;
                    // flush what remains rather than spin forever.
                    for (_, line) in std::mem::take(&mut pending) {
                        if !client_gone {
                            client_gone = write_line(output, &line)?;
                        }
                        stats.responded.fetch_add(1, Ordering::SeqCst);
                    }
                    return Ok(());
                }
            }
        })();

        watchdog_stop.store(true, Ordering::SeqCst);
        let read = reader
            .join()
            .map_err(|_| "serve: reader thread panicked".to_string())?;
        dispatch?;
        read
    });
    run?;

    let (p50, p99, _) = stats.latency_quantiles();
    let sweep = ctx.cache.stats();
    Ok(ServeSummary {
        received: stats.received.load(Ordering::SeqCst),
        responded: stats.responded.load(Ordering::SeqCst),
        errors: stats.errors.load(Ordering::SeqCst),
        shed: stats.shed.load(Ordering::SeqCst),
        batches: stats.batches.load(Ordering::SeqCst),
        max_batch: stats.max_batch.load(Ordering::SeqCst),
        sweep_cache_hits: sweep.hits,
        sweep_cache_misses: sweep.misses,
        response_cache_hits: stats.response_cache_hits.load(Ordering::SeqCst),
        p50_latency_ns: p50,
        p99_latency_ns: p99,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    })
}

/// Writes one response line, tolerating a vanished client. Returns
/// `Ok(true)` when the client is gone (BrokenPipe — stop writing, keep
/// draining), `Ok(false)` on success, `Err` on any other I/O failure.
fn write_line<W: Write>(output: &mut W, line: &str) -> Result<bool, String> {
    match writeln!(output, "{line}") {
        Ok(()) => Ok(false),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            counter!("serve", "broken_pipe").inc();
            eprintln!("serve: client disconnected mid-stream; draining remaining work");
            Ok(true)
        }
        Err(e) => Err(format!("serve: write error: {e}")),
    }
}

/// The watchdog trip predicate, kept pure for testing: the dispatcher
/// is considered wedged when work is in flight but its heartbeat has
/// been quiet longer than the grace window.
fn watchdog_should_trip(inflight: usize, stale_ms: u64, deadline_ms: u64) -> bool {
    inflight > 0 && stale_ms > watchdog_grace_ms(deadline_ms)
}

/// Grace window before a stale heartbeat counts as a wedge: several
/// deadline budgets (a healthy batch finishes within roughly one), with
/// a floor so tiny budgets don't make the watchdog trigger-happy.
fn watchdog_grace_ms(deadline_ms: u64) -> u64 {
    (4 * deadline_ms).max(1000)
}

/// True when nothing can make progress anymore: input closed, no shed
/// entries waiting, but the next output sequence is absent.
fn batch_is_stalled(
    pending: &BTreeMap<u64, String>,
    next_out: u64,
    shed_list: &Mutex<Vec<(u64, RequestId)>>,
) -> bool {
    !pending.is_empty() && !pending.contains_key(&next_out) && lock(shed_list).is_empty()
}

fn assemble(id: &RequestId, tail: &str) -> String {
    format!("{{\"schema\":\"plltool/v1\",{}{}", id.json_fragment(), tail)
}

/// The `stats` request, answered inline by the dispatcher (it needs the
/// live queue, not a worker).
fn stats_envelope(
    id: &RequestId,
    stats: &ServeStats,
    ctx: &ServiceCtx,
    tails: &TailCache,
    start: Instant,
    opts: &ServeOptions,
) -> String {
    let (p50, p99, count) = stats.latency_quantiles();
    let sweep = ctx.cache.stats();
    let batches = stats.batches.load(Ordering::SeqCst);
    let dispatched = stats.dispatched.load(Ordering::SeqCst);
    let occupancy = if batches == 0 {
        0.0
    } else {
        dispatched as f64 / batches as f64
    };
    let sweep_total = sweep.hits + sweep.misses;
    let hit_rate = if sweep_total == 0 {
        0.0
    } else {
        sweep.hits as f64 / sweep_total as f64
    };
    let result = format!(
        "{{\"uptime_ns\":{},\"received\":{},\"responded\":{},\"queue_depth\":{},\
         \"queue_max\":{},\"shed\":{},\"errors\":{},\"batches\":{},\"max_batch\":{},\
         \"batch_occupancy\":{},\"latency\":{{\"p50_ns\":{},\"p99_ns\":{},\"count\":{}}},\
         \"sweep_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}},\
         \"response_cache\":{{\"hits\":{},\"entries\":{}}}}}",
        start.elapsed().as_nanos(),
        stats.received.load(Ordering::SeqCst),
        stats.responded.load(Ordering::SeqCst),
        stats.queue_depth.load(Ordering::SeqCst),
        opts.queue_max,
        stats.shed.load(Ordering::SeqCst),
        stats.errors.load(Ordering::SeqCst),
        batches,
        stats.max_batch.load(Ordering::SeqCst),
        json::num(occupancy),
        p50,
        p99,
        count,
        sweep.hits,
        sweep.misses,
        sweep.evictions,
        json::num(hit_rate),
        stats.response_cache_hits.load(Ordering::SeqCst),
        tails.len(),
    );
    format!(
        "{{\"schema\":\"plltool/v1\",{}\"command\":\"stats\",\"ok\":true,\"result\":{result},\"quality\":null}}",
        id.json_fragment()
    )
}

/// Drop guard that unlinks the Unix socket file when the serve loop
/// exits, however it exits.
#[cfg(unix)]
struct SocketCleanup(std::path::PathBuf);

#[cfg(unix)]
impl Drop for SocketCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Accepts connections on a Unix socket sequentially, serving each with
/// the *same* context — the sweep and response caches stay
/// warm across connections. Runs until the process is killed.
#[cfg(unix)]
pub fn serve_unix(path: &str, opts: &ServeOptions) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("serve: bind {path}: {e}"))?;
    // Remove the socket file on every exit path (error return, panic
    // unwind), so a restarted server never finds a stale socket.
    let _cleanup = SocketCleanup(std::path::PathBuf::from(path));
    let ctx = Arc::new(ServiceCtx::with_deadline_ms(opts.deadline_ms));
    eprintln!("serve: listening on {path}");
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("serve: accept: {e}"))?;
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("serve: clone stream: {e}"))?,
        );
        let mut writer = std::io::BufWriter::new(stream);
        match serve_on(&ctx, reader, &mut writer, opts) {
            Ok(summary) => eprintln!("serve: connection closed: {}", summary.render_line()),
            Err(e) => eprintln!("serve: connection error: {e}"),
        }
    }
    Ok(())
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_serve(input: &str, opts: &ServeOptions) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_lines(Cursor::new(input.to_string()), &mut out, opts).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn serves_in_order_with_ids() {
        let input = concat!(
            "{\"id\":\"a\",\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n",
            "{\"id\":2,\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":4}}\n",
            "{\"id\":\"c\",\"command\":\"stats\"}\n",
        );
        let (out, summary) = run_serve(input, &ServeOptions::default());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(
            "{\"schema\":\"plltool/v1\",\"id\":\"a\",\"command\":\"analyze\",\"ok\":true"
        ));
        assert!(lines[1]
            .starts_with("{\"schema\":\"plltool/v1\",\"id\":2,\"command\":\"step\",\"ok\":true"));
        assert!(lines[2].contains("\"command\":\"stats\""));
        assert!(lines[2].contains("\"sweep_cache\""));
        assert_eq!(summary.received, 3);
        assert_eq!(summary.responded, 3);
        assert_eq!(summary.shed, 0);
    }

    #[test]
    fn malformed_and_failed_lines_degrade_to_errors() {
        let input = concat!(
            "this is not json\n",
            "{\"id\":7,\"command\":\"nonsense\",\"params\":{}}\n",
            "{\"id\":8,\"command\":\"analyze\",\"params\":{\"ratio\":-1}}\n",
            "{\"id\":9,\"command\":\"metrics\",\"params\":{}}\n",
            "{\"id\":10,\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n",
        );
        let (out, summary) = run_serve(input, &ServeOptions::default());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"code\":\"bad_request\""));
        assert!(lines[1].contains("\"id\":7") && lines[1].contains("\"code\":\"bad_request\""));
        assert!(lines[2].contains("\"id\":8") && lines[2].contains("\"code\":\"failed\""));
        assert!(lines[3].contains("\"id\":9") && lines[3].contains("\"code\":\"unsupported\""));
        assert!(lines[4].contains("\"id\":10") && lines[4].contains("\"ok\":true"));
        assert_eq!(summary.errors, 4);
        assert_eq!(summary.responded, 5);
    }

    #[test]
    fn repeated_specs_hit_the_response_cache() {
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&format!(
                "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":0.1}}}}\n"
            ));
        }
        let (out, summary) = run_serve(&input, &ServeOptions::default());
        assert_eq!(out.lines().count(), 12);
        assert!(
            summary.response_cache_hits > 0,
            "identical specs must reuse the response tail ({summary:?})"
        );
        // Every body after the id must be identical.
        let tails: Vec<String> = out
            .lines()
            .map(|l| l.split_once("\"command\"").unwrap().1.to_string())
            .collect();
        assert!(tails.iter().all(|t| *t == tails[0]));
    }

    #[test]
    fn worker_count_does_not_change_the_bytes() {
        let mut input = String::new();
        for (i, ratio) in [0.08, 0.1, 0.12, 0.2, 0.1, 0.08].iter().enumerate() {
            input.push_str(&format!(
                "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{ratio}}}}}\n"
            ));
        }
        input.push_str(
            "{\"id\":\"bode\",\"command\":\"bode\",\"params\":{\"ratio\":0.1,\"points\":8}}\n",
        );
        let one = run_serve(
            &input,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        );
        let four = run_serve(
            &input,
            &ServeOptions {
                workers: 4,
                ..ServeOptions::default()
            },
        );
        assert_eq!(one.0, four.0, "serve output must be worker-count invariant");
    }

    #[test]
    fn watchdog_trip_predicate() {
        // Nothing in flight: an arbitrarily stale heartbeat is just an
        // idle dispatcher blocked on its input queue.
        assert!(!watchdog_should_trip(0, 60_000, 100));
        // In flight but within the grace window (floor is 1000 ms).
        assert!(!watchdog_should_trip(3, 900, 100));
        assert!(!watchdog_should_trip(1, 7_000, 2_000));
        // In flight and quiet past the grace window: wedged.
        assert!(watchdog_should_trip(1, 1_001, 100));
        assert!(watchdog_should_trip(2, 9_000, 2_000));
        assert_eq!(watchdog_grace_ms(100), 1_000);
        assert_eq!(watchdog_grace_ms(2_000), 8_000);
    }

    #[test]
    fn zero_deadline_returns_retryable_deadline_errors_in_order() {
        let input = concat!(
            "{\"id\":\"a\",\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n",
            "{\"id\":\"b\",\"command\":\"sweep\",\"params\":{\"from\":0.05,\"to\":0.2,\"points\":3}}\n",
            "{\"id\":\"c\",\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":4}}\n",
        );
        let opts = ServeOptions {
            deadline_ms: Some(0),
            ..ServeOptions::default()
        };
        let (out, summary) = run_serve(input, &opts);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "every request answers, none wedges");
        assert!(
            lines[0].contains("\"code\":\"deadline\"") && lines[0].contains("\"retryable\":true"),
            "analyze under a zero budget must fail retryably: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"code\":\"deadline\"") && lines[1].contains("\"quality\""),
            "sweep deadline error carries its quality roll-up: {}",
            lines[1]
        );
        // `step` never consults the deadline (no scan grids): still ok.
        assert!(lines[2].contains("\"ok\":true"));
        assert_eq!(summary.responded, 3);
    }

    #[test]
    fn shed_mode_answers_every_line() {
        let mut input = String::new();
        for i in 0..40 {
            input.push_str(&format!(
                "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":0.1}}}}\n"
            ));
        }
        let opts = ServeOptions {
            workers: 1,
            queue_max: 2,
            batch_max: 2,
            shed: true,
            ..ServeOptions::default()
        };
        let (out, summary) = run_serve(&input, &opts);
        assert_eq!(
            out.lines().count(),
            40,
            "every request gets a response line"
        );
        assert_eq!(summary.responded, 40);
        if summary.shed > 0 {
            assert!(out.contains("\"code\":\"shed\""));
        }
    }
}
