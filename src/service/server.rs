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
//!            + request id    queue        │  group waiters by canonical spec
//!                            │            ▼
//!                     full? ─┤        tail cache ──► hit: no handler
//!              block (default)            │ miss
//!              or shed (--shed)           ▼
//!                            │      par_map: one handler run per spec
//!                            │            │
//!                            └─ shed ─────┴──► answer (every line: latency,
//!                                               error, hit, reorder map)
//!                                                  │
//!                                                  ▼
//!                                       in-order flush (by sequence number)
//! ```
//!
//! * **Backpressure**: the queue holds at most `queue_max` parsed
//!   requests. By default the reader *blocks* on a full queue (lossless
//!   backpressure through the pipe). With [`ServeOptions::shed`] it
//!   instead sheds the overflow request immediately with a structured
//!   `"code":"shed"` error so latency stays bounded.
//! * **Admission batching**: the dispatcher drains whatever is queued
//!   (up to `batch_max`) into one batch and groups its requests by
//!   canonical spec, so each distinct spec is looked up once in the
//!   response-tail cache (a bounded LRU of 1,024 id-less envelope
//!   tails) and computed at most once; every other request of its
//!   group shares that tail. The cache lives as long as the server:
//!   one stream for [`serve_lines`], every connection for
//!   [`serve_unix`].
//! * **One answer path**: every response line — computed, cached,
//!   duplicate, error, shed or `stats` — passes through one function
//!   that records its latency, error and cache hit and files it in the
//!   sequence-keyed reorder map. Every line is a [`envelope`], or a
//!   cached tail behind the same prefix.
//! * **Graceful degradation**: a request can fail three ways — a
//!   malformed line (`bad_request`), a handler error (`failed`, e.g. an
//!   invalid design), or a handler panic (`panic`, contained by
//!   `catch_unwind` inside the worker job). All three produce a
//!   response line; none of them takes the process or its neighbors in
//!   the batch down. Numerically adversarial specs degrade through the
//!   usual `PointQuality` ladder and still answer.
//! * **Determinism**: handlers are pure functions of the request (a
//!   cached tail is the bytes the handler would produce again),
//!   responses are reassembled by sequence number, and floats
//!   serialize via shortest-roundtrip `Display` — so the response
//!   stream is byte-identical for 1 or N workers.
//!
//! [`envelope`]: super::envelope

use std::collections::BTreeMap;
use std::io::{BufRead, ErrorKind, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TrySendError};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::response::{envelope, envelope_from_tail, envelope_tail, Response, ServiceError};
use super::{handlers, json, ServiceCtx};
use crate::num::{BoundedCache, CacheStats};
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
    /// Per-request wall-clock budget in milliseconds (`None` =
    /// unbounded). When set, a request that exceeds it answers with a
    /// retryable `"code":"deadline"` error (or a degraded partial
    /// result) instead of holding its batch. Each request's own budget
    /// starts when its handler runs; nothing else cancels it.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_max: 256,
            batch_max: 32,
            shed: false,
            deadline_ms: None,
        }
    }
}

/// What one serve run did, returned to the front-end for its summary
/// line. Latency is measured per request from parse to envelope.
#[derive(Clone, Debug, Default)]
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
    /// Requests answered without running a handler: response-tail
    /// cache hits plus in-batch duplicates of a computed spec.
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
        format!(
            "{} responses ({} errors, {} shed) in {:.3}s | {} batches (max {}) | \
             p50 {:.3}ms p99 {:.3}ms | response-cache {} hits",
            self.responded,
            self.errors,
            self.shed,
            self.elapsed_ns as f64 / 1e9,
            self.batches,
            self.max_batch,
            self.p50_latency_ns as f64 / 1e6,
            self.p99_latency_ns as f64 / 1e6,
            self.response_cache_hits,
        )
    }
}

/// Recovers a poisoned mutex: serve state (the shed list) stays valid
/// across a panic unwound mid-update. Every
/// recovery is counted (`serve/lock_poisoned`) so a fault-injection or
/// chaos run can verify the containment path actually executed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        counter!("serve", "lock_poisoned").inc();
        poisoned.into_inner()
    })
}

/// The counters the reader thread writes; the dispatcher reads them
/// for `stats`, progress lines and the final summary. Everything else
/// is counted by the dispatcher alone, in its [`ServeSummary`].
#[derive(Default)]
struct ReaderCounts {
    received: AtomicU64,
    shed: AtomicU64,
    queue_depth: AtomicU64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Capacity of the response-tail cache: id-less envelope tails keyed
/// by the canonical request JSON, so an identical spec asked under a
/// different id (or with differently spelled flags) is answered
/// without recomputation. Only fully-ok responses are stored.
const TAIL_CACHE_CAP: usize = 1024;

/// The response-tail cache one server keeps for its whole life.
type TailCache = BoundedCache<String, String>;

/// One request awaiting its response line.
struct Waiter {
    seq: u64,
    id: RequestId,
    /// When the line was parsed; the request's latency starts here.
    t0: Instant,
}

/// One parsed input line traveling reader → queue → dispatcher.
struct LineJob {
    waiter: Waiter,
    parsed: Result<Request, String>,
}

/// How a waiter is answered; [`Dispatcher::answer`] turns each into
/// its one response line.
enum Answer<'a> {
    /// A failure that never reached a handler: a malformed line, an
    /// unservable command, a shed request.
    Error(ServiceError),
    /// The live `stats` snapshot.
    Stats,
    /// A spec's id-less envelope tail. `computed` is when this
    /// waiter's handler finished; `None` marks an answer that ran no
    /// handler (a tail-cache hit or an in-batch duplicate).
    Tail {
        tail: &'a str,
        ok: bool,
        computed: Option<Instant>,
    },
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
/// fresh context and an empty response-tail cache; see [`serve_unix`]
/// for the socket front-end that keeps both warm across connections.
pub fn serve_lines<R, W>(
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> Result<ServeSummary, String>
where
    R: BufRead + Send,
    W: Write,
{
    let ctx = ServiceCtx::with_deadline_ms(opts.deadline_ms);
    serve_on(&ctx, input, output, opts, &TailCache::new(TAIL_CACHE_CAP))
}

/// The serve core: one connection/stream against a context and a
/// response-tail cache that both outlive the call.
fn serve_on<R, W>(
    ctx: &ServiceCtx,
    input: R,
    output: &mut W,
    opts: &ServeOptions,
    tails: &TailCache,
) -> Result<ServeSummary, String>
where
    R: BufRead + Send,
    W: Write,
{
    let start = Instant::now();
    let counts = ReaderCounts::default();
    let shed_list: Mutex<Vec<Waiter>> = Mutex::new(Vec::new());
    let mut d = Dispatcher {
        ctx,
        opts,
        start,
        counts: &counts,
        tails,
        tails_at_open: tails.stats(),
        summary: ServeSummary::default(),
        dispatched: 0,
        latencies_ns: Vec::new(),
        pending: BTreeMap::new(),
    };
    let batch_max = opts.batch_max.max(1);

    let run: Result<(), String> = std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<LineJob>(opts.queue_max.max(1));
        let (counts, shed_list) = (&counts, &shed_list);

        let shed_mode = opts.shed;
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
                counts.received.fetch_add(1, Ordering::SeqCst);
                counter!("serve", "requests").inc();
                let (id, parsed) = match Request::from_json_line(&line) {
                    Ok((id, req)) => (id, Ok(req)),
                    Err(e) => (id_of_line(&line), Err(e)),
                };
                let job = LineJob {
                    waiter: Waiter {
                        seq,
                        id,
                        t0: Instant::now(),
                    },
                    parsed,
                };
                seq += 1;
                // Count the job before the dispatcher can receive it,
                // so its `fetch_sub` never runs ahead and wraps the
                // depth; a job that does not enter the queue is
                // uncounted again.
                counts.queue_depth.fetch_add(1, Ordering::SeqCst);
                if shed_mode {
                    match tx.try_send(job) {
                        Ok(()) => {}
                        Err(TrySendError::Full(job)) => {
                            counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            counts.shed.fetch_add(1, Ordering::SeqCst);
                            counter!("serve", "shed").inc();
                            lock(shed_list).push(job.waiter);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            return Err("serve: dispatcher hung up".to_string());
                        }
                    }
                } else if tx.send(job).is_err() {
                    counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    return Err("serve: dispatcher hung up".to_string());
                }
            }
            Ok(())
        });

        let dispatch: Result<(), String> = (|| {
            let mut next_out: u64 = 0;
            let mut open = true;
            let mut client_gone = false;
            loop {
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
                counts
                    .queue_depth
                    .fetch_sub(batch.len() as u64, Ordering::SeqCst);

                if !batch.is_empty() {
                    d.run_batch(batch);
                }

                // Shed requests join the reorder map out of band.
                let shed = std::mem::take(&mut *lock(shed_list));
                for waiter in &shed {
                    d.answer(waiter, Answer::Error(shed_error(opts.queue_max)));
                }

                // In-order flush. A client that hangs up mid-stream
                // (BrokenPipe) turns writes into no-ops: the run
                // keeps draining its queue and counters instead of
                // aborting with half the batch unaccounted for.
                while let Some(line) = d.pending.remove(&next_out) {
                    if !client_gone {
                        client_gone = write_line(output, &line)?;
                    }
                    next_out += 1;
                    d.summary.responded += 1;
                    counter!("serve", "responses").inc();
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

                if !open {
                    // The reader is done and its shed list drained, so
                    // nothing can join the reorder map anymore. Whatever
                    // is left sits behind a sequence gap that cannot
                    // fill (defensive): flush it rather than spin.
                    for (_, line) in std::mem::take(&mut d.pending) {
                        if !client_gone {
                            client_gone = write_line(output, &line)?;
                        }
                        d.summary.responded += 1;
                    }
                    return Ok(());
                }
            }
        })();

        let read = reader
            .join()
            .map_err(|_| "serve: reader thread panicked".to_string())?;
        dispatch?;
        read
    });
    run?;

    let (p50, p99) = d.latency_quantiles();
    Ok(ServeSummary {
        received: counts.received.load(Ordering::SeqCst),
        shed: counts.shed.load(Ordering::SeqCst),
        p50_latency_ns: p50,
        p99_latency_ns: p99,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        ..d.summary
    })
}

/// The dispatcher's state for one serve run: its counters, latency
/// samples and the reorder map, written only through
/// [`Dispatcher::answer`] (and the flush, which counts `responded`).
struct Dispatcher<'a> {
    ctx: &'a ServiceCtx,
    opts: &'a ServeOptions,
    start: Instant,
    counts: &'a ReaderCounts,
    tails: &'a TailCache,
    /// The tail cache's counters when this stream opened, so `stats`
    /// reports this stream's misses and evictions.
    tails_at_open: CacheStats,
    summary: ServeSummary,
    /// Requests admitted in batches, for `stats`' batch occupancy.
    dispatched: u64,
    latencies_ns: Vec<u64>,
    /// Response lines waiting for their turn, keyed by sequence number.
    pending: BTreeMap<u64, String>,
}

impl Dispatcher<'_> {
    /// Answers one admission batch. Requests are grouped by canonical
    /// spec (every key starts with its command, so groups run in
    /// `(command, spec)` order); each group gets one tail-cache lookup
    /// and at most one handler run, and its first waiter stands for it.
    fn run_batch(&mut self, batch: Vec<LineJob>) {
        self.summary.batches += 1;
        self.summary.max_batch = self.summary.max_batch.max(batch.len() as u64);
        self.dispatched += batch.len() as u64;
        counter!("serve", "batches").inc();

        let mut groups: BTreeMap<String, (Request, Vec<Waiter>)> = BTreeMap::new();
        // Answered after the batch's pool work so they reflect the
        // requests queued ahead of them (output order is seq-keyed and
        // unaffected).
        let mut stats_waiters: Vec<Waiter> = Vec::new();
        for LineJob { waiter, parsed } in batch {
            // Fault site: pretend this line failed envelope parsing.
            // Keyed by sequence number, so the set of corrupted lines is
            // a pure function of the fault plan — independent of workers
            // or timing.
            let parsed = if htmpll_fault::fires_global("serve.malformed", waiter.seq) {
                counter!("serve", "fault.malformed").inc();
                Err(format!(
                    "fault injection: malformed envelope for line {}",
                    waiter.seq
                ))
            } else {
                parsed
            };
            match parsed {
                Err(message) => {
                    self.answer(&waiter, Answer::Error(ServiceError::bad_request(message)));
                }
                Ok(Request::Stats) => stats_waiters.push(waiter),
                Ok(req) if !req.is_servable() => {
                    let err = ServiceError::unsupported(
                        req.command(),
                        format!(
                            "`{}` mutates process-global state; run it via the plltool CLI",
                            req.command()
                        ),
                    );
                    self.answer(&waiter, Answer::Error(err));
                }
                Ok(req) => {
                    groups
                        .entry(req.canonical_json())
                        .or_insert_with(|| (req, Vec::new()))
                        .1
                        .push(waiter);
                }
            }
        }

        // A spec answered in an earlier batch (or by an earlier
        // connection) is served from the tail cache without running its
        // handler.
        let mut work: Vec<(String, Request, Vec<Waiter>)> = Vec::new();
        for (key, (req, waiters)) in groups {
            match self.tails.get(&key) {
                Some(tail) => {
                    for waiter in &waiters {
                        let hit = Answer::Tail {
                            tail: &tail,
                            ok: true,
                            computed: None,
                        };
                        self.answer(waiter, hit);
                    }
                }
                None => work.push((key, req, waiters)),
            }
        }

        let ctx = self.ctx;
        let results = par_map(ThreadBudget::from(self.opts.workers), &work, |_, item| {
            let (key, req, _) = item;
            // Pin the ambient fault scope to the request's canonical
            // spec: scope-gated fault rules then select the same victim
            // *requests* regardless of worker count, batch shape, or
            // arrival order.
            let _fault_scope = htmpll_fault::scope_guard(Some(htmpll_fault::fnv64(key.as_bytes())));
            let resp = catch_unwind(AssertUnwindSafe(|| handlers::handle(req, ctx)))
                .unwrap_or_else(|_| {
                    Response::Error(ServiceError {
                        command: req.command().to_string(),
                        code: "panic",
                        message: "request handler panicked; the panic was contained and only \
                                  this request failed"
                            .to_string(),
                        retryable: false,
                        quality: None,
                    })
                });
            (
                envelope_tail(&resp, None),
                resp.failure().is_none(),
                Instant::now(),
            )
        });
        for ((key, _, waiters), (tail, ok, finished)) in work.into_iter().zip(results) {
            if ok {
                // Under the request's fault scope, like its handler: a
                // `cache.evict` storm reaches this cache too.
                let _fault_scope =
                    htmpll_fault::scope_guard(Some(htmpll_fault::fnv64(key.as_bytes())));
                self.tails.insert(key, tail.clone());
            }
            // The first waiter ran the handler; the rest are in-batch
            // duplicates answered from its tail.
            for (i, waiter) in waiters.iter().enumerate() {
                let computed = (i == 0).then_some(finished);
                self.answer(
                    waiter,
                    Answer::Tail {
                        tail: &tail,
                        ok,
                        computed,
                    },
                );
            }
        }
        for waiter in &stats_waiters {
            self.answer(waiter, Answer::Stats);
        }
    }

    /// The one answer path: records the waiter's latency, error and
    /// cache hit, and files its line in the reorder map.
    fn answer(&mut self, waiter: &Waiter, answer: Answer<'_>) {
        let done = match answer {
            Answer::Tail {
                computed: Some(finished),
                ..
            } => finished,
            _ => Instant::now(),
        };
        let ns = done.saturating_duration_since(waiter.t0).as_nanos() as u64;
        htmpll_obs::record!("serve", "latency_ns").record(ns as f64);
        self.latencies_ns.push(ns);
        let line = match answer {
            Answer::Error(err) => {
                self.summary.errors += 1;
                envelope(&Response::Error(err), &waiter.id, None)
            }
            // After the latency sample, so `stats` counts itself.
            Answer::Stats => envelope(&Response::Stats(self.stats_json()), &waiter.id, None),
            Answer::Tail { tail, ok, computed } => {
                if !ok {
                    self.summary.errors += 1;
                }
                if computed.is_none() {
                    self.summary.response_cache_hits += 1;
                    counter!("serve", "cache_hits").inc();
                }
                envelope_from_tail(&waiter.id, tail)
            }
        };
        self.pending.insert(waiter.seq, line);
    }

    /// (p50, p99) over the latencies recorded so far, nearest-rank.
    fn latency_quantiles(&self) -> (u64, u64) {
        let mut xs = self.latencies_ns.clone();
        xs.sort_unstable();
        (percentile(&xs, 0.50), percentile(&xs, 0.99))
    }

    /// The `stats` result, built by the dispatcher (it needs the live
    /// queue, not a worker). In `response_cache`, `hits` counts this
    /// stream's requests answered without running a handler (tail-cache
    /// hits plus in-batch duplicates); `misses` (the specs computed)
    /// and `evictions` are the tail cache's own [`CacheStats`] since
    /// this stream opened, and `entries` is its current size.
    fn stats_json(&self) -> String {
        let (p50, p99) = self.latency_quantiles();
        let tail = self.tails.stats();
        let s = &self.summary;
        let occupancy = if s.batches == 0 {
            0.0
        } else {
            self.dispatched as f64 / s.batches as f64
        };
        format!(
            "{{\"uptime_ns\":{},\"received\":{},\"responded\":{},\"queue_depth\":{},\
             \"queue_max\":{},\"shed\":{},\"errors\":{},\"batches\":{},\"max_batch\":{},\
             \"batch_occupancy\":{},\"latency\":{{\"p50_ns\":{},\"p99_ns\":{},\"count\":{}}},\
             \"response_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}}}}",
            self.start.elapsed().as_nanos(),
            self.counts.received.load(Ordering::SeqCst),
            s.responded,
            self.counts.queue_depth.load(Ordering::SeqCst),
            self.opts.queue_max,
            self.counts.shed.load(Ordering::SeqCst),
            s.errors,
            s.batches,
            s.max_batch,
            json::num(occupancy),
            p50,
            p99,
            self.latencies_ns.len(),
            s.response_cache_hits,
            tail.misses - self.tails_at_open.misses,
            tail.evictions - self.tails_at_open.evictions,
            tail.entries,
        )
    }
}

/// The answer to a request shed on a full queue of `queue_max`.
fn shed_error(queue_max: usize) -> ServiceError {
    ServiceError {
        command: String::new(),
        code: "shed",
        message: format!(
            "queue full ({queue_max} deep); request shed — retry, or raise --queue-max / \
             drop --shed for blocking backpressure"
        ),
        // Shedding is a load condition, not a property of the request:
        // resubmitting can succeed.
        retryable: true,
        quality: None,
    }
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
/// the *same* context and response-tail cache, so a spec answered on
/// one connection is a cache hit on the next. Runs until the process
/// is killed.
#[cfg(unix)]
pub fn serve_unix(path: &str, opts: &ServeOptions) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("serve: bind {path}: {e}"))?;
    // Remove the socket file on every exit path (error return, panic
    // unwind), so a restarted server never finds a stale socket.
    let _cleanup = SocketCleanup(std::path::PathBuf::from(path));
    let ctx = ServiceCtx::with_deadline_ms(opts.deadline_ms);
    let tails = TailCache::new(TAIL_CACHE_CAP);
    eprintln!("serve: listening on {path}");
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("serve: accept: {e}"))?;
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("serve: clone stream: {e}"))?,
        );
        let mut writer = std::io::BufWriter::new(stream);
        match serve_on(&ctx, reader, &mut writer, opts, &tails) {
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
        assert!(lines[2].contains("\"response_cache\":{\"hits\":0,\"misses\":2,"));
        assert!(!lines[2].contains("sweep_cache"));
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
    fn connections_share_the_tail_cache() {
        // Two runs over one context and one tail cache, as `serve_unix`
        // serves two connections: the second answers from the cache.
        let ctx = ServiceCtx::new();
        let tails = TailCache::new(TAIL_CACHE_CAP);
        let analyze = "{\"id\":1,\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n";
        let connect = |input: String| {
            let mut out = Vec::new();
            let opts = ServeOptions::default();
            let summary = serve_on(&ctx, Cursor::new(input), &mut out, &opts, &tails).unwrap();
            (String::from_utf8(out).unwrap(), summary)
        };
        let (first, a) = connect(analyze.to_string());
        let misses = tails.stats().misses;
        let (second, b) = connect(format!("{analyze}{{\"command\":\"stats\"}}\n"));
        assert_eq!((a.response_cache_hits, b.response_cache_hits), (0, 1));
        assert_eq!(tails.stats().misses, misses, "no new miss");
        let (answer, stats) = second.split_once('\n').unwrap();
        assert_eq!(first, format!("{answer}\n"));
        // `stats` counts this connection: one hit, no miss.
        assert!(
            stats.contains(
                "\"response_cache\":{\"hits\":1,\"misses\":0,\"evictions\":0,\"entries\":1}"
            ),
            "{stats}"
        );
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
        assert_eq!(summary.errors, summary.shed, "every shed line is an error");
        if summary.shed > 0 {
            assert!(out.contains("\"code\":\"shed\""));
        }
    }
}
