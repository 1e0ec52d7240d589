//! # `plltool serve` — a streaming, cache-warm JSONL analysis service
//!
//! Long-running front-end over [`super::handle`]: requests arrive as
//! JSON lines (`{"id":...,"command":...,"params":{...}}`), responses
//! leave as `plltool/v1` envelope lines, **strictly in input order**
//! regardless of worker count or per-request runtime. Each line is
//! written as soon as every line before it is answered.
//!
//! ## Architecture
//!
//! ```text
//!   reader thread               worker threads (`workers`)       calling thread
//!  stdin ─► parse line ─► bounded ─► take one line
//!           + request id   queue        │ spec in flight? ─► join that run
//!                 │                     │ tail cache hit? ─► answer
//!          full? ─┤                     ▼ miss
//!   block (default)               handler (fault scope, catch_unwind)
//!   or shed (--shed)                    │ cache the tail, answer the
//!                 │                     │ lines that joined the run
//!                 └──── shed ───────────┴─► answer ─► reorder by seq; write
//!                                           channel   line k once lines 0..k
//!                                                     are answered
//! ```
//!
//! * **Backpressure**: the queue holds at most `queue_max` parsed
//!   requests. By default the reader *blocks* on a full queue (lossless
//!   backpressure through the pipe). With [`ServeOptions::shed`] it
//!   instead sheds the overflow request immediately with a structured
//!   `"code":"shed"` error so latency stays bounded. A worker starts a
//!   line only while it is fewer than `queue_max` lines ahead of the
//!   last one written, so the reorder map stays bounded too.
//! * **One handler run per spec**: a worker looks a line's canonical
//!   spec up in the in-flight map, then in the response-tail cache (a
//!   bounded LRU of 1,024 id-less envelope tails); a duplicate of a
//!   spec being computed joins that run, and only a line that finds
//!   neither runs the handler. The tail is cached *before* the spec
//!   leaves the in-flight map, so no duplicate can slip between the two.
//!   The cache lives as long as the server: one stream for
//!   [`serve_lines`], every connection for [`serve_unix`].
//! * **One answer path**: every response line — computed, cached,
//!   joined, error, shed or `stats` — is written by the calling thread,
//!   which records its latency (parse to write), error and cache hit as
//!   it writes it. Every line is an [`envelope`], or a cached tail
//!   behind the same prefix.
//! * **Graceful degradation**: a request can fail three ways — a
//!   malformed line (`bad_request`), a handler error (`failed`, e.g. an
//!   invalid design), or a handler panic (`panic`, contained by
//!   `catch_unwind` in the worker). All three produce a response line;
//!   none of them takes the process or its neighbors down. Numerically
//!   adversarial specs degrade through the usual `PointQuality` ladder
//!   and still answer.
//! * **Determinism**: handlers are pure functions of the request (a
//!   cached tail is the bytes the handler would produce again),
//!   responses are written by sequence number, and floats serialize via
//!   shortest-roundtrip `Display` — so the response stream is
//!   byte-identical for 1 or N workers.
//!
//! [`envelope`]: super::envelope

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, ErrorKind, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use super::response::{envelope, envelope_from_tail, envelope_tail, Response, ServiceError};
use super::{handlers, ServiceCtx};
use crate::num::{BoundedCache, CacheStats};
use crate::obs::JsonValue;
use crate::par::ThreadBudget;
use crate::requests::{Request, RequestId};
use htmpll_obs::counter;

/// Tuning knobs for one serve run. `Default` matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads, each taking one line at a time from the queue
    /// (`0` = auto-detect, as [`ThreadBudget::Auto`]).
    pub workers: usize,
    /// Parsed requests admitted into the queue before backpressure, and
    /// the most lines a worker may run ahead of the last one written.
    pub queue_max: usize,
    /// `true`: shed on a full queue (bounded latency); `false`
    /// (default): block the reader (lossless backpressure).
    pub shed: bool,
    /// Per-request wall-clock budget in milliseconds (`None` =
    /// unbounded). When set, a request that exceeds it answers with a
    /// retryable `"code":"deadline"` error (or a degraded partial
    /// result) instead of holding up the lines behind it. Each
    /// request's own budget starts when its handler runs; nothing else
    /// cancels it.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_max: 256,
            shed: false,
            deadline_ms: None,
        }
    }
}

/// What one serve run did, returned to the front-end for its summary
/// line. A request's latency runs from the parse of its line to the
/// write of its response line, so a line that waits behind a slower
/// one counts that wait.
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
    /// Drains of the answer channel: each time the calling thread
    /// wakes, it takes every answer that has arrived and writes the
    /// lines that are next in order.
    pub batches: u64,
    /// Most answers taken in one drain.
    pub max_batch: u64,
    /// Requests answered without running a handler: response-tail
    /// cache hits plus duplicates that joined a run in flight.
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

/// Recovers a poisoned mutex: serve state (the queue, the in-flight
/// map, the written count) stays valid across a panic unwound
/// mid-update. Every recovery is counted (`serve/lock_poisoned`) so a
/// fault-injection or chaos run can verify the containment path
/// actually executed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        counter!("serve", "lock_poisoned").inc();
        poisoned.into_inner()
    })
}

/// The counters the reader thread writes; the calling thread reads
/// them for `stats` and the final summary. Everything else is counted
/// by the calling thread alone, in its [`ServeSummary`].
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

/// One parsed input line traveling reader → queue → worker.
struct LineJob {
    waiter: Waiter,
    parsed: Result<Request, String>,
}

/// One answered line traveling worker (or reader) → calling thread.
struct Reply {
    waiter: Waiter,
    line: Line,
}

enum Line {
    /// The response line; `error` and `hit` are counted when it is
    /// written.
    Ready {
        text: String,
        error: bool,
        hit: bool,
    },
    /// A `stats` request, rendered when its turn comes so it reflects
    /// every line before it.
    Stats,
}

impl Reply {
    /// A failure that never reached a handler: a malformed line, an
    /// unservable command, a shed request.
    fn error(waiter: Waiter, err: ServiceError) -> Reply {
        let text = envelope(&Response::Error(err), &waiter.id, None);
        Reply {
            waiter,
            line: Line::Ready {
                text,
                error: true,
                hit: false,
            },
        }
    }

    /// A spec's id-less envelope tail; `hit` marks a line that ran no
    /// handler (a tail-cache hit or a duplicate that joined a run).
    fn tail(waiter: Waiter, tail: &str, ok: bool, hit: bool) -> Reply {
        let text = envelope_from_tail(&waiter.id, tail);
        Reply {
            waiter,
            line: Line::Ready {
                text,
                error: !ok,
                hit,
            },
        }
    }
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
/// response-tail cache that both outlive the call. The reader and the
/// workers are scoped threads; the calling thread writes (`W` need not
/// be `Send`).
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
    let workers = Workers {
        ctx,
        tails,
        in_flight: Mutex::new(HashMap::new()),
        written: Written::default(),
        window: opts.queue_max.max(1) as u64,
    };
    let mut w = Writer {
        opts,
        start,
        counts: &counts,
        tails,
        tails_at_open: tails.stats(),
        summary: ServeSummary::default(),
        latencies_ns: Vec::new(),
        pending: BTreeMap::new(),
        next: 0,
        gone: false,
        error: None,
    };
    let (tx, rx) = sync_channel::<LineJob>(opts.queue_max.max(1));
    let jobs = Mutex::new(rx);
    let (replies, answers) = channel::<Reply>();

    let run: Result<(), String> = std::thread::scope(|scope| {
        for _ in 0..ThreadBudget::from(opts.workers).resolve() {
            let (workers, jobs, counts, replies) = (&workers, &jobs, &counts, replies.clone());
            scope.spawn(move || workers.run(jobs, &counts.queue_depth, &replies));
        }
        // The reader holds the last sender: once it and every worker
        // are done, the answer channel closes and the writer returns.
        let counts = &counts;
        let reader = scope.spawn(move || read_lines(input, tx, replies, counts, opts));
        let wrote = w.run(answers, output, &workers.written);
        let read = reader
            .join()
            .map_err(|_| "serve: reader thread panicked".to_string())?;
        wrote?;
        read
    });
    run?;

    let (p50, p99) = w.latency_quantiles();
    Ok(ServeSummary {
        received: counts.received.load(Ordering::SeqCst),
        shed: counts.shed.load(Ordering::SeqCst),
        p50_latency_ns: p50,
        p99_latency_ns: p99,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        ..w.summary
    })
}

/// The reader thread: parses each non-empty line into the bounded
/// queue, blocking on a full queue or, with `shed`, answering the
/// overflow line straight into the answer channel.
fn read_lines<R: BufRead>(
    input: R,
    tx: SyncSender<LineJob>,
    replies: Sender<Reply>,
    counts: &ReaderCounts,
    opts: &ServeOptions,
) -> Result<(), String> {
    let mut seq: u64 = 0;
    for line in input.lines() {
        let line = match line {
            Ok(line) => line,
            // A client that vanishes mid-stream is EOF, not a serve
            // failure: finish the work already admitted.
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
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
        // Count the job before a worker can receive it, so its
        // `fetch_sub` never runs ahead and wraps the depth; a job that
        // does not enter the queue is uncounted again.
        counts.queue_depth.fetch_add(1, Ordering::SeqCst);
        if opts.shed {
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    counts.shed.fetch_add(1, Ordering::SeqCst);
                    counter!("serve", "shed").inc();
                    let _ = replies.send(Reply::error(job.waiter, shed_error(opts.queue_max)));
                }
                Err(TrySendError::Disconnected(_)) => {
                    counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    return Err("serve: workers hung up".to_string());
                }
            }
        } else if tx.send(job).is_err() {
            counts.queue_depth.fetch_sub(1, Ordering::SeqCst);
            return Err("serve: workers hung up".to_string());
        }
    }
    Ok(())
}

/// How many lines the calling thread has written; a worker waits on it
/// before it starts a line too far ahead.
#[derive(Default)]
struct Written {
    lines: Mutex<u64>,
    advanced: Condvar,
}

/// What the workers share for one serve run.
struct Workers<'a> {
    ctx: &'a ServiceCtx,
    tails: &'a TailCache,
    /// Specs whose handler is running, each with the lines that joined
    /// the run.
    in_flight: Mutex<HashMap<String, Vec<Waiter>>>,
    written: Written,
    /// A worker starts line `seq` only once `seq < written + window`.
    window: u64,
}

impl Workers<'_> {
    /// One worker: takes one line at a time until the queue closes.
    fn run(
        &self,
        jobs: &Mutex<Receiver<LineJob>>,
        queue_depth: &AtomicU64,
        replies: &Sender<Reply>,
    ) {
        loop {
            let Ok(job) = lock(jobs).recv() else {
                return;
            };
            queue_depth.fetch_sub(1, Ordering::SeqCst);
            let mut written = lock(&self.written.lines);
            while job.waiter.seq >= *written + self.window {
                written = self
                    .written
                    .advanced
                    .wait(written)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            drop(written);
            self.answer(job, replies);
        }
    }

    /// Answers one line: an error for a malformed or unservable line, a
    /// `stats` placeholder, or the spec's tail — joined to a run in
    /// flight, from the tail cache, or from its own handler run.
    fn answer(&self, LineJob { waiter, parsed }: LineJob, replies: &Sender<Reply>) {
        // Fault site: pretend this line failed envelope parsing. Keyed
        // by sequence number, so the set of corrupted lines is a pure
        // function of the fault plan — independent of workers or
        // timing.
        let parsed = if htmpll_fault::fires_global("serve.malformed", waiter.seq) {
            counter!("serve", "fault.malformed").inc();
            Err(format!(
                "fault injection: malformed envelope for line {}",
                waiter.seq
            ))
        } else {
            parsed
        };
        let send = |reply: Reply| {
            // The calling thread holds the receiver until every sender
            // is gone, so a send fails only if it panicked.
            let _ = replies.send(reply);
        };
        let req = match parsed {
            Err(message) => return send(Reply::error(waiter, ServiceError::bad_request(message))),
            Ok(Request::Stats) => {
                return send(Reply {
                    waiter,
                    line: Line::Stats,
                })
            }
            Ok(req) if !req.is_servable() => {
                let err = ServiceError::unsupported(
                    req.command(),
                    format!(
                        "`{}` mutates process-global state; run it via the plltool CLI",
                        req.command()
                    ),
                );
                return send(Reply::error(waiter, err));
            }
            Ok(req) => req,
        };

        let key = req.canonical_json();
        {
            // Both lookups under one lock, so two lines of one spec
            // cannot both miss and both run the handler.
            let mut in_flight = lock(&self.in_flight);
            if let Some(joined) = in_flight.get_mut(&key) {
                joined.push(waiter);
                return;
            }
            if let Some(tail) = self.tails.get(&key) {
                drop(in_flight);
                return send(Reply::tail(waiter, &tail, true, true));
            }
            in_flight.insert(key.clone(), Vec::new());
        }

        // Pin the ambient fault scope to the request's canonical spec:
        // scope-gated fault rules then select the same victim
        // *requests* regardless of worker count or arrival order, and a
        // `cache.evict` storm reaches the tail cache too.
        let _fault_scope = htmpll_fault::scope_guard(Some(htmpll_fault::fnv64(key.as_bytes())));
        let resp = catch_unwind(AssertUnwindSafe(|| handlers::handle(&req, self.ctx)))
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
        let tail = envelope_tail(&resp, None);
        let ok = resp.failure().is_none();
        if ok {
            self.tails.insert(key.clone(), tail.clone());
        }
        // Only now leave the in-flight map: a duplicate that no longer
        // finds the spec there finds its tail in the cache.
        let joined = lock(&self.in_flight).remove(&key).unwrap_or_default();
        send(Reply::tail(waiter, &tail, ok, false));
        for waiter in joined {
            send(Reply::tail(waiter, &tail, ok, true));
        }
    }
}

/// The calling thread's state for one serve run: its counters, latency
/// samples and the reorder map. Every line is counted in
/// [`Writer::write`], as it is written.
struct Writer<'a> {
    opts: &'a ServeOptions,
    start: Instant,
    counts: &'a ReaderCounts,
    tails: &'a TailCache,
    /// The tail cache's counters when this stream opened, so `stats`
    /// reports this stream's misses and evictions.
    tails_at_open: CacheStats,
    summary: ServeSummary,
    latencies_ns: Vec<u64>,
    /// Answered lines waiting for their turn, keyed by sequence number.
    pending: BTreeMap<u64, Reply>,
    /// The next sequence number to write.
    next: u64,
    /// The client hung up or a write failed: lines are still counted,
    /// no longer written.
    gone: bool,
    /// The first write error other than a vanished client.
    error: Option<String>,
}

impl Writer<'_> {
    /// Drains the answer channel until every sender is gone, writing
    /// each line as soon as the lines before it are written.
    fn run<W: Write>(
        &mut self,
        answers: Receiver<Reply>,
        output: &mut W,
        written: &Written,
    ) -> Result<(), String> {
        while let Ok(first) = answers.recv() {
            let mut drained = 1;
            self.pending.insert(first.waiter.seq, first);
            for reply in answers.try_iter() {
                self.pending.insert(reply.waiter.seq, reply);
                drained += 1;
            }
            self.summary.batches += 1;
            self.summary.max_batch = self.summary.max_batch.max(drained);
            counter!("serve", "batches").inc();

            let before = self.next;
            while let Some(reply) = self.pending.remove(&self.next) {
                self.write(reply, output);
                self.next += 1;
            }
            if self.next > before {
                self.flush(output);
                *lock(&written.lines) = self.next;
                written.advanced.notify_all();
            }
        }
        self.error.take().map_or(Ok(()), Err)
    }

    /// Writes one line and counts it: latency, error, cache hit,
    /// `responded`.
    fn write<W: Write>(&mut self, Reply { waiter, line }: Reply, output: &mut W) {
        let ns = waiter.t0.elapsed().as_nanos() as u64;
        htmpll_obs::record!("serve", "latency_ns").record(ns as f64);
        self.latencies_ns.push(ns);
        let text = match line {
            Line::Ready { text, error, hit } => {
                self.summary.errors += u64::from(error);
                if hit {
                    self.summary.response_cache_hits += 1;
                    counter!("serve", "cache_hits").inc();
                }
                text
            }
            // After the latency sample, so `stats` counts itself.
            Line::Stats => envelope(&Response::Stats(self.stats_json()), &waiter.id, None),
        };
        if !self.gone {
            if let Err(e) = writeln!(output, "{text}") {
                self.fail(e, "write");
            }
        }
        self.summary.responded += 1;
        counter!("serve", "responses").inc();
    }

    fn flush<W: Write>(&mut self, output: &mut W) {
        if !self.gone {
            if let Err(e) = output.flush() {
                self.fail(e, "flush");
            }
        }
    }

    /// A client that hangs up mid-stream (BrokenPipe) turns writes into
    /// no-ops: the run keeps draining its queue and counters instead of
    /// aborting with lines unaccounted for. Any other I/O error does
    /// the same and is returned once the run is drained.
    fn fail(&mut self, e: std::io::Error, what: &str) {
        self.gone = true;
        if e.kind() == ErrorKind::BrokenPipe {
            counter!("serve", "broken_pipe").inc();
            eprintln!("serve: client disconnected mid-stream; draining remaining work");
        } else {
            self.error = Some(format!("serve: {what} error: {e}"));
        }
    }

    /// (p50, p99) over the latencies recorded so far, nearest-rank.
    fn latency_quantiles(&self) -> (u64, u64) {
        let mut xs = self.latencies_ns.clone();
        xs.sort_unstable();
        (percentile(&xs, 0.50), percentile(&xs, 0.99))
    }

    /// The `stats` result, built by the calling thread when the line's
    /// turn comes: `responded`, `errors`, the latency samples and
    /// `hits` cover exactly the lines before it (the samples also its
    /// own). In `response_cache`, `hits` counts this stream's lines
    /// answered without running a handler (tail-cache hits plus joined
    /// duplicates); `misses` (the specs computed) and `evictions` are
    /// the tail cache's own [`CacheStats`] since this stream opened,
    /// and `entries` is its current size.
    fn stats_json(&self) -> String {
        let (p50, p99) = self.latency_quantiles();
        let tail = self.tails.stats();
        let s = &self.summary;
        format!(
            "{{\"uptime_ns\":{},\"received\":{},\"responded\":{},\"queue_depth\":{},\
             \"queue_max\":{},\"shed\":{},\"errors\":{},\"batches\":{},\"max_batch\":{},\
             \"latency\":{{\"p50_ns\":{},\"p99_ns\":{},\"count\":{}}},\
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

    #[test]
    fn stats_answers_at_its_place_in_line_order() {
        // Seven lines ahead of `stats` (two errors, one repeat), two
        // after it: the snapshot covers exactly the seven, and its own
        // latency sample.
        let before = concat!(
            "{\"id\":0,\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n",
            "not json\n",
            "{\"id\":2,\"command\":\"analyze\",\"params\":{\"ratio\":0.12}}\n",
            "{\"id\":3,\"command\":\"analyze\",\"params\":{\"ratio\":0.1}}\n",
            "{\"id\":4,\"command\":\"analyze\",\"params\":{\"ratio\":-1}}\n",
            "{\"id\":5,\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":4}}\n",
            "{\"id\":6,\"command\":\"sweep\",\"params\":{\"from\":0.05,\"to\":0.2,\"points\":4}}\n",
        );
        let k = before.lines().count();
        let input = format!(
            "{before}{{\"id\":\"s\",\"command\":\"stats\"}}\n\
             {{\"id\":8,\"command\":\"analyze\",\"params\":{{\"ratio\":0.3}}}}\n\
             also not json\n"
        );
        for workers in [1, 2, 4] {
            let opts = ServeOptions {
                workers,
                ..ServeOptions::default()
            };
            let (out, summary) = run_serve(&input, &opts);
            assert_eq!((summary.responded, summary.errors), (k as u64 + 3, 3));
            let stats = crate::obs::parse_json(out.lines().nth(k).unwrap()).unwrap();
            let field = |path: &[&str]| {
                let mut v = stats.get("result").unwrap();
                for key in path {
                    v = v.get(key).unwrap();
                }
                v.as_f64().unwrap() as usize
            };
            assert_eq!(field(&["responded"]), k, "{workers} workers");
            assert_eq!(field(&["latency", "count"]), k + 1, "{workers} workers");
            assert_eq!(field(&["errors"]), 2, "{workers} workers");
            assert_eq!(field(&["response_cache", "hits"]), 1, "{workers} workers");
        }
    }

    #[test]
    fn latency_ends_when_the_line_is_written() {
        // A fast `analyze` on a second worker finishes long before the
        // slow `sweep` ahead of it, but its line waits for the sweep's:
        // both latencies cover the sweep's handler time.
        let sweep =
            "{\"id\":0,\"command\":\"sweep\",\"params\":{\"from\":0.05,\"to\":0.3,\"points\":24}}";
        let (_, req) = Request::from_json_line(sweep).unwrap();
        // The faster of two runs alone: a lower bound on its handler
        // time that load from other tests can only raise.
        let handler_ns = (0..2)
            .map(|_| {
                let t = Instant::now();
                handlers::handle(&req, &ServiceCtx::new());
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap();
        let input =
            format!("{sweep}\n{{\"id\":1,\"command\":\"analyze\",\"params\":{{\"ratio\":0.1}}}}\n");
        let opts = ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        };
        let (_, summary) = run_serve(&input, &opts);
        assert!(
            summary.p50_latency_ns >= handler_ns / 2,
            "p50 {} ns, sweep handler {handler_ns} ns",
            summary.p50_latency_ns
        );
    }
}
