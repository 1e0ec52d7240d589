//! `serve_mix`: a seeded JSONL request mix through the public
//! `service::serve_lines` with two workers — the only workload where
//! the `requests` and `service` layers (parse, batching, response-tail
//! cache, envelope rendering, in-order flush) do real work.
//!
//! Every rep runs the same lines through two fresh servers:
//!
//! * **Capacity** (closed, lossless backpressure): all lines pushed at
//!   once; throughput is requests per second.
//! * **Clients** (closed loop): the first half of the lines, sent by
//!   [`CLIENTS`] clients that each wait for their response before they
//!   send again; latency runs from sending a line to its response line.
//!   The rep's latency sample is the median over its requests.
//!
//! The traced run adds an **open loop** at [`OPEN_RATE`], timed from
//! each line's due time, for the per-layer diagnostics. Latency with
//! idle cores is not gated. On a 2-core VM the speed of one busy core
//! swings with the load of the rest of the machine: the same paced
//! `analyze` took 2.7 ms or 4.5 ms, in spells lasting seconds. Over ten
//! 20-second runs, the median open-loop or one-client latency spread by
//! 30–40% (quartile distance over median). With both cores kept busy by
//! four clients, it spread by 8–15%.

use std::collections::BTreeMap;
use std::io::{BufRead, Cursor, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use htmpll::requests::Request;
use htmpll::service::{envelope, handle, serve_lines, ServeOptions, ServeSummary, ServiceCtx};

use crate::harness::{unrecorded, Outcome, Rep, Rng, RunConfig, Workload, THREADS, TRACE_REPS};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// Open-loop arrival rate, requests per second (about 30% of the
/// capacity measured on a 2-core host).
pub const OPEN_RATE: f64 = 150.0;
/// Distinct specs in the hot set.
const HOT_SET: usize = 16;
/// Closed-loop clients: two per serve worker keep both cores busy.
const CLIENTS: usize = 2 * THREADS;
/// Longest a client waits for a response before it sends the next line
/// anyway (a lost response then fails a check instead of hanging).
const CLIENT_PATIENCE: Duration = Duration::from_secs(30);

pub struct ServeMix {
    /// The rep's lines, each ending in a newline.
    lines: Vec<String>,
    /// `lines` concatenated: the capacity burst.
    burst: String,
    /// The traced run's open-loop lines.
    open_lines: Vec<String>,
    /// Serve totals over the traced reps: (received, batches, tail hits).
    traced: (u64, u64, u64),
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: THREADS,
        ..ServeOptions::default()
    }
}

/// `n` request lines: 55% distinct `analyze`, 15% `bode --lambda`, 10%
/// `spur`, 15% `analyze` from the hot set, 5% `sweep`. Class counts are
/// exact, parameters are drawn stratified over their ranges, the hot
/// set is used evenly, and each class is spread evenly through the
/// stream (at a seeded phase). Admission batches and any prefix of the
/// stream then hold the same mix whatever the seed; a shuffled order
/// would let one batch collect several slow sweeps and make the
/// throughput depend on the seed. Requests leave out `threads`, as a
/// real client does.
fn mix(rng: &mut Rng, hot: &[(f64, f64)], n: usize) -> Vec<String> {
    let count = |share: f64| (share * n as f64).round() as usize;
    let (n_bode, n_spur, n_hot, n_sweep) = (count(0.15), count(0.10), count(0.15), count(0.05));
    let n_analyze = n - n_bode - n_spur - n_hot - n_sweep;
    let ratios = rng.stratified(n_analyze, 0.03, 0.33);
    let spreads = rng.stratified(n_analyze, 3.0, 6.0);
    let froms = rng.stratified(n_sweep, 0.03, 0.10);
    let tos = rng.stratified(n_sweep, 0.20, 0.30);
    let classes: [Vec<(&str, String)>; 5] = [
        ratios
            .into_iter()
            .zip(spreads)
            .map(|(r, s)| ("analyze", format!("{{\"ratio\":{r},\"spread\":{s}}}")))
            .collect(),
        rng.stratified(n_bode, 0.03, 0.33)
            .into_iter()
            .map(|r| {
                (
                    "bode",
                    format!("{{\"ratio\":{r},\"points\":64,\"lambda\":true}}"),
                )
            })
            .collect(),
        rng.stratified(n_spur, 0.03, 0.33)
            .into_iter()
            .map(|r| ("spur", format!("{{\"ratio\":{r},\"kmax\":4}}")))
            .collect(),
        (0..n_hot)
            .map(|k| {
                let (r, s) = hot[k % hot.len()];
                ("analyze", format!("{{\"ratio\":{r},\"spread\":{s}}}"))
            })
            .collect(),
        froms
            .into_iter()
            .zip(tos)
            .map(|(f, t)| ("sweep", format!("{{\"from\":{f},\"to\":{t},\"points\":6}}")))
            .collect(),
    ];
    // Line j of a class with c lines sits at (j + phase) / c.
    let mut placed: Vec<(f64, &str, String)> = Vec::with_capacity(n);
    for class in classes {
        let (c, phase) = (class.len() as f64, rng.uniform());
        for (j, (command, params)) in class.into_iter().enumerate() {
            placed.push(((j as f64 + phase) / c, command, params));
        }
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0));
    placed
        .into_iter()
        .enumerate()
        .map(|(id, (_, command, params))| {
            format!("{{\"id\":{id},\"command\":\"{command}\",\"params\":{params}}}\n")
        })
        .collect()
}

/// Checks every response line: a `plltool/v1` envelope with
/// `"ok":true`, one per request. Returns the number of failed requests.
fn check_responses(phase: &str, bytes: &[u8], requests: usize, out: &mut Outcome) -> u64 {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.lines().collect();
    out.check(
        &format!("serve_mix.{phase}.one_response_per_request"),
        lines.len() == requests,
        || format!("{} responses to {requests} requests", lines.len()),
    );
    let failed = lines
        .iter()
        .filter(|l| {
            let doc = htmpll::obs::parse_json(l).ok();
            let ok = doc.as_ref().is_some_and(|d| {
                d.get("schema").and_then(|s| s.as_str()) == Some("plltool/v1")
                    && matches!(d.get("ok"), Some(htmpll::obs::JsonValue::Bool(true)))
            });
            !ok
        })
        .count() as u64;
    let first_bad = || {
        lines
            .iter()
            .find(|l| !l.contains("\"ok\":true"))
            .map(|l| l.chars().take(200).collect())
            .unwrap_or_default()
    };
    out.check(&format!("serve_mix.{phase}.all_ok"), failed == 0, first_bad);
    failed + requests.saturating_sub(lines.len()) as u64
}

/// The byte length of the first `n` lines of `bytes`.
fn prefix_len(bytes: &[u8], n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(n - 1)
        .map_or(bytes.len(), |(i, _)| i + 1)
}

/// Checks one phase's serve result and responses; returns the failures.
fn check_phase(phase: &str, p: &Phase, requests: usize, out: &mut Outcome) -> u64 {
    out.check(
        &format!("serve_mix.{phase}.serve_ok"),
        p.summary.is_ok(),
        || format!("{:?}", p.summary.as_ref().err()),
    );
    check_responses(phase, &p.bytes, requests, out)
}

impl Workload for ServeMix {
    fn setup(cfg: &RunConfig) -> ServeMix {
        let mut rng = Rng::new(cfg.seed, 0x5e7e);
        let hot: Vec<(f64, f64)> = (0..HOT_SET)
            .map(|_| (rng.range(0.03, 0.33), rng.range(3.0, 6.0)))
            .collect();
        let (n, open_secs) = if cfg.quick { (48, 0.5) } else { (480, 5.0) };
        let lines = mix(&mut rng, &hot, n);
        let open_lines = mix(&mut rng, &hot, (OPEN_RATE * open_secs).ceil() as usize);
        // Warm-up unit: a short burst through a fresh server.
        let warm = lines[..n / 5].concat();
        let _ = serve_lines(Cursor::new(warm), &mut std::io::sink(), &options());
        ServeMix {
            burst: lines.concat(),
            lines,
            open_lines,
            traced: (0, 0, 0),
        }
    }

    fn rep(&mut self, tr: &Tracer, parent: u64, out: &mut Outcome) -> Rep {
        let n = self.lines.len();
        let mut bytes = Vec::with_capacity(self.burst.len() * 4);
        let t = Instant::now();
        let summary = {
            let _s = tr.span("service.serve_lines", parent, 0);
            serve_lines(Cursor::new(self.burst.as_bytes()), &mut bytes, &options())
        };
        let secs = t.elapsed().as_secs_f64();
        if let (true, Ok(s)) = (tr.is_on(), &summary) {
            self.traced.0 += s.received;
            self.traced.1 += s.batches;
            self.traced.2 += s.response_cache_hits;
        }
        let capacity = Phase {
            summary,
            bytes,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
        };
        let mut failed = check_phase("capacity", &capacity, n, out);

        let half = n / 2;
        let clients = {
            let _s = tr.span("service.serve_lines.clients", parent, 0);
            converse(&self.lines[..half], Pace::Closed)
        };
        failed += check_phase("clients", &clients, half, out);
        // Responses are a pure function of the request: answering in
        // small batches must give the burst's bytes.
        out.check(
            "serve_mix.clients.bytes_equal_burst",
            clients.bytes == capacity.bytes[..prefix_len(&capacity.bytes, half)],
            || "closed-loop responses differ from the burst run".to_string(),
        );
        out.ops((n + half) as u64, failed);
        Rep {
            secs,
            items: n as f64,
            latency_ms: percentile(&sorted(&clients.latency_ms), 0.5),
        }
    }

    /// The open loop (registry off), then a replay of its lines one at a
    /// time through `Request::from_json_line` → `service::handle` (fresh
    /// context) → `service::envelope`, with a span around each layer call.
    fn layers(&mut self, tr: &Tracer, out: &mut Outcome, layers: &mut BTreeMap<&'static str, f64>) {
        let (received, batches, hits) = self.traced;
        if received > 0 {
            layers.insert("service.tail_hit_ratio", hits as f64 / received as f64);
            layers.insert("service.batches", batches as f64 / TRACE_REPS as f64);
            layers.insert(
                "service.batch_mean",
                received as f64 / batches.max(1) as f64,
            );
        }

        let n = self.open_lines.len();
        let open = unrecorded(tr, || {
            let _s = tr.span("service.serve_lines.open", 0, 0);
            // A short lead so the first due time is not already past.
            converse(
                &self.open_lines,
                Pace::Open(Instant::now() + Duration::from_millis(5)),
            )
        });
        let failed = check_phase("open", &open, n, out);
        out.ops(n as u64, failed);
        let mut burst = Vec::new();
        let _ = serve_lines(
            Cursor::new(self.open_lines.concat()),
            &mut burst,
            &options(),
        );
        out.check(
            "serve_mix.open.bytes_equal_burst",
            burst == open.bytes,
            || "open-loop responses differ from the burst run".to_string(),
        );

        let replay = tr.span("replay", 0, 0);
        let mut wait_ms = Vec::with_capacity(n);
        for (k, line) in self.open_lines.iter().enumerate() {
            let item = tr.span("request", replay.id(), k as u64);
            let t = Instant::now();
            let parsed = {
                let _s = tr.span("requests.parse", item.id(), k as u64);
                Request::from_json_line(line.trim_end())
            };
            let Ok((id, req)) = parsed else {
                out.check("serve_mix.replay.parses", false, || line.clone());
                continue;
            };
            let ctx = ServiceCtx::new();
            let resp = {
                let _s = tr.span(
                    &format!("service.handle.{}", req.command()),
                    item.id(),
                    k as u64,
                );
                handle(&req, &ctx)
            };
            let env = {
                let _s = tr.span("service.envelope", item.id(), k as u64);
                envelope(&resp, &id, None)
            };
            let took = t.elapsed().as_secs_f64() * 1e3;
            out.check("serve_mix.replay.ok", env.contains("\"ok\":true"), || {
                env.chars().take(200).collect()
            });
            if let Some(lat) = open.latency_ms.get(k) {
                wait_ms.push(lat - took);
            }
        }
        drop(replay);
        let p = |xs: &[f64], q: f64| percentile(&sorted(xs), q);
        layers.insert("requests.lines", n as f64);
        layers.insert("service.wait_p50_ms", p(&wait_ms, 0.5));
        layers.insert("service.open_p50_ms", p(&open.latency_ms, 0.5));
        layers.insert("service.latency_p99_ms", p(&open.latency_ms, 0.99));
        layers.insert("service.generator_late_ms", p(&open.late_ms, 0.99));
    }
}

/// When the client sends line `k`.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Open loop: no earlier than `start + k / OPEN_RATE`.
    Open(Instant),
    /// Closed loop: once the response to line `k − CLIENTS` has arrived.
    Closed,
}

/// What one phase observed.
struct Phase {
    summary: Result<ServeSummary, String>,
    bytes: Vec<u8>,
    /// Per line: response time minus due time.
    latency_ms: Vec<f64>,
    /// Per line: send time minus due time (how late the client ran).
    late_ms: Vec<f64>,
}

/// Runs `lines` through a fresh server, sent as `pace` says.
fn converse(lines: &[String], pace: Pace) -> Phase {
    let log = Arc::new(Log::default());
    let client = Client {
        lines,
        pace,
        idx: 0,
        pos: 0,
        released: false,
        log: Arc::clone(&log),
    };
    let mut sink = Sink {
        bytes: Vec::new(),
        log: Arc::clone(&log),
    };
    let summary = serve_lines(client, &mut sink, &options());
    let times = log.lock();
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    let due: Vec<Instant> = match pace {
        Pace::Open(start) => (0..times.sent.len())
            .map(|k| start + Duration::from_secs_f64(k as f64 / OPEN_RATE))
            .collect(),
        Pace::Closed => times.sent.clone(),
    };
    Phase {
        summary,
        bytes: sink.bytes,
        latency_ms: times
            .answered
            .iter()
            .zip(&due)
            .map(|(&a, &d)| ms(a, d))
            .collect(),
        late_ms: times
            .sent
            .iter()
            .zip(&due)
            .map(|(&s, &d)| ms(s, d))
            .collect(),
    }
}

/// Send and response times of one phase, shared by its client and sink.
#[derive(Default)]
struct Log {
    times: Mutex<Times>,
    answered: Condvar,
}

#[derive(Default)]
struct Times {
    sent: Vec<Instant>,
    answered: Vec<Instant>,
}

impl Log {
    fn lock(&self) -> MutexGuard<'_, Times> {
        self.times
            .lock()
            .expect("phase log poisoned by a panicking serve thread")
    }
}

/// Input side of a phase: hands `serve_lines` one line at a time, each
/// released as its [`Pace`] says, and stamps when it went out.
struct Client<'a> {
    lines: &'a [String],
    pace: Pace,
    idx: usize,
    pos: usize,
    /// Whether line `idx` has been released.
    released: bool,
    log: Arc<Log>,
}

impl Client<'_> {
    fn release(&mut self) {
        let k = self.idx;
        self.released = true;
        let mut times = match self.pace {
            Pace::Open(start) => {
                let due = start + Duration::from_secs_f64(k as f64 / OPEN_RATE);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                self.log.lock()
            }
            Pace::Closed => {
                self.log
                    .answered
                    .wait_timeout_while(self.log.lock(), CLIENT_PATIENCE, |t| {
                        t.answered.len() + CLIENTS <= k
                    })
                    .expect("phase log poisoned by a panicking serve thread")
                    .0
            }
        };
        times.sent.push(Instant::now());
    }
}

impl Read for Client<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Client<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.idx >= self.lines.len() {
            return Ok(&[]);
        }
        if !self.released {
            self.release();
        }
        Ok(&self.lines[self.idx].as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        let Some(line) = self.lines.get(self.idx) else {
            return;
        };
        self.pos += amt;
        if self.pos >= line.len() {
            self.idx += 1;
            self.pos = 0;
            self.released = false;
        }
    }
}

/// Output side of a phase: keeps the bytes, stamps the moment each
/// response line is complete, and wakes a client waiting for it.
struct Sink {
    bytes: Vec<u8>,
    log: Arc<Log>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            self.log
                .lock()
                .answered
                .extend(std::iter::repeat_n(now, lines));
            self.log.answered.notify_all();
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::prefix_len;

    #[test]
    fn prefix_len_counts_whole_lines() {
        let b = b"a\nbb\nccc\n";
        assert_eq!(prefix_len(b, 0), 0);
        assert_eq!(prefix_len(b, 1), 2);
        assert_eq!(prefix_len(b, 2), 5);
        assert_eq!(prefix_len(b, 3), 9);
        assert_eq!(prefix_len(b, 4), 9);
    }
}
