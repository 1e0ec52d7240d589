//! # `plltool chaos` — seeded fault replay against the serve pipeline
//!
//! Replays a deterministic request corpus through [`serve_lines`] three
//! times — a fault-free baseline, a faulted single-worker run, and a
//! faulted multi-worker run — and checks the robustness invariants the
//! serve architecture promises:
//!
//! 1. **Liveness** — the process never dies: every run completes and
//!    answers exactly one line per request, panics and all.
//! 2. **Order** — response lines carry the request ids in input order.
//! 3. **Thread invariance** — the faulted output is byte-identical for
//!    1 and N workers (fault decisions are pure functions of the plan,
//!    the request spec, and the line number — never of timing).
//! 4. **Blast radius** — responses for requests that no fault rule
//!    selects are byte-identical to the fault-free baseline: a fault
//!    only ever damages the request it was aimed at.
//!
//! The corpus and the fault plan both derive from one seed, so a
//! failing run is replayed exactly by rerunning with the same
//! arguments. Violations exit nonzero so CI can gate on a chaos smoke.
//!
//! [`serve_lines`]: super::serve_lines

use std::io::Cursor;
use std::sync::Mutex;

use super::server::{serve_lines, ServeOptions, ServeSummary};
use crate::requests::Request;
use htmpll_fault::{fnv64, FaultPlan};

/// Sites whose injected fault changes response *content* (a different
/// verdict, a panic, a NaN) rather than just timing or cache placement.
/// Requests scope-selected by any of these are excluded from the
/// baseline byte-comparison; everything else must match exactly.
const VALUE_CHANGING_SITES: &[&str] =
    &["lu.pivot_fail", "handler.panic", "sweep.nan", "sweep.panic"];

/// Serializes [`run_chaos`] calls: each run installs the process-global
/// fault plan and panic hook, so two concurrent runs would corrupt each
/// other's fault-free baseline.
static CHAOS_RUN: Mutex<()> = Mutex::new(());

/// Knobs for one chaos run. `Default` matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Corpus size in input lines.
    pub requests: usize,
    /// Seed for the default fault plan (and recorded in the report).
    pub seed: u64,
    /// Worker count for the multi-worker leg (min 2).
    pub workers: usize,
    /// Explicit fault plan; `None` uses [`default_plan`].
    pub plan: Option<String>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            requests: 40,
            seed: 42,
            workers: 4,
            plan: None,
        }
    }
}

/// The default seeded plan: every fault family the pipeline contains,
/// each scope-gated or line-gated so most requests stay clean and the
/// blast-radius invariant has something to bite on.
pub fn default_plan(seed: u64) -> String {
    format!(
        "seed={seed};lu.pivot_fail=prob:0.25,scope:0.25;handler.panic=always,scope:0.1;\
         serve.malformed=every:13;cache.evict=every:11;sweep.nan=every:9,scope:0.15;\
         sweep.slow=every:40@2"
    )
}

/// What a chaos run found. `violations` empty means every invariant
/// held.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Input lines replayed per run.
    pub corpus_lines: usize,
    /// The fault plan the faulted legs ran under.
    pub plan: String,
    /// Requests selected by a value-changing fault rule (excluded from
    /// the baseline comparison).
    pub faulted_requests: usize,
    /// Lines hit by the `serve.malformed` envelope fault.
    pub malformed_injected: usize,
    /// Lines compared byte-for-byte against the baseline.
    pub compared: usize,
    /// Invariant violations, empty on a clean run.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human rendering for the CLI.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos : corpus {} lines | plan {}\n",
            self.corpus_lines, self.plan
        ));
        out.push_str(&format!(
            "faults: {} requests fault-selected | {} lines malformed | {} compared to baseline\n",
            self.faulted_requests, self.malformed_injected, self.compared
        ));
        if self.ok() {
            out.push_str(
                "checks: liveness PASS | order PASS | thread-invariance PASS | blast-radius PASS\n",
            );
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// The deterministic request corpus: a rotating mix of every servable
/// command family, plus malformed-but-JSON lines, one raw-garbage line
/// per 16, and exact duplicates (same canonical spec under a new id,
/// exercising the response cache under faults). Each line gets its
/// index as its id; every distinct request uses a distinct design so
/// one request's faulted solves can never be another's via the shared
/// sweep cache.
pub fn build_corpus(n: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let line = match i % 8 {
            0 | 1 => analyze_line(i, i),
            2 => format!(
                "{{\"id\":{i},\"command\":\"bode\",\"params\":{{\"ratio\":{},\"points\":6}}}}",
                (300 + 2 * i) as f64 / 1000.0
            ),
            3 => format!(
                "{{\"id\":{i},\"command\":\"step\",\"params\":{{\"ratio\":{},\"points\":5}}}}",
                (100 + 2 * i) as f64 / 1000.0
            ),
            4 => format!(
                "{{\"id\":{i},\"command\":\"spur\",\"params\":{{\"ratio\":{},\"kmax\":4}}}}",
                (200 + 2 * i) as f64 / 1000.0
            ),
            5 => format!(
                "{{\"id\":{i},\"command\":\"sweep\",\"params\":{{\"from\":{},\"to\":{},\"points\":2}}}}",
                (400 + 2 * i) as f64 / 1000.0,
                (401 + 2 * i) as f64 / 1000.0
            ),
            6 => {
                if i % 16 == 6 {
                    // Raw garbage: not JSON at all, no recoverable id.
                    format!("chaos garbage line {i} ~~~")
                } else {
                    format!("{{\"id\":{i},\"command\":\"nonsense\",\"params\":{{}}}}")
                }
            }
            // An exact duplicate of the analyze seven lines back, under
            // a fresh id: identical canonical spec, identical scope.
            _ => analyze_line(i, i - 7),
        };
        lines.push(line);
    }
    lines
}

fn analyze_line(id: usize, variant: usize) -> String {
    format!(
        "{{\"id\":{id},\"command\":\"analyze\",\"params\":{{\"ratio\":{}}}}}",
        (50 + 2 * variant) as f64 / 1000.0
    )
}

/// Temporarily installs a fault plan process-wide; restores the clean
/// state on drop (including the early-return and panic paths).
struct PlanGuard;

impl PlanGuard {
    fn install(plan: FaultPlan) -> PlanGuard {
        htmpll_fault::install(plan);
        PlanGuard
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        htmpll_fault::clear();
    }
}

fn serve_once(corpus: &[String], workers: usize) -> Result<(Vec<String>, ServeSummary), String> {
    let mut input = corpus.join("\n");
    input.push('\n');
    let mut out = Vec::new();
    let opts = ServeOptions {
        workers,
        ..ServeOptions::default()
    };
    let summary = serve_lines(Cursor::new(input), &mut out, &opts)?;
    let text = String::from_utf8(out).map_err(|e| format!("chaos: serve output not UTF-8: {e}"))?;
    Ok((text.lines().map(str::to_string).collect(), summary))
}

/// Runs the three-legged replay and checks every invariant. The
/// process-global fault plan is installed for the faulted legs and
/// cleared before returning; concurrent `run_chaos` calls wait for each
/// other, but callers must not run other fault-sensitive work alongside.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let _run = CHAOS_RUN.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = build_corpus(opts.requests.max(8));
    let plan_text = opts.plan.clone().unwrap_or_else(|| default_plan(opts.seed));
    let plan = FaultPlan::parse(&plan_text).map_err(|e| format!("chaos: bad fault plan: {e}"))?;
    let workers = opts.workers.max(2);
    let mut violations: Vec<String> = Vec::new();

    // Classify the corpus up front, straight from the plan: which lines
    // get their envelope corrupted, which requests a value-changing
    // rule selects. This is the *predicted* blast radius; the runs must
    // stay inside it.
    let mut malformed = vec![false; corpus.len()];
    let mut fault_selected = vec![false; corpus.len()];
    let mut ids = vec![None; corpus.len()];
    for (seq, line) in corpus.iter().enumerate() {
        malformed[seq] = plan.decide("serve.malformed", None, seq as u64).is_some();
        if let Ok((_, req)) = Request::from_json_line(line) {
            let scope = fnv64(req.canonical_json().as_bytes());
            fault_selected[seq] = VALUE_CHANGING_SITES
                .iter()
                .any(|site| plan.scope_selected(site, scope));
        }
        if line.starts_with('{') {
            ids[seq] = Some(seq);
        }
    }

    // Leg A: fault-free baseline, single worker.
    htmpll_fault::clear();
    let (baseline, a_summary) = serve_once(&corpus, 1)?;

    // Legs B and C: same plan, different worker counts. Injected
    // handler panics are expected and contained; silence the default
    // per-panic backtrace spew for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let guard = PlanGuard::install(plan);
    type Leg = (Vec<String>, ServeSummary);
    let legs: Result<(Leg, Leg), String> =
        (|| Ok((serve_once(&corpus, 1)?, serve_once(&corpus, workers)?)))();
    drop(guard);
    std::panic::set_hook(prev_hook);
    let ((faulted, b_summary), (faulted_mt, c_summary)) = legs?;

    // Invariant 1: liveness — every leg answered every line.
    for (leg, lines, summary) in [
        ("baseline", &baseline, &a_summary),
        ("faulted x1", &faulted, &b_summary),
        ("faulted xN", &faulted_mt, &c_summary),
    ] {
        if lines.len() != corpus.len() || summary.responded != corpus.len() as u64 {
            violations.push(format!(
                "liveness: {leg} answered {} of {} lines (summary responded {})",
                lines.len(),
                corpus.len(),
                summary.responded
            ));
        }
    }

    // Invariant 2: order — ids come back in input order, in every leg.
    for (leg, lines) in [
        ("baseline", &baseline),
        ("faulted x1", &faulted),
        ("faulted xN", &faulted_mt),
    ] {
        for (seq, line) in lines.iter().enumerate() {
            let Some(id) = ids[seq] else { continue };
            let want = format!("{{\"schema\":\"plltool/v1\",\"id\":{id},");
            if !line.starts_with(&want) {
                violations.push(format!(
                    "order: {leg} line {seq} does not answer id {id}: {}",
                    &line[..line.len().min(96)]
                ));
            }
        }
    }

    // Invariant 3: thread invariance — the faulted legs are bitwise
    // identical, so fault decisions never depended on scheduling.
    let digest_b = fnv64(faulted.join("\n").as_bytes());
    let digest_c = fnv64(faulted_mt.join("\n").as_bytes());
    if digest_b != digest_c {
        for (seq, (b, c)) in faulted.iter().zip(&faulted_mt).enumerate() {
            if b != c {
                violations.push(format!(
                    "thread-invariance: line {seq} differs between 1 and {workers} workers"
                ));
            }
        }
        violations.push(format!(
            "thread-invariance: digest {digest_b:016x} (1 worker) != {digest_c:016x} ({workers} workers)"
        ));
    }

    // Invariant 4: blast radius — lines no rule selected are identical
    // to the fault-free baseline.
    let mut compared = 0usize;
    for (seq, (a, b)) in baseline.iter().zip(&faulted).enumerate() {
        if malformed[seq] || fault_selected[seq] {
            continue;
        }
        compared += 1;
        if a != b {
            violations.push(format!(
                "blast-radius: unfaulted line {seq} changed under the fault plan\n  baseline: {}\n  faulted : {}",
                &a[..a.len().min(96)],
                &b[..b.len().min(96)]
            ));
        }
    }

    Ok(ChaosReport {
        corpus_lines: corpus.len(),
        plan: plan_text,
        faulted_requests: fault_selected.iter().filter(|f| **f).count(),
        malformed_injected: malformed.iter().filter(|m| **m).count(),
        compared,
        violations,
    })
}
