//! Typed responses — one variant per command, each holding the core's
//! own result where one exists — plus the two render paths every front
//! end shares:
//!
//! * [`Response::render_text`] reproduces the historical `plltool`
//!   stdout **byte for byte** (the CLI refactor is observable only
//!   through `--json`/serve, never through plain output), and
//! * [`envelope`]/[`envelope_tail`] produce the versioned JSON envelope
//!   `{"schema":"plltool/v1","command":...,"ok":...,"result":...,
//!   "quality":...}` used by `--json`, `--metrics-json`, and every
//!   `plltool serve` response line.

use super::json::{num, opt_num, str_lit};
use crate::core::{AnalysisReport, Candidate, ExploreReport, PllDesign, QualitySummary, SpurLine};
use crate::lti::{BodePoint, Margins};
use crate::num::Complex;
use crate::profile::ProfileReport;
use crate::requests::RequestId;
use crate::xcheck::XcheckReport;
use std::fmt::Write as _;

/// `analyze` result.
#[derive(Debug, Clone)]
pub struct AnalyzeOut {
    /// The analyzed design.
    pub design: PllDesign,
    /// The full analysis report.
    pub report: AnalysisReport,
    /// Dominant strip poles, when the solver found them.
    pub strip_poles: Option<Vec<Complex>>,
    /// Sample-and-hold margins (requested via `pfd_sh`); `Err` carries
    /// the no-margin explanation.
    pub sample_hold: Option<Result<Margins, String>>,
    /// Symbolic λ(s) expansion (requested via `symbolic`).
    pub symbolic: Option<String>,
}

/// `sweep` result.
#[derive(Debug, Clone)]
pub struct SweepOut {
    /// Each computed ratio ω_UG/ω₀ with its analysis, in ratio order.
    pub rows: Vec<(f64, AnalysisReport)>,
    /// Aggregate point quality over every row's analysis.
    pub quality: QualitySummary,
    /// Graceful-degradation steps taken under deadline pressure, in
    /// order (e.g. grid coarsening, partial completion). Empty for an
    /// unpressured sweep — and omitted from the JSON envelope then, so
    /// deadline-free responses keep their historical bytes.
    pub degradation: Vec<String>,
}

/// `step` / `hop` result: a time series.
#[derive(Debug, Clone)]
pub struct TransientOut {
    /// Sample times.
    pub ts: Vec<f64>,
    /// Response values (step response or tracking error).
    pub ys: Vec<f64>,
}

/// `spur` result.
#[derive(Debug, Clone)]
pub struct SpurOut {
    /// Leakage as a fraction of the charge-pump current.
    pub leakage_frac: f64,
    /// Static phase offset, seconds.
    pub static_offset: f64,
    /// The design the spurs belong to (its `f_ref` gives the `·T`
    /// rendering).
    pub design: PllDesign,
    /// Predicted spur lines.
    pub lines: Vec<SpurLine>,
}

/// `explore` result.
#[derive(Debug, Clone)]
pub struct ExploreOut {
    /// Seed of the candidate stream (echoed for reproducibility).
    pub seed: u64,
    /// The full explorer report, front already in canonical order.
    pub report: ExploreReport,
}

/// One `doctor` health-table row.
#[derive(Debug, Clone)]
pub struct DoctorCheck {
    /// Check name.
    pub check: String,
    /// Verdict label.
    pub verdict: String,
    /// Condition estimate, when the solve produced one.
    pub cond: Option<f64>,
    /// Backward residual, when the solve produced one.
    pub residual: Option<f64>,
    /// Whether the check behaved as expected.
    pub ok: bool,
    /// Free-form note.
    pub note: String,
}

/// `doctor` result.
#[derive(Debug, Clone)]
pub struct DoctorOut {
    /// The design under test.
    pub design: PllDesign,
    /// All health checks, in execution order.
    pub checks: Vec<DoctorCheck>,
}

impl DoctorOut {
    /// Number of checks that did not behave as expected.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }
}

/// `metrics` result.
#[derive(Debug, Clone)]
pub struct MetricsOut {
    /// Active obs filter spec.
    pub filter: String,
    /// `describe_targets` summary line.
    pub levels: String,
    /// Rendered metric table.
    pub table: String,
    /// Full obs export JSON.
    pub export_json: String,
}

/// A structured request failure: carried in-band so a serve batch never
/// dies on one bad request, and mapped to stderr + exit 2 by the CLI.
#[derive(Debug, Clone)]
pub struct ServiceError {
    /// Command the failure belongs to (empty when unknown — e.g. an
    /// unparseable request line).
    pub command: String,
    /// Stable machine-readable code: `bad_request`, `failed`,
    /// `unsupported`, `shed`, `deadline`, or `panic`.
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Whether retrying the identical request can plausibly succeed —
    /// `true` for transient conditions (an expired deadline, a shed
    /// request), `false` for deterministic failures (bad request,
    /// numerical failure, panic). Rendered as `"retryable"` in the
    /// envelope's error object.
    pub retryable: bool,
    /// Partial quality roll-up gathered before the failure, when any —
    /// a deadline error reports the verdicts of the points it *did*
    /// complete.
    pub quality: Option<QualitySummary>,
}

impl ServiceError {
    /// A handler-level failure of a known command.
    pub fn failed(command: &str, message: String) -> ServiceError {
        ServiceError {
            command: command.to_string(),
            code: "failed",
            message,
            retryable: false,
            quality: None,
        }
    }

    /// A malformed or unparseable request.
    pub fn bad_request(message: String) -> ServiceError {
        ServiceError {
            command: String::new(),
            code: "bad_request",
            message,
            retryable: false,
            quality: None,
        }
    }

    /// A well-formed request the current front end cannot execute.
    pub fn unsupported(command: &str, message: String) -> ServiceError {
        ServiceError {
            command: command.to_string(),
            code: "unsupported",
            message,
            retryable: false,
            quality: None,
        }
    }

    /// A request whose cooperative deadline expired before completion.
    /// Retryable by definition: the same request under a larger
    /// `--deadline-ms` (or lighter load) can succeed.
    pub fn deadline(
        command: &str,
        message: String,
        quality: Option<QualitySummary>,
    ) -> ServiceError {
        ServiceError {
            command: command.to_string(),
            code: "deadline",
            message,
            retryable: true,
            quality,
        }
    }
}

/// One command's structured result — the single type every `plltool`
/// front end consumes.
#[derive(Debug, Clone)]
pub enum Response {
    /// `analyze` output.
    Analyze(AnalyzeOut),
    /// `sweep` output.
    Sweep(SweepOut),
    /// `bode` output: the swept points in frequency order.
    Bode(Vec<BodePoint>),
    /// `step` output.
    Step(TransientOut),
    /// `hop` output.
    Hop(TransientOut),
    /// `spur` output.
    Spur(SpurOut),
    /// `optimize` output: the winning candidate.
    Optimize(Candidate),
    /// `explore` output.
    Explore(ExploreOut),
    /// `doctor` output.
    Doctor(DoctorOut),
    /// `xcheck` output.
    Xcheck(XcheckReport),
    /// `metrics` output.
    Metrics(MetricsOut),
    /// `profile` output.
    Profile(ProfileReport),
    /// `stats` output: the live counters of a running `plltool serve`
    /// as a JSON object (only the serve dispatcher builds it).
    Stats(String),
    /// A structured failure.
    Error(ServiceError),
}

impl Response {
    /// The command this response answers (`None` when even the command
    /// was unparseable).
    pub fn command(&self) -> Option<&str> {
        match self {
            Response::Analyze(_) => Some("analyze"),
            Response::Sweep(_) => Some("sweep"),
            Response::Bode(_) => Some("bode"),
            Response::Step(_) => Some("step"),
            Response::Hop(_) => Some("hop"),
            Response::Spur(_) => Some("spur"),
            Response::Optimize(_) => Some("optimize"),
            Response::Explore(_) => Some("explore"),
            Response::Doctor(_) => Some("doctor"),
            Response::Xcheck(_) => Some("xcheck"),
            Response::Metrics(_) => Some("metrics"),
            Response::Profile(_) => Some("profile"),
            Response::Stats(_) => Some("stats"),
            Response::Error(e) => {
                if e.command.is_empty() {
                    None
                } else {
                    Some(&e.command)
                }
            }
        }
    }

    /// The CLI failure for this response: `Some(message)` means stderr
    /// and exit 2 after the text has been printed (doctor failures and
    /// xcheck mismatches still print their tables first).
    pub fn failure(&self) -> Option<String> {
        match self {
            Response::Doctor(d) => {
                let failures = d.failures();
                (failures > 0).then(|| {
                    format!(
                        "doctor: {failures}/{} checks did NOT behave as expected",
                        d.checks.len()
                    )
                })
            }
            Response::Xcheck(x) => {
                let mismatches = x.mismatches();
                (mismatches > 0).then(|| {
                    format!(
                        "xcheck: {mismatches} cross-stack mismatch(es) — the models disagree beyond every justified bound"
                    )
                })
            }
            Response::Error(e) => Some(e.message.clone()),
            _ => None,
        }
    }

    /// Renders the historical `plltool` stdout for this response,
    /// byte-identical to the pre-refactor per-command `println!` bodies.
    pub fn render_text(&self) -> String {
        let mut t = String::new();
        match self {
            Response::Analyze(a) => render_analyze(&mut t, a),
            Response::Sweep(s) => render_sweep(&mut t, s),
            Response::Bode(points) => {
                let _ = writeln!(t, "{:>14} {:>12} {:>12}", "omega", "mag_dB", "phase_deg");
                for p in points {
                    let _ = writeln!(
                        t,
                        "{:14.6e} {:12.3} {:12.2}",
                        p.omega, p.mag_db, p.phase_deg
                    );
                }
            }
            Response::Step(s) => {
                let _ = writeln!(t, "{:>12} {:>12}", "t", "theta/step");
                for (tt, y) in s.ts.iter().zip(&s.ys) {
                    let _ = writeln!(t, "{tt:12.4} {y:12.5}");
                }
            }
            Response::Hop(h) => {
                let _ = writeln!(t, "{:>12} {:>14}", "t", "tracking error");
                for (tt, e) in h.ts.iter().zip(&h.ys) {
                    let _ = writeln!(t, "{tt:12.4} {e:14.5e}");
                }
            }
            Response::Spur(s) => render_spur(&mut t, s),
            Response::Optimize(o) => {
                let _ = writeln!(
                    t,
                    "best: ω_UG/ω₀ = {:.3}, spread = {} (PM_LTI {:.1}°, PM_eff {:.1}°)",
                    o.ratio, o.spread, o.report.phase_margin_lti_deg, o.report.phase_margin_eff_deg
                );
                let _ = writeln!(
                    t,
                    "integrated output noise: {:.3e} (rms {:.3e})",
                    o.integrated_noise,
                    o.integrated_noise.sqrt()
                );
            }
            Response::Explore(e) => render_explore(&mut t, e),
            Response::Doctor(d) => render_doctor(&mut t, d),
            Response::Xcheck(x) => {
                t.push_str(&x.render_table());
                t.push('\n');
                let _ = writeln!(
                    t,
                    "xcheck: corpus {} — {} agree, {} tolerated, {} mismatch ({} checks, {} scenarios)",
                    x.corpus,
                    x.agreements(),
                    x.tolerated(),
                    x.mismatches(),
                    x.total_checks(),
                    x.scenarios.len()
                );
                let _ = writeln!(t, "digest : {}", x.digest());
            }
            Response::Metrics(m) => {
                let _ = writeln!(t, "filter : {}", m.filter);
                let _ = writeln!(t, "levels : {}", m.levels);
                t.push('\n');
                t.push_str(&m.table);
            }
            Response::Profile(p) => t.push_str(&p.render_table()),
            Response::Stats(json) => {
                let _ = writeln!(t, "{json}");
            }
            Response::Error(_) => {}
        }
        t
    }

    /// The envelope `result` member as a JSON fragment (`None` for
    /// error responses).
    pub fn result_json(&self) -> Option<String> {
        match self {
            Response::Analyze(a) => Some(analyze_result_json(a)),
            Response::Sweep(s) => {
                let mut r = format!(
                    "{{\"rows\":[{}]",
                    s.rows
                        .iter()
                        .map(|(ratio, r)| format!(
                            "{{\"ratio\":{},\"ug_ratio\":{},\"pm_eff_deg\":{},\"pm_lti_deg\":{},\"beyond_limit\":{}}}",
                            num(*ratio),
                            num(r.omega_ug_eff / r.omega_ug_lti),
                            num(r.phase_margin_eff_deg),
                            num(r.phase_margin_lti_deg),
                            r.beyond_sampling_limit
                        ))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                // Degradation notes appear only when the ladder actually
                // stepped, so unpressured sweeps keep their exact
                // historical bytes.
                if !s.degradation.is_empty() {
                    let _ = write!(
                        r,
                        ",\"degradation\":[{}]",
                        s.degradation
                            .iter()
                            .map(|d| str_lit(d))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                }
                r.push('}');
                Some(r)
            }
            Response::Bode(points) => Some(format!(
                "{{\"points\":[{}]}}",
                points
                    .iter()
                    .map(|p| format!(
                        "{{\"omega\":{},\"mag_db\":{},\"phase_deg\":{}}}",
                        num(p.omega),
                        num(p.mag_db),
                        num(p.phase_deg)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            Response::Step(s) | Response::Hop(s) => Some(format!(
                "{{\"points\":[{}]}}",
                s.ts.iter()
                    .zip(&s.ys)
                    .map(|(t, y)| format!("{{\"t\":{},\"y\":{}}}", num(*t), num(*y)))
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            Response::Spur(s) => Some(format!(
                "{{\"leakage_frac\":{},\"static_offset_s\":{},\"static_offset_periods\":{},\"lines\":[{}]}}",
                num(s.leakage_frac),
                num(s.static_offset),
                num(s.static_offset * s.design.f_ref()),
                s.lines
                    .iter()
                    .map(|l| format!(
                        "{{\"k\":{},\"sideband_abs\":{},\"level_dbc\":{}}}",
                        l.k,
                        num(l.sideband.abs()),
                        num(l.level_dbc)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            Response::Optimize(o) => Some(format!(
                "{{\"ratio\":{},\"spread\":{},\"pm_lti_deg\":{},\"pm_eff_deg\":{},\"integrated_noise\":{},\"rms\":{}}}",
                num(o.ratio),
                num(o.spread),
                num(o.report.phase_margin_lti_deg),
                num(o.report.phase_margin_eff_deg),
                num(o.integrated_noise),
                num(o.integrated_noise.sqrt())
            )),
            Response::Explore(e) => Some(explore_result_json(e)),
            Response::Doctor(d) => Some(format!(
                "{{\"design\":{},\"failures\":{},\"total\":{},\"checks\":[{}]}}",
                str_lit(&d.design.to_string()),
                d.failures(),
                d.checks.len(),
                d.checks
                    .iter()
                    .map(|c| format!(
                        "{{\"check\":{},\"verdict\":{},\"cond\":{},\"residual\":{},\"ok\":{},\"note\":{}}}",
                        str_lit(&c.check),
                        str_lit(&c.verdict),
                        opt_num(c.cond),
                        opt_num(c.residual),
                        c.ok,
                        str_lit(&c.note)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            // These three already emit complete JSON documents; splice
            // them raw so every historical substring survives the
            // envelope migration.
            Response::Xcheck(x) => Some(x.to_json()),
            Response::Metrics(m) => Some(m.export_json.clone()),
            Response::Profile(p) => Some(p.to_json()),
            Response::Stats(json) => Some(json.clone()),
            Response::Error(_) => None,
        }
    }

    /// The envelope `quality` member (`null` for commands without a
    /// quality roll-up).
    pub fn quality_json(&self) -> String {
        let q = match self {
            Response::Analyze(a) => Some(&a.report.quality),
            Response::Sweep(s) => Some(&s.quality),
            Response::Explore(e) => Some(&e.report.quality),
            _ => None,
        };
        match q {
            None => "null".to_string(),
            Some(q) => quality_summary_json(q),
        }
    }
}

/// The `quality` member's JSON form, shared by success envelopes and
/// deadline errors carrying a partial roll-up.
fn quality_summary_json(q: &QualitySummary) -> String {
    format!(
        "{{\"exact\":{},\"refined\":{},\"perturbed\":{},\"failed\":{},\"worst_cond\":{},\"worst_residual\":{}}}",
        q.exact,
        q.refined,
        q.perturbed,
        q.failed,
        num(q.worst_cond),
        num(q.worst_residual)
    )
}

fn render_analyze(t: &mut String, a: &AnalyzeOut) {
    let r = &a.report;
    let _ = writeln!(t, "design             : {}", a.design);
    let _ = writeln!(t, "ω₀ (reference)     : {:.6e} rad/s", a.design.omega_ref());
    let _ = writeln!(
        t,
        "ω_UG (LTI)         : {:.6e} rad/s  (ω_UG/ω₀ = {:.4})",
        r.omega_ug_lti, r.omega_ug_ratio
    );
    let _ = writeln!(t, "phase margin (LTI) : {:.2}°", r.phase_margin_lti_deg);
    let _ = writeln!(
        t,
        "ω_UG,eff           : {:.6e} rad/s  ({:.3}× LTI)",
        r.omega_ug_eff,
        r.omega_ug_eff / r.omega_ug_lti
    );
    let _ = writeln!(
        t,
        "phase margin (eff) : {:.2}°  ({:.1} % degradation)",
        r.phase_margin_eff_deg,
        100.0 * r.phase_margin_degradation_rel()
    );
    match r.bandwidth_3db {
        Some(bw) => {
            let _ = writeln!(t, "−3 dB bandwidth    : {bw:.6e} rad/s");
        }
        None => {
            let _ = writeln!(t, "−3 dB bandwidth    : (none in scan window)");
        }
    }
    let _ = writeln!(
        t,
        "peaking            : {:.2} dB (LTI predicted {:.2} dB)",
        r.peaking_db, r.peaking_lti_db
    );
    let _ = writeln!(
        t,
        "stable (HTM)       : {}{}",
        r.nyquist_stable,
        if r.beyond_sampling_limit {
            "  [beyond sampling limit]"
        } else {
            ""
        }
    );
    if let Some(poles) = &a.strip_poles {
        let _ = writeln!(t, "strip poles        :");
        for p in poles {
            let _ = writeln!(
                t,
                "    {:.4} {:+.4}j   (Im/(ω₀/2) = {:.3})",
                p.re,
                p.im,
                p.im / (0.5 * a.design.omega_ref())
            );
        }
    }
    match &a.sample_hold {
        Some(Ok(m)) => {
            let _ = writeln!(
                t,
                "sample-and-hold PFD: ω_UG,eff = {:.4e} rad/s, PM = {:.2}°",
                m.omega_ug, m.phase_margin_deg
            );
        }
        Some(Err(e)) => {
            let _ = writeln!(t, "sample-and-hold PFD: no margin ({e})");
        }
        None => {}
    }
    if let Some(sym) = &a.symbolic {
        let _ = writeln!(t, "\n{sym}");
    }
}

fn render_sweep(t: &mut String, s: &SweepOut) {
    let _ = writeln!(
        t,
        "{:>8} {:>14} {:>12} {:>12} {:>8}",
        "ratio", "wUG_eff/wUG", "PM_eff", "PM_LTI", "limit?"
    );
    for (ratio, r) in &s.rows {
        let _ = writeln!(
            t,
            "{:8.3} {:14.4} {:12.2} {:12.2} {:>8}",
            ratio,
            r.omega_ug_eff / r.omega_ug_lti,
            r.phase_margin_eff_deg,
            r.phase_margin_lti_deg,
            if r.beyond_sampling_limit { "YES" } else { "" }
        );
    }
}

fn render_spur(t: &mut String, s: &SpurOut) {
    let _ = writeln!(t, "leakage            : {:.3e} × I_cp", s.leakage_frac);
    let _ = writeln!(
        t,
        "static offset      : {:.4e} s ({:.3e}·T)",
        s.static_offset,
        s.static_offset * s.design.f_ref()
    );
    let _ = writeln!(t, "{:>6} {:>16} {:>12}", "k", "|sideband| (s)", "dBc");
    for line in &s.lines {
        let _ = writeln!(
            t,
            "{:>6} {:16.4e} {:12.2}",
            line.k,
            line.sideband.abs(),
            line.level_dbc
        );
    }
}

fn render_explore(t: &mut String, e: &ExploreOut) {
    let r = &e.report;
    let _ = writeln!(
        t,
        "explore : {} candidates, seed {} ({} evaluated, {} refinement probes)",
        r.candidates, e.seed, r.evaluated, r.refined
    );
    let _ = writeln!(
        t,
        "screen  : {} screened out, {} full analyses ({} infeasible, {} failed)",
        r.screened_out, r.full_analyses, r.infeasible, r.failed
    );
    let _ = writeln!(
        t,
        "front   : {} non-dominated designs ({} pruned by capacity)",
        r.front.len(),
        r.pruned
    );
    let _ = writeln!(t, "digest  : {}", r.digest);
    let _ = writeln!(t, "rate    : {:.0} designs/s", r.designs_per_sec);
    for note in &r.degradation {
        let _ = writeln!(t, "note    : {note}");
    }
    t.push('\n');
    let _ = writeln!(
        t,
        "{:>8} {:>8} {:>8} {:>6} {:>8} {:>12} {:>8} {:>9} {:>11}",
        "ratio", "spread", "icp_x", "N", "PM_eff", "bw_rad_s", "peak_dB", "spur_dBc", "lock_s"
    );
    for p in &r.front {
        let _ = writeln!(
            t,
            "{:8.4} {:8.3} {:8.3} {:6.0} {:8.2} {:12.4e} {:8.2} {:9.1} {:11.3e}",
            p.params.ratio,
            p.params.spread,
            p.params.icp_scale,
            p.params.divider,
            p.pm_eff_deg,
            p.bandwidth_3db,
            p.peaking_db,
            p.spur_dbc,
            p.lock_time_s
        );
    }
}

/// The explore `result` member. Timing fields (`elapsed_ns`,
/// `designs_per_sec`) are deliberately omitted: the result is then a
/// pure function of the request, so serve's response-tail cache stays
/// byte-stable across repeats of the same exploration.
fn explore_result_json(e: &ExploreOut) -> String {
    let r = &e.report;
    let mut out = format!(
        "{{\"candidates\":{},\"seed\":{},\"evaluated\":{},\"refined\":{},\"screened_out\":{},\
         \"full_analyses\":{},\"infeasible\":{},\"failed\":{},\"skipped\":{},\"pruned\":{},\
         \"front_size\":{},\"digest\":{},\"front\":[{}]",
        r.candidates,
        e.seed,
        r.evaluated,
        r.refined,
        r.screened_out,
        r.full_analyses,
        r.infeasible,
        r.failed,
        r.skipped,
        r.pruned,
        r.front.len(),
        str_lit(&r.digest),
        r.front
            .iter()
            .map(|p| format!(
                "{{\"ratio\":{},\"spread\":{},\"icp_scale\":{},\"divider\":{},\"pm_eff_deg\":{},\
                 \"bandwidth_3db\":{},\"peaking_db\":{},\"spur_dbc\":{},\"lock_time_s\":{}}}",
                num(p.params.ratio),
                num(p.params.spread),
                num(p.params.icp_scale),
                num(p.params.divider),
                num(p.pm_eff_deg),
                num(p.bandwidth_3db),
                num(p.peaking_db),
                num(p.spur_dbc),
                num(p.lock_time_s)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    if !r.degradation.is_empty() {
        let _ = write!(
            out,
            ",\"degradation\":[{}]",
            r.degradation
                .iter()
                .map(|d| str_lit(d))
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    out.push('}');
    out
}

fn render_doctor(t: &mut String, d: &DoctorOut) {
    let _ = writeln!(t, "plltool doctor — numerical-resilience health check");
    let _ = writeln!(t, "design : {}", d.design);
    t.push('\n');
    let _ = writeln!(
        t,
        "{:<26} {:>10} {:>10} {:>10} {:>6}  note",
        "check", "verdict", "cond", "residual", "ok"
    );
    for r in &d.checks {
        let cond = r.cond.map_or("-".to_string(), |c| format!("{c:.2e}"));
        let res = r.residual.map_or("-".to_string(), |x| format!("{x:.2e}"));
        let _ = writeln!(
            t,
            "{:<26} {:>10} {:>10} {:>10} {:>6}  {}",
            r.check,
            r.verdict,
            cond,
            res,
            if r.ok { "ok" } else { "FAIL" },
            r.note
        );
    }
    t.push('\n');
    if d.failures() == 0 {
        let _ = writeln!(
            t,
            "doctor: HEALTHY ({}/{} checks as expected)",
            d.checks.len(),
            d.checks.len()
        );
    }
}

/// The analyze `result` member: the full report plus whatever optional
/// sections (`strip_poles`, `sample_hold`, `symbolic`) the request
/// asked for.
fn analyze_result_json(a: &AnalyzeOut) -> String {
    let mut r = format!(
        "{{\"design\":{},\"omega_ref\":{},\"omega_ug_ratio\":{},\"omega_ug_lti\":{},\
         \"phase_margin_lti_deg\":{},\"omega_ug_eff\":{},\"phase_margin_eff_deg\":{},\
         \"pm_degradation_deg\":{},\"bandwidth_3db\":{},\"peaking_db\":{},\"peaking_lti_db\":{},\
         \"nyquist_stable\":{},\"beyond_sampling_limit\":{}",
        str_lit(&a.design.to_string()),
        num(a.design.omega_ref()),
        num(a.report.omega_ug_ratio),
        num(a.report.omega_ug_lti),
        num(a.report.phase_margin_lti_deg),
        num(a.report.omega_ug_eff),
        num(a.report.phase_margin_eff_deg),
        num(a.report.phase_margin_degradation_deg()),
        opt_num(a.report.bandwidth_3db),
        num(a.report.peaking_db),
        num(a.report.peaking_lti_db),
        a.report.nyquist_stable,
        a.report.beyond_sampling_limit,
    );
    if let Some(poles) = &a.strip_poles {
        let _ = write!(
            r,
            ",\"strip_poles\":[{}]",
            poles
                .iter()
                .map(|p| format!("{{\"re\":{},\"im\":{}}}", num(p.re), num(p.im)))
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    if let Some(sh) = &a.sample_hold {
        match sh {
            Ok(m) => {
                let _ = write!(
                    r,
                    ",\"sample_hold\":{{\"omega_ug\":{},\"phase_margin_deg\":{}}}",
                    num(m.omega_ug),
                    num(m.phase_margin_deg)
                );
            }
            Err(e) => {
                let _ = write!(r, ",\"sample_hold\":{{\"error\":{}}}", str_lit(e));
            }
        }
    }
    if let Some(sym) = &a.symbolic {
        let _ = write!(r, ",\"symbolic\":{}", str_lit(sym));
    }
    r.push('}');
    r
}

/// The envelope minus the `{"schema":...,` prefix and the optional id:
/// `"command":...,"ok":...,...}`. Serve caches this tail so one
/// computation can answer many ids.
pub fn envelope_tail(resp: &Response, metrics_json: Option<&str>) -> String {
    let command = match resp.command() {
        Some(c) => str_lit(c),
        None => "null".to_string(),
    };
    let mut tail = format!("\"command\":{command},\"ok\":{}", resp.failure().is_none());
    if let Some(result) = resp.result_json() {
        let _ = write!(
            tail,
            ",\"result\":{result},\"quality\":{}",
            resp.quality_json()
        );
    }
    match resp {
        Response::Error(e) => {
            let _ = write!(
                tail,
                ",\"error\":{{\"code\":\"{}\",\"message\":{},\"retryable\":{}}}",
                e.code,
                str_lit(&e.message),
                e.retryable
            );
            // A deadline error still reports the verdicts of the points
            // it completed before the budget ran out.
            if let Some(q) = &e.quality {
                let _ = write!(tail, ",\"quality\":{}", quality_summary_json(q));
            }
        }
        _ => {
            if let Some(message) = resp.failure() {
                let _ = write!(
                    tail,
                    ",\"error\":{{\"code\":\"failed\",\"message\":{},\"retryable\":false}}",
                    str_lit(&message)
                );
            }
        }
    }
    if let Some(m) = metrics_json {
        let _ = write!(tail, ",\"metrics\":{m}");
    }
    tail.push('}');
    tail
}

/// The full versioned envelope for one response.
pub fn envelope(resp: &Response, id: &RequestId, metrics_json: Option<&str>) -> String {
    envelope_from_tail(id, &envelope_tail(resp, metrics_json))
}

/// [`envelope`] around a tail [`envelope_tail`] already rendered (serve
/// answers cached tails this way): the one place the
/// `{"schema":"plltool/v1",` prefix is written.
pub(crate) fn envelope_from_tail(id: &RequestId, tail: &str) -> String {
    format!("{{\"schema\":\"plltool/v1\",{}{tail}", id.json_fragment())
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shapes_are_valid_json() {
        let resp = Response::Error(ServiceError::bad_request("no `command`".to_string()));
        let line = envelope(&resp, &RequestId::Str("r\"1".to_string()), None);
        let doc = crate::obs::parse_json(&line).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("plltool/v1")
        );
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("r\"1"));
        assert_eq!(doc.get("ok"), Some(&crate::obs::JsonValue::Bool(false)));
        assert!(doc.get("command").is_some());

        let ok = Response::Step(TransientOut {
            ts: vec![1.0, 2.0],
            ys: vec![0.5, 0.75],
        });
        let line = envelope(&ok, &RequestId::None, Some("{\"version\": 1}"));
        let doc = crate::obs::parse_json(&line).unwrap();
        assert!(doc.get("id").is_none());
        assert_eq!(doc.get("ok"), Some(&crate::obs::JsonValue::Bool(true)));
        assert!(doc.get("result").is_some());
        assert!(doc.get("metrics").is_some());
        assert_eq!(doc.get("quality"), Some(&crate::obs::JsonValue::Null));
    }

    #[test]
    fn error_envelopes_keep_their_bytes() {
        let shed = ServiceError {
            command: String::new(),
            code: "shed",
            message: "queue full (2 deep); request shed — retry".to_string(),
            retryable: true,
            quality: None,
        };
        assert_eq!(
            envelope(&Response::Error(shed), &RequestId::Num(4.0), None),
            "{\"schema\":\"plltool/v1\",\"id\":4,\"command\":null,\"ok\":false,\"error\":\
             {\"code\":\"shed\",\"message\":\"queue full (2 deep); request shed — retry\",\
             \"retryable\":true}}"
        );
        let bad = ServiceError::bad_request("invalid JSON: \"x\"".to_string());
        assert_eq!(
            envelope(&Response::Error(bad), &RequestId::None, None),
            "{\"schema\":\"plltool/v1\",\"command\":null,\"ok\":false,\"error\":\
             {\"code\":\"bad_request\",\"message\":\"invalid JSON: \\\"x\\\"\",\
             \"retryable\":false}}"
        );
        let unsupported = ServiceError::unsupported("metrics", "use the CLI".to_string());
        assert_eq!(
            envelope(
                &Response::Error(unsupported),
                &RequestId::Str("m".to_string()),
                None
            ),
            "{\"schema\":\"plltool/v1\",\"id\":\"m\",\"command\":\"metrics\",\"ok\":false,\
             \"error\":{\"code\":\"unsupported\",\"message\":\"use the CLI\",\
             \"retryable\":false}}"
        );
    }

    #[test]
    fn doctor_failure_keeps_result_and_reports_error() {
        let d = Response::Doctor(DoctorOut {
            design: PllDesign::reference_design(0.1).unwrap(),
            checks: vec![DoctorCheck {
                check: "c".to_string(),
                verdict: "failed".to_string(),
                cond: None,
                residual: None,
                ok: false,
                note: String::new(),
            }],
        });
        assert!(d.failure().unwrap().contains("1/1 checks"));
        let line = envelope(&d, &RequestId::Num(7.0), None);
        let doc = crate::obs::parse_json(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&crate::obs::JsonValue::Bool(false)));
        assert!(doc.get("result").is_some());
        assert!(doc.get("error").is_some());
        assert_eq!(doc.get("id").and_then(|v| v.as_f64()), Some(7.0));
    }
}
