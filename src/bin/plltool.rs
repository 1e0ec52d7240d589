//! `plltool` — command-line front end for the htmpll analyses.
//!
//! ```text
//! plltool analyze --ratio 0.15
//! plltool analyze --fref 10e6 --n 64 --kvco 6.28e8 --bw 500e3
//! plltool sweep   --from 0.02 --to 0.3 --points 15
//! plltool bode    --ratio 0.15 --lambda
//! plltool step    --ratio 0.2 --until 40
//! plltool spur    --ratio 0.1 --leakage-frac 1e-3
//! echo '{"id":1,"command":"analyze","params":{"ratio":0.1}}' | plltool serve
//! ```
//!
//! This binary is a *thin* front end: argv is parsed into a typed
//! [`Request`] (`htmpll::requests`), executed by the shared service
//! layer (`htmpll::service`), and rendered from the typed [`Response`].
//! The same layer powers `plltool serve`, the `trace` wrapper, and the
//! `--json`/`--metrics-json` envelope writers, so every surface
//! produces identical results. Argument parsing stays hand-rolled
//! (`--key value` pairs) to keep the workspace dependency-free.

use htmpll::requests::{Params, Request, RequestId};
use htmpll::service::{envelope, handle, serve_lines, Response, ServeOptions, ServiceCtx};
use std::process::ExitCode;

const USAGE: &str =
    "usage: plltool <analyze|sweep|bode|step|spur|optimize|explore|hop|doctor|xcheck|metrics|trace|profile|serve|chaos|figures> [--key value ...]
  analyze --ratio R [--spread S] [--symbolic x] [--pfd sh]
          (or --fref --n --kvco --bw)
  sweep   [--from A] [--to B] [--points N]
  bode    --ratio R [--lambda x] [--points N]
  step    --ratio R [--until T] [--points N]
  spur    --ratio R [--leakage-frac F] [--kmax K]
  optimize [--min-pm DEG] [--from A] [--to B] [--points N]
           [--ref-noise PSD] [--vco-noise PSD]
  explore [--candidates N] [--seed S] [--min-pm DEG] [--max-spur DBC]
          [--front-cap N] [--refine R] [--full x] [--quasi x]
          streaming design-space sweep over (ratio, spread, icp scale,
          divider): a seeded deterministic candidate stream through a
          closed-form screening cascade into a bounded Pareto front
          over (PM_eff, bandwidth, peaking, spur, lock time); bitwise
          identical for any --threads; --full disables the screen,
          --quasi draws Halton candidates instead of Monte Carlo
  hop     --ratio R [--until T] [--points N]
  doctor  [--ratio R]   stress-evaluates adversarial points (on-pole s,
          singular I+G, extreme truncations, NaN injection, a
          near-singular banded loop) and prints
          a health table; non-zero exit when a check misbehaves
  xcheck  [--corpus default|quick] [--json PATH]
          reconciles the λ(s), z-domain and time-domain stacks over a
          deterministic scenario corpus; exit 2 on any mismatch
  metrics [--ratio R] [--obs SPEC] [--json PATH]
  trace <cmd> [--out PATH] [--folded PATH] [--obs SPEC] [--trace-capacity N]
          runs <cmd> under an event-timeline session and writes Chrome
          Trace Format JSON (default trace.json; open in a trace viewer)
          plus, with --folded, a folded-stack flamegraph text file;
          the wrapped command's own flags pass through unchanged
  profile [--ratio R] [--points N] [--trunc K] [--reps N] [--seed S]
          [--json PATH]
          runs a seeded workload matrix (λ grid, cold/warm structured
          sweep, dense kernel, adversarial robust grid, noise folding)
          and prints per-phase attribution: wall time, per-point p50/p99,
          cache hit rate, verdicts, ladder stages, worker utilization
  serve   [--workers N] [--queue-max N] [--batch-max N] [--shed x]
          [--log-every N] [--socket PATH] [--deadline-ms MS]
          long-running batched analysis service: reads JSON-lines
          requests {\"id\":...,\"command\":...,\"params\":{...}} from stdin
          (or a Unix socket), answers one plltool/v1 envelope line per
          request in input order; a repeated spec is answered from a
          response cache of 1,024 envelopes; send {\"command\":\"stats\"} for live
          latency/throughput/queue/cache figures; with --deadline-ms a
          request over budget degrades (smaller truncation, coarser
          grid, partial rows) or answers a retryable \"code\":\"deadline\"
          error instead of holding its batch, and a watchdog cancels
          in-flight work if the dispatcher wedges
  chaos   [--requests N] [--seed S] [--workers N] [--plan SPEC]
          replays a seeded request corpus through serve under an
          injected fault plan (HTMPLL_FAULT grammar) and verifies the
          robustness invariants: the process never dies, responses stay
          in input order, output is identical for 1 and N workers, and
          unfaulted requests match a fault-free baseline byte-for-byte;
          exit 2 on any violation
  figures [<id>|all]
          prints the data behind the paper's figures (fig2 fig4 fig5
          fig6 fig7) and the extension studies; `all` (the default)
          omits the wall-clock `timing` id; takes no flags
  every command accepts --threads N for the sweep worker pool
  (0 = auto; equivalent to setting HTMPLL_THREADS) and --metrics-json
  PATH to dump instrumentation (enables info-level collection if
  HTMPLL_OBS is unset)
  --json PATH and --metrics-json PATH write one versioned envelope
  {\"schema\":\"plltool/v1\",\"command\":...,\"ok\":...,\"result\":...,
   \"quality\":...[,\"metrics\":...]} — the same document shape serve
  emits per line";

/// Parses and executes one non-wrapper command through the service
/// layer: print the human rendering, then write the optional envelope
/// files, then surface the command's failure (if any) for exit 2.
/// `trace` wraps this, so everything here is traceable.
fn run_request(cmd: &str, params: &Params) -> Result<(), String> {
    let req = Request::parse(cmd, params).map_err(|e| {
        if e.starts_with("unknown command") {
            format!("{e}\n{USAGE}")
        } else {
            e
        }
    })?;
    // `metrics` and `profile` manage the obs registry themselves;
    // --metrics-json applies to every other command.
    let metrics_path = if matches!(req, Request::Metrics { .. } | Request::Profile(_)) {
        None
    } else {
        params.str_opt("metrics-json")
    };
    if metrics_path.is_some() && std::env::var_os("HTMPLL_OBS").is_none() {
        htmpll::obs::override_filter("info");
    }

    let ctx = ServiceCtx::new();
    // Same ambient fault scope the serve workers use, so scope-gated
    // HTMPLL_FAULT rules behave identically from the one-shot CLI.
    let _fault_scope =
        htmpll::fault::scope_guard(Some(htmpll::fault::fnv64(req.canonical_json().as_bytes())));
    let resp = handle(&req, &ctx);
    print!("{}", resp.render_text());

    if let Some(path) = params.str_opt("json") {
        let doc = envelope(&resp, &RequestId::None, None);
        std::fs::write(&path, &doc).map_err(|e| format!("--json {path}: {e}"))?;
        if matches!(resp, Response::Metrics(_)) {
            println!("\nwrote {path}");
        } else {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &metrics_path {
        let doc = envelope(&resp, &RequestId::None, Some(&htmpll::obs::export_json()));
        std::fs::write(path, &doc).map_err(|e| format!("--metrics-json {path}: {e}"))?;
    }
    match resp.failure() {
        Some(message) => Err(message),
        None => Ok(()),
    }
}

/// Wraps an inner command in a trace session and exports the event
/// timeline as Chrome Trace Format JSON (and optionally a folded-stack
/// flamegraph). The inner command's own flags pass straight through —
/// `plltool trace sweep --points 5 --out t.json` traces a 5-point sweep.
fn cmd_trace(inner: &str, params: &Params) -> Result<(), String> {
    if inner == "trace" || inner == "profile" || inner == "serve" {
        return Err(format!("trace cannot wrap `{inner}`"));
    }
    let out = params
        .str_opt("out")
        .unwrap_or_else(|| "trace.json".to_string());
    let capacity = params.usize_or("trace-capacity", htmpll::obs::DEFAULT_TRACE_CAPACITY)?;
    // Timeline events ride on span/instant sites, so collection must be
    // on; debug captures the per-point and solver-ladder detail.
    let spec = params.str_opt("obs").unwrap_or_else(|| "debug".to_string());
    htmpll::obs::override_filter(&spec);
    htmpll::obs::trace_start(capacity);
    let result = run_request(inner, params);
    let trace = htmpll::obs::trace_stop();

    let json = htmpll::obs::chrome_trace_json(&trace);
    htmpll::obs::validate_json(&json).map_err(|e| format!("internal: trace JSON invalid: {e}"))?;
    std::fs::write(&out, &json).map_err(|e| format!("--out {out}: {e}"))?;
    let targets: std::collections::BTreeSet<&str> = trace.events.iter().map(|e| e.cat).collect();
    println!(
        "trace : {} events ({} shed) from targets [{}]",
        trace.events.len(),
        trace.dropped,
        targets.into_iter().collect::<Vec<_>>().join(", ")
    );
    println!("wrote {out}");
    if let Some(path) = params.str_opt("folded") {
        std::fs::write(&path, htmpll::obs::flamegraph_folded(&trace))
            .map_err(|e| format!("--folded {path}: {e}"))?;
        println!("wrote {path}");
    }
    result
}

/// The `chaos` front end: replays the seeded corpus through serve
/// under an injected fault plan and exits 2 if any robustness
/// invariant (liveness, order, thread invariance, blast radius) broke.
fn cmd_chaos(params: &Params) -> Result<(), String> {
    let opts = htmpll::service::ChaosOptions {
        requests: params.usize_or("requests", 40)?,
        seed: params.usize_or("seed", 42)? as u64,
        workers: params.usize_or("workers", 4)?,
        plan: params.str_opt("plan"),
    };
    let report = htmpll::service::run_chaos(&opts)?;
    print!("{}", report.render_table());
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "chaos: {} invariant violation(s)",
            report.violations.len()
        ))
    }
}

/// The `figures` front end: prints one figure id (default `all`).
fn cmd_figures(args: &[String]) -> Result<(), String> {
    let id = match args {
        [] => "all",
        [id] => id.as_str(),
        _ => return Err(format!("figures takes one id\n{USAGE}")),
    };
    print!("{}", htmpll::figures::render(id)?);
    Ok(())
}

/// The `serve` front end: stdin→stdout JSONL by default, a Unix socket
/// with `--socket PATH`. The summary line goes to stderr so response
/// lines stay machine-clean on stdout.
fn cmd_serve(params: &Params) -> Result<(), String> {
    let deadline_ms = params.usize_or("deadline-ms", 0)? as u64;
    let opts = ServeOptions {
        workers: params.usize_or("workers", 0)?,
        queue_max: params.usize_or("queue-max", 256)?,
        batch_max: params.usize_or("batch-max", 32)?,
        shed: params.has("shed"),
        log_every: params.usize_or("log-every", 0)? as u64,
        deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
    };
    if std::env::var_os("HTMPLL_OBS").is_none() {
        htmpll::obs::override_filter("serve=info");
    }
    if let Some(path) = params.str_opt("socket") {
        #[cfg(unix)]
        return htmpll::service::serve_unix(&path, &opts);
        #[cfg(not(unix))]
        return Err(format!(
            "--socket {path}: unix sockets unavailable on this platform"
        ));
    }
    let reader = std::io::BufReader::new(std::io::stdin());
    let mut writer = std::io::BufWriter::new(std::io::stdout());
    let summary = serve_lines(reader, &mut writer, &opts)?;
    eprintln!("serve: {}", summary.render_line());
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().map(String::as_str).ok_or(USAGE)?;
    // `figures` takes a positional id and no flags.
    if cmd == "figures" {
        return cmd_figures(&argv[1..]);
    }
    // `trace` takes the wrapped command as a positional before the flags.
    let (inner, flags) = if cmd == "trace" {
        let inner = argv
            .get(1)
            .map(String::as_str)
            .ok_or("trace needs a command to wrap\n(usage: plltool trace <cmd> [--flags ...])")?;
        (Some(inner), &argv[2..])
    } else {
        (None, &argv[1..])
    };
    let params = Params::from_argv(flags).map_err(|e| format!("{e}\n{USAGE}"))?;
    // Bridge --threads into the process-wide budget so code paths that
    // use ThreadBudget::Auto internally (optimizer, library defaults)
    // honor the flag too.
    let threads = params.threads()?;
    if threads > 0 {
        std::env::set_var(htmpll::par::THREADS_ENV, threads.to_string());
    }
    // Arm the deterministic fault-injection layer from HTMPLL_FAULT, so
    // any subcommand (most usefully serve) can run under a plan.
    htmpll::fault::init_from_env().map_err(|e| format!("HTMPLL_FAULT: {e}"))?;
    if let Some(inner) = inner {
        return cmd_trace(inner, &params);
    }
    if cmd == "serve" {
        return cmd_serve(&params);
    }
    if cmd == "chaos" {
        return cmd_chaos(&params);
    }
    run_request(cmd, &params)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmpll::requests::DesignSpec;
    use std::sync::{Mutex, MutexGuard};

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn params(v: &[&str]) -> Params {
        Params::from_argv(&strs(v)).unwrap()
    }

    /// Serializes tests that mutate the process-global obs filter or
    /// trace session, so one test's `override_filter("off")` teardown
    /// cannot disable collection mid-run in another.
    fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = params(&["--ratio", "0.1", "--points", "7"]);
        assert_eq!(a.f64_opt("ratio").unwrap(), Some(0.1));
        assert_eq!(a.usize_or("points", 3).unwrap(), 7);
        assert_eq!(a.f64_or("missing", 2.5).unwrap(), 2.5);
        assert!(!a.has("symbolic"));
    }

    #[test]
    fn rejects_malformed_args() {
        assert!(Params::from_argv(&strs(&["ratio", "0.1"])).is_err());
        assert!(Params::from_argv(&strs(&["--ratio"])).is_err());
        let a = params(&["--ratio", "abc"]);
        assert!(a.f64_opt("ratio").is_err());
        let b = params(&["--points", "1.5"]);
        assert!(b.usize_or("points", 1).is_err());
    }

    #[test]
    fn malformed_input_reports_usage_and_exit_code_2_path() {
        // Unknown command and malformed flags both route through
        // `run`'s Err branch (exit 2 in main) and carry the usage text.
        let e1 = run(&strs(&["frobnicate"])).unwrap_err();
        assert!(e1.contains("unknown command `frobnicate`"));
        assert!(e1.contains("usage: plltool"));
        let e2 = run(&strs(&["analyze", "ratio", "0.1"])).unwrap_err();
        assert!(e2.contains("expected --flag"));
        assert!(e2.contains("usage: plltool"));
        let e3 = run(&strs(&["analyze", "--ratio"])).unwrap_err();
        assert!(e3.contains("flag --ratio needs a value"));
        assert!(e3.contains("usage: plltool"));
    }

    #[test]
    fn design_from_ratio_and_physical() {
        let d = DesignSpec::required(&params(&["--ratio", "0.1"]))
            .unwrap()
            .build()
            .unwrap();
        assert!((d.omega_ref() - 10.0).abs() < 1e-9);

        let d2 = DesignSpec::required(&params(&[
            "--fref", "10e6", "--n", "64", "--kvco", "6.283e8", "--bw", "500e3",
        ]))
        .unwrap()
        .build()
        .unwrap();
        assert!((d2.f_ref() - 10e6).abs() < 1.0);
        assert_eq!(d2.divider(), 64.0);

        assert!(DesignSpec::required(&params(&["--fref", "10e6"])).is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        run(&strs(&["analyze", "--ratio", "0.1"])).unwrap();
        run(&strs(&["analyze", "--ratio", "0.1", "--pfd", "sh"])).unwrap();
        run(&strs(&[
            "sweep", "--from", "0.05", "--to", "0.15", "--points", "3",
        ]))
        .unwrap();
        run(&strs(&["bode", "--ratio", "0.1", "--points", "9"])).unwrap();
        run(&strs(&[
            "bode", "--ratio", "0.1", "--points", "9", "--lambda", "x",
        ]))
        .unwrap();
        run(&strs(&[
            "step", "--ratio", "0.15", "--points", "5", "--until", "20",
        ]))
        .unwrap();
        run(&strs(&["spur", "--ratio", "0.1"])).unwrap();
        run(&strs(&[
            "optimize", "--min-pm", "50", "--from", "0.05", "--to", "0.15", "--points", "4",
        ]))
        .unwrap();
        run(&strs(&[
            "hop", "--ratio", "0.15", "--points", "5", "--until", "25",
        ]))
        .unwrap();
        run(&strs(&[
            "explore",
            "--candidates",
            "64",
            "--seed",
            "7",
            "--refine",
            "0",
        ]))
        .unwrap();
    }

    #[test]
    fn json_flag_writes_envelope_for_any_command() {
        let path = std::env::temp_dir().join("plltool_envelope_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&["analyze", "--ratio", "0.1", "--json", &path_s])).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("{\"schema\":\"plltool/v1\""));
        assert!(doc.contains("\"command\":\"analyze\""));
        assert!(doc.contains("\"ok\":true"));
        assert!(doc.contains("\"quality\":"));
        htmpll::obs::validate_json(&doc).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn doctor_reports_healthy_and_dumps_robust_metrics() {
        let _guard = obs_lock();
        let path = std::env::temp_dir().join("plltool_doctor_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&[
            "doctor",
            "--ratio",
            "0.1",
            "--metrics-json",
            &path_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(
            json.contains("robust."),
            "robust.* counters missing: {json}"
        );
        assert!(json.contains("num.robust.factor"), "{json}");
        // The dump now rides in the envelope's `metrics` member.
        assert!(json.starts_with("{\"schema\":\"plltool/v1\""));
        assert!(json.contains("\"metrics\":{"));
        htmpll::obs::override_filter("off");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn xcheck_quick_corpus_reconciles_and_writes_report() {
        let path = std::env::temp_dir().join("plltool_xcheck_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&[
            "xcheck",
            "--corpus",
            "quick",
            "--threads",
            "1",
            "--json",
            &path_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(
            json.contains("\"mismatch\":0"),
            "mismatches in quick corpus: {json}"
        );
        assert!(json.contains("\"digest\":\""), "digest missing: {json}");
        assert!(json.starts_with("{\"schema\":\"plltool/v1\""));
        std::fs::remove_file(&path).ok();

        assert!(run(&strs(&["xcheck", "--corpus", "nonsense"])).is_err());
    }

    #[test]
    fn unknown_figure_lists_the_ids() {
        let e = run(&strs(&["figures", "nope"])).unwrap_err();
        assert!(e.contains("unknown figure `nope`"), "{e}");
        for id in ["fig2", "fig5", "fig7", "trunc", "timing", "all"] {
            assert!(e.contains(id), "{id} missing from: {e}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn trace_command_writes_chrome_json_and_flamegraph() {
        let _guard = obs_lock();
        let out = std::env::temp_dir().join("plltool_trace_test.json");
        let folded = std::env::temp_dir().join("plltool_trace_test.folded");
        run(&strs(&[
            "trace",
            "doctor",
            "--ratio",
            "0.1",
            "--threads",
            "1",
            "--out",
            out.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
        ]))
        .unwrap();
        htmpll::obs::override_filter("off");

        let json = std::fs::read_to_string(&out).unwrap();
        let doc = htmpll::obs::parse_json(&json).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let cats: std::collections::BTreeSet<String> = events
            .iter()
            .filter_map(|e| e.get("cat").and_then(|c| c.as_str()).map(str::to_string))
            .collect();
        // The doctor workload must light up every pipeline layer.
        for cat in ["core", "htm", "num", "par"] {
            assert!(cats.contains(cat), "missing target {cat} in {cats:?}");
        }

        let fold = std::fs::read_to_string(&folded).unwrap();
        for line in fold.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("`stack ns` line");
            assert!(!stack.is_empty());
            ns.parse::<u64>().expect("self-time is integer ns");
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&folded).ok();
    }

    #[test]
    fn trace_rejects_bad_wrapping() {
        assert!(run(&strs(&["trace"])).is_err());
        assert!(run(&strs(&["trace", "trace", "--ratio", "0.1"])).is_err());
        assert!(run(&strs(&["trace", "profile"])).is_err());
        assert!(run(&strs(&["trace", "serve"])).is_err());
    }

    #[test]
    fn profile_command_prints_attribution_and_writes_json() {
        let _guard = obs_lock();
        let path = std::env::temp_dir().join("plltool_profile_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&[
            "profile",
            "--points",
            "8",
            "--trunc",
            "3",
            "--threads",
            "1",
            "--json",
            &path_s,
        ]))
        .unwrap();
        htmpll::obs::override_filter("off");
        let json = std::fs::read_to_string(&path).unwrap();
        htmpll::obs::validate_json(&json).unwrap();
        for phase in ["lambda", "htm_cold", "htm_warm", "dense", "robust", "noise"] {
            assert!(json.contains(&format!("\"name\": \"{phase}\"")), "{json}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_command_writes_valid_json() {
        let _guard = obs_lock();
        let path = std::env::temp_dir().join("plltool_metrics_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&["metrics", "--ratio", "0.1", "--json", &path_s])).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"filter\": \"debug\""));
        // Sites span every pipeline layer.
        for target in ["\"htm.", "\"core.", "\"num.", "\"sim.", "\"spectral."] {
            assert!(json.contains(target), "missing target {target}");
        }
        let sites = json.matches("\"kind\":").count();
        assert!(sites >= 10, "expected ≥10 instrumented sites, got {sites}");
        htmpll::obs::override_filter("off");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_json_flag_dumps_after_any_command() {
        let _guard = obs_lock();
        let path = std::env::temp_dir().join("plltool_metrics_flag_test.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&strs(&[
            "analyze",
            "--ratio",
            "0.1",
            "--metrics-json",
            &path_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"core.analyze\""));
        htmpll::obs::override_filter("off");
        std::fs::remove_file(&path).ok();
    }
}
