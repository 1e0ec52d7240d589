//! Seeded end-to-end and per-layer benchmark of htmpll.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1|DIR] [--out FILE] [--quick]
//! benchmark [--seed S] [--seconds N] [--trace DIR] [--out FILE] [--quick]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! With `--workload` one workload runs in this process: it prints one
//! `workload metric value unit` line per metric and, last, one JSON
//! object `{"correct","attempted","failed","metrics"}`. Without it every
//! workload runs in its own child process (so peak memory, the FFT plan
//! cache and the obs registry do not leak between workloads) and the
//! results, with the host facts, go to one results file. `--trace`
//! switches to the traced run, which reports per-layer metrics and
//! writes its spans to `DIR/trace_<workload>.json` (`1` picks
//! `benchmark/out`). See README.md.

mod compare;
mod harness;
mod host;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use htmpll::service::json::str_lit;

use harness::{Metric, Outcome, RunConfig, THREADS};

/// Measuring budget per run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;
/// Measuring budget per workload with `--quick`.
const QUICK_SECONDS: f64 = 1.0;
/// Variables that change what is measured; an untraced run refuses them.
const REFUSED_ENV: [&str; 2] = ["HTMPLL_OBS", "HTMPLL_FAULT"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Parsed command line of a run (single workload or all).
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        out: None,
        quick: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => a.workload = Some(value),
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a whole number"))?;
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: `{value}` is not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds: {s} is outside (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(manifest_dir().join("out")),
                    dir => Some(PathBuf::from(dir)),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn capture(program: &str, args: &[&str]) -> String {
    let repo = manifest_dir().join("..");
    Command::new(program)
        .args(args)
        // Git must not look for a repository above this checkout.
        .env(
            "GIT_CEILING_DIRECTORIES",
            repo.join("..").canonicalize().unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded with every result: cores, SIMD level, git
/// revision, compiler, and every `HTMPLL_*` variable.
fn host_json() -> String {
    let repo = manifest_dir().join("..");
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HTMPLL_"))
        .collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("{}:{}", str_lit(k), str_lit(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"nproc\":{},\"threads\":{THREADS},\"simd\":{},\"git_rev\":{},\"rustc\":{},\"env\":{{{env}}}}}",
        htmpll::par::available_threads(),
        str_lit(htmpll::num::simd::active_level().name()),
        str_lit(&capture(
            "git",
            &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]
        )),
        str_lit(&capture("rustc", &["-V"])),
    )
}

/// A metric value as JSON: every digit, never `null`.
fn num(x: Option<f64>) -> String {
    let x = x.filter(|v| v.is_finite()).unwrap_or(0.0);
    htmpll::service::json::num(x)
}

/// The detailed result of one workload run (the `--out` file).
fn result_json(name: &str, args: &Args, seconds: f64, metrics: &[Metric], out: &Outcome) -> String {
    let checks = out
        .checks
        .iter()
        .map(|(k, c)| {
            format!(
                "{}:{{\"runs\":{},\"failures\":{},\"detail\":{}}}",
                str_lit(k),
                c.runs,
                c.failures,
                str_lit(&c.detail)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let metrics = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"q1\":{},\"q3\":{},\"n\":{},\"applicable\":{}}}",
                str_lit(m.name),
                num(m.value),
                str_lit(m.unit),
                num(m.q1),
                num(m.q3),
                m.n,
                m.value.is_some()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let (q1, med, q3) = stats::quartiles(&out.slowdowns);
    format!(
        "{{\"schema\":\"htmpll-benchmark/v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"quick\":{},\
         \"traced\":{},\"host\":{},\"host_slowdown\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":{{{checks}}},\"metrics\":{{{metrics}}}}}",
        str_lit(name),
        args.seed,
        seconds,
        args.quick,
        args.trace.is_some(),
        host_json(),
        num(Some(med)),
        num(Some(q1)),
        num(Some(q3)),
        out.slowdowns.len(),
        out.correct(),
        out.attempted,
        out.failed,
    )
}

fn refused_env() -> Option<&'static str> {
    REFUSED_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some_and(|v| !v.is_empty()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        trace_dir: args.trace.clone(),
        quick: args.quick,
    };
    let (metrics, out) = workloads::run(name, &cfg).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    for (k, c) in &out.checks {
        let verdict = if c.failures == 0 { "PASS" } else { "FAIL" };
        println!(
            "check {name} {k} {verdict} ({}/{} failed) {}",
            c.failures, c.runs, c.detail
        );
    }
    let (q1, med, q3) = stats::quartiles(&out.slowdowns);
    println!(
        "host {name} slowdown {med} # q1 {q1} q3 {q3} n {}; times are divided by it",
        out.slowdowns.len()
    );
    for m in &metrics {
        match m.value {
            Some(v) => match (m.q1, m.q3) {
                (Some(q1), Some(q3)) if m.n > 1 => println!(
                    "{name} {} {v} {} # q1 {q1} q3 {q3} n {}",
                    m.name, m.unit, m.n
                ),
                _ => println!("{name} {} {v} {}", m.name, m.unit),
            },
            None => println!("{name} {} n/a {}", m.name, m.unit),
        }
    }
    if let Some(path) = &args.out {
        write_file(path, &result_json(name, args, seconds, &metrics, &out))?;
    }
    let metrics_json = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                str_lit(m.name),
                num(m.value),
                str_lit(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics_json}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    Ok(out.correct())
}

/// Every workload, each in a child process; then the traced runs when
/// `--trace DIR` is given. Writes one results file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args.out.clone().unwrap_or_else(|| {
        manifest_dir()
            .join("out")
            .join(format!("results-seed{}.json", args.seed))
    });
    // Each child writes its own result next to the results file.
    let stem = out.with_extension("");
    let mut results = Vec::new();
    let mut correct = true;
    let traces: &[Option<&PathBuf>] = match &args.trace {
        Some(dir) => &[None, Some(dir)],
        None => &[None],
    };
    for trace in traces {
        for name in workloads::NAMES {
            let kind = if trace.is_some() {
                "traced"
            } else {
                "untraced"
            };
            let file = PathBuf::from(format!("{}.{name}.{kind}.json", stem.display()));
            let _ = std::fs::remove_file(&file);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
            cmd.arg("--trace")
                .arg(trace.map_or_else(|| PathBuf::from("0"), |d| d.to_path_buf()));
            cmd.arg("--out").arg(&file);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{name}: no result ({status}): {e}"))?;
            correct &= status.success() && text.contains("\"correct\":true");
            results.push(text);
        }
    }
    let doc = format!(
        "{{\"schema\":\"htmpll-benchmark/v1\",\"seed\":{},\"quick\":{},\"host\":{},\"correct\":{correct},\
         \"workloads\":[\n{}\n]}}\n",
        args.seed,
        args.quick,
        host_json(),
        results.join(",\n")
    );
    write_file(&out, &doc)?;
    println!("results: {}", out.display());
    Ok(correct)
}

fn run_compare(raw: &[String]) -> Result<bool, String> {
    let split = raw
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare A.json... -- B.json...")?;
    let (a, b) = (&raw[..split], &raw[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("usage: benchmark compare A.json... -- B.json...".to_string());
    }
    let bench = manifest_dir().join("..").join("BENCHMARK.json");
    let gates = compare::load_gates(
        &std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?,
    )?;
    let load = |files: &[String]| {
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                compare::load_values(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let (report, worse) = compare::compare(&gates, &load(a)?, &load(b)?);
    print!("{report}");
    Ok(!worse)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match run_compare(&raw[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(2),
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `all` always includes untraced runs.
    if args.trace.is_none() || args.workload.is_none() {
        if let Some(var) = refused_env() {
            eprintln!("benchmark: {var} is set; it changes what an untraced run measures");
            return ExitCode::from(2);
        }
    }
    // `ThreadBudget::Auto` resolves from this variable, and only the
    // serve requests (which leave out `threads`) use it. With two serve
    // workers, 1 keeps the process at two compute threads on any host.
    // With 2, the nested pools oversubscribe the two cores, and open-loop
    // latency jumps between two modes about 25% apart from run to run.
    std::env::set_var("HTMPLL_THREADS", "1");
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
