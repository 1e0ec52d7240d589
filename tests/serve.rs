//! Integration tests for `plltool serve`: the batched JSONL analysis
//! service (tentpole of the request/response-layer redesign).
//!
//! Covers the acceptance contract end to end:
//! * a mixed-spec stream over a real OS pipe — including one malformed
//!   line and one numerically adversarial (at-the-sampling-limit) spec —
//!   answers every line, in order, with the right ids, without the
//!   process dying;
//! * worker count never changes a single response byte;
//! * a 1000-request repeated-spec stream is lossless at default queue
//!   bounds (zero shed) and runs warm: response-cache hit rate > 50 %.

use htmpll::service::{serve_lines, ServeOptions, ServeSummary};
use std::io::{Cursor, Write};
use std::process::{Command, Stdio};

fn run_inproc(input: &str, workers: usize) -> (String, ServeSummary) {
    let mut out = Vec::new();
    let summary = serve_lines(
        Cursor::new(input.to_string()),
        &mut out,
        &ServeOptions {
            workers,
            ..ServeOptions::default()
        },
    )
    .expect("serve_lines");
    (String::from_utf8(out).expect("utf8 output"), summary)
}

#[test]
fn serve_over_a_pipe_answers_a_mixed_stream_in_order() {
    let exe = env!("CARGO_BIN_EXE_plltool");
    let mut child = Command::new(exe)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn plltool serve");

    let mut input = String::new();
    for i in 0..20 {
        let ratio = [0.08, 0.1, 0.12][i % 3];
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{ratio}}}}}\n"
        ));
    }
    input.push_str("this line is not json\n");
    input.push_str("{\"id\":\"bad\",\"command\":\"analyze\",\"params\":{\"ratio\":-1}}\n");
    // At the sampling limit: the analysis degrades through the
    // PointQuality ladder but must still answer.
    input
        .push_str("{\"id\":\"adversarial\",\"command\":\"analyze\",\"params\":{\"ratio\":0.45}}\n");
    input.push_str("{\"id\":\"s\",\"command\":\"stats\"}\n");

    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("wait for serve");
    assert!(
        out.status.success(),
        "serve exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 24, "one response line per request:\n{stdout}");
    for (i, line) in lines.iter().enumerate().take(20) {
        assert!(
            line.starts_with(&format!("{{\"schema\":\"plltool/v1\",\"id\":{i},")),
            "response {i} out of order or unversioned: {line}"
        );
        assert!(line.contains("\"ok\":true"), "response {i} failed: {line}");
        htmpll::obs::validate_json(line).expect("response line is valid JSON");
    }
    assert!(
        lines[20].contains("\"ok\":false") && lines[20].contains("\"code\":\"bad_request\""),
        "malformed line must degrade to a structured error: {}",
        lines[20]
    );
    assert!(
        lines[21].contains("\"id\":\"bad\"") && lines[21].contains("\"code\":\"failed\""),
        "invalid design must fail structurally: {}",
        lines[21]
    );
    assert!(
        lines[22].contains("\"id\":\"adversarial\"")
            && lines[22].contains("\"ok\":true")
            && lines[22].contains("\"beyond_sampling_limit\":true"),
        "adversarial spec must complete with degradation flagged: {}",
        lines[22]
    );
    assert!(
        lines[23].contains("\"id\":\"s\"") && lines[23].contains("\"command\":\"stats\""),
        "stats response missing: {}",
        lines[23]
    );

    // The repeated specs must have run warm. Five distinct specs reach
    // a handler (three ratios, the invalid design and the adversarial
    // one): each misses the response cache once and the four that
    // succeed are stored; the other 17 analyze lines need no handler.
    assert!(
        lines[23].contains(
            "\"response_cache\":{\"hits\":17,\"misses\":5,\"evictions\":0,\"entries\":4}"
        ) && !lines[23].contains("sweep_cache"),
        "stats: {}",
        lines[23]
    );

    // Layering invariant: the server and the one-shot CLI are thin
    // wrappers over the same request/response layer, so a served
    // response (minus its id member) is byte-identical to the same
    // spec's `--json` envelope.
    let json_path = std::env::temp_dir().join(format!("serve_vs_cli_{}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["analyze", "--ratio", "0.08", "--json"])
        .arg(&json_path)
        .stdout(Stdio::null())
        .status()
        .expect("run one-shot analyze --json");
    assert!(status.success(), "one-shot analyze failed");
    let oneshot = std::fs::read_to_string(&json_path).expect("read --json file");
    let _ = std::fs::remove_file(&json_path);
    assert_eq!(
        lines[0].replacen("\"id\":0,", "", 1),
        oneshot.trim_end(),
        "served response must match the one-shot --json envelope byte for byte"
    );
}

#[test]
fn worker_count_never_changes_response_bytes() {
    let mut input = String::new();
    for (i, ratio) in [0.08, 0.1, 0.12, 0.2, 0.1].iter().enumerate() {
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{ratio}}}}}\n"
        ));
    }
    input.push_str("{\"id\":\"b\",\"command\":\"bode\",\"params\":{\"ratio\":0.1,\"points\":9}}\n");
    input.push_str("{\"id\":\"t\",\"command\":\"step\",\"params\":{\"ratio\":0.15,\"points\":5,\"until\":20}}\n");
    input.push_str("{\"id\":\"p\",\"command\":\"spur\",\"params\":{\"ratio\":0.1}}\n");
    input.push_str("{\"id\":\"w\",\"command\":\"sweep\",\"params\":{\"from\":0.05,\"to\":0.15,\"points\":3}}\n");

    let (one, _) = run_inproc(&input, 1);
    let (four, _) = run_inproc(&input, 4);
    assert_eq!(
        one, four,
        "serve responses must be bitwise identical for 1 vs 4 workers"
    );
}

#[test]
fn thousand_request_stream_is_lossless_and_runs_warm() {
    let ratios = [0.08, 0.1, 0.12, 0.15, 0.2];
    let mut input = String::new();
    for i in 0..1000 {
        let r = ratios[i % ratios.len()];
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{r}}}}}\n"
        ));
    }
    let (out, summary) = run_inproc(&input, 0);

    assert_eq!(summary.received, 1000);
    assert_eq!(summary.responded, 1000);
    assert_eq!(summary.shed, 0, "default queue bounds must not shed");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 1000);
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"schema\":\"plltool/v1\",\"id\":{i},")),
            "line {i} out of order: {line}"
        );
        assert!(line.contains("\"ok\":true"), "line {i} failed: {line}");
    }
    let hit_rate = summary.response_cache_hits as f64 / 1000.0;
    assert!(
        hit_rate > 0.5,
        "repeated-spec workload must run warm (hit rate {hit_rate:.2}): {summary:?}"
    );
}

#[test]
fn served_bytes_are_pinned() {
    // The λ-heavy commands: analyze (with its strip poles), the λ Bode
    // plot, a ratio sweep and a spur scan. The digest covers every
    // response byte, so any rounding change in the λ scans shows here.
    let mut input = String::new();
    for (i, ratio) in [0.05, 0.1, 0.2, 0.3, 0.45].iter().enumerate() {
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{ratio}}}}}\n"
        ));
    }
    for ratio in [0.1, 0.3] {
        input.push_str(&format!(
            "{{\"id\":\"b{ratio}\",\"command\":\"bode\",\"params\":{{\"ratio\":{ratio},\"points\":41,\"lambda\":true}}}}\n"
        ));
    }
    input.push_str(
        "{\"id\":\"w\",\"command\":\"sweep\",\"params\":{\"from\":0.05,\"to\":0.3,\"points\":6}}\n",
    );
    input.push_str("{\"id\":\"p\",\"command\":\"spur\",\"params\":{\"ratio\":0.25}}\n");

    let (out, _) = run_inproc(&input, 2);
    assert_eq!(out.lines().count(), 9, "{out}");
    assert!(out.contains("\"strip_poles\":["), "{out}");
    assert_eq!(
        format!("{:016x}", htmpll::num::hash::fnv1a(out.as_bytes())),
        "0a75037800717497"
    );
}

#[test]
fn every_envelope_kind_keeps_its_bytes() {
    let input = concat!(
        "this is not json\n",
        "{\"id\":\"u\",\"command\":\"nonsense\",\"params\":{}}\n",
        "{\"id\":\"f\",\"command\":\"analyze\",\"params\":{\"ratio\":-1}}\n",
        "{\"id\":\"t\",\"command\":\"analyze\",\"params\":{\"ratio\":0.1,\"threads\":100000}}\n",
        "{\"id\":\"m\",\"command\":\"metrics\",\"params\":{}}\n",
        "{\"id\":1,\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":3}}\n",
        "{\"id\":2,\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":3}}\n",
        "{\"id\":3,\"command\":\"step\",\"params\":{\"ratio\":0.1,\"points\":3}}\n",
        "{\"id\":\"s\",\"command\":\"stats\"}\n",
    );
    let step = "\"command\":\"step\",\"ok\":true,\"result\":{\"points\":[\
                {\"t\":13.333333333333334,\"y\":1.005810619176721},\
                {\"t\":26.666666666666664,\"y\":1.0000578968813474},\
                {\"t\":40,\"y\":1.0000005768054714}]},\"quality\":null}";
    let want = [
        "{\"schema\":\"plltool/v1\",\"command\":null,\"ok\":false,\"error\":{\"code\":\"bad_request\",\
         \"message\":\"invalid JSON: expected 'true' at byte 0\",\"retryable\":false}}"
            .to_string(),
        "{\"schema\":\"plltool/v1\",\"id\":\"u\",\"command\":null,\"ok\":false,\"error\":\
         {\"code\":\"bad_request\",\"message\":\"unknown command `nonsense`\",\"retryable\":false}}"
            .to_string(),
        "{\"schema\":\"plltool/v1\",\"id\":\"f\",\"command\":\"analyze\",\"ok\":false,\"error\":\
         {\"code\":\"failed\",\"message\":\"parameter omega_ug_ratio must be positive and finite, \
         got -1\",\"retryable\":false}}"
            .to_string(),
        "{\"schema\":\"plltool/v1\",\"id\":\"t\",\"command\":null,\"ok\":false,\"error\":\
         {\"code\":\"bad_request\",\"message\":\"--threads: `100000` exceeds the limit of 256\",\
         \"retryable\":false}}"
            .to_string(),
        "{\"schema\":\"plltool/v1\",\"id\":\"m\",\"command\":\"metrics\",\"ok\":false,\"error\":\
         {\"code\":\"unsupported\",\"message\":\"`metrics` mutates process-global state; run it \
         via the plltool CLI\",\"retryable\":false}}"
            .to_string(),
        format!("{{\"schema\":\"plltool/v1\",\"id\":1,{step}"),
        format!("{{\"schema\":\"plltool/v1\",\"id\":2,{step}"),
        format!("{{\"schema\":\"plltool/v1\",\"id\":3,{step}"),
    ];

    let (out, summary) = run_inproc(input, 2);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), want.len() + 1, "{out}");
    for (got, want) in lines.iter().zip(&want) {
        assert_eq!(got, want);
    }
    // The stats line: five errors ahead of it, its own latency sample
    // counted, and one computed step spec answering the two repeats.
    let stats = lines[want.len()];
    assert!(
        stats.starts_with(
            "{\"schema\":\"plltool/v1\",\"id\":\"s\",\"command\":\"stats\",\"ok\":true,\
             \"result\":{\"uptime_ns\":"
        ) && stats.ends_with(
            ",\"response_cache\":{\"hits\":2,\"misses\":2,\"evictions\":0,\"entries\":1}},\
             \"quality\":null}"
        ) && stats.contains("\"received\":9,")
            && stats.contains("\"errors\":5,")
            && stats.contains(",\"count\":9},"),
        "{stats}"
    );
    assert_eq!((summary.errors, summary.response_cache_hits), (5, 2));
}

#[test]
fn oversized_thread_request_is_rejected_before_any_work() {
    // 100000 would ask the shared pool for thousands of OS threads; the
    // request layer turns it away at parse time, so no map starts.
    let input = concat!(
        "{\"id\":7,\"command\":\"analyze\",\"params\":{\"ratio\":0.1,\"threads\":100000}}\n",
        "{\"id\":\"s\",\"command\":\"stats\"}\n",
    );
    let (out, summary) = run_inproc(input, 1);
    let (rejected, stats) = out.split_once('\n').expect("two response lines");
    assert!(
        rejected.starts_with("{\"schema\":\"plltool/v1\",\"id\":7,")
            && rejected.contains("\"ok\":false")
            && rejected.contains("\"code\":\"bad_request\"")
            && rejected.contains("exceeds the limit of 256"),
        "{out}"
    );
    assert_eq!((summary.received, summary.errors), (2, 1));
    // Every spec bound for a handler is first looked up in the response
    // cache; a line rejected at parse time never gets that far.
    assert!(
        stats.contains("\"response_cache\":{\"hits\":0,\"misses\":0,"),
        "{stats}"
    );
}
