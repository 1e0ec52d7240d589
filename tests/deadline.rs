//! Integration tests for deadlines and cancellation across the stack:
//! the partial-grid determinism contract (cancellation decides *whether*
//! a point computes, never *what*), thread-count invariance of the
//! completed points, and the serve front-end's structured retryable
//! `code:deadline` responses under a tight `--deadline-ms`.

use htmpll::core::{PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::Truncation;
use htmpll::par::Deadline;
use std::io::Write;
use std::process::{Command, Stdio};

fn model(ratio: f64) -> PllModel {
    PllModel::builder(PllDesign::reference_design(ratio).expect("design"))
        .build()
        .expect("model")
}

/// A sweep cancelled mid-grid returns a partial `GridOutcome` whose
/// completed points are bitwise identical to the uncancelled run — for
/// one worker and for several. The set of *which* points complete may
/// differ with thread count (chunks race the budget), but the values
/// never do.
#[test]
fn cancelled_sweep_partials_are_bitwise_identical_for_1_and_n_threads() {
    let m = model(0.2);
    let base = SweepSpec::log(0.1, 2.0, 16)
        .expect("grid")
        .with_truncation(Truncation::new(3));
    let full = m.closed_loop_htm_grid_robust(&base.clone().with_threads(1), &SweepCache::new());
    assert_eq!(full.summary().failed, 0, "uncancelled run completes");

    for threads in [1usize, 4] {
        let spec = base
            .clone()
            .with_threads(threads)
            .with_deadline(Deadline::after_checks(5));
        let out = m.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
        assert_eq!(out.len(), 16);
        let done = out.points.iter().filter(|p| p.value.is_some()).count();
        assert!(
            done > 0 && done < 16,
            "{threads} threads: {done} of 16 completed"
        );
        for (p, f) in out.points.iter().zip(&full.points) {
            match &p.value {
                Some(h) => {
                    let fh = f.value.as_ref().expect("full run has every point");
                    assert_eq!(
                        h.as_matrix().max_diff(fh.as_matrix()),
                        0.0,
                        "{threads} threads: completed point differs from uncancelled run"
                    );
                }
                None => assert!(p.is_deadline_exceeded(), "{:?}", p.quality),
            }
        }
        assert_eq!(out.summary().failed, 16 - done);
    }
}

/// An immediately-expired deadline still yields a well-formed outcome:
/// every point carries the deadline verdict, none a stale value.
#[test]
fn fully_expired_deadline_fails_every_point_gracefully() {
    let m = model(0.15);
    let spec = SweepSpec::log(0.1, 1.0, 6)
        .expect("grid")
        .with_truncation(Truncation::new(2))
        .with_deadline(Deadline::after_checks(0));
    let out = m.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
    assert_eq!(out.len(), 6);
    assert!(out.points.iter().all(|p| p.is_deadline_exceeded()));
    assert_eq!(out.summary().failed, 6);
}

/// `plltool serve --deadline-ms` over a real pipe: a heavyweight sweep
/// under a 1 ms budget answers with a structured retryable
/// `code:deadline` error (or a degraded partial) instead of hanging,
/// and the process exits cleanly.
#[test]
fn serve_deadline_ms_answers_instead_of_hanging() {
    let exe = env!("CARGO_BIN_EXE_plltool");
    let mut child = Command::new(exe)
        .args(["serve", "--deadline-ms", "1", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn plltool serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        for i in 0..4 {
            writeln!(
                stdin,
                "{{\"id\":{i},\"command\":\"sweep\",\"params\":{{\"from\":0.05,\"to\":0.3,\"points\":60}}}}"
            )
            .expect("write request");
        }
    }
    let out = child.wait_with_output().expect("serve run");
    assert!(out.status.success(), "serve exited nonzero");
    let text = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "every request answered: {text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"schema\":\"plltool/v1\",\"id\":{i},")),
            "in-order ids: {line}"
        );
        // Under a 1 ms budget the 60-ratio sweep either errs with a
        // retryable deadline or returns a degraded partial result.
        let deadline_err =
            line.contains("\"code\":\"deadline\"") && line.contains("\"retryable\":true");
        let degraded = line.contains("\"degradation\":[");
        assert!(
            deadline_err || degraded,
            "expected deadline error or degraded partial: {line}"
        );
    }
}

/// The `handler.slow` fault holds each request 5 ms past its armed
/// 1 ms budget, so the sweep, the analyze and the explore, each fast
/// enough to finish some work in 1 ms on its own, all answer a
/// structured retryable `code:deadline` error, in order.
#[test]
fn serve_requests_held_past_their_budget_answer_deadline_errors() {
    let exe = env!("CARGO_BIN_EXE_plltool");
    let mut child = Command::new(exe)
        .args(["serve", "--deadline-ms", "1", "--workers", "2"])
        .env("HTMPLL_FAULT", "seed=1;handler.slow=always@5")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn plltool serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        for line in [
            r#""command":"sweep","params":{"from":0.05,"to":0.3,"points":60}"#,
            r#""command":"analyze","params":{"ratio":0.1}"#,
            r#""command":"explore","params":{"candidates":5000,"seed":1}"#,
        ]
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{{\"id\":{i},{p}}}"))
        {
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let out = child.wait_with_output().expect("serve run");
    assert!(out.status.success(), "serve exited nonzero");
    let text = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "every request answered: {text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"schema\":\"plltool/v1\",\"id\":{i},")),
            "in-order ids: {line}"
        );
        assert!(
            line.contains("\"code\":\"deadline\"") && line.contains("\"retryable\":true"),
            "expected a retryable deadline error: {line}"
        );
    }
}
