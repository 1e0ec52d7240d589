//! Pins the bytes every `plltool` command prints and writes.
//!
//! For each command `plltool`'s own end-to-end test runs (plus
//! `analyze --symbolic x` and `doctor --threads 1`), the request goes
//! through the same parse → `handle` path as the CLI, and two digests
//! pin what comes out: the human text (`Response::render_text`, the
//! CLI's stdout) and the `plltool/v1` envelope (the `--json` file).
//! A failing pin prints both renderings so the change can be read.
//!
//! `canonical_json()` is pinned verbatim for every command, each with
//! every field moved off its default: it is the serve tail-cache key,
//! the batch group order and the fault-scope hash, so a change in its
//! spelling silently changes all three.

use htmpll::num::hash::fnv1a;
use htmpll::requests::{Params, Request, RequestId};
use htmpll::service::{envelope, handle, ServiceCtx};

/// Parses a command line such as `analyze --ratio 0.1`.
fn parse(line: &str) -> Request {
    let mut words = line.split_whitespace().map(str::to_string);
    let command = words.next().expect("a command");
    let params = Params::from_argv(&words.collect::<Vec<_>>()).expect("flags parse");
    Request::parse(&command, &params).expect("request parses")
}

fn digest(s: &str) -> String {
    format!("{:016x}", fnv1a(s.as_bytes()))
}

/// `command line  render_text digest  envelope digest`, one per line.
const PINS: &str = "
analyze --ratio 0.1                                    75b59393e72a03f2 292117e16bebeb55
analyze --ratio 0.1 --pfd sh                           22b8e76d3a412960 0c7b302e41c7221f
analyze --ratio 0.1 --symbolic x                       f88e5e6fe510f75b d7da7c8002e505de
sweep --from 0.05 --to 0.15 --points 3                 9985c0ec97b9d059 d773cb5390362eba
bode --ratio 0.1 --points 9                            2ca04f21fa61af55 73b6ac43be76a254
bode --ratio 0.1 --points 9 --lambda x                 cf2829effaf969c3 fb68f1b1fe4956c8
step --ratio 0.15 --points 5 --until 20                797e939f4b34d30c aac132113c1077b9
spur --ratio 0.1                                       9a819ad2af93f0ed f5080ff965fd1295
optimize --min-pm 50 --from 0.05 --to 0.15 --points 4  dadfb17af07a9c4b ac3bd6ad1f8ef2ed
hop --ratio 0.15 --points 5 --until 25                 de3ff130976a413e cc4fbdff0224b3c3
explore --candidates 64 --seed 7 --refine 0            49432cdd8a5e1188 a86d507a63454c06
doctor --threads 1                                     d4c01ac555db6556 0d655cdc4a27b3ae
";

#[test]
fn cli_text_and_envelopes_keep_their_bytes() {
    let ctx = ServiceCtx::new();
    let mut wrong = String::new();
    for pin in PINS.lines().filter(|l| !l.is_empty()) {
        let (line, want) = pin.split_at(55);
        let resp = handle(&parse(line), &ctx);
        assert_eq!(resp.failure(), None, "{line}");
        // Explore's `rate` line is wall-clock designs per second;
        // everything else it prints is a function of the request.
        let text: String = resp
            .render_text()
            .lines()
            .map(|l| {
                if l.starts_with("rate    : ") {
                    "rate    : <masked>\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let env = envelope(&resp, &RequestId::None, None);
        let got = format!("{} {}", digest(&text), digest(&env));
        if got != want {
            wrong.push_str(&format!("{line}: {got}\n{text}{env}\n"));
        }
    }
    assert!(wrong.is_empty(), "{wrong}");
}

/// A physical design's step times are microseconds: each printed time
/// must read as its own nonzero value, not `0.0000`.
#[test]
fn physical_step_prints_distinct_nonzero_times() {
    let line = "step --fref 10e6 --n 64 --kvco 6.28e8 --bw 500e3 --until 5e-6";
    let resp = handle(&parse(line), &ServiceCtx::new());
    assert_eq!(resp.failure(), None, "{line}");
    let text = resp.render_text();
    let times: Vec<f64> = text
        .lines()
        .skip(1)
        .map(|l| {
            let cell = l.split_whitespace().next().expect("a time column");
            cell.parse().expect("a number")
        })
        .collect();
    assert!(times.len() > 1, "{text}");
    assert!(times.iter().all(|&t| t > 0.0), "{text}");
    assert!(times.windows(2).all(|w| w[0] < w[1]), "{text}");
}

#[test]
fn canonical_json_keeps_its_bytes() {
    let physical = "--fref 10e6 --n 64 --kvco 6.283e8 --bw 500e3 --spread 3 --ctotal 2e-9";
    let physical_json =
        r#"{"fref":10000000,"n":64,"kvco":628300000,"bw":500000,"spread":3,"ctotal":0.000000002}"#;
    let cases = [
        (
            "analyze --ratio 0.12 --spread 5 --threads 2 --pfd sh --symbolic x".to_string(),
            r#"{"command":"analyze","design":{"ratio":0.12,"spread":5},"pfd_sh":true,"symbolic":true,"threads":2}"#.to_string(),
        ),
        (
            "sweep --from 0.04 --to 0.25 --points 7 --threads 3".to_string(),
            r#"{"command":"sweep","from":0.04,"to":0.25,"points":7,"threads":3}"#.to_string(),
        ),
        (
            format!("bode {physical} --points 17 --lambda x --threads 2"),
            format!(r#"{{"command":"bode","design":{physical_json},"lambda":true,"points":17,"threads":2}}"#),
        ),
        (
            "step --ratio 0.2 --spread 3.5 --until 30 --points 9".to_string(),
            r#"{"command":"step","design":{"ratio":0.2,"spread":3.5},"until":30,"points":9}"#.to_string(),
        ),
        (
            "hop --ratio 0.25 --spread 6 --until 35 --points 11".to_string(),
            r#"{"command":"hop","design":{"ratio":0.25,"spread":6},"until":35,"points":11}"#.to_string(),
        ),
        (
            "spur --ratio 0.15 --spread 4.5 --leakage-frac 2e-3 --kmax 6 --threads 2".to_string(),
            r#"{"command":"spur","design":{"ratio":0.15,"spread":4.5},"leakage_frac":0.002,"kmax":6,"threads":2}"#.to_string(),
        ),
        (
            "explore --candidates 123 --seed 9 --min-pm 45.5 --max-spur -70 --front-cap 32 \
             --refine 2 --full x --quasi x --threads 2".to_string(),
            r#"{"command":"explore","candidates":123,"seed":9,"min_pm":45.5,"max_spur":-70,"front_cap":32,"refine":2,"full":true,"quasi":true,"threads":2}"#.to_string(),
        ),
        (
            "optimize --min-pm 40 --from 0.04 --to 0.2 --points 6 --ref-noise 2e-12 \
             --vco-noise 3e-11".to_string(),
            r#"{"command":"optimize","min_pm":40,"from":0.04,"to":0.2,"points":6,"ref_noise":0.000000000002,"vco_noise":0.00000000003}"#.to_string(),
        ),
        (
            format!("doctor {physical} --threads 1"),
            format!(r#"{{"command":"doctor","design":{physical_json},"threads":1}}"#),
        ),
        (
            "xcheck --corpus quick --threads 2".to_string(),
            r#"{"command":"xcheck","corpus":"quick","threads":2}"#.to_string(),
        ),
        (
            format!("metrics {physical} --obs core=info --threads 2"),
            format!(r#"{{"command":"metrics","design":{physical_json},"obs":"core=info","threads":2}}"#),
        ),
        (
            "profile --ratio 0.15 --points 48 --trunc 5 --reps 2 --seed 3 --threads 2".to_string(),
            r#"{"command":"profile","ratio":0.15,"points":48,"trunc":5,"reps":2,"seed":3,"threads":2}"#.to_string(),
        ),
        ("stats".to_string(), r#"{"command":"stats"}"#.to_string()),
    ];
    let wrong: String = cases
        .iter()
        .filter_map(|(line, want)| {
            let got = parse(line).canonical_json();
            (got != *want).then(|| format!("{line}\n  {got}\n"))
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong}");
}
