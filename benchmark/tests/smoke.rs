//! Smoke test: every workload in its quick size, untraced and traced,
//! then the compare gate on the result against itself.

use std::path::PathBuf;
use std::process::Command;

use htmpll::obs::{parse_json, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn catalogue(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (s("name").to_string(), s("unit").to_string())
        })
        .collect()
}

fn benchmark() -> Command {
    let mut cmd = Command::new(BIN);
    cmd.env_remove("HTMPLL_OBS").env_remove("HTMPLL_FAULT");
    cmd
}

#[test]
fn quick_run_reports_every_metric_and_compares_unchanged() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("quick.json");
    let run = benchmark()
        .args(["--quick", "--seed", "1", "--trace"])
        .arg(dir.join("traces"))
        .arg("--out")
        .arg(&results)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        !stdout
            .lines()
            .any(|l| l.starts_with("check ") && l.contains(" FAIL ")),
        "a correctness check failed:\n{stdout}"
    );

    let workloads = ["serve_mix", "explore", "htm_grid", "timesim"];
    let mut metrics = catalogue("end_to_end");
    metrics.extend(catalogue("per_layer"));
    for w in workloads {
        for (name, unit) in &metrics {
            let printed = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 4 && f[0] == w && f[1] == name && f[3] == unit
            });
            assert!(printed, "{w}: metric {name} ({unit}) not printed");
        }
        assert!(
            dir.join("traces").join(format!("trace_{w}.json")).exists(),
            "{w}: no span file"
        );
    }

    let cmp = benchmark()
        .arg("compare")
        .arg(&results)
        .arg("--")
        .arg(&results)
        .output()
        .expect("compare starts");
    let report = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "compare failed:\n{report}");
    let rows: Vec<&str> = report.lines().skip(1).collect();
    assert_eq!(rows.len(), workloads.len() * catalogue("end_to_end").len());
    assert!(
        rows.iter().all(|r| r.ends_with("unchanged")),
        "self-compare must be unchanged:\n{report}"
    );
}

#[test]
fn untraced_run_refuses_obs_and_fault_environment() {
    for var in ["HTMPLL_OBS", "HTMPLL_FAULT"] {
        let run = benchmark()
            .env(var, "debug")
            .args(["--workload", "explore", "--quick"])
            .output()
            .expect("benchmark starts");
        assert_eq!(run.status.code(), Some(2), "{var} must be refused");
        assert!(run.stdout.is_empty(), "a refused run prints no result");
    }
}
