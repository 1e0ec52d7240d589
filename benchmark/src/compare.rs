//! `benchmark compare A.json… -- B.json…`: the regression gate.
//!
//! For every end-to-end metric and workload it reports each side's
//! median and quartiles across the given result files (one value per
//! file) and a verdict against the metric's bound in `BENCHMARK.json`:
//!
//! * `unresolved` — a side's run-to-run spread (quartile distance over
//!   median) exceeds the bound, unless every B run beats every A run,
//!   which reads `better`;
//! * otherwise `worse` or `better` when B's median differs from A's by
//!   more than the bound, and `unchanged` when it does not.
//!
//! The command exits 2 when any pair is `worse`.

use std::collections::BTreeMap;

use htmpll::obs::{parse_json, JsonValue};

use crate::stats::quartiles;

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end gates of a `BENCHMARK.json`.
pub fn load_gates(text: &str) -> Result<Vec<Gate>, String> {
    let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            Ok(Gate {
                name: s("name").ok_or("end_to_end entry without name")?,
                unit: s("unit").ok_or("end_to_end entry without unit")?,
                higher_is_better: s("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// `(workload, metric) → value` of every untraced workload result in
/// one result file (a single-workload file or an `all` file).
pub fn load_values(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let doc = parse_json(text)?;
    let results: Vec<&JsonValue> = match doc.get("workloads").and_then(JsonValue::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![&doc],
    };
    let mut values = BTreeMap::new();
    for r in results {
        if matches!(r.get("traced"), Some(JsonValue::Bool(true))) {
            continue;
        }
        let workload = r
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("result without a workload name")?;
        if let Some(JsonValue::Obj(metrics)) = r.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                    values.insert((workload.to_string(), name.clone()), v);
                }
            }
        }
    }
    Ok(values)
}

/// The verdict for one (metric, workload) pair.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "unresolved";
    }
    let (qa1, ma, qa3) = quartiles(a);
    let (qb1, mb, qb3) = quartiles(b);
    let spread = ((qa3 - qa1) / ma).abs().max(((qb3 - qb1) / mb).abs());
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let b_beats_all = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    if spread.is_nan() || spread > bound {
        if b_beats_all {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Runs the gate; returns the report text and whether any pair is worse.
pub fn compare(
    gates: &[Gate],
    a: &[BTreeMap<(String, String), f64>],
    b: &[BTreeMap<(String, String), f64>],
) -> (String, bool) {
    let mut workloads: Vec<String> = a
        .iter()
        .chain(b)
        .flat_map(|m| m.keys().map(|(w, _)| w.clone()))
        .collect();
    workloads.sort();
    workloads.dedup();
    let side = |files: &[BTreeMap<(String, String), f64>], w: &str, m: &str| -> Vec<f64> {
        files
            .iter()
            .filter_map(|f| f.get(&(w.to_string(), m.to_string())).copied())
            .collect()
    };
    let fmt = |xs: &[f64]| {
        if xs.is_empty() {
            return "-".to_string();
        }
        let (q1, med, q3) = quartiles(xs);
        format!("{med:.4} [{q1:.4}, {q3:.4}] n={}", xs.len())
    };
    let mut out = format!(
        "{:<10} {:<18} {:>40} {:>40} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    for w in &workloads {
        for g in gates {
            let (va, vb) = (side(a, w, &g.name), side(b, w, &g.name));
            let v = verdict(&va, &vb, g.higher_is_better, g.bound);
            any_worse |= v == "worse";
            let change = match (va.is_empty(), vb.is_empty()) {
                (false, false) => {
                    let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
                    format!("{:+.1}%", (mb - ma) / ma * 100.0)
                }
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<10} {:<18} {:>40} {:>40} {:>8} {:>5.0}%  {v}\n",
                w,
                format!("{} ({})", g.name, g.unit),
                fmt(&va),
                fmt(&vb),
                change,
                g.bound * 100.0
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Identical sides.
        assert_eq!(verdict(&a, &a, true, 0.05), "unchanged");
        // Throughput down 20% with tight spread.
        let worse: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &worse, true, 0.05), "worse");
        // The same numbers read as a latency got better.
        assert_eq!(verdict(&a, &worse, false, 0.05), "better");
        // Spread wider than the bound: unresolved, not unchanged...
        let noisy = [70.0, 100.0, 130.0, 90.0, 110.0];
        assert_eq!(verdict(&a, &noisy, true, 0.05), "unresolved");
        // ...unless every B run beats every A run.
        let wide_but_better = [150.0, 200.0, 250.0, 180.0, 220.0];
        assert_eq!(verdict(&a, &wide_but_better, true, 0.05), "better");
        assert_eq!(verdict(&[], &a, true, 0.05), "unresolved");
    }

    #[test]
    fn single_file_and_all_file_values() {
        let single = r#"{"workload":"explore","traced":false,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        let v = load_values(single).expect("parses");
        assert_eq!(v[&("explore".to_string(), "setup_s".to_string())], 0.5);
        let all = format!(
            r#"{{"workloads":[{single},{{"workload":"explore","traced":true,"metrics":{{"x":{{"value":1,"unit":"s"}}}}}}]}}"#
        );
        assert_eq!(load_values(&all).expect("parses").len(), 1);
    }
}
