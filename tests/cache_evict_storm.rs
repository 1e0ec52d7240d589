//! A `cache.evict` storm empties a cache shard on every insert. Each
//! bounded cache memoizes a pure function, so a storm may change which
//! values are recomputed, never a returned value. This is its own test
//! binary because the fault plan is process-global.

use htmpll::core::{PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::fault::{self, FaultPlan};
use htmpll::htm::Truncation;
use htmpll::num::Complex;
use htmpll::service::{serve_lines, ServeOptions};
use htmpll::spectral::fft;
use std::io::Cursor;

/// The bits returned through the sweep, FFT-plan and serve-tail caches,
/// then the sweep and tail caches' evictions.
fn run() -> (Vec<u64>, String, u64, u64) {
    let mut bits = Vec::new();
    let model = PllModel::builder(PllDesign::reference_design(0.2).unwrap())
        .build()
        .unwrap();
    let spec = SweepSpec::log(0.05, 2.0, 24)
        .unwrap()
        .with_truncation(Truncation::new(4))
        .with_threads(2);
    // Two passes through one cache: the second reads what the first
    // left. Five plan sizes over the plan cache's four shards: at least
    // one shard holds two, so the storm clears it.
    let cache = SweepCache::new();
    for _ in 0..2 {
        for h in model
            .closed_loop_htm_grid_robust(&spec, &cache)
            .into_strict()
            .unwrap()
        {
            bits.extend(
                h.as_matrix()
                    .as_slice()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
            );
        }
        for n in [64, 128, 256, 512, 1024] {
            let mut x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((0.3 * i as f64).sin(), 0.5))
                .collect();
            fft(&mut x).unwrap();
            bits.extend(x.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
        }
    }
    // Twenty distinct specs over the tail cache's sixteen shards, each
    // asked twice, then a `stats` line.
    let mut input = String::new();
    for i in 0..40 {
        let ratio = 0.05 + 0.01 * (i % 20) as f64;
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"step\",\"params\":{{\"ratio\":{ratio},\"points\":4}}}}\n"
        ));
    }
    input.push_str("{\"id\":\"s\",\"command\":\"stats\"}\n");
    let mut out = Vec::new();
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    serve_lines(Cursor::new(input), &mut out, &opts).unwrap();
    let out = String::from_utf8(out).unwrap();
    let (served, stats) = out.trim_end().rsplit_once('\n').unwrap();
    let tail_evictions = htmpll::obs::parse_json(stats)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("response_cache")?.get("evictions")?.as_f64())
        .unwrap();
    (
        bits,
        served.to_string(),
        cache.stats().evictions,
        tail_evictions as u64,
    )
}

#[test]
fn eviction_storm_changes_no_returned_value() {
    fault::clear();
    let calm = run();
    fault::install(FaultPlan::parse("seed=1;cache.evict=always").unwrap());
    let stormy = {
        // Injection is scope-gated; pool workers inherit this scope.
        let _scope = fault::scope_guard(Some(1));
        run()
    };
    fault::clear();
    assert_eq!((calm.2, calm.3), (0, 0));
    assert!(stormy.2 > 0 && stormy.3 > 0, "the storm missed a cache");
    assert!(calm.0 == stormy.0, "sweep or FFT values moved");
    assert_eq!(calm.1, stormy.1, "served bytes moved");
    assert_eq!(calm.1.lines().count(), 40);
}
