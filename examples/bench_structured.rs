//! Wall-clock benchmark for the structured closed-loop kernels, used by
//! `scripts/bench_structured.sh` to produce `BENCH_structured_kernels.json`.
//!
//! For each truncation order K the same frequency grid is swept twice
//! per kernel policy:
//!
//! 1. `structured_cold` — [`KernelPolicy::Structured`], fresh cache:
//!    the open loop stays in its rank-one representation and the
//!    closed loop is solved by Sherman–Morrison, O(K) per point instead
//!    of the dense O(K³).
//! 2. `dense_cold` — [`KernelPolicy::Dense`], fresh cache: every point
//!    materializes `I + G̃` and runs the dense escalating ladder.
//! 3. `*_warm` — the same grid through the populated cache (all hits).
//!
//! Prints one JSON object to stdout. Usage:
//!
//! ```sh
//! cargo run --release --example bench_structured -- [K...] [--points N] [--threads T] [--reps R]
//! ```

use std::time::Instant;

use htmpll::core::{KernelPolicy, PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::Truncation;

fn main() {
    let mut orders: Vec<usize> = Vec::new();
    let mut points = 192usize;
    let mut threads = 1usize;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{what} needs an integer"))
        };
        match a.as_str() {
            "--points" => points = grab("--points"),
            "--threads" => threads = grab("--threads"),
            "--reps" => reps = grab("--reps"),
            other => orders.push(
                other
                    .parse()
                    .unwrap_or_else(|_| panic!("bad truncation order {other:?}")),
            ),
        }
    }
    if orders.is_empty() {
        orders = vec![16, 24, 32, 64];
    }

    let design = PllDesign::reference_design(0.1).expect("reference design");
    let w0 = design.omega_ref();
    let model = PllModel::builder(design).build().expect("model");

    // Best-of-R wall time for one closure, milliseconds.
    let best_ms = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };

    let mut legs = String::new();
    for (i, &k) in orders.iter().enumerate() {
        let spec = SweepSpec::log(1e-2 * w0, 0.49 * w0, points)
            .expect("grid")
            .with_truncation(Truncation::new(k))
            .with_threads(threads);

        let timed = |kernel: KernelPolicy| {
            let spec = spec.clone().with_kernel(kernel);
            let mut cache = SweepCache::new();
            let cold = best_ms(&mut || {
                cache = SweepCache::new();
                model
                    .closed_loop_htm_grid_cached(&spec, &cache)
                    .expect("sweep");
            });
            let warm = best_ms(&mut || {
                model
                    .closed_loop_htm_grid_cached(&spec, &cache)
                    .expect("sweep");
            });
            (cold, warm)
        };
        let (s_cold, s_warm) = timed(KernelPolicy::Structured);
        let (d_cold, d_warm) = timed(KernelPolicy::Dense);

        if i > 0 {
            legs.push_str(",\n");
        }
        legs.push_str(&format!(
            "    {{\"truncation\": {k}, \"dim\": {}, \
             \"structured_cold_ms\": {s_cold:.3}, \"structured_warm_ms\": {s_warm:.3}, \
             \"dense_cold_ms\": {d_cold:.3}, \"dense_warm_ms\": {d_warm:.3}, \
             \"speedup_cold\": {:.1}}}",
            2 * k + 1,
            d_cold / s_cold
        ));
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("{{");
    println!(
        "  \"workload\": {{\"dense_points\": {points}, \"threads\": {threads}, \
         \"reps\": {reps}, \"timing\": \"best-of-reps, ms\"}},"
    );
    println!("  \"host_cores\": {cores},");
    println!("  \"runs\": [\n{legs}\n  ]");
    println!("}}");
}
