//! Per-kernel SIMD speedup benchmark, used by `scripts/bench_simd.sh`
//! to produce `BENCH_simd_kernels.json`.
//!
//! Each vectorized hot loop is timed twice through its real entry
//! point — once with the backend forced to `SimdLevel::Scalar`, once
//! at the detected hardware level — on the same inputs:
//!
//! * `band_lu_factor` — [`BandLu::factor`] of a random banded matrix
//!   (the caxpy elimination kernel).
//! * `band_lu_solve_mat` — multi-RHS [`BandLu::solve_mat`] (the
//!   lane-blocked forward/backward substitution).
//! * `bt_mul` — banded-Toeplitz [`HtmRepr::mul_vec`] (the
//!   diagonal-broadcast kernel).
//! * `fft` — radix-2 [`fft`] (SoA butterfly passes).
//!
//! Both passes produce bitwise-identical outputs — the dispatch
//! contract — so the ratio is pure data-layout/ILP gain. Prints one
//! JSON object to stdout. Usage:
//!
//! ```sh
//! cargo run --release --example bench_simd -- [--reps R]
//! ```

use std::time::Instant;

use htmpll::htm::HtmRepr;
use htmpll::num::rng::Rng;
use htmpll::num::simd::{self, SimdLevel};
use htmpll::num::{BandLu, BandMat, CMat, Complex};
use htmpll::spectral::fft::fft;

fn main() {
    let mut reps = 7usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs an integer")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let hw = simd::hardware_level();
    let mut rng = Rng::seed_from_u64(0xBE7C);

    // --- fixtures ------------------------------------------------------
    let n_band = 512usize;
    let b_band = 8usize;
    let band = BandMat::from_fn(n_band, b_band, |i, j| {
        let base = Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0));
        if i == j {
            base + Complex::from_re(6.0) // diagonally dominant: no pivoting noise
        } else {
            base
        }
    });
    let factored = BandLu::factor(&band).expect("well-conditioned banded matrix");
    let nrhs = 32usize;
    let rhs = CMat::from_fn(n_band, nrhs, |_, _| {
        Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))
    });

    let n_bt = 2048usize;
    let b_bt = 8usize;
    let bt = HtmRepr::BandedToeplitz {
        coeffs: (0..2 * b_bt + 1)
            .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
            .collect(),
        row_scale: None,
    };
    let bt_x: Vec<Complex> = (0..n_bt)
        .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
        .collect();

    let n_fft = 4096usize;
    let fft_x: Vec<Complex> = (0..n_fft)
        .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
        .collect();

    // Best-of-R wall time for one closure, milliseconds.
    let best_ms = |level: SimdLevel, f: &mut dyn FnMut()| {
        let prev = simd::set_active_level(level);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        simd::set_active_level(prev);
        best
    };

    let mut legs = String::new();
    let bench = |name: &str, legs: &mut String, f: &mut dyn FnMut()| {
        let scalar_ms = best_ms(SimdLevel::Scalar, f);
        let simd_ms = best_ms(hw, f);
        if !legs.is_empty() {
            legs.push_str(",\n");
        }
        legs.push_str(&format!(
            "    {{\"kernel\": \"{name}\", \"scalar_ms\": {scalar_ms:.4}, \
             \"simd_ms\": {simd_ms:.4}, \"speedup\": {:.2}}}",
            scalar_ms / simd_ms
        ));
    };

    bench("band_lu_factor", &mut legs, &mut || {
        let lu = BandLu::factor(&band).expect("factor");
        std::hint::black_box(&lu);
    });
    bench("band_lu_solve_mat", &mut legs, &mut || {
        let x = factored.solve_mat(&rhs).expect("solve");
        std::hint::black_box(&x);
    });
    bench("bt_mul", &mut legs, &mut || {
        for _ in 0..16 {
            let y = bt.mul_vec(n_bt, &bt_x);
            std::hint::black_box(&y);
        }
    });
    bench("fft", &mut legs, &mut || {
        for _ in 0..16 {
            let mut x = fft_x.clone();
            fft(&mut x).expect("power of two");
            std::hint::black_box(&x);
        }
    });

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("{{");
    println!(
        "  \"workload\": {{\"band_n\": {n_band}, \"band_b\": {b_band}, \"nrhs\": {nrhs}, \
         \"bt_n\": {n_bt}, \"fft_n\": {n_fft}, \"reps\": {reps}, \
         \"timing\": \"best-of-reps, ms\"}},"
    );
    println!("  \"detected_level\": \"{}\",", hw.name());
    println!("  \"host_cores\": {cores},");
    println!("  \"kernels\": [\n{legs}\n  ]");
    println!("}}");
}
