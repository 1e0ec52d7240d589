//! Bit pins for the dense LU ladder behind the closed-loop reference.
//!
//! The escalating solve (refined partial pivot, then complete pivot,
//! then Tikhonov) is the reference and fallback of the rank-one closed
//! form of eq. 34. Each digest hashes the exact IEEE-754 bit patterns
//! (FNV-1a) of the solution and of every `SolveReport` field, so a
//! change that moves one rounding on any rung changes a digest here.
//!
//! The ladder is reached through its two stable entry points:
//! `RobustLu::factor(..).report()` (the factor-time report) and
//! `Htm::closed_loop_factored_robust` on a dense open loop `G`, which
//! factors `I + G` and solves for `(I + G)⁻¹G` (the solution and the
//! completed report).
//!
//! - Rung 1: seeded well-conditioned complex matrices, n = 5, 17, 49.
//! - Rung 2: Wilkinson's growth matrix at n = 32 (1 on the diagonal,
//!   −1 below it, 1 in the last column). Partial pivoting's growth is
//!   2³¹, above `GROWTH_GATE`, while cond₁ is 32, so complete pivoting
//!   is accepted.
//! - Rung 3: an exactly singular rank-one matrix and the zero matrix.
//! - The plain partial-pivot helpers: `Htm::closed_loop`, `expm`,
//!   `Lu::det` and `Lu::inverse`.

use htmpll::htm::{Htm, Truncation};
use htmpll::num::hash::Fnv1a;
use htmpll::num::rng::Rng;
use htmpll::num::{expm, CMat, Complex, Lu, RobustLu, SolveReport, SolveStage};

const W0: f64 = 2.0;

/// `(K, seed)` of the rung-1 matrices: n = 2K + 1 = 5, 17, 49.
const SEEDED: [(usize, u64); 3] = [(2, 11), (8, 12), (24, 13)];

/// A dense complex matrix with entries uniform in `[−1, 1)²`.
fn seeded(n: usize, seed: u64) -> CMat {
    let mut rng = Rng::seed_from_u64(seed);
    CMat::from_fn(n, n, |_, _| {
        let re = rng.range(-1.0, 1.0);
        Complex::new(re, rng.range(-1.0, 1.0))
    })
}

/// Wilkinson's growth matrix of order `n`.
fn wilkinson(n: usize) -> CMat {
    CMat::from_fn(n, n, |i, j| {
        if i == j || j == n - 1 {
            Complex::ONE
        } else if i > j {
            Complex::from_re(-1.0)
        } else {
            Complex::ZERO
        }
    })
}

/// `diag(a, 1)`: pads an even-order matrix to the odd HTM dimension
/// with one decoupled unit band.
fn pad_one(a: &CMat) -> CMat {
    let n = a.rows();
    CMat::from_fn(n + 1, n + 1, |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i == j {
            Complex::ONE
        } else {
            Complex::ZERO
        }
    })
}

/// The open loop `G = A − I` whose feedback matrix `I + G` is `A`.
fn open_loop(a: &CMat) -> Htm {
    let n = a.rows();
    let g = a - &CMat::identity(n);
    Htm::from_matrix(Truncation::new(n / 2), W0, g)
}

fn write_c(h: &mut Fnv1a, z: Complex) {
    h.write_f64(z.re);
    h.write_f64(z.im);
}

fn write_mat(h: &mut Fnv1a, m: &CMat) {
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            write_c(h, m[(i, j)]);
        }
    }
}

fn write_report(h: &mut Fnv1a, r: &SolveReport) {
    for stage in &r.stages_tried {
        h.write_str(&stage.to_string());
    }
    h.write_f64(r.residual);
    h.write_f64(r.cond_estimate);
    h.write_f64(r.pivot_growth);
    h.write_u64(r.perturbed as u64);
    h.write_u64(r.refinement_kept as u64);
}

/// Hashes both entry points on `A` and checks the accepted stages.
fn write_ladder(h: &mut Fnv1a, a: &CMat, stages: &[SolveStage]) {
    let robust = RobustLu::factor(a).unwrap();
    assert_eq!(robust.report().stages_tried, stages);
    write_report(h, robust.report());
    let (cl, report) = open_loop(a).closed_loop_factored_robust().unwrap();
    assert_eq!(report.stages_tried, stages);
    write_mat(h, cl.as_matrix());
    write_report(h, &report);
}

#[test]
fn refined_partial_rung_is_pinned() {
    let mut h = Fnv1a::new();
    for (k, seed) in SEEDED {
        let a = &CMat::identity(2 * k + 1) + &seeded(2 * k + 1, seed);
        write_ladder(&mut h, &a, &[SolveStage::RefinedPartial]);
    }
    assert_eq!(h.finish_hex(), "71f2c55feef09451");
}

#[test]
fn complete_pivot_rung_is_pinned_on_wilkinson() {
    let w = wilkinson(32);
    let lu = Lu::factor(&w).unwrap();
    assert_eq!(lu.pivot_growth(), 2f64.powi(31));
    let mut h = Fnv1a::new();
    let stages = [SolveStage::RefinedPartial, SolveStage::FullPivot];
    let robust = RobustLu::factor(&w).unwrap();
    assert_eq!(robust.report().stages_tried, stages);
    assert!(robust.report().cond_estimate < 1e3);
    write_report(&mut h, robust.report());
    write_ladder(&mut h, &pad_one(&w), &stages);
    assert_eq!(h.finish_hex(), "0d5b9e269b2444a5");
}

#[test]
fn tikhonov_rung_is_pinned_on_singular_matrices() {
    let u = [
        Complex::new(1.0, 2.0),
        Complex::new(-2.0, 0.0),
        Complex::new(0.0, 1.0),
        Complex::new(3.0, -1.0),
        Complex::new(1.0, 1.0),
    ];
    let stages = [
        SolveStage::RefinedPartial,
        SolveStage::FullPivot,
        SolveStage::Tikhonov,
    ];
    let mut h = Fnv1a::new();
    write_ladder(&mut h, &CMat::outer(&u, &u), &stages);
    write_ladder(&mut h, &CMat::zeros(5, 5), &stages);
    assert_eq!(h.finish_hex(), "1db937e016dd2e43");
}

#[test]
fn partial_pivot_helpers_are_pinned() {
    let mut h = Fnv1a::new();
    for (k, seed) in SEEDED {
        let n = 2 * k + 1;
        let g = seeded(n, seed);
        let cl = Htm::from_matrix(Truncation::new(k), W0, g.clone())
            .closed_loop()
            .unwrap();
        write_mat(&mut h, cl.as_matrix());
        let lu = Lu::factor(&(&CMat::identity(n) + &g)).unwrap();
        write_c(&mut h, lu.det());
        write_mat(&mut h, &lu.inverse().unwrap());
        write_mat(&mut h, &expm(&g).unwrap());
    }
    let w = Lu::factor(&wilkinson(32)).unwrap();
    write_c(&mut h, w.det());
    write_mat(&mut h, &w.inverse().unwrap());
    assert_eq!(h.finish_hex(), "d8970b1c25b7baf8");
}
