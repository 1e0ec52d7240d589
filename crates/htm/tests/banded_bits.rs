//! Bit pins for the banded-Toeplitz mat-vec `HtmRepr::mul_vec`, with
//! and without a per-row scale, for bands narrower than the matrix and
//! for bands wider than it.
//!
//! Each digest hashes the exact IEEE-754 bit patterns of the products
//! (FNV-1a), so a change in the accumulation order of any row changes a
//! digest here. Inputs come from the seeded in-repo PRNG.
//! Every digest was computed while the diagonal passes still ran
//! through dispatched SIMD kernels.

use htmpll_htm::HtmRepr;
use htmpll_num::hash::Fnv1a;
use htmpll_num::rng::Rng;
use htmpll_num::Complex;

/// `(n, b)`: dimension and half-bandwidth. The first three bands are
/// narrower than the matrix (K = 24 is n = 49); the last three are
/// wider, so the outer diagonals fall off the matrix.
const SHAPES: [(usize, usize); 6] = [(49, 3), (49, 12), (17, 1), (5, 8), (3, 3), (1, 2)];

fn vector(rng: &mut Rng, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|_| Complex::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
        .collect()
}

fn banded(rng: &mut Rng, n: usize, b: usize, scaled: bool) -> HtmRepr {
    HtmRepr::BandedToeplitz {
        coeffs: vector(rng, 2 * b + 1),
        row_scale: scaled.then(|| vector(rng, n)),
    }
}

fn write_all(h: &mut Fnv1a, zs: &[Complex]) {
    for z in zs {
        h.write_f64(z.re);
        h.write_f64(z.im);
    }
}

fn digest(scaled: bool) -> String {
    let mut rng = Rng::seed_from_u64(0xBA2D_ED00 + 2 * scaled as u64);
    let mut h = Fnv1a::new();
    for (n, b) in SHAPES {
        let a = banded(&mut rng, n, b, scaled);
        let x = vector(&mut rng, n);
        write_all(&mut h, &a.mul_vec(n, &x));
    }
    format!("{:016x}", h.finish())
}

#[test]
fn mul_vec_bits_pinned() {
    assert_eq!(digest(false), "25871a3cab6775ad");
}

#[test]
fn mul_vec_row_scaled_bits_pinned() {
    assert_eq!(digest(true), "af262dc0afdafe9e");
}
