//! Property tests on the workspace's core data structures and
//! invariants.
//!
//! The generator is a small seeded stand-in for proptest's surface —
//! `proptest!`, `f64`/`usize` ranges, tuples, `prop::collection::vec`,
//! `prop_map`, `prop_assert!`, `prop_assume!` — built on
//! `htmpll::num::rng`. Case `i` of property `p` draws its inputs from
//! `Rng::for_stream(fnv1a(p), i)`, so every run checks the same cases,
//! and a failure (assertion or panic) prints the property, the case
//! index and the inputs. There is no shrinker: a failing case found
//! this way is pinned as a literal with `#[replay(...)]`, which runs
//! before the drawn cases.

use htmpll::htm::{HtmBlock, LtiHtm, MultiplierHtm, SamplerHtm, Truncation, VcoHtm};
use htmpll::lti::{Pfe, Tf};
use htmpll::num::hash::Fnv1a;
use htmpll::num::lu::Lu;
use htmpll::num::optim::{brent, lin_grid};
use htmpll::num::rng::Rng;
use htmpll::num::roots::find_roots;
use htmpll::num::special::{lattice_sum, lattice_sum_truncated};
use htmpll::num::{CMat, Complex, Poly};
use htmpll::spectral::{fft_any, goertzel, ifft_any};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Cases each property must pass.
const CASES: u64 = 256;
/// Cases a property may reject (`prop_assume!`) before it fails.
const MAX_REJECTS: u64 = 1024;

/// Why a case did not pass.
enum CaseError {
    Fail(String),
    Reject,
}

/// A seeded source of inputs.
trait Strategy {
    type Value: Debug;

    fn draw(&self, rng: &mut Rng) -> Self::Value;

    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map(self, f)
    }
}

struct Map<S, F>(S, F);

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn draw(&self, rng: &mut Rng) -> T {
        (self.1)(self.0.draw(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn draw(&self, rng: &mut Rng) -> f64 {
        rng.range(self.start, self.end)
    }
}

impl Strategy for Range<usize> {
    type Value = usize;
    fn draw(&self, rng: &mut Rng) -> usize {
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

/// A fixed length for `prop::collection::vec`.
impl Strategy for usize {
    type Value = usize;
    fn draw(&self, _: &mut Rng) -> usize {
        *self
    }
}

macro_rules! tuple_strategy {
    ($($s:ident $i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn draw(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.draw(rng),)+)
            }
        }
    };
}
tuple_strategy!(A 0);
tuple_strategy!(A 0, B 1);
tuple_strategy!(A 0, B 1, C 2);

mod prop {
    pub mod collection {
        use crate::Strategy;
        use htmpll::num::rng::Rng;

        pub struct VecStrategy<S, L>(S, L);

        pub fn vec<S: Strategy, L: Strategy<Value = usize>>(elem: S, len: L) -> VecStrategy<S, L> {
            VecStrategy(elem, len)
        }

        impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn draw(&self, rng: &mut Rng) -> Self::Value {
                let n = self.1.draw(rng);
                (0..n).map(|_| self.0.draw(rng)).collect()
            }
        }
    }
}

/// Runs `property` on the replayed inputs (cases `0..replays.len()`),
/// then on case `i` drawn from stream `i`, until [`CASES`] pass.
fn check<S: Strategy>(
    name: &str,
    strategy: &S,
    replays: Vec<S::Value>,
    property: impl Fn(S::Value) -> Result<(), CaseError>,
) {
    let mut h = Fnv1a::new();
    h.write_str(name);
    let seed = h.finish();
    let drawn = (replays.len() as u64..).map(|i| strategy.draw(&mut Rng::for_stream(seed, i)));
    let (mut passed, mut rejected) = (0, 0);
    for (i, case) in replays.into_iter().chain(drawn).enumerate() {
        let inputs = format!("{case:?}");
        match catch_unwind(AssertUnwindSafe(|| property(case))) {
            Ok(Ok(())) => passed += 1,
            Ok(Err(CaseError::Reject)) => rejected += 1,
            Ok(Err(CaseError::Fail(msg))) => {
                panic!("property {name} failed at case {i}: {msg}\n  inputs: {inputs}")
            }
            Err(panic) => {
                eprintln!("property {name} panicked at case {i}\n  inputs: {inputs}");
                resume_unwind(panic)
            }
        }
        assert!(
            rejected <= MAX_REJECTS,
            "property {name}: {rejected} cases rejected"
        );
        if passed == CASES {
            return;
        }
    }
}

macro_rules! proptest {
    ($(
        #[test]
        $(#[replay($($case:expr),+ $(,)?)])?
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                &($($strategy,)+),
                vec![$($($case),+)?],
                |($($arg,)+)| -> Result<(), CaseError> {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(CaseError::Fail(format!($($fmt)+)));
        }
    };
}

macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        prop_assert!(left == right, "{left:?} != {right:?}");
    }};
}

macro_rules! prop_assume {
    ($cond:expr) => {
        let holds: bool = $cond;
        if !holds {
            return Err(CaseError::Reject);
        }
    };
}

fn finite_f64(range: Range<f64>) -> impl Strategy<Value = f64> {
    // Uniform over [start, end).
    range
}

fn complex_in_box(m: f64) -> impl Strategy<Value = Complex> {
    (finite_f64(-m..m), finite_f64(-m..m)).prop_map(|(re, im)| Complex::new(re, im))
}

proptest! {
    // ---------------- Complex field axioms ----------------

    #[test]
    fn complex_mul_commutes(a in complex_in_box(10.0), b in complex_in_box(10.0)) {
        prop_assert!((a * b - b * a).abs() < 1e-12);
    }

    #[test]
    fn complex_mul_distributes(a in complex_in_box(5.0), b in complex_in_box(5.0),
                               c in complex_in_box(5.0)) {
        prop_assert!(((a + b) * c - (a * c + b * c)).abs() < 1e-10);
    }

    #[test]
    fn complex_division_inverts(a in complex_in_box(10.0), b in complex_in_box(10.0)) {
        prop_assume!(b.abs() > 1e-6);
        prop_assert!(((a / b) * b - a).abs() < 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn complex_conj_is_involution(a in complex_in_box(100.0)) {
        prop_assert_eq!(a.conj().conj(), a);
        prop_assert!((a * a.conj() - Complex::from_re(a.norm_sqr())).abs() < 1e-9 * (1.0 + a.norm_sqr()));
    }

    #[test]
    fn complex_exp_adds(a in complex_in_box(3.0), b in complex_in_box(3.0)) {
        let lhs = (a + b).exp();
        let rhs = a.exp() * b.exp();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn complex_polar_roundtrip(a in complex_in_box(50.0)) {
        prop_assume!(a.abs() > 1e-9);
        let (r, th) = a.to_polar();
        prop_assert!((Complex::from_polar(r, th) - a).abs() < 1e-10 * a.abs());
    }

    // ---------------- Polynomial ring axioms ----------------

    #[test]
    #[replay((
        vec![-5.0, -5.0, -4.9999999535984685, -4.999994385894681],
        vec![-5.0, -5.0, -5.0, -5.0],
    ))]
    fn poly_mul_commutes(a in prop::collection::vec(finite_f64(-5.0..5.0), 0..6),
                         b in prop::collection::vec(finite_f64(-5.0..5.0), 0..6)) {
        // Summation order differs between the two products, so compare
        // coefficients approximately (last-ulp differences are expected).
        let p = Poly::new(a);
        let q = Poly::new(b);
        let pq = &p * &q;
        let qp = &q * &p;
        prop_assert_eq!(pq.degree(), qp.degree());
        for k in 0..=pq.degree() {
            prop_assert!((pq.coeff(k) - qp.coeff(k)).abs() <= 1e-10 * (1.0 + pq.coeff(k).abs()));
        }
    }

    #[test]
    fn poly_eval_is_ring_hom(a in prop::collection::vec(finite_f64(-3.0..3.0), 0..5),
                             b in prop::collection::vec(finite_f64(-3.0..3.0), 0..5),
                             x in finite_f64(-2.0..2.0)) {
        let p = Poly::new(a);
        let q = Poly::new(b);
        let sum = (&p + &q).eval(x);
        prop_assert!((sum - (p.eval(x) + q.eval(x))).abs() < 1e-9);
        let prod = (&p * &q).eval(x);
        prop_assert!((prod - p.eval(x) * q.eval(x)).abs() < 1e-7 * (1.0 + prod.abs()));
    }

    #[test]
    #[replay((
        vec![1.6611846419450722, 0.0, 0.0, 0.0, -2.833833961486232],
        vec![3.6790693264182326, 0.0058628977170708295],
    ))]
    fn poly_div_rem_reconstructs(a in prop::collection::vec(finite_f64(-4.0..4.0), 1..7),
                                 b in prop::collection::vec(finite_f64(-4.0..4.0), 1..5)) {
        let p = Poly::new(a);
        let d = Poly::new(b);
        prop_assume!(!d.is_zero());
        prop_assume!(d.leading().abs() > 1e-3);
        let (q, r) = p.div_rem(&d);
        let back = &(&q * &d) + &r;
        // Condition-aware tolerance: a divisor with a tiny leading
        // coefficient produces huge quotient coefficients, and the
        // reconstruction error scales with |q|·|d|.
        let qmax = q.coeffs().iter().map(|c| c.abs()).fold(0.0, f64::max);
        let dmax = d.coeffs().iter().map(|c| c.abs()).fold(0.0, f64::max);
        let pmax = p.coeffs().iter().map(|c| c.abs()).fold(1.0, f64::max);
        let tol = 1e-10 * (pmax + qmax * dmax) * (p.degree() + 1) as f64;
        for k in 0..=p.degree().max(back.degree()) {
            prop_assert!(
                (back.coeff(k) - p.coeff(k)).abs() < tol,
                "k={}: {} vs {} (tol {})", k, back.coeff(k), p.coeff(k), tol
            );
        }
        prop_assert!(r.is_zero() || r.degree() < d.degree());
    }

    #[test]
    fn poly_derivative_is_linear(a in prop::collection::vec(finite_f64(-4.0..4.0), 0..6),
                                 b in prop::collection::vec(finite_f64(-4.0..4.0), 0..6),
                                 k in finite_f64(-3.0..3.0)) {
        let p = Poly::new(a);
        let q = Poly::new(b);
        let lhs = (&p + &q.scale(k)).derivative();
        let rhs = &p.derivative() + &q.derivative().scale(k);
        prop_assert_eq!(lhs.degree(), rhs.degree());
        for i in 0..=lhs.degree() {
            prop_assert!((lhs.coeff(i) - rhs.coeff(i)).abs() < 1e-9);
        }
    }

    // ---------------- Root finding ----------------

    #[test]
    fn roots_reconstruct_polynomial(roots in prop::collection::vec(finite_f64(-3.0..3.0), 1..6)) {
        // Keep roots separated so the reconstruction is well-conditioned.
        let mut rs = roots;
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rs.dedup_by(|a, b| (*a - *b).abs() < 0.2);
        let p = Poly::from_real_roots(&rs);
        let found = find_roots(&p).unwrap();
        prop_assert_eq!(found.len(), rs.len());
        for r in &rs {
            prop_assert!(
                found.iter().any(|z| (*z - Complex::from_re(*r)).abs() < 1e-5),
                "missing root {} in {:?}", r, found
            );
        }
    }

    #[test]
    #[replay((vec![
        0.0,
        0.0,
        0.0,
        2.698381936684884,
        4.548674206787636,
        0.002195316586431622,
    ],))]
    fn root_residuals_small(coeffs in prop::collection::vec(finite_f64(-5.0..5.0), 2..7)) {
        let p = Poly::new(coeffs);
        prop_assume!(!p.is_zero() && p.degree() >= 1);
        prop_assume!(p.leading().abs() > 1e-3);
        for z in find_roots(&p).unwrap() {
            // Backward-error criterion: |p(z)| small against the
            // evaluation scale Σ|c_k|·|z|^k (an absolute bound is
            // unachievable for far-out roots of ill-scaled inputs).
            let eval_scale: f64 = p
                .coeffs()
                .iter()
                .enumerate()
                .map(|(k, c)| c.abs() * z.abs().powi(k as i32))
                .sum();
            prop_assert!(
                p.eval_complex(z).abs() < 1e-7 * eval_scale.max(1.0),
                "root {} residual {} vs scale {}", z, p.eval_complex(z).abs(), eval_scale
            );
        }
    }

    // ---------------- Linear algebra ----------------

    #[test]
    fn lu_solve_verifies(entries in prop::collection::vec(finite_f64(-2.0..2.0), 32),
                         rhs in prop::collection::vec(finite_f64(-2.0..2.0), 8)) {
        let n = 4;
        let a = CMat::from_fn(n, n, |i, j| {
            let base = entries[2 * (i * n + j)];
            let im = entries[2 * (i * n + j) + 1];
            // Diagonal dominance keeps the system well-conditioned.
            Complex::new(base + if i == j { 8.0 } else { 0.0 }, im)
        });
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(rhs[2 * i], rhs[2 * i + 1])).collect();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_roundtrip(entries in prop::collection::vec(finite_f64(-2.0..2.0), 50)) {
        let n = 5;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(
                entries[i * n + j] + if i == j { 10.0 } else { 0.0 },
                entries[(i * n + j + 13) % 50],
            )
        });
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        prop_assert!((&a * &inv).max_diff(&CMat::identity(n)) < 1e-9);
        prop_assert!((&inv * &a).max_diff(&CMat::identity(n)) < 1e-9);
    }

    #[test]
    fn matmul_associative(x in prop::collection::vec(finite_f64(-1.0..1.0), 27)) {
        let m = |off: usize| CMat::from_fn(3, 3, |i, j| Complex::from_re(x[(off + i * 3 + j) % 27]));
        let (a, b, c) = (m(0), m(9), m(18));
        let lhs = &(&a * &b) * &c;
        let rhs = &a * &(&b * &c);
        prop_assert!(lhs.max_diff(&rhs) < 1e-10);
    }

    // ---------------- Lattice sums ----------------

    #[test]
    fn lattice_sum_matches_truncation(re in finite_f64(0.05..0.45), im in finite_f64(-0.45..0.45),
                                      order in 2usize..4) {
        let z = Complex::new(re, im);
        let closed = lattice_sum(z, 1.0, order);
        let brute = lattice_sum_truncated(z, 1.0, order, 20_000);
        prop_assert!((closed - brute).abs() < 1e-3 * (1.0 + closed.abs()),
            "order {}: {} vs {}", order, closed, brute);
    }

    #[test]
    fn lattice_sum_periodicity(re in finite_f64(0.05..0.5), im in finite_f64(-0.5..0.5),
                               order in 1usize..4) {
        let z = Complex::new(re, im);
        let a = lattice_sum(z, 1.0, order);
        let b = lattice_sum(z + Complex::from_im(1.0), 1.0, order);
        prop_assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()));
    }

    // ---------------- FFT ----------------

    #[test]
    fn fft_roundtrip_any_length(data in prop::collection::vec(finite_f64(-10.0..10.0), 2..80)) {
        let x: Vec<Complex> = data.chunks(2)
            .map(|c| Complex::new(c[0], c.get(1).copied().unwrap_or(0.0)))
            .collect();
        let y = ifft_any(&fft_any(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval_any_length(data in prop::collection::vec(finite_f64(-10.0..10.0), 3..60)) {
        let x: Vec<Complex> = data.iter().map(|&v| Complex::from_re(v)).collect();
        let y = fft_any(&x);
        let te: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let fe: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() < 1e-8 * (1.0 + te));
    }

    #[test]
    fn goertzel_matches_dft_bin(data in prop::collection::vec(finite_f64(-5.0..5.0), 8..64),
                                bin in 0usize..8) {
        let n = data.len();
        let theta = 2.0 * std::f64::consts::PI * bin as f64 / n as f64;
        let g = goertzel(&data, theta);
        let x: Vec<Complex> = data.iter().map(|&v| Complex::from_re(v)).collect();
        let spec = fft_any(&x);
        let reference = spec[bin % n];
        prop_assert!((g - reference).abs() < 1e-7 * (1.0 + reference.abs()));
    }

    // ---------------- Transfer functions & PFE ----------------

    #[test]
    fn tf_feedback_identity(num in prop::collection::vec(finite_f64(-3.0..3.0), 1..3),
                            den in prop::collection::vec(finite_f64(-3.0..3.0), 2..4)) {
        let d = Poly::new(den);
        prop_assume!(!d.is_zero() && d.degree() >= 1 && d.leading().abs() > 1e-2);
        let g = Tf::new(Poly::new(num), d).unwrap();
        let cl = g.feedback_unity().unwrap();
        let s = Complex::new(0.3, 0.9);
        let gv = g.eval(s);
        prop_assume!((Complex::ONE + gv).abs() > 1e-3);
        let expect = gv / (Complex::ONE + gv);
        prop_assert!((cl.eval(s) - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }

    #[test]
    fn pfe_reconstructs_separated_poles(poles in prop::collection::vec(finite_f64(-5.0..-0.2), 1..5),
                                        gain in finite_f64(0.1..3.0)) {
        let mut ps = poles;
        ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ps.dedup_by(|a, b| (*a - *b).abs() < 0.3);
        let tf = Tf::new(Poly::constant(gain), Poly::from_real_roots(&ps)).unwrap();
        let pfe = Pfe::expand(&tf, 1e-6).unwrap();
        for &(re, im) in &[(0.5, 0.5), (1.0, -2.0)] {
            let s = Complex::new(re, im);
            let a = tf.eval(s);
            prop_assert!((pfe.eval(s) - a).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    // ---------------- HTM structure ----------------

    #[test]
    fn lti_htm_is_diagonal(wc in finite_f64(0.2..5.0), w in finite_f64(0.01..3.0), k in 1usize..4) {
        let blk = LtiHtm::new(Tf::first_order_lowpass(wc), 2.0);
        let t = Truncation::new(k);
        let h = blk.htm(Complex::from_im(w), t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                if n != m {
                    prop_assert_eq!(h.band(n, m), Complex::ZERO);
                }
            }
        }
    }

    #[test]
    fn multiplier_htm_is_toeplitz(c0 in finite_f64(-2.0..2.0), c1 in finite_f64(-2.0..2.0),
                                  k in 1usize..4) {
        let blk = MultiplierHtm::from_fourier(
            vec![Complex::from_re(c1), Complex::from_re(c0), Complex::from_re(c1)],
            1.0,
        );
        let t = Truncation::new(k);
        let h = blk.htm(Complex::ZERO, t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                if let (Some(_), Some(_)) = (t.index_of(n - 1), t.index_of(m - 1)) {
                    prop_assert_eq!(h.band(n, m), h.band(n - 1, m - 1));
                }
            }
        }
    }

    #[test]
    fn sampler_htm_rank_one(w0 in finite_f64(0.5..20.0), k in 1usize..4) {
        let blk = SamplerHtm::new(w0);
        let t = Truncation::new(k);
        let h = blk.htm(Complex::from_im(0.3), t);
        // All 2×2 minors vanish.
        for n in t.harmonics().skip(1) {
            for m in t.harmonics().skip(1) {
                let det = h.band(n, m) * h.band(n - 1, m - 1) - h.band(n, m - 1) * h.band(n - 1, m);
                prop_assert!(det.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn series_composition_matches_operator_order(w in finite_f64(0.05..2.0)) {
        // (VCO ∘ sampler) as matrices equals evaluating blocks in order.
        let w0 = 4.0;
        let t = Truncation::new(3);
        let s = Complex::from_im(w);
        let pfd = SamplerHtm::new(w0);
        let vco = VcoHtm::time_invariant(1.5, w0);
        let manual = &vco.htm(s, t) * &pfd.htm(s, t);
        // The series chain evaluated block by block, signal through the
        // sampler first: each later block multiplies from the left.
        let blocks: [&dyn HtmBlock; 2] = [&pfd, &vco];
        let mut composed = blocks[0].htm(s, t);
        for b in &blocks[1..] {
            composed = &b.htm(s, t) * &composed;
        }
        prop_assert!(manual.as_matrix().max_diff(composed.as_matrix()) < 1e-13);
    }

    // ---------------- Scalar root refinement ----------------

    #[test]
    fn brent_finds_planted_root(root in finite_f64(-5.0..5.0), scale in finite_f64(0.5..3.0)) {
        let f = move |x: f64| scale * (x - root) * (1.0 + 0.1 * (x - root).powi(2));
        let r = brent(f, root - 2.0, root + 2.0, 1e-13, 200).unwrap();
        prop_assert!((r - root).abs() < 1e-9);
    }

    #[test]
    fn lin_grid_monotone(a in finite_f64(-10.0..10.0), span in finite_f64(0.1..10.0), n in 2usize..50) {
        let g = lin_grid(a, a + span, n);
        prop_assert_eq!(g.len(), n);
        for w in g.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }
}

// Additional property tests over the analysis layers.

proptest! {
    #[test]
    fn lattice_derivative_matches_finite_difference(
        re in finite_f64(0.1..0.4), im in finite_f64(-0.4..0.4), order in 1usize..3
    ) {
        use htmpll::num::special::lattice_sum;
        let z = Complex::new(re, im);
        let h = 1e-6;
        let fd = (lattice_sum(z + Complex::from_re(h), 1.0, order)
            - lattice_sum(z - Complex::from_re(h), 1.0, order))
            / (2.0 * h);
        let exact = -(order as f64) * lattice_sum(z, 1.0, order + 1);
        prop_assert!((fd - exact).abs() < 1e-4 * (1.0 + exact.abs()),
            "fd {} vs exact {}", fd, exact);
    }

    #[test]
    fn pade_is_all_pass_and_stable(tau in finite_f64(0.05..3.0), order in 1usize..7) {
        use htmpll::lti::pade_delay;
        let d = pade_delay(tau, order).unwrap();
        for w in [0.1, 1.0, 10.0] {
            prop_assert!((d.eval_jw(w).abs() - 1.0).abs() < 1e-9);
        }
        for p in d.poles().unwrap() {
            prop_assert!(p.re < 0.0, "unstable pole {}", p);
        }
    }

    #[test]
    fn jury_matches_roots_on_random_polys(
        coeffs in prop::collection::vec(finite_f64(-1.5..1.5), 2..6)
    ) {
        use htmpll::num::roots::find_roots;
        use htmpll::zdomain::jury_stable;
        let p = Poly::new(coeffs);
        prop_assume!(!p.is_zero() && p.degree() >= 1);
        prop_assume!(p.leading().abs() > 0.05);
        let roots = find_roots(&p).unwrap();
        // Skip near-marginal cases where both methods are tolerance-bound.
        prop_assume!(roots.iter().all(|z| (z.abs() - 1.0).abs() > 1e-3));
        let by_roots = roots.iter().all(|z| z.abs() < 1.0);
        prop_assert_eq!(jury_stable(&p).unwrap(), by_roots);
    }

    #[test]
    fn effective_gain_conjugate_symmetry(ratio in finite_f64(0.05..0.3), w in finite_f64(0.05..2.0)) {
        use htmpll::core::{EffectiveGain, PllDesign};
        let d = PllDesign::reference_design(ratio).unwrap();
        let lam = EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap();
        let a = lam.eval(Complex::from_im(w));
        let b = lam.eval(Complex::from_im(-w));
        prop_assert!((a.conj() - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn closed_loop_smw_equals_dense_randomized(
        ratio in finite_f64(0.05..0.25), w in finite_f64(0.05..2.0), k in 2usize..6
    ) {
        use htmpll::core::{PllDesign, PllModel};
        let m = PllModel::builder(PllDesign::reference_design(ratio).unwrap()).build().unwrap();
        let t = Truncation::new(k);
        let s = Complex::from_im(w);
        let fast = m.closed_loop_htm(s, t).unwrap().0;
        let dense = m.open_loop_htm(s, t).closed_loop().unwrap();
        prop_assert!(fast.as_matrix().max_diff(dense.as_matrix()) < 1e-9);
    }

    #[test]
    fn impulse_invariant_matches_time_samples(
        a in finite_f64(0.3..4.0), t in finite_f64(0.1..1.0), k in 0usize..10
    ) {
        use htmpll::zdomain::impulse_invariant;
        let p = Tf::from_coeffs(vec![1.0], vec![a, 1.0]).unwrap();
        let g = impulse_invariant(&p, t).unwrap();
        let series = g.impulse_response(k + 1);
        let expect = (-a * t * k as f64).exp();
        prop_assert!((series[k] - expect).abs() < 1e-9 * (1.0 + expect));
    }

    #[test]
    fn noise_shapes_nonnegative(w in finite_f64(0.001..100.0), lvl in finite_f64(1e-15..1e-6)) {
        use htmpll::core::NoiseShape;
        let shapes = [
            NoiseShape::White { level: lvl },
            NoiseShape::PowerLaw { level_at_ref: lvl, w_ref: 1.0, exponent: 2 },
            NoiseShape::Leeson { floor: lvl, flicker_corner: 0.1, half_bw: 1.0 },
        ];
        for s in shapes {
            let v = s.psd(w);
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn window_gains_bounded(n in 8usize..512) {
        use htmpll::spectral::Window;
        for w in [Window::Rectangular, Window::Hann, Window::Hamming, Window::BlackmanHarris] {
            let cg = w.coherent_gain(n);
            let pg = w.power_gain(n);
            prop_assert!(cg > 0.0 && cg <= 1.0 + 1e-12);
            prop_assert!(pg > 0.0 && pg <= 1.0 + 1e-12);
            prop_assert!(w.enbw_bins(n) >= 1.0 - 1e-9);
        }
    }
}

proptest! {
    #[test]
    fn eigenvalue_trace_invariant(entries in prop::collection::vec(finite_f64(-2.0..2.0), 32)) {
        use htmpll::num::eigenvalues;
        let n = 4;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(entries[2 * (i * n + j)], entries[2 * (i * n + j) + 1])
        });
        let evs = eigenvalues(&a).unwrap();
        prop_assert_eq!(evs.len(), n);
        let tr: Complex = (0..n).map(|i| a[(i, i)]).sum();
        let sum: Complex = evs.iter().copied().sum();
        prop_assert!((tr - sum).abs() < 1e-8 * (1.0 + tr.abs()),
            "trace {} vs eig sum {}", tr, sum);
    }

    #[test]
    fn eigenvalue_det_invariant(entries in prop::collection::vec(finite_f64(-2.0..2.0), 18)) {
        use htmpll::num::{eigenvalues, Lu};
        let n = 3;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(
                entries[2 * (i * n + j)] + if i == j { 3.0 } else { 0.0 },
                entries[2 * (i * n + j) + 1],
            )
        });
        let evs = eigenvalues(&a).unwrap();
        let det = Lu::factor(&a).unwrap().det();
        let prod: Complex = evs.iter().copied().product();
        prop_assert!((det - prod).abs() < 1e-7 * (1.0 + det.abs()),
            "det {} vs eig product {}", det, prod);
    }

    #[test]
    fn similarity_preserves_eigenvalues(entries in prop::collection::vec(finite_f64(-1.5..1.5), 18)) {
        use htmpll::num::eig::hessenberg;
        use htmpll::num::eigenvalues;
        let n = 3;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(entries[2 * (i * n + j)], entries[2 * (i * n + j) + 1])
        });
        let mut e1 = eigenvalues(&a).unwrap();
        let mut e2 = eigenvalues(&hessenberg(&a).unwrap()).unwrap();
        let key = |z: &Complex| (z.re, z.im);
        e1.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        e2.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        for (x, y) in e1.iter().zip(&e2) {
            prop_assert!((*x - *y).abs() < 1e-7 * (1.0 + x.abs()));
        }
    }
}

proptest! {
    #[test]
    fn period_map_is_linear_under_linear_law(
        ratio in finite_f64(0.05..0.2), a in finite_f64(-2e-3..2e-3), b in finite_f64(-2e-3..2e-3)
    ) {
        use htmpll::core::PllDesign;
        use htmpll::sim::{PeriodMap, PulseLaw, SimParams};
        let params = SimParams::from_design(&PllDesign::reference_design(ratio).unwrap());
        let run = |amp: f64| {
            let mut m = PeriodMap::new(&params, PulseLaw::Linear);
            m.run(40, |k| amp * ((k as f64) * 0.37).sin())
        };
        let ya = run(a);
        let yb = run(b);
        let yab = run(a + b);
        for ((x, y), z) in ya.iter().zip(&yb).zip(&yab) {
            prop_assert!((x + y - z).abs() < 1e-12 * (1.0 + z.abs()),
                "superposition violated: {} + {} vs {}", x, y, z);
        }
    }

    #[test]
    fn expm_inverse_property(entries in prop::collection::vec(finite_f64(-0.8..0.8), 18)) {
        use htmpll::num::mat::expm;
        let n = 3;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(entries[2 * (i * n + j)], entries[2 * (i * n + j) + 1])
        });
        let e = expm(&a).unwrap();
        let einv = expm(&a.scale(Complex::from_re(-1.0))).unwrap();
        prop_assert!((&e * &einv).max_diff(&CMat::identity(n)) < 1e-9);
    }

    #[test]
    fn tf_estimate_recovers_random_fir(taps in prop::collection::vec(finite_f64(-1.0..1.0), 1..5)) {
        use htmpll::spectral::tf_estimate;
        // Deterministic noise through a random FIR filter.
        let mut state = 0xabcdef12345u64;
        let x: Vec<f64> = (0..1 << 13)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 32) as u32 as f64) / (u32::MAX as f64) - 0.5
            })
            .collect();
        let mut y = vec![0.0; x.len()];
        for k in taps.len()..x.len() {
            y[k] = taps.iter().enumerate().map(|(j, &t)| t * x[k - j]).sum();
        }
        let est = tf_estimate(&x, &y, 1.0, 512);
        for bin in est.iter().step_by(41) {
            let z = Complex::cis(-2.0 * std::f64::consts::PI * bin.frequency);
            let expect: Complex = taps
                .iter()
                .enumerate()
                .map(|(j, &t)| z.powi(j as i32).scale(t))
                .sum();
            prop_assume!(expect.abs() > 0.05); // skip near-nulls of the FIR
            prop_assert!(
                (bin.h - expect).abs() < 0.1 * (1.0 + expect.abs()),
                "f={}: {} vs {}", bin.frequency, bin.h, expect
            );
        }
    }
}
