//! Bit pins for the HTM library path: the open-loop assembly, the
//! structured closed-loop grid (and `PllModel::closed_loop_htm`, which
//! must be its point bit for bit) and the noise-folding grid.
//!
//! Each digest hashes the exact IEEE-754 bit patterns of its outputs
//! (FNV-1a), so a change that moves one rounding in the assembly of
//! `G̃ = Ṽ·𝟙ᵀ` (eqs. 26–29), its closed form (eq. 34) or the folded
//! PSD changes a digest here. The designs follow the benchmark's
//! `htm_grid` shape: plain, ISF (a two-harmonic VCO), Padé loop delay,
//! and both, at three loop-bandwidth ratios. Every digest was computed
//! before `open_loop_htm` assembled the rank-one factors directly.

use htmpll::core::{NoiseModel, PllDesign, PllModel, SweepCache, SweepSpec};
use htmpll::htm::{HtmBlock, HtmRepr, LtiHtm, SamplerHtm, Truncation, VcoHtm};
use htmpll::lti::pade_delay;
use htmpll::num::hash::Fnv1a;
use htmpll::num::Complex;

const RATIOS: [f64; 3] = [0.07, 0.18, 0.36];
const DELAY_FRAC: f64 = 0.05;
const DELAY_ORDER: usize = 4;

/// One design: `(ratio, isf, delay)`.
fn designs() -> Vec<(f64, bool, bool)> {
    let mut out = Vec::new();
    for &ratio in &RATIOS {
        for (isf, delay) in [(false, false), (true, false), (false, true), (true, true)] {
            out.push((ratio, isf, delay));
        }
    }
    out
}

fn isf(v0: f64) -> Vec<Complex> {
    let c = |a: f64| Complex::from_re(0.5 * a * v0);
    vec![c(0.1), c(0.4), Complex::from_re(v0), c(0.4), c(0.1)]
}

fn delay_tau(design: &PllDesign) -> f64 {
    DELAY_FRAC * (1.0 / design.f_ref())
}

fn build(ratio: f64, with_isf: bool, with_delay: bool) -> PllModel {
    let design = PllDesign::reference_design(ratio).unwrap();
    let v0 = design.v0();
    let tau = delay_tau(&design);
    let mut b = PllModel::builder(design);
    if with_isf {
        b = b.vco_isf(isf(v0));
    }
    if with_delay {
        b = b.loop_delay(tau, DELAY_ORDER);
    }
    b.build().unwrap()
}

fn write_c(h: &mut Fnv1a, z: Complex) {
    h.write_f64(z.re);
    h.write_f64(z.im);
}

fn write_repr(h: &mut Fnv1a, repr: &HtmRepr, n: usize) {
    h.write_str(repr.kind_name());
    match repr {
        HtmRepr::RankOnePlus { u, v, shift } => {
            for &z in u.iter().chain(v) {
                write_c(h, z);
            }
            write_c(h, *shift);
        }
        other => {
            let m = other.to_dense(n);
            for i in 0..n {
                for j in 0..n {
                    write_c(h, m[(i, j)]);
                }
            }
        }
    }
}

fn bits(z: &[Complex]) -> Vec<(u64, u64)> {
    z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn open_loop_assembly_matches_block_product_bitwise() {
    let trunc = Truncation::new(24);
    let n = trunc.dim();
    let mut h = Fnv1a::new();
    for (ratio, with_isf, with_delay) in designs() {
        let model = build(ratio, with_isf, with_delay);
        let design = model.design();
        let w0 = design.omega_ref();
        // The reference composition: H̃_VCO·(H̃_LF·H̃_PFD) from the blocks.
        let mut fwd = design.loop_filter_tf();
        if with_delay {
            fwd = &fwd * &pade_delay(delay_tau(design), DELAY_ORDER).unwrap();
        }
        let vco_isf = if with_isf {
            isf(design.v0())
        } else {
            vec![Complex::from_re(design.v0())]
        };
        let lf = LtiHtm::new(fwd, w0);
        let vco = VcoHtm::new(vco_isf, w0);
        let pfd = SamplerHtm::new(w0);
        for s in [
            Complex::from_im(0.013 * w0),
            Complex::from_im(0.37 * w0),
            Complex::new(1e-4 * w0, 0.21 * w0),
            Complex::new(-0.05 * w0, 0.44 * w0),
            Complex::new(0.2 * w0, -0.3 * w0),
        ] {
            let want = &vco.htm(s, trunc) * &(&lf.htm(s, trunc) * &pfd.htm(s, trunc));
            let got = model.open_loop_htm(s, trunc);
            let (
                HtmRepr::RankOnePlus {
                    u: wu,
                    v: wv,
                    shift: ws,
                },
                HtmRepr::RankOnePlus {
                    u: gu,
                    v: gv,
                    shift: gs,
                },
            ) = (want.repr(), got.repr())
            else {
                panic!("open loop must stay rank one: {}", got.repr().kind_name());
            };
            let tag = format!("ratio={ratio} isf={with_isf} delay={with_delay} s={s}");
            assert_eq!(bits(wu), bits(gu), "u differs: {tag}");
            assert_eq!(bits(wv), bits(gv), "v differs: {tag}");
            assert_eq!(bits(&[*ws]), bits(&[*gs]), "shift differs: {tag}");
            write_repr(&mut h, got.repr(), n);
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "b90de7dab368679b");
}

#[test]
fn closed_loop_grid_digest_is_pinned_at_one_and_two_threads() {
    let trunc = Truncation::new(24);
    let n = trunc.dim();
    let digest = |threads: usize| {
        let mut h = Fnv1a::new();
        for (ratio, with_isf, with_delay) in designs() {
            let model = build(ratio, with_isf, with_delay);
            let w0 = model.design().omega_ref();
            let spec = SweepSpec::log(1e-2, 0.49 * w0, 40)
                .unwrap()
                .with_truncation(trunc)
                .with_threads(threads);
            let grid = model.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
            for p in &grid.points {
                h.write_str(p.quality.name());
                h.write_f64(p.cond);
                h.write_f64(p.residual);
                match &p.value {
                    Some(htm) => write_repr(&mut h, htm.repr(), n),
                    None => h.write_str("none"),
                }
            }
        }
        format!("{:016x}", h.finish())
    };
    let one = digest(1);
    assert_eq!(
        digest(2),
        one,
        "closed-loop grid differs across thread counts"
    );
    assert_eq!(one, "e4a52188f6cce11b");
}

#[test]
fn output_psd_grid_digest_is_pinned() {
    let ref_psd = |_: f64| 1e-12;
    let vco_psd = |w: f64| 1e-11 / (w * w).max(1e-12);
    let digest = |threads: usize| {
        let mut h = Fnv1a::new();
        for (ratio, with_isf, with_delay) in designs() {
            let model = build(ratio, with_isf, with_delay);
            let w0 = model.design().omega_ref();
            let spec = SweepSpec::log(1e-2, 0.49 * w0, 64)
                .unwrap()
                .with_threads(threads);
            for p in NoiseModel::new(&model, 8).output_psd_grid(&spec, &ref_psd, &vco_psd) {
                h.write_f64(p);
            }
        }
        format!("{:016x}", h.finish())
    };
    let one = digest(1);
    assert_eq!(digest(2), one, "noise grid differs across thread counts");
    assert_eq!(one, "e5afac1be0d54479");
}

#[test]
fn closed_loop_htm_is_the_structured_sweep_point_bitwise() {
    let trunc = Truncation::new(24);
    let n = trunc.dim();
    let digest = |repr: &HtmRepr| {
        let mut h = Fnv1a::new();
        write_repr(&mut h, repr, n);
        h.finish()
    };
    for (ratio, with_isf, with_delay) in designs() {
        let model = build(ratio, with_isf, with_delay);
        let w0 = model.design().omega_ref();
        let spec = SweepSpec::log(1e-2, 0.49 * w0, 8)
            .unwrap()
            .with_truncation(trunc)
            .with_threads(1usize);
        let grid = model.closed_loop_htm_grid_robust(&spec, &SweepCache::new());
        for (&w, p) in spec.grid.points().iter().zip(&grid.points) {
            let tag = format!("ratio={ratio} isf={with_isf} delay={with_delay} w={w}");
            assert!(!p.quality.is_degraded(), "sweep point escalated: {tag}");
            let (htm, report) = model.closed_loop_htm(Complex::from_im(w), trunc).unwrap();
            let want = p.value.as_ref().expect("sweep point value");
            assert_eq!(
                digest(htm.repr()),
                digest(want.repr()),
                "htm differs: {tag}"
            );
            assert_eq!(report.cond_estimate.to_bits(), p.cond.to_bits(), "{tag}");
            assert_eq!(report.residual.to_bits(), p.residual.to_bits(), "{tag}");
        }
        // s = jω₀ puts band −1 on the aliased integrator pole: the open
        // loop is not finite there, and the solve must say so.
        assert!(
            model.closed_loop_htm(Complex::from_im(w0), trunc).is_err(),
            "ratio={ratio} isf={with_isf} delay={with_delay}"
        );
    }
}
