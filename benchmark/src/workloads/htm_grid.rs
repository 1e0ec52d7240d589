//! `htm_grid`: library use of the paper's HTM machinery on seeded
//! designs — the λ(jω) batch grid, the structured (Sherman–Morrison)
//! closed loop at K = 24 through a cold and then a warm `SweepCache`,
//! the banded-Toeplitz mat-vec of time-varying VCOs, and noise folding.
//! No service layer and no `analyze`.

use std::collections::BTreeMap;
use std::time::Instant;

use htmpll::core::{
    KernelPolicy, NoiseModel, PllDesign, PllModel, PointQuality, SweepCache, SweepSpec,
};
use htmpll::htm::{Htm, Truncation};
use htmpll::lti::FrequencyGrid;
use htmpll::num::Complex;

use crate::harness::{Outcome, Rep, Rng, RunConfig, Workload, THREADS, TRACE_REPS};
use crate::trace::Tracer;

const TRUNC: usize = 24;
const LAMBDA_POINTS: usize = 1024;
const HTM_POINTS: usize = 512;
const NOISE_POINTS: usize = 256;
const FOLD_BANDS: usize = 8;
/// Grid indices re-solved with the dense kernels as a cross-check.
const DENSE_PROBES: [usize; 2] = [HTM_POINTS / 5, 4 * HTM_POINTS / 5];
const DENSE_TOL: f64 = 1e-10;

/// One seeded design. Half carry a 2-harmonic VCO ISF, a quarter a
/// loop delay (the two sets are drawn independently).
#[derive(Debug, Clone, Copy)]
struct DesignInput {
    ratio: f64,
    /// `(a1, a2)`: ISF cosine harmonics relative to `v0`.
    isf: Option<(f64, f64)>,
    /// Loop delay as a fraction of the reference period.
    delay: Option<f64>,
}

pub struct HtmGrid {
    designs: Vec<DesignInput>,
    next: u64,
    /// Every rep repeats the same designs, so the costly dense
    /// cross-check runs in the first rep only.
    dense_checked: bool,
    /// Failed grid points over the traced reps.
    traced_failed: usize,
}

fn designs(rng: &mut Rng, n: usize) -> Vec<DesignInput> {
    let ratios = rng.stratified(n, 0.05, 0.40);
    let mut isf: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    let mut delay: Vec<bool> = (0..n).map(|i| i < n / 4).collect();
    rng.shuffle(&mut isf);
    rng.shuffle(&mut delay);
    ratios
        .into_iter()
        .zip(isf.into_iter().zip(delay))
        .map(|(ratio, (isf, delay))| DesignInput {
            ratio,
            isf: isf.then(|| (rng.range(0.2, 0.6), rng.range(0.05, 0.2))),
            delay: delay.then(|| rng.range(0.02, 0.08)),
        })
        .collect()
}

fn build(d: &DesignInput) -> Result<PllModel, String> {
    let design = PllDesign::reference_design(d.ratio).map_err(|e| e.to_string())?;
    let v0 = design.v0();
    let t_ref = 1.0 / design.f_ref();
    let mut b = PllModel::builder(design);
    if let Some((a1, a2)) = d.isf {
        let c = |a: f64| Complex::from_re(0.5 * a * v0);
        b = b.vco_isf(vec![c(a2), c(a1), Complex::from_re(v0), c(a1), c(a2)]);
    }
    if let Some(frac) = d.delay {
        b = b.loop_delay(frac * t_ref, 4);
    }
    b.build().map_err(|e| e.to_string())
}

/// Largest entry-wise difference between two HTMs, relative to the
/// largest entry of `b`.
fn rel_diff(a: &Htm, b: &Htm) -> f64 {
    let k = TRUNC as i64;
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
    for n in -k..=k {
        for m in -k..=k {
            let (x, y) = (a.band(n, m), b.band(n, m));
            diff = diff.max((x - y).abs());
            scale = scale.max(y.abs());
        }
    }
    diff / scale.max(f64::MIN_POSITIVE)
}

/// Reference phase noise: white. VCO: white FM (1/ω²).
fn ref_psd(_w: f64) -> f64 {
    1e-12
}

fn vco_psd(w: f64) -> f64 {
    1e-11 / (w * w).max(1e-12)
}

impl HtmGrid {
    /// Runs one design: every library call is timed (and spanned); the
    /// checks run after the design's clock stops. Returns the timed
    /// milliseconds and the number of grid points that failed.
    fn design(
        &self,
        d: &DesignInput,
        item: u64,
        tr: &Tracer,
        parent: u64,
        out: &mut Outcome,
    ) -> (f64, usize) {
        let span = tr.span("design", parent, item);
        let t = Instant::now();
        let model = match build(d) {
            Ok(m) => m,
            Err(e) => {
                out.check("htm_grid.model_builds", false, || e);
                out.ops(HTM_POINTS as u64, HTM_POINTS as u64);
                return (t.elapsed().as_secs_f64() * 1e3, HTM_POINTS);
            }
        };
        let w0 = model.design().omega_ref();
        let spec = |n: usize| {
            SweepSpec::log(1e-2, 0.49 * w0, n)
                .expect("positive, increasing grid")
                .with_threads(THREADS)
        };
        let lambda = {
            let _s = tr.span("core.lambda.eval_grid", span.id(), item);
            model.lambda().eval_grid(&spec(LAMBDA_POINTS))
        };
        let htm_spec = spec(HTM_POINTS).with_truncation(Truncation::new(TRUNC));
        let cache = SweepCache::new();
        let cold = {
            let _s = tr.span("core.sweep.cold", span.id(), item);
            model.closed_loop_htm_grid_robust(&htm_spec, &cache)
        };
        let warm = {
            let _s = tr.span("core.sweep.warm", span.id(), item);
            model.closed_loop_htm_grid_robust(&htm_spec, &cache)
        };
        let psd = {
            let _s = tr.span("core.noise.psd_grid", span.id(), item);
            NoiseModel::new(&model, FOLD_BANDS).output_psd_grid(
                &spec(NOISE_POINTS),
                &ref_psd,
                &vco_psd,
            )
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(span);

        let failed = cold
            .points
            .iter()
            .filter(|p| matches!(p.quality, PointQuality::Failed { .. }))
            .count();
        out.ops(cold.points.len() as u64, failed as u64);
        out.check("htm_grid.no_failed_points", failed == 0, || {
            format!("ratio {}: {failed} failed points", d.ratio)
        });
        out.check(
            "htm_grid.outputs_finite",
            lambda.iter().all(|z| z.re.is_finite() && z.im.is_finite())
                && psd.iter().all(|p| p.is_finite() && *p > 0.0),
            || format!("ratio {}: non-finite λ or PSD", d.ratio),
        );
        let same = cold.points.len() == warm.points.len()
            && cold.points.iter().zip(&warm.points).all(|(c, w)| {
                c.quality == w.quality
                    && match (&c.value, &w.value) {
                        (Some(a), Some(b)) => a.repr() == b.repr(),
                        (None, None) => true,
                        _ => false,
                    }
            });
        out.check("htm_grid.warm_equals_cold", same, || {
            format!("ratio {}: warm pass differs from cold pass", d.ratio)
        });
        if !self.dense_checked {
            let probes: Vec<f64> = DENSE_PROBES
                .iter()
                .map(|&i| htm_spec.grid.points()[i])
                .collect();
            let dense_spec = SweepSpec::new(FrequencyGrid::from_points(probes))
                .with_truncation(Truncation::new(TRUNC))
                .with_threads(1)
                .with_kernel(KernelPolicy::Dense);
            let dense = model.closed_loop_htm_grid_robust(&dense_spec, &SweepCache::new());
            for (&i, p) in DENSE_PROBES.iter().zip(&dense.points) {
                let err = match (&cold.points[i].value, &p.value) {
                    (Some(s), Some(d)) => rel_diff(s, d),
                    _ => f64::INFINITY,
                };
                out.check(
                    "htm_grid.structured_matches_dense",
                    err <= DENSE_TOL,
                    || format!("ratio {}, point {i}: relative difference {err:e}", d.ratio),
                );
            }
        }
        (ms, failed)
    }
}

impl Workload for HtmGrid {
    fn setup(cfg: &RunConfig) -> HtmGrid {
        let n = if cfg.quick { 16 } else { 120 };
        let mut grid = HtmGrid {
            designs: designs(&mut Rng::new(cfg.seed, 0x47d), n),
            next: 0,
            dense_checked: true,
            traced_failed: 0,
        };
        // Warm-up unit: designs of another stream.
        let warm = designs(
            &mut Rng::new(cfg.seed, 0x47e),
            if cfg.quick { 4 } else { 64 },
        );
        let tr = Tracer::new(false);
        let mut scratch = Outcome::default();
        for d in &warm {
            grid.design(d, 0, &tr, 0, &mut scratch);
        }
        grid.dense_checked = false;
        grid
    }

    fn rep(&mut self, tr: &Tracer, parent: u64, out: &mut Outcome) -> Rep {
        let mut total_ms = 0.0;
        for (i, d) in self.designs.iter().enumerate() {
            let (ms, failed) = self.design(d, self.next + i as u64, tr, parent, out);
            total_ms += ms;
            if tr.is_on() {
                self.traced_failed += failed;
            }
        }
        let n = self.designs.len() as f64;
        self.next += self.designs.len() as u64;
        self.dense_checked = true;
        // The mean design time: designs differ in kind (with or without
        // an ISF), so their pooled times cluster, and a median taken
        // between two clusters jumps with noise.
        Rep {
            secs: total_ms / 1e3,
            items: n,
            latency_ms: total_ms / n,
        }
    }

    fn layers(
        &mut self,
        _tr: &Tracer,
        _out: &mut Outcome,
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        layers.insert(
            "core.sweep.failed_points",
            self.traced_failed as f64 / TRACE_REPS as f64,
        );
    }
}
