//! `timesim`: the paper's §5 verification — time-marching simulation
//! of seeded designs, graded against the HTM closed form. Per design:
//! three tone measurements of `H₀₀`, one jittered simulation, and a
//! Welch PSD of its output phase. Designs run on a two-thread
//! `par_map`. The only workload where `sim` and `spectral` do work.

use std::time::Instant;

use htmpll::core::{PllDesign, PllModel};
use htmpll::num::Complex;
use htmpll::par::{par_map, ThreadBudget};
use htmpll::sim::{measure_h00, MeasureOptions, PllSim, SimConfig, SimParams};
use htmpll::spectral::{welch, Window};

use crate::harness::{unrecorded, Outcome, Rep, Rng, RunConfig, Workload, THREADS};
use crate::trace::Tracer;

const TONES: [f64; 3] = [0.4, 1.0, 2.0];
/// Relative sim-vs-HTM tone error bound (as in the paper-reproduction
/// tests).
const TONE_TOL: f64 = 0.03;
/// Output-PSD bands (Hz, with ω_UG = 1 rad/s) spanning in-band, the
/// peaking region and the roll-off, and the accepted
/// measured-to-predicted ratio.
const BANDS: [(f64, f64); 3] = [(0.01, 0.05), (0.12, 0.25), (0.3, 0.45)];
const BAND_RATIO: (f64, f64) = (0.6, 1.7);
const SETTLE_PERIODS: f64 = 300.0;
const RECORD_PERIODS: f64 = 6000.0;
/// Recorded periods with `--quick`: still enough Welch segments for the
/// band checks.
const QUICK_RECORD_PERIODS: f64 = 2000.0;
const WELCH_LEN: usize = 4096;
const JITTER_RMS_FRAC: f64 = 1e-4;

#[derive(Debug, Clone, Copy)]
struct DesignInput {
    ratio: f64,
    jitter_seed: u64,
    /// Reference periods recorded after settling.
    record_periods: f64,
}

/// What one design produced, checked after the rep's clock stops.
struct DesignOutput {
    ms: f64,
    tones: Vec<(f64, Complex)>,
    psd: Result<Vec<(f64, f64)>, String>,
}

pub struct Timesim {
    designs: Vec<DesignInput>,
}

fn designs(rng: &mut Rng, n: usize, record_periods: f64) -> Vec<DesignInput> {
    rng.stratified(n, 0.10, 0.20)
        .into_iter()
        .map(|ratio| DesignInput {
            ratio,
            jitter_seed: rng.next_u64(),
            record_periods,
        })
        .collect()
}

fn simulate(d: &DesignInput, item: u64, tr: &Tracer, parent: u64) -> DesignOutput {
    let span = tr.span("design", parent, item);
    let t = Instant::now();
    let design = PllDesign::reference_design(d.ratio).expect("ratio in (0.1, 0.2) is valid");
    let params = SimParams::from_design(&design);
    let tones = TONES
        .iter()
        .map(|&w| {
            let _s = tr.span("sim.measure_h00", span.id(), item);
            let m = measure_h00(
                &params,
                &SimConfig::default(),
                w,
                &MeasureOptions::default(),
            );
            (m.omega, m.h)
        })
        .collect();
    let t_ref = params.t_ref;
    let trace = {
        let _s = tr.span("sim.run", span.id(), item);
        let cfg = SimConfig {
            ref_jitter_rms: JITTER_RMS_FRAC * t_ref,
            jitter_seed: d.jitter_seed,
            ..SimConfig::default()
        };
        let mut sim = PllSim::new(params, cfg);
        let _ = sim.run(SETTLE_PERIODS * t_ref, &|_| 0.0);
        sim.run(d.record_periods * t_ref, &|_| 0.0)
    };
    let psd = {
        let _s = tr.span("spectral.welch", span.id(), item);
        welch(&trace.theta_vco, 1.0 / trace.dt, WELCH_LEN, Window::Hann).map_err(|e| e.to_string())
    };
    DesignOutput {
        ms: t.elapsed().as_secs_f64() * 1e3,
        tones,
        psd,
    }
}

/// Grades one design's outputs against the HTM closed form; returns
/// whether every check passed.
fn check(d: &DesignInput, o: &DesignOutput, out: &mut Outcome) -> bool {
    let design = PllDesign::reference_design(d.ratio).expect("ratio in (0.1, 0.2) is valid");
    let t_ref = 1.0 / design.f_ref();
    let model = match PllModel::builder(design).build() {
        Ok(m) => m,
        Err(e) => {
            out.check("timesim.model_builds", false, || e.to_string());
            return false;
        }
    };
    let mut ok = true;
    for &(omega, h) in &o.tones {
        let predicted = model.h00(omega);
        let err = (h - predicted).abs() / predicted.abs();
        ok &= err < TONE_TOL;
        out.check("timesim.tone_matches_htm", err < TONE_TOL, || {
            format!("ratio {}, w {omega}: relative error {err:.4}", d.ratio)
        });
    }
    let psd = match &o.psd {
        Ok(psd) => psd,
        Err(e) => {
            out.check("timesim.welch_ok", false, || e.clone());
            return false;
        }
    };
    // White edge jitter sampled once per period: one-sided input PSD 2σ²T.
    let sigma = JITTER_RMS_FRAC * t_ref;
    let s_in = 2.0 * sigma * sigma * t_ref;
    for (lo, hi) in BANDS {
        let (mut meas, mut pred, mut n) = (0.0, 0.0, 0usize);
        for &(f, p) in psd.iter().filter(|(f, _)| (lo..=hi).contains(f)) {
            meas += p;
            pred += model.h00(2.0 * std::f64::consts::PI * f).norm_sqr() * s_in;
            n += 1;
        }
        let ratio = meas / pred;
        let pass = n > 0 && (BAND_RATIO.0..=BAND_RATIO.1).contains(&ratio);
        ok &= pass;
        out.check("timesim.jitter_psd_matches_htm", pass, || {
            format!(
                "ratio {}, band {lo}-{hi} Hz: measured/predicted {ratio:.3}",
                d.ratio
            )
        });
    }
    ok
}

impl Workload for Timesim {
    fn setup(cfg: &RunConfig) -> Timesim {
        let (n, periods) = if cfg.quick {
            (2, QUICK_RECORD_PERIODS)
        } else {
            (4, RECORD_PERIODS)
        };
        let sim = Timesim {
            designs: designs(&mut Rng::new(cfg.seed, 0x7153), n, periods),
        };
        // Warm-up unit: one design of another stream.
        let warm = designs(&mut Rng::new(cfg.seed, 0x7154), 1, periods);
        let _ = simulate(&warm[0], 0, &Tracer::new(false), 0);
        sim
    }

    fn rep(&mut self, tr: &Tracer, parent: u64, out: &mut Outcome) -> Rep {
        let t = Instant::now();
        let outputs = par_map(ThreadBudget::Fixed(THREADS), &self.designs, |i, d| {
            simulate(d, i as u64, tr, parent)
        });
        let secs = t.elapsed().as_secs_f64();
        let failed = unrecorded(tr, || {
            self.designs
                .iter()
                .zip(&outputs)
                .filter(|(d, o)| !check(d, o, out))
                .count()
        });
        out.ops(self.designs.len() as u64, failed as u64);
        Rep {
            secs,
            items: self.designs.len() as f64,
            latency_ms: outputs.iter().map(|o| o.ms).sum::<f64>() / outputs.len() as f64,
        }
    }
}
