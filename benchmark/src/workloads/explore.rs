//! `explore`: the largest user job — one seeded design-space
//! exploration request through `service::handle` and
//! `service::envelope`, with a fresh context per rep because a user
//! pays a cold cache. The screening cascade, the full analyses of the
//! survivors and the parallel block merge do the work; the service
//! layer is almost idle.

use std::collections::BTreeMap;
use std::time::Instant;

use htmpll::requests::Request;
use htmpll::service::{envelope, handle, Response, ServiceCtx};

use crate::harness::{Outcome, Rep, RunConfig, Workload, THREADS};
use crate::trace::Tracer;

/// Front digest of the full-size request with `--seed 1` at two threads.
pub const SEED1_DIGEST: &str = "942a12a0ce2d897d";
const CANDIDATES: usize = 5000;
const QUICK_CANDIDATES: usize = 512;

pub struct Explore {
    line: String,
    candidates: usize,
    /// The digest of the first rep; every later rep must match it.
    digest: Option<String>,
    pin_seed1: bool,
    /// Explorer report of the last traced rep:
    /// (screened ÷ evaluated, full analyses, front size, failed).
    traced: Option<(f64, f64, f64, f64)>,
}

fn request_line(candidates: usize, seed: u64) -> String {
    format!(
        "{{\"id\":\"explore\",\"command\":\"explore\",\"params\":{{\"candidates\":{candidates},\
         \"seed\":{seed},\"min-pm\":55,\"max-spur\":-70,\"front-cap\":128,\"refine\":0,\
         \"threads\":{THREADS}}}}}"
    )
}

/// Parse → handle (fresh context) → envelope, each under its own span.
fn serve_one(line: &str, tr: &Tracer, parent: u64) -> Result<(Response, String), String> {
    let item = tr.span("request", parent, 0);
    let (id, req) = {
        let _s = tr.span("requests.parse", item.id(), 0);
        Request::from_json_line(line)?
    };
    let ctx = ServiceCtx::new();
    let resp = {
        let _s = tr.span("service.handle.explore", item.id(), 0);
        handle(&req, &ctx)
    };
    let env = {
        let _s = tr.span("service.envelope", item.id(), 0);
        envelope(&resp, &id, None)
    };
    Ok((resp, env))
}

impl Workload for Explore {
    fn setup(cfg: &RunConfig) -> Explore {
        let candidates = if cfg.quick {
            QUICK_CANDIDATES
        } else {
            CANDIDATES
        };
        // Warm-up unit: a smaller exploration of another stream.
        let _ = serve_one(
            &request_line(candidates / 5, cfg.seed.wrapping_add(1)),
            &Tracer::new(false),
            0,
        );
        Explore {
            line: request_line(candidates, cfg.seed),
            candidates,
            digest: None,
            pin_seed1: cfg.seed == 1 && !cfg.quick,
            traced: None,
        }
    }

    fn rep(&mut self, tr: &Tracer, parent: u64, out: &mut Outcome) -> Rep {
        let t = Instant::now();
        let served = serve_one(&self.line, tr, parent);
        let secs = t.elapsed().as_secs_f64();

        let report = match &served {
            Ok((Response::Explore(x), env)) => {
                out.check("explore.envelope_ok", env.contains("\"ok\":true"), || {
                    env.chars().take(200).collect()
                });
                Some(&x.report)
            }
            other => {
                out.check("explore.envelope_ok", false, || match other {
                    Ok((_, env)) => env.chars().take(200).collect(),
                    Err(e) => e.clone(),
                });
                None
            }
        };
        let Some(report) = report else {
            out.ops(self.candidates as u64, self.candidates as u64);
            return Rep {
                secs,
                items: self.candidates as f64,
                latency_ms: secs * 1e3,
            };
        };
        let first = self.digest.get_or_insert_with(|| report.digest.clone());
        out.check("explore.digest_repeats", *first == report.digest, || {
            format!("{} then {}", first, report.digest)
        });
        if self.pin_seed1 {
            out.check(
                "explore.seed1_digest",
                report.digest == SEED1_DIGEST,
                || format!("{} (expected {SEED1_DIGEST})", report.digest),
            );
        }
        out.check("explore.no_failed_candidates", report.failed == 0, || {
            format!("{} failed", report.failed)
        });
        out.check(
            "explore.all_evaluated",
            report.evaluated == self.candidates,
            || format!("{} of {} evaluated", report.evaluated, self.candidates),
        );
        out.ops(report.evaluated as u64, report.failed as u64);
        if tr.is_on() {
            self.traced = Some((
                report.screened_out as f64 / report.evaluated.max(1) as f64,
                report.full_analyses as f64,
                report.front.len() as f64,
                report.failed as f64,
            ));
        }
        Rep {
            secs,
            items: report.evaluated as f64,
            latency_ms: secs * 1e3,
        }
    }

    fn layers(
        &mut self,
        _tr: &Tracer,
        _out: &mut Outcome,
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        if let Some((screen, full, front, failed)) = self.traced {
            layers.insert("core.explore.screen_ratio", screen);
            layers.insert("core.explore.full_analyses", full);
            layers.insert("core.explore.front_size", front);
            layers.insert("core.explore.failed", failed);
        }
    }
}
