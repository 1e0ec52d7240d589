//! The four workloads. Each stresses different layers, and each
//! optimisation target has one workload that exercises it and one that
//! bypasses it (README.md, "Workloads").

pub mod explore;
pub mod htm_grid;
pub mod serve_mix;
pub mod timesim;

use crate::harness::{run_traced, run_untraced, Metric, Outcome, RunConfig, Workload};

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 4] = ["serve_mix", "explore", "htm_grid", "timesim"];

/// Runs workload `name` (traced when `cfg.trace_dir` is set); `None`
/// for an unknown name.
pub fn run(name: &str, cfg: &RunConfig) -> Option<(Vec<Metric>, Outcome)> {
    fn go<W: Workload>(cfg: &RunConfig, name: &str) -> (Vec<Metric>, Outcome) {
        if cfg.trace_dir.is_some() {
            run_traced::<W>(cfg, name)
        } else {
            run_untraced::<W>(cfg)
        }
    }
    Some(match name {
        "serve_mix" => go::<serve_mix::ServeMix>(cfg, name),
        "explore" => go::<explore::Explore>(cfg, name),
        "htm_grid" => go::<htm_grid::HtmGrid>(cfg, name),
        "timesim" => go::<timesim::Timesim>(cfg, name),
        _ => return None,
    })
}
