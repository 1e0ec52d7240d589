//! Contract tests for the streaming design-space explorer: the front
//! is a true Pareto set, invariant to candidate evaluation order, and
//! bitwise identical for any worker-thread count and block partition —
//! plus a seeded 10⁴-candidate smoke whose digest is pinned, so any
//! change to candidate generation, screening, or merge order shows up
//! as a CI diff rather than a silent result shift.

use htmpll::core::{explore, DesignParams, DesignPoint, ExploreSpec, ParetoFront, EXPLORE_BLOCK};
use htmpll::num::rng::Rng;
use htmpll::par::{Deadline, ThreadBudget};

/// A synthetic objective-space corpus: no analysis involved, so the
/// front-maintenance properties are tested in isolation at scale.
fn synthetic_points(n: usize, seed: u64) -> Vec<DesignPoint> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| DesignPoint {
            params: DesignParams {
                ratio: rng.range(0.02, 0.45),
                spread: rng.range(1.5, 8.0),
                icp_scale: rng.range(0.25, 4.0),
                divider: (8.0 + (rng.uniform() * 500.0).floor()),
            },
            pm_eff_deg: rng.range(20.0, 80.0),
            bandwidth_3db: rng.range(1e5, 1e7),
            peaking_db: rng.range(0.0, 6.0),
            spur_dbc: rng.range(-90.0, -50.0),
            lock_time_s: rng.range(1e-6, 1e-4),
        })
        .collect()
}

fn assert_fronts_identical(a: &[DesignPoint], b: &[DesignPoint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: front sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.params.key(), y.params.key(), "{what}: params differ");
        for (u, v, name) in [
            (x.pm_eff_deg, y.pm_eff_deg, "pm_eff_deg"),
            (x.bandwidth_3db, y.bandwidth_3db, "bandwidth_3db"),
            (x.peaking_db, y.peaking_db, "peaking_db"),
            (x.spur_dbc, y.spur_dbc, "spur_dbc"),
            (x.lock_time_s, y.lock_time_s, "lock_time_s"),
        ] {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}: {name}: {u} vs {v}");
        }
    }
}

#[test]
fn front_members_are_mutually_non_dominated() {
    let points = synthetic_points(2000, 11);
    let mut front = ParetoFront::new(points.len());
    for p in &points {
        front.insert(*p);
    }
    let members = front.points();
    assert!(!members.is_empty());
    for (i, a) in members.iter().enumerate() {
        for (j, b) in members.iter().enumerate() {
            if i != j {
                assert!(
                    !a.dominates(b),
                    "front member {i} dominates member {j}: {a:?} vs {b:?}"
                );
            }
        }
    }
    // And every point left out is dominated by (or duplicates) some
    // member — the front really is the non-dominated set.
    for p in &points {
        let in_front = members.iter().any(|m| m.params.key() == p.params.key());
        if !in_front {
            assert!(
                members.iter().any(|m| m.dominates(p)),
                "excluded point is not dominated: {p:?}"
            );
        }
    }
}

#[test]
fn front_is_invariant_to_insertion_order() {
    let points = synthetic_points(1500, 23);
    let cap = points.len(); // never hit, so no capacity pruning
    let forward = {
        let mut f = ParetoFront::new(cap);
        for p in &points {
            f.insert(*p);
        }
        f.into_sorted()
    };
    let reverse = {
        let mut f = ParetoFront::new(cap);
        for p in points.iter().rev() {
            f.insert(*p);
        }
        f.into_sorted()
    };
    let interleaved = {
        // Even indices first, then odd — a third, unrelated order.
        let mut f = ParetoFront::new(cap);
        for p in points.iter().step_by(2) {
            f.insert(*p);
        }
        for p in points.iter().skip(1).step_by(2) {
            f.insert(*p);
        }
        f.into_sorted()
    };
    assert_fronts_identical(&forward, &reverse, "forward vs reverse");
    assert_fronts_identical(&forward, &interleaved, "forward vs interleaved");
}

#[test]
fn merged_worker_fronts_match_sequential_insertion() {
    // Simulates the block merge: split the stream into chunks of
    // arbitrary sizes, build a per-chunk front, merge in block order —
    // must equal one front fed sequentially.
    let points = synthetic_points(1200, 31);
    let cap = points.len();
    let mut sequential = ParetoFront::new(cap);
    for p in &points {
        sequential.insert(*p);
    }
    for chunk in [64usize, 200, 512] {
        let mut merged = ParetoFront::new(cap);
        for block in points.chunks(chunk) {
            let mut local = ParetoFront::new(cap);
            for p in block {
                local.insert(*p);
            }
            merged.merge(&local);
        }
        assert_fronts_identical(
            &sequential.clone().into_sorted(),
            &merged.into_sorted(),
            &format!("chunk size {chunk}"),
        );
    }
}

/// A screening-heavy spec: the closed-form spur and margin gates kill
/// most candidates cheaply, keeping the multi-block end-to-end runs
/// affordable in debug builds.
fn tight_spec(candidates: usize) -> ExploreSpec {
    ExploreSpec {
        candidates,
        seed: 1,
        min_pm_deg: 55.0,
        max_spur_dbc: -72.0,
        front_cap: 128,
        refine_rounds: 0,
        ..ExploreSpec::default()
    }
}

#[test]
fn thread_count_does_not_change_the_front_across_blocks() {
    // More candidates than one block, so different thread counts really
    // do partition the work differently.
    let mut spec = tight_spec(3 * EXPLORE_BLOCK);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        spec.threads = ThreadBudget::Fixed(threads);
        runs.push(explore(&spec, &Deadline::none()).unwrap());
    }
    for r in &runs[1..] {
        assert_eq!(runs[0].digest, r.digest);
        assert_fronts_identical(&runs[0].front, &r.front, "thread counts");
    }
    assert_eq!(runs[0].evaluated, spec.candidates);
}

#[test]
fn seeded_smoke_pins_front_digest() {
    let report = explore(&tight_spec(10_000), &Deadline::none()).unwrap();
    assert_eq!(report.evaluated, 10_000);
    assert_eq!(report.failed, 0, "no candidate may fail outright");
    assert!(report.front.len() > 3, "front too small to be meaningful");
    assert!(
        report.screened_out * 2 > report.evaluated,
        "tight spec should screen out most candidates ({} of {})",
        report.screened_out,
        report.evaluated
    );
    // The determinism fingerprint: candidate generation, screening,
    // evaluation, and merge must reproduce this exactly on every
    // platform. Update deliberately if the algorithm changes.
    assert_eq!(report.digest, "6e946b5e03575e04");
}
