//! # htmpll-fault — deterministic fault injection
//!
//! Seeded, named injection sites for chaos testing the analysis
//! pipeline. A **fault plan** names sites (`lu.pivot_fail`,
//! `sweep.nan`, `sweep.panic`, `sweep.slow`, `cache.evict`,
//! `serve.malformed`, …) and gives each a deterministic firing rule.
//! Production code queries [`fires`]/[`fire_arg`] at its injection
//! points; with no plan installed every query is a single relaxed
//! atomic load and a branch, following the `htmpll-obs` enablement
//! pattern, so instrumented builds pay nothing in normal operation.
//!
//! ## Determinism contract
//!
//! A firing decision is a pure function of
//! `(plan seed, site name, ambient scope, caller key)` — never of
//! wall-clock time, thread identity, or call order. Running the same
//! workload under the same plan with 1 or N worker threads therefore
//! injects the *same* faults at the *same* points, which is what lets
//! `plltool chaos` assert bitwise-identical non-faulted responses and
//! a thread-count-invariant report digest.
//!
//! ## Scopes
//!
//! Injection is **scope-gated**: [`fires`] returns `false` unless the
//! calling thread (or a parallel worker it spawned — `htmpll-par`
//! re-establishes the caller's scope inside its workers) is inside a
//! [`scope_guard`]. The serve worker sets the scope to a hash of the
//! request's canonical JSON, so a plan can select a deterministic
//! *fraction of requests* (`scope:F`) to fault while the rest of the
//! traffic must stay byte-identical — the invariant the chaos harness
//! checks. Code that never establishes a scope (ordinary unit tests,
//! library callers) is immune to an installed plan. The one escape
//! hatch is [`fires_global`] for sites that key themselves (the serve
//! dispatcher's per-line sequence number).
//!
//! ## Plan grammar (`HTMPLL_FAULT`)
//!
//! ```text
//! seed=42;lu.pivot_fail=prob:0.1,scope:0.4;sweep.slow=every:7@3;sweep.nan=every:9,scope:0.3
//! ```
//!
//! `;`-separated entries; `seed=N` sets the plan seed (default 0);
//! every other entry is `site=mode[,scope:F]` where mode is one of
//! `always`, `every:N` (a deterministic 1-in-N of keys), `prob:P`
//! (a deterministic fraction P of keys), or `key:K` (exactly the key
//! `K`). A mode may carry a `u64` payload after `@` (e.g. a slowdown
//! in milliseconds) surfaced through [`fire_arg`]. `scope:F` activates
//! the rule only inside the deterministic fraction `F` of scopes —
//! [`FaultPlan::scope_selected`] exposes the same selection so a chaos
//! harness can compute the expected faulted set up front.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Environment variable holding the fault plan spec.
pub const ENV: &str = "HTMPLL_FAULT";

/// How a rule decides whether a given key fires.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// Every key fires.
    Always,
    /// A deterministic 1-in-N selection of keys fires.
    Every(u64),
    /// A deterministic fraction P of keys fires.
    Prob(f64),
    /// Exactly the named key fires.
    Key(u64),
}

/// One site's firing rule.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    site: String,
    mode: Mode,
    /// Optional payload (`@arg`), e.g. a slowdown in milliseconds.
    arg: Option<u64>,
    /// Optional scope gate: the rule is active only in this fraction
    /// of scopes.
    scope_frac: Option<f64>,
}

/// A parsed, installable fault plan: a seed plus per-site rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parses the `HTMPLL_FAULT` grammar (see the crate docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault plan: `{entry}` is not `key=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("fault plan: seed `{value}` is not a u64"))?;
                continue;
            }
            let mut rule = Rule {
                site: key.to_string(),
                mode: Mode::Always,
                arg: None,
                scope_frac: None,
            };
            for token in value.split(',') {
                let token = token.trim();
                if let Some(frac) = token.strip_prefix("scope:") {
                    let f = frac
                        .parse::<f64>()
                        .ok()
                        .filter(|f| (0.0..=1.0).contains(f))
                        .ok_or_else(|| {
                            format!("fault plan: `{key}` scope fraction `{frac}` not in [0,1]")
                        })?;
                    rule.scope_frac = Some(f);
                    continue;
                }
                let (mode, arg) = match token.split_once('@') {
                    Some((m, a)) => {
                        let arg = a
                            .parse::<u64>()
                            .map_err(|_| format!("fault plan: `{key}` arg `{a}` is not a u64"))?;
                        (m, Some(arg))
                    }
                    None => (token, None),
                };
                rule.mode = if mode == "always" {
                    Mode::Always
                } else if let Some(n) = mode.strip_prefix("every:") {
                    Mode::Every(n.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        format!("fault plan: `{key}` period `{n}` is not a positive u64")
                    })?)
                } else if let Some(p) = mode.strip_prefix("prob:") {
                    Mode::Prob(
                        p.parse::<f64>()
                            .ok()
                            .filter(|p| (0.0..=1.0).contains(p))
                            .ok_or_else(|| {
                                format!("fault plan: `{key}` probability `{p}` not in [0,1]")
                            })?,
                    )
                } else if let Some(k) = mode.strip_prefix("key:") {
                    Mode::Key(
                        k.parse::<u64>()
                            .map_err(|_| format!("fault plan: `{key}` key `{k}` is not a u64"))?,
                    )
                } else {
                    return Err(format!(
                        "fault plan: `{key}` mode `{mode}` is not always|every:N|prob:P|key:K"
                    ));
                };
                rule.arg = arg;
            }
            plan.rules.push(rule);
        }
        Ok(plan)
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan has no rules (installing it disables
    /// injection).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The deterministic firing decision for `(site, scope, key)`:
    /// `Some(arg)` when a rule fires (`arg` is the `@` payload, 0 when
    /// absent), `None` otherwise. Pure — never touches global state.
    pub fn decide(&self, site: &str, scope: Option<u64>, key: u64) -> Option<u64> {
        for rule in self.rules.iter().filter(|r| r.site == site) {
            if let Some(frac) = rule.scope_frac {
                match scope {
                    // A scope-gated rule cannot fire without a scope.
                    None => continue,
                    Some(sc) => {
                        if !self.scope_hash_selected(site, sc, frac) {
                            continue;
                        }
                    }
                }
            }
            let h = mix(
                mix(
                    mix(self.seed, fnv64(site.as_bytes())),
                    scope.unwrap_or(SCOPE_NONE),
                ),
                key,
            );
            let fired = match rule.mode {
                Mode::Always => true,
                Mode::Every(n) => h.is_multiple_of(n),
                Mode::Prob(p) => unit(h) < p,
                Mode::Key(k) => key == k,
            };
            if fired {
                return Some(rule.arg.unwrap_or(0));
            }
        }
        None
    }

    /// Whether any rule for `site` is active in `scope` — i.e. whether
    /// a response computed under that scope *could* be altered by this
    /// plan (it still depends on per-key mode decisions whether any
    /// particular key fires). This is the over-approximation a chaos
    /// harness uses to compute the expected faulted set.
    pub fn scope_selected(&self, site: &str, scope: u64) -> bool {
        self.rules.iter().filter(|r| r.site == site).any(|r| {
            r.scope_frac
                .is_none_or(|f| self.scope_hash_selected(site, scope, f))
        })
    }

    fn scope_hash_selected(&self, site: &str, scope: u64, frac: f64) -> bool {
        unit(mix(mix(self.seed, fnv64(site.as_bytes())), scope)) < frac
    }
}

/// Sentinel mixed in for "no ambient scope" so scoped and unscoped
/// decisions for the same key stay independent.
const SCOPE_NONE: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64-style finalizer: avalanche `a ^ rotated b` into a
/// uniformly scrambled word. Deterministic and platform-independent.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31) ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b | 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1) with 53 uniform mantissa bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over bytes — the canonical way to derive scopes and keys
/// from strings (request canonical JSON, matrix content) so every
/// layer hashes identically.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Global state: enablement flag, installed plan, fire counts, ambient
// scope. `ENABLED` is the only thing touched on the disabled fast path.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static FIRES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static SCOPE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// True when a non-empty plan is installed. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a plan process-wide and resets the fire counts. An empty
/// plan disables injection (same as [`clear`]).
pub fn install(plan: FaultPlan) {
    let on = !plan.is_empty();
    *lock(&PLAN) = on.then(|| Arc::new(plan));
    lock(&FIRES).clear();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Removes any installed plan and resets the fire counts.
pub fn clear() {
    ENABLED.store(false, Ordering::Relaxed);
    *lock(&PLAN) = None;
    lock(&FIRES).clear();
}

/// Installs the plan named by `HTMPLL_FAULT`, if set; clears otherwise.
/// A malformed spec clears the plan and reports the parse error.
pub fn init_from_env() -> Result<(), String> {
    match std::env::var(ENV) {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                install(plan);
                Ok(())
            }
            Err(e) => {
                clear();
                Err(e)
            }
        },
        _ => {
            clear();
            Ok(())
        }
    }
}

/// The currently installed plan, if any.
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    if !enabled() {
        return None;
    }
    lock(&PLAN).clone()
}

/// RAII ambient-scope marker; restores the previous scope on drop.
#[must_use = "the scope is cleared when the guard drops"]
pub struct ScopeGuard {
    prev: Option<u64>,
}

/// Establishes `scope` as the calling thread's ambient fault scope for
/// the guard's lifetime (`None` clears it). Nesting restores outward.
pub fn scope_guard(scope: Option<u64>) -> ScopeGuard {
    ScopeGuard {
        prev: SCOPE.with(|c| c.replace(scope)),
    }
}

/// The calling thread's ambient fault scope, if any.
pub fn current_scope() -> Option<u64> {
    SCOPE.with(|c| c.get())
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|c| c.set(self.prev));
    }
}

fn count_fire(site: &str) {
    *lock(&FIRES).entry(site.to_string()).or_insert(0) += 1;
}

/// Whether `site` fires for `key` under the installed plan and the
/// ambient scope. Without an ambient scope this is always `false`
/// (injection is scope-gated; see the crate docs), so code outside an
/// explicit fault scope is immune to an installed plan.
#[inline]
pub fn fires(site: &str, key: u64) -> bool {
    fire_arg(site, key).is_some()
}

/// Like [`fires`], but surfaces the rule's `@` payload (0 when the
/// rule has none).
#[inline]
pub fn fire_arg(site: &str, key: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let scope = current_scope()?;
    let arg = active_plan()?.decide(site, Some(scope), key)?;
    count_fire(site);
    Some(arg)
}

/// Scope-free firing decision for sites that key themselves (e.g. the
/// serve dispatcher keying on the per-line sequence number). Prefer
/// [`fires`] everywhere a request scope exists.
#[inline]
pub fn fires_global(site: &str, key: u64) -> bool {
    if !enabled() {
        return false;
    }
    let fired = active_plan()
        .and_then(|p| p.decide(site, None, key))
        .is_some();
    if fired {
        count_fire(site);
    }
    fired
}

/// Panics iff `site` fires for `key` — the `sweep.panic`-style sites.
/// The panic unwinds like any worker panic and must be contained by
/// the caller's `catch_unwind` layer; that containment is exactly what
/// the site exists to exercise.
#[inline]
pub fn panic_if(site: &str, key: u64) {
    if fires(site, key) {
        panic!("fault injection: site `{site}` fired for key {key}");
    }
}

/// Sleeps for the rule's `@` payload in milliseconds iff `site` fires
/// for `key` — the `sweep.slow`-style sites.
#[inline]
pub fn slow_if(site: &str, key: u64) {
    if let Some(ms) = fire_arg(site, key) {
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

/// Fire counts per site since the last [`install`]/[`clear`], sorted
/// by site name.
pub fn report() -> Vec<(String, u64)> {
    lock(&FIRES).iter().map(|(k, v)| (k.clone(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard as TestMutexGuard};

    /// Serializes tests that install process-global plans.
    fn plan_lock() -> TestMutexGuard<'static, ()> {
        static LOCK: TestMutex<()> = TestMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; lu.pivot_fail=prob:0.5,scope:0.25; sweep.slow=every:4@25; \
             sweep.panic=key:7; serve.malformed=always",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(
            plan.rules
                .iter()
                .map(|r| r.site.as_str())
                .collect::<Vec<_>>(),
            vec![
                "lu.pivot_fail",
                "sweep.slow",
                "sweep.panic",
                "serve.malformed"
            ]
        );
        assert_eq!(plan.decide("serve.malformed", None, 3), Some(0));
        assert_eq!(plan.decide("sweep.panic", None, 7), Some(0));
        assert_eq!(plan.decide("sweep.panic", None, 8), None);
        // The @arg payload rides on every firing decision.
        let fired: Vec<u64> = (0..64)
            .filter_map(|k| plan.decide("sweep.slow", None, k))
            .collect();
        assert!(!fired.is_empty());
        assert!(fired.iter().all(|&a| a == 25));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("site").is_err());
        assert!(FaultPlan::parse("s=frob:1").is_err());
        assert!(FaultPlan::parse("s=every:0").is_err());
        assert!(FaultPlan::parse("s=prob:1.5").is_err());
        assert!(FaultPlan::parse("s=always,scope:2").is_err());
        assert!(FaultPlan::parse("s=every:4@x").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1;x=prob:0.5").unwrap();
        let b = FaultPlan::parse("seed=2;x=prob:0.5").unwrap();
        let da: Vec<bool> = (0..256)
            .map(|k| a.decide("x", Some(9), k).is_some())
            .collect();
        let db: Vec<bool> = (0..256)
            .map(|k| b.decide("x", Some(9), k).is_some())
            .collect();
        assert_eq!(
            da,
            (0..256)
                .map(|k| a.decide("x", Some(9), k).is_some())
                .collect::<Vec<_>>(),
            "same plan, same decisions"
        );
        assert_ne!(da, db, "different seeds must differ somewhere");
        let hits = da.iter().filter(|&&f| f).count();
        assert!(
            (64..192).contains(&hits),
            "prob:0.5 ≈ half the keys, got {hits}"
        );
    }

    #[test]
    fn every_n_selects_roughly_one_in_n() {
        let plan = FaultPlan::parse("seed=3;x=every:8").unwrap();
        let hits = (0..800u64)
            .filter(|&k| plan.decide("x", Some(1), k).is_some())
            .count();
        assert!(
            (50..150).contains(&hits),
            "every:8 over 800 keys ≈ 100, got {hits}"
        );
    }

    #[test]
    fn scope_gate_partitions_scopes_deterministically() {
        let plan = FaultPlan::parse("seed=11;x=always,scope:0.4").unwrap();
        let selected: Vec<u64> = (0..100).filter(|&s| plan.scope_selected("x", s)).collect();
        assert!(!selected.is_empty() && selected.len() < 100);
        for s in 0..100u64 {
            let fires = plan.decide("x", Some(s), 0).is_some();
            assert_eq!(
                fires,
                selected.contains(&s),
                "decide and scope_selected must agree for scope {s}"
            );
        }
        // Scope-gated rules never fire without an ambient scope.
        assert_eq!(plan.decide("x", None, 0), None);
    }

    #[test]
    fn global_state_gates_on_scope_and_counts_fires() {
        let _guard = plan_lock();
        install(FaultPlan::parse("seed=5;x=always").unwrap());
        assert!(enabled());
        assert!(!fires("x", 1), "no ambient scope → no injection");
        {
            let _scope = scope_guard(Some(77));
            assert_eq!(current_scope(), Some(77));
            assert!(fires("x", 1));
            assert_eq!(fire_arg("x", 2), Some(0));
            {
                let _inner = scope_guard(None);
                assert!(!fires("x", 1), "inner guard cleared the scope");
            }
            assert!(fires("x", 3), "outer scope restored");
        }
        assert_eq!(current_scope(), None);
        let report = report();
        assert_eq!(report, vec![("x".to_string(), 3)]);
        clear();
        assert!(!enabled());
        let _scope = scope_guard(Some(77));
        assert!(!fires("x", 1), "cleared plan never fires");
    }

    #[test]
    fn fires_global_ignores_scope() {
        let _guard = plan_lock();
        install(FaultPlan::parse("seed=5;m=key:4").unwrap());
        assert!(fires_global("m", 4));
        assert!(!fires_global("m", 5));
        clear();
    }

    #[test]
    fn panic_if_unwinds_only_when_fired() {
        let _guard = plan_lock();
        install(FaultPlan::parse("seed=5;p=key:9").unwrap());
        let _scope = scope_guard(Some(1));
        panic_if("p", 8); // must not panic
        let caught = std::panic::catch_unwind(|| panic_if("p", 9));
        assert!(caught.is_err());
        clear();
    }

    #[test]
    fn empty_and_env_style_specs() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
        let _guard = plan_lock();
        install(FaultPlan::parse("").unwrap());
        assert!(!enabled(), "empty plan disables injection");
        clear();
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
