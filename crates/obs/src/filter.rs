//! Env-filter: which targets record at which level.
//!
//! The filter is parsed once (from `HTMPLL_OBS` on first use, or from
//! [`override_filter`]) into a leaked, immutable directive list published
//! through an atomic pointer. The fast path of [`enabled`] is a relaxed
//! load of the maximum enabled level: when instrumentation is globally
//! off (the default), every site costs one load and one compare.

use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

/// Verbosity level of an instrumentation site.
///
/// `Info` sites are cheap (counters, coarse spans); `Debug` sites may do
/// extra work when enabled (residual computations, per-iteration stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Site disabled (only meaningful in filter directives).
    Off = 0,
    /// Cheap, always-reasonable telemetry.
    Info = 1,
    /// Detailed telemetry that may add measurable work when enabled.
    Debug = 2,
    /// Per-event timeline detail: high-frequency instants (cache
    /// hit/miss, kernel dispatch) that fire for every grid point while a
    /// trace session is active. The deepest opt-in — measurably slows
    /// hot sweeps, so it is not implied by `debug`.
    Trace = 3,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" | "false" => Some(Level::Off),
            "info" | "on" => Some(Level::Info),
            "debug" | "1" | "true" => Some(Level::Debug),
            "trace" | "all" => Some(Level::Trace),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// One `target=level` directive; `target == None` is the default level.
#[derive(Debug, Clone)]
struct Directive {
    target: Option<String>,
    level: Level,
}

/// Parsed filter specification.
#[derive(Debug, Clone)]
pub(crate) struct Filter {
    directives: Vec<Directive>,
    spec: String,
}

impl Filter {
    pub(crate) fn parse(spec: &str) -> Filter {
        let mut directives = Vec::new();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some((target, level)) = item.split_once('=') {
                let level = Level::parse(level).unwrap_or(Level::Info);
                directives.push(Directive {
                    target: Some(target.trim().to_string()),
                    level,
                });
            } else if let Some(level) = Level::parse(item) {
                directives.push(Directive {
                    target: None,
                    level,
                });
            } else {
                // A bare target name enables that target at full detail.
                directives.push(Directive {
                    target: Some(item.to_string()),
                    level: Level::Debug,
                });
            }
        }
        Filter {
            directives,
            spec: spec.to_string(),
        }
    }

    /// Level for a target: an exact target directive wins over the default;
    /// later directives win over earlier ones.
    pub(crate) fn level_for(&self, target: &str) -> Level {
        let mut level = Level::Off;
        let mut matched_target = false;
        for d in &self.directives {
            match &d.target {
                Some(t) if t == target => {
                    level = d.level;
                    matched_target = true;
                }
                None if !matched_target => level = d.level,
                _ => {}
            }
        }
        level
    }

    pub(crate) fn max_level(&self) -> Level {
        self.directives
            .iter()
            .map(|d| d.level)
            .max()
            .unwrap_or(Level::Off)
    }

    pub(crate) fn spec(&self) -> &str {
        &self.spec
    }
}

const UNINIT: u8 = 0xff;

/// Fast-path gate: the maximum level any directive enables, or `UNINIT`.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
/// The active filter (leaked; replaced wholesale by `override_filter`).
static FILTER: AtomicPtr<Filter> = AtomicPtr::new(std::ptr::null_mut());

fn install(filter: Filter) {
    let max = filter.max_level() as u8;
    let leaked = Box::leak(Box::new(filter));
    FILTER.store(leaked, Ordering::Release);
    // Publish the gate last so readers that pass it see the new filter.
    MAX_LEVEL.store(max, Ordering::Release);
}

fn active() -> Option<&'static Filter> {
    let p = FILTER.load(Ordering::Acquire);
    // Safety: the pointer is either null or a `Box::leak`ed Filter that is
    // never freed.
    unsafe { p.as_ref() }
}

/// Initializes the filter from the `HTMPLL_OBS` environment variable if it
/// has not been initialized yet. Called automatically by [`enabled`]; call
/// it explicitly only to force early initialization.
pub fn init_from_env() {
    if MAX_LEVEL.load(Ordering::Acquire) != UNINIT {
        return;
    }
    let spec = std::env::var("HTMPLL_OBS").unwrap_or_default();
    let leaked: *mut Filter = Box::leak(Box::new(Filter::parse(&spec)));
    // Install only if no filter exists yet: an `override_filter` on
    // another thread that lands between the check above and here must
    // not be replaced by the environment's filter.
    let _ = FILTER.compare_exchange(
        std::ptr::null_mut(),
        leaked,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
    // Open the gate for whichever filter is now active, unless an
    // override already published its own level.
    if let Some(f) = active() {
        let max = f.max_level() as u8;
        let _ = MAX_LEVEL.compare_exchange(UNINIT, max, Ordering::Release, Ordering::Relaxed);
    }
}

/// Replaces the active filter programmatically (e.g. `plltool metrics`
/// forces `debug` regardless of the environment). Accepts the same syntax
/// as `HTMPLL_OBS`.
pub fn override_filter(spec: &str) {
    install(Filter::parse(spec));
}

/// The spec string of the active filter (after env initialization).
pub(crate) fn active_spec() -> String {
    init_from_env();
    active().map(|f| f.spec().to_string()).unwrap_or_default()
}

/// True when a site with this `target` and `level` should record.
///
/// Cost when globally disabled: one relaxed atomic load and one compare.
#[inline]
pub fn enabled(target: &str, level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if max == UNINIT {
        return enabled_cold(target, level);
    }
    if (level as u8) > max || level == Level::Off {
        return false;
    }
    match active() {
        Some(f) => level <= f.level_for(target),
        None => false,
    }
}

#[cold]
fn enabled_cold(target: &str, level: Level) -> bool {
    init_from_env();
    enabled(target, level)
}

/// Renders the level of a target under the active filter (diagnostics).
pub(crate) fn level_name_for(target: &str) -> &'static str {
    init_from_env();
    match active() {
        Some(f) => f.level_for(target).as_str(),
        None => "off",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_levels() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" INFO "), Some(Level::Info));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("1"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("ALL"), Some(Level::Trace));
        assert_eq!(Level::parse("htm"), None);
        assert!(Level::Trace > Level::Debug);
    }

    #[test]
    fn default_and_target_directives() {
        let f = Filter::parse("info,htm=debug,sim=off");
        assert_eq!(f.level_for("htm"), Level::Debug);
        assert_eq!(f.level_for("sim"), Level::Off);
        assert_eq!(f.level_for("core"), Level::Info);
        assert_eq!(f.max_level(), Level::Debug);
    }

    #[test]
    fn bare_target_means_debug() {
        let f = Filter::parse("spectral");
        assert_eq!(f.level_for("spectral"), Level::Debug);
        assert_eq!(f.level_for("htm"), Level::Off);
    }

    #[test]
    fn later_directive_wins() {
        let f = Filter::parse("htm=debug,htm=info");
        assert_eq!(f.level_for("htm"), Level::Info);
        let f = Filter::parse("debug,off");
        assert_eq!(f.level_for("anything"), Level::Off);
    }

    #[test]
    fn unknown_level_defaults_to_info() {
        let f = Filter::parse("htm=verbose");
        assert_eq!(f.level_for("htm"), Level::Info);
    }

    #[test]
    fn empty_spec_disables_everything() {
        let f = Filter::parse("");
        assert_eq!(f.level_for("htm"), Level::Off);
        assert_eq!(f.max_level(), Level::Off);
        let f = Filter::parse(" , ,");
        assert_eq!(f.max_level(), Level::Off);
    }

    #[test]
    fn whitespace_tolerated() {
        let f = Filter::parse(" htm = debug , sim = info ");
        assert_eq!(f.level_for("htm"), Level::Debug);
        assert_eq!(f.level_for("sim"), Level::Info);
    }
}
