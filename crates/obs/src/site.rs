//! Cached per-call-site handles for counters and histograms.
//!
//! A site is a `static` created by the [`counter!`](crate::counter) /
//! [`record!`](crate::record) macros. It holds its target/name/level and a
//! `OnceLock` to the registry cell, so the steady-state cost of an
//! *enabled* hit is one filter check plus one atomic (counter) or one
//! short mutex section (histogram), and a *disabled* hit is the filter
//! check alone.

use crate::filter::{enabled, Level};
use crate::registry::{cell, Cell, MetricKind};
use std::sync::OnceLock;

/// A named counter call site. Construct through [`counter!`](crate::counter).
#[derive(Debug)]
pub struct SiteCounter {
    target: &'static str,
    name: &'static str,
    level: Level,
    cell: OnceLock<&'static Cell>,
}

impl SiteCounter {
    /// Creates a site (used by the `counter!` macro).
    pub const fn new(target: &'static str, name: &'static str, level: Level) -> SiteCounter {
        SiteCounter {
            target,
            name,
            level,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> &'static Cell {
        self.cell.get_or_init(|| {
            cell(
                &format!("{}.{}", self.target, self.name),
                MetricKind::Counter,
            )
        })
    }

    /// Adds `n` when the site is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled(self.target, self.level) {
            return;
        }
        self.resolve().add(n);
    }

    /// Adds one when the site is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A named histogram call site. Construct through [`record!`](crate::record).
#[derive(Debug)]
pub struct SiteHistogram {
    target: &'static str,
    name: &'static str,
    level: Level,
    cell: OnceLock<&'static Cell>,
}

impl SiteHistogram {
    /// Creates a site (used by the `record!` macro).
    pub const fn new(target: &'static str, name: &'static str, level: Level) -> SiteHistogram {
        SiteHistogram {
            target,
            name,
            level,
            cell: OnceLock::new(),
        }
    }

    /// True when this site would record — use to gate computing an
    /// expensive value (e.g. a solve residual) that exists only for
    /// telemetry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        enabled(self.target, self.level)
    }

    /// Records one observation when the site is enabled.
    #[inline]
    pub fn record(&self, v: f64) {
        if !self.is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| {
                cell(
                    &format!("{}.{}", self.target, self.name),
                    MetricKind::Histogram,
                )
            })
            .observe(v);
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{snapshot, test_lock};
    use crate::{override_filter, Level};

    fn find(key: &str) -> Option<crate::MetricSnapshot> {
        snapshot().into_iter().find(|m| m.key == key)
    }

    #[test]
    fn counter_counts_only_when_enabled() {
        let _g = test_lock();
        override_filter("off");
        let c = crate::counter!("obstest", "site.counter");
        c.inc();
        assert!(find("obstest.site.counter").is_none());

        override_filter("obstest=info");
        c.inc();
        c.add(4);
        let snap = find("obstest.site.counter").unwrap();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.kind, crate::MetricKind::Counter);
        override_filter("off");
    }

    #[test]
    fn debug_sites_respect_level() {
        let _g = test_lock();
        override_filter("obstest=info");
        let h = crate::record!("obstest", "site.debug_hist", Level::Debug);
        assert!(!h.is_enabled());
        h.record(1.0);
        assert!(find("obstest.site.debug_hist").is_none());

        override_filter("obstest=debug");
        h.record(3.0);
        let snap = find("obstest.site.debug_hist").unwrap();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 3.0);
        override_filter("off");
    }
}
