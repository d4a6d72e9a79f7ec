//! The standard metric catalog and recording configuration.
//!
//! Every series that may appear in a `metrics.jsonl` artifact is
//! declared here, with its aggregation kind. All standard metrics are
//! *simulated* quantities — host-side fast-path counters (the L0
//! micro-TLB, the MBM watch-page filter) are deliberately absent,
//! because the artifact must be byte-identical with the fast paths on
//! or off (`HYPERNEL_NO_FASTPATH`). Host counters are read only by the
//! host-time benchmark (hbench `--trace 1`).

use crate::series::SeriesKind;

/// Default window width in simulated cycles (~43 µs at the modeled
/// 1.15 GHz clock): fine enough to see FIFO spikes inside one attack
/// step, coarse enough that a corpus run stays a few dozen rows.
pub const DEFAULT_WINDOW_CYCLES: u64 = 50_000;

/// One metric in the standard catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable artifact name.
    pub name: &'static str,
    /// Aggregation within a window.
    pub kind: SeriesKind,
    /// One-line description for docs and `timeline` rendering.
    pub help: &'static str,
}

/// Every metric a recorder may emit, in artifact column order. The
/// order is part of the artifact contract: a subset selection keeps
/// this order regardless of how the scenario lists it.
pub const STANDARD_METRICS: &[MetricDef] = &[
    MetricDef {
        name: "hypercalls",
        kind: SeriesKind::Counter,
        help: "EL1->EL2 hypercalls retired in the window",
    },
    MetricDef {
        name: "sysreg-traps",
        kind: SeriesKind::Counter,
        help: "VM-register writes trapped to EL2 in the window",
    },
    MetricDef {
        name: "irqs-delivered",
        kind: SeriesKind::Counter,
        help: "interrupts delivered to EL1 in the window",
    },
    MetricDef {
        name: "tlb-hits",
        kind: SeriesKind::Counter,
        help: "main-TLB hits in the window",
    },
    MetricDef {
        name: "tlb-misses",
        kind: SeriesKind::Counter,
        help: "main-TLB misses (page-table walks) in the window",
    },
    MetricDef {
        name: "mbm-bus-writes",
        kind: SeriesKind::Counter,
        help: "bus write transactions the MBM snooped in the window",
    },
    MetricDef {
        name: "mbm-captured",
        kind: SeriesKind::Counter,
        help: "snooped writes captured into the MBM FIFO in the window",
    },
    MetricDef {
        name: "mbm-watch-hits",
        kind: SeriesKind::Counter,
        help: "captured writes that matched the watch bitmap in the window",
    },
    MetricDef {
        name: "mbm-irqs-raised",
        kind: SeriesKind::Counter,
        help: "MBM interrupts raised toward Hypersec in the window",
    },
    MetricDef {
        name: "mbm-fifo-dropped",
        kind: SeriesKind::Counter,
        help: "snooped writes lost to a full MBM FIFO in the window",
    },
    MetricDef {
        name: "mbm-fifo-depth",
        kind: SeriesKind::Gauge,
        help: "MBM FIFO depth at sample points (window max)",
    },
    MetricDef {
        name: "mbm-fifo-high-water",
        kind: SeriesKind::Gauge,
        help: "cumulative MBM FIFO high-water mark (window max)",
    },
    MetricDef {
        name: "detection-latency-max",
        kind: SeriesKind::Gauge,
        help: "worst write->detection latency serviced in the window, cycles",
    },
];

/// Looks up a standard metric by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    STANDARD_METRICS.iter().find(|m| m.name == name)
}

/// The standard metric names, in artifact column order.
pub fn metric_names() -> impl Iterator<Item = &'static str> {
    STANDARD_METRICS.iter().map(|m| m.name)
}

/// What a recorder should record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window width in simulated cycles (must be non-zero).
    pub window_cycles: u64,
    /// Series to record, or `None` for the full standard catalog.
    /// A scenario naming an unknown series fails to load
    /// (`Scenario::from_toml`); [`crate::MetricsRecorder::new`] itself
    /// skips unknown names. Column order always follows
    /// [`STANDARD_METRICS`].
    pub enabled: Option<Vec<String>>,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            window_cycles: DEFAULT_WINDOW_CYCLES,
            enabled: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<_> = metric_names().collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name in catalog");
    }

    #[test]
    fn lookup_finds_every_catalog_entry() {
        for def in STANDARD_METRICS {
            let found = metric(def.name).expect("catalog entry resolves");
            assert_eq!(found.name, def.name);
            assert_eq!(found.kind, def.kind);
        }
        assert!(metric("no-such-metric").is_none());
    }
}
