//! The standard metric catalog and recording configuration.
//!
//! Every series that may appear in a `metrics.jsonl` artifact is
//! declared here, with its aggregation kind. All standard metrics are
//! *simulated* quantities — host-side fast-path counters (the L0
//! micro-TLB, the MBM watch-word filter) are deliberately absent,
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
}

const fn counter(name: &'static str) -> MetricDef {
    let kind = SeriesKind::Counter;
    MetricDef { name, kind }
}

const fn gauge(name: &'static str) -> MetricDef {
    let kind = SeriesKind::Gauge;
    MetricDef { name, kind }
}

/// EL1->EL2 hypercalls retired in the window.
pub const HYPERCALLS: MetricDef = counter("hypercalls");
/// VM-register writes trapped to EL2 in the window.
pub const SYSREG_TRAPS: MetricDef = counter("sysreg-traps");
/// Interrupts delivered to EL1 in the window.
pub const IRQS_DELIVERED: MetricDef = counter("irqs-delivered");
/// Main-TLB hits in the window.
pub const TLB_HITS: MetricDef = counter("tlb-hits");
/// Main-TLB misses (page-table walks) in the window.
pub const TLB_MISSES: MetricDef = counter("tlb-misses");
/// Bus write transactions the MBM snooped in the window.
pub const MBM_BUS_WRITES: MetricDef = counter("mbm-bus-writes");
/// Snooped writes captured into the MBM FIFO in the window.
pub const MBM_CAPTURED: MetricDef = counter("mbm-captured");
/// Captured writes that matched the watch bitmap in the window.
pub const MBM_WATCH_HITS: MetricDef = counter("mbm-watch-hits");
/// MBM interrupts raised toward Hypersec in the window.
pub const MBM_IRQS_RAISED: MetricDef = counter("mbm-irqs-raised");
/// Snooped writes lost to a full MBM FIFO in the window.
pub const MBM_FIFO_DROPPED: MetricDef = counter("mbm-fifo-dropped");
/// MBM FIFO depth at sample points (window max).
pub const MBM_FIFO_DEPTH: MetricDef = gauge("mbm-fifo-depth");
/// Cumulative MBM FIFO high-water mark (window max).
pub const MBM_FIFO_HIGH_WATER: MetricDef = gauge("mbm-fifo-high-water");
/// Worst write->detection latency serviced in the window, cycles.
pub const DETECTION_LATENCY_MAX: MetricDef = gauge("detection-latency-max");

/// Every metric a recorder may emit, in artifact column order. The
/// order is part of the artifact contract: a subset selection keeps
/// this order regardless of how the scenario lists it. The counter
/// tables name a series by its constant (`metric = metrics::TLB_HITS`),
/// so each name is written once, here.
pub const STANDARD_METRICS: &[MetricDef] = &[
    HYPERCALLS,
    SYSREG_TRAPS,
    IRQS_DELIVERED,
    TLB_HITS,
    TLB_MISSES,
    MBM_BUS_WRITES,
    MBM_CAPTURED,
    MBM_WATCH_HITS,
    MBM_IRQS_RAISED,
    MBM_FIFO_DROPPED,
    MBM_FIFO_DEPTH,
    MBM_FIFO_HIGH_WATER,
    DETECTION_LATENCY_MAX,
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
