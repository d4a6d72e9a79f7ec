//! The windowed-metrics recorder.
//!
//! A [`MetricsRecorder`] is a *poller*, not a sink: the driver (the
//! campaign engine, `hypernel sim`) feeds it cumulative counter values
//! and instantaneous gauge levels at natural boundaries (attack steps,
//! measurement iterations), stamped with simulated cycles. The recorder
//! buckets them into fixed-width cycle windows: counters become
//! per-window deltas, gauges per-window maxima. Because every input is
//! a simulated quantity keyed to simulated time, the finished
//! [`MetricsDoc`] is a pure function of the run.

use crate::metrics::{MetricDef, MetricsConfig, STANDARD_METRICS};
use crate::series::{MetricsDoc, Series, SeriesKind};

/// Accumulates windowed series from polled samples and explicit
/// observations.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    window_cycles: u64,
    columns: Vec<&'static MetricDef>,
    /// `windows[w][col]` — grown on demand, padded at finish.
    windows: Vec<Vec<u64>>,
    /// Last cumulative value seen per counter column (`None` until the
    /// baseline sample); gauges keep `None`.
    last: Vec<Option<u64>>,
}

impl MetricsRecorder {
    /// A recorder for `config`. Unknown names in `config.enabled` are
    /// ignored; column order always follows
    /// [`STANDARD_METRICS`](crate::metrics::STANDARD_METRICS).
    pub fn new(config: &MetricsConfig) -> Self {
        let columns: Vec<&'static MetricDef> = match &config.enabled {
            None => STANDARD_METRICS.iter().collect(),
            Some(names) => STANDARD_METRICS
                .iter()
                .filter(|d| names.iter().any(|n| n == d.name))
                .collect(),
        };
        Self {
            window_cycles: config.window_cycles.max(1),
            last: vec![None; columns.len()],
            columns,
            windows: Vec::new(),
        }
    }

    /// Window width in simulated cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    fn window_index(&self, cycles: u64) -> usize {
        (cycles / self.window_cycles) as usize
    }

    fn touch(&mut self, w: usize) {
        while self.windows.len() <= w {
            self.windows.push(vec![0; self.columns.len()]);
        }
    }

    fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|d| d.name == name)
    }

    /// Feeds one poll of cumulative counters and instantaneous gauges,
    /// taken at simulated time `cycles`. Counter values must be
    /// cumulative (the recorder takes deltas against the previous
    /// sample); the first sighting of a counter establishes its
    /// baseline and contributes no delta — poll once right after boot
    /// so boot-time activity is not attributed to the first window.
    /// Names that are not enabled columns are ignored.
    pub fn sample(&mut self, cycles: u64, values: &[(&str, u64)]) {
        let w = self.window_index(cycles);
        self.touch(w);
        for (name, value) in values {
            let Some(col) = self.column(name) else {
                continue;
            };
            match self.columns[col].kind {
                SeriesKind::Counter => {
                    if let Some(prev) = self.last[col] {
                        let delta = value.saturating_sub(prev);
                        self.windows[w][col] = self.windows[w][col].saturating_add(delta);
                    }
                    self.last[col] = Some(*value);
                }
                SeriesKind::Gauge => {
                    self.windows[w][col] = self.windows[w][col].max(*value);
                }
            }
        }
    }

    /// Records one event-driven observation at simulated time `cycles`:
    /// gauges take the window maximum, counters add `value` directly
    /// (no cumulative baseline involved). Ignored unless `name` is an
    /// enabled column.
    pub fn observe(&mut self, name: &str, cycles: u64, value: u64) {
        let Some(col) = self.column(name) else {
            return;
        };
        let w = self.window_index(cycles);
        self.touch(w);
        match self.columns[col].kind {
            SeriesKind::Counter => {
                self.windows[w][col] = self.windows[w][col].saturating_add(value);
            }
            SeriesKind::Gauge => {
                self.windows[w][col] = self.windows[w][col].max(value);
            }
        }
    }

    /// Consumes the recorder into a [`MetricsDoc`] with the given run
    /// labels.
    pub fn finish(
        self,
        scenario: Option<&str>,
        seed: Option<u64>,
        mode: Option<&str>,
    ) -> MetricsDoc {
        let series = self
            .columns
            .iter()
            .enumerate()
            .map(|(col, def)| Series {
                name: def.name.to_string(),
                kind: def.kind,
                values: self.windows.iter().map(|w| w[col]).collect(),
            })
            .collect();
        MetricsDoc {
            window_cycles: self.window_cycles,
            scenario: scenario.map(str::to_string),
            seed,
            mode: mode.map(str::to_string),
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metric;

    fn config(window: u64, enabled: Option<&[&str]>) -> MetricsConfig {
        MetricsConfig {
            window_cycles: window,
            enabled: enabled.map(|names| names.iter().map(|n| n.to_string()).collect()),
        }
    }

    #[test]
    fn counters_become_window_deltas_with_a_silent_baseline() {
        let mut rec = MetricsRecorder::new(&config(100, Some(&["hypercalls"])));
        rec.sample(0, &[("hypercalls", 40)]); // baseline: no delta
        rec.sample(50, &[("hypercalls", 45)]); // +5 into window 0
        rec.sample(250, &[("hypercalls", 52)]); // +7 into window 2
        let doc = rec.finish(None, None, None);
        assert_eq!(doc.series("hypercalls").unwrap().values, vec![5, 0, 7]);
    }

    #[test]
    fn gauges_take_the_window_maximum() {
        let mut rec = MetricsRecorder::new(&config(100, Some(&["mbm-fifo-depth"])));
        rec.sample(10, &[("mbm-fifo-depth", 3)]);
        rec.sample(20, &[("mbm-fifo-depth", 9)]);
        rec.sample(90, &[("mbm-fifo-depth", 1)]);
        rec.sample(150, &[("mbm-fifo-depth", 2)]);
        let doc = rec.finish(None, None, None);
        assert_eq!(doc.series("mbm-fifo-depth").unwrap().values, vec![9, 2]);
    }

    #[test]
    fn observe_feeds_event_driven_gauges() {
        let mut rec = MetricsRecorder::new(&config(1000, Some(&["detection-latency-max"])));
        rec.sample(0, &[]);
        rec.observe("detection-latency-max", 500, 120);
        rec.observe("detection-latency-max", 700, 80);
        rec.observe("detection-latency-max", 1500, 300);
        let doc = rec.finish(None, None, None);
        assert_eq!(
            doc.series("detection-latency-max").unwrap().values,
            vec![120, 300]
        );
    }

    #[test]
    fn subset_selection_keeps_catalog_order_and_pads_windows() {
        // Listed out of catalog order on purpose.
        let mut rec = MetricsRecorder::new(&config(10, Some(&["tlb-hits", "hypercalls"])));
        rec.sample(0, &[("hypercalls", 0), ("tlb-hits", 0)]);
        rec.sample(35, &[("hypercalls", 4), ("tlb-hits", 9)]);
        let doc = rec.finish(Some("s"), Some(3), Some("Hypernel"));
        let names: Vec<&str> = doc.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["hypercalls", "tlb-hits"], "catalog order");
        // Windows 0..=3 all exist, even though only 0 and 3 were touched.
        assert_eq!(doc.windows(), 4);
        assert_eq!(doc.series("hypercalls").unwrap().values, vec![0, 0, 0, 4]);
        assert_eq!(doc.seed, Some(3));
    }

    #[test]
    fn unknown_names_are_ignored() {
        let mut rec = MetricsRecorder::new(&config(10, None));
        rec.sample(0, &[("no-such-metric", 1)]);
        rec.observe("also-unknown", 5, 2);
        let doc = rec.finish(None, None, None);
        assert_eq!(doc.series.len(), STANDARD_METRICS.len());
        assert!(doc.series.iter().all(|s| s.total() == 0));
    }

    #[test]
    fn catalog_lookup_and_recorder_agree_on_kinds() {
        let rec = MetricsRecorder::new(&MetricsConfig::default());
        let doc = rec.finish(None, None, None);
        for s in &doc.series {
            assert_eq!(metric(&s.name).unwrap().kind, s.kind);
        }
    }
}
