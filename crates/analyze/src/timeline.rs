//! Windowed-metrics timelines: render and diff `metrics.jsonl` series.
//!
//! A campaign or simulator run samples its counters into fixed
//! 50k-cycle windows (`hypernel-telemetry`'s [`MetricsDoc`]); this
//! module turns those columns back into something a human reads:
//!
//! * [`ingest`] accepts either a raw `metrics.jsonl` document or a
//!   `blackbox.json` flight-recorder dump (which embeds its run's
//!   metrics), so a post-mortem renders with the same command as a
//!   healthy run;
//! * [`render_markdown`] / [`render_csv`] print the per-window table,
//!   with derived hit-rate columns (TLB, watch) computed at render time
//!   — the artifact itself stores only raw integers;
//! * [`diff`] compares two documents and gates on the two tail-risk
//!   series: FIFO high water and per-window detection-latency max.
//!   Everything else is reported as a note, not a failure.

use hypernel_telemetry::json::Json;
use hypernel_telemetry::metrics;
use hypernel_telemetry::series::{MetricsDoc, SeriesKind, METRICS_KIND};

/// `kind` tag of a `blackbox.json` flight-recorder dump (written by
/// `hypernel-campaign`'s `blackbox` module).
pub const BLACKBOX_KIND: &str = "hypernel-blackbox";

/// Blackbox context carried alongside metrics ingested from a
/// `blackbox.json` dump.
#[derive(Debug, Clone)]
pub struct BlackboxInfo {
    /// Why the flight recorder dumped (the failure trigger).
    pub reason: String,
    /// Undeclared oracle violations in the dump.
    pub unexpected_violations: usize,
    /// Telemetry events the flight ring had to drop.
    pub events_dropped: u64,
}

/// An ingested timeline: the metrics document plus, when the source was
/// a flight-recorder dump, the failure context.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The windowed series.
    pub doc: MetricsDoc,
    /// Present when the source was a `blackbox.json` dump.
    pub blackbox: Option<BlackboxInfo>,
}

/// Ingests a timeline source: a `metrics.jsonl` document, or a
/// `blackbox.json` dump whose embedded `metrics_jsonl` is extracted.
///
/// # Errors
///
/// A human-readable message when the text is neither a metrics document
/// nor a blackbox dump carrying one.
pub fn ingest(text: &str) -> Result<Timeline, String> {
    // A blackbox dump is one JSON object; a metrics document is JSONL
    // whose header carries `kind: "hypernel-metrics"`. Try the dump
    // shape first — its first line alone is not valid JSON, so the two
    // cannot be confused.
    if let Ok(doc) = Json::parse(text) {
        return match doc.get("kind").and_then(Json::as_str) {
            Some(BLACKBOX_KIND) => {
                let embedded = doc
                    .get("metrics_jsonl")
                    .and_then(Json::as_str)
                    .ok_or("blackbox dump carries no `metrics_jsonl`")?;
                let metrics = MetricsDoc::parse_jsonl(embedded)
                    .map_err(|e| format!("embedded metrics: {e}"))?;
                let unexpected = doc
                    .get("violations")
                    .and_then(Json::as_array)
                    .map(|vs| {
                        vs.iter()
                            .filter(|v| {
                                v.get("expected").map(|e| *e == Json::Bool(false)) == Some(true)
                            })
                            .count()
                    })
                    .unwrap_or(0);
                Ok(Timeline {
                    doc: metrics,
                    blackbox: Some(BlackboxInfo {
                        reason: doc
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        unexpected_violations: unexpected,
                        events_dropped: doc
                            .get("events_dropped")
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                    }),
                })
            }
            Some(METRICS_KIND) => {
                // A single-line metrics document (header only, zero
                // windows) parses as one JSON object too.
                MetricsDoc::parse_jsonl(text).map(|doc| Timeline {
                    doc,
                    blackbox: None,
                })
            }
            other => Err(format!(
                "unrecognized document kind `{}`",
                other.unwrap_or("<missing>")
            )),
        };
    }
    MetricsDoc::parse_jsonl(text).map(|doc| Timeline {
        doc,
        blackbox: None,
    })
}

/// A derived percentage column: `100 * hits / (hits + misses)`, or
/// `100 * num / den` when `den` already includes the numerator.
struct DerivedRate {
    header: &'static str,
    num: &'static str,
    den: &'static str,
    /// When true the denominator is `num + den` (hit/miss pairs).
    den_is_misses: bool,
}

const DERIVED: &[DerivedRate] = &[
    DerivedRate {
        header: "tlb-hit%",
        num: metrics::TLB_HITS.name,
        den: metrics::TLB_MISSES.name,
        den_is_misses: true,
    },
    DerivedRate {
        header: "watch-hit%",
        num: metrics::MBM_WATCH_HITS.name,
        den: metrics::MBM_BUS_WRITES.name,
        den_is_misses: false,
    },
];

fn derived_cell(doc: &MetricsDoc, rate: &DerivedRate, window: usize) -> Option<String> {
    let num = doc.series(rate.num)?.values[window];
    let den_base = doc.series(rate.den)?.values[window];
    let den = if rate.den_is_misses {
        num + den_base
    } else {
        den_base
    };
    if den == 0 {
        return Some("-".to_string());
    }
    // One decimal place; integer arithmetic keeps this deterministic.
    let permille = num.saturating_mul(1000) / den;
    Some(format!("{}.{}", permille / 10, permille % 10))
}

fn header_lines(timeline: &Timeline) -> String {
    let doc = &timeline.doc;
    let mut out = String::new();
    let mut what = Vec::new();
    if let Some(scenario) = &doc.scenario {
        what.push(format!("scenario `{scenario}`"));
    }
    if let Some(seed) = doc.seed {
        what.push(format!("seed {seed}"));
    }
    if let Some(mode) = &doc.mode {
        what.push(format!("mode {mode}"));
    }
    what.push(format!(
        "{} window(s) x {} cycles",
        doc.windows(),
        doc.window_cycles
    ));
    out.push_str(&format!("timeline: {}\n", what.join(", ")));
    if let Some(bb) = &timeline.blackbox {
        out.push_str(&format!(
            "blackbox: {} ({} unexpected violation(s), {} event(s) dropped)\n",
            bb.reason, bb.unexpected_violations, bb.events_dropped
        ));
    }
    out
}

/// Renders the timeline as an aligned markdown table, one row per
/// window, with the derived hit-rate columns appended.
pub fn render_markdown(timeline: &Timeline) -> String {
    let doc = &timeline.doc;
    let derived: Vec<&DerivedRate> = DERIVED
        .iter()
        .filter(|r| doc.series(r.num).is_some() && doc.series(r.den).is_some())
        .collect();

    let mut headers: Vec<String> = vec!["window".into(), "start".into()];
    headers.extend(doc.series.iter().map(|s| s.name.clone()));
    headers.extend(derived.iter().map(|r| r.header.to_string()));

    let mut rows: Vec<Vec<String>> = Vec::with_capacity(doc.windows());
    for w in 0..doc.windows() {
        let mut row = vec![
            w.to_string(),
            (w as u64).saturating_mul(doc.window_cycles).to_string(),
        ];
        row.extend(doc.series.iter().map(|s| s.values[w].to_string()));
        row.extend(
            derived
                .iter()
                .map(|r| derived_cell(doc, r, w).unwrap_or_else(|| "-".to_string())),
        );
        rows.push(row);
    }

    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].len())
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();

    let mut out = header_lines(timeline);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("|");
        for (cell, width) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>width$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(&headers, &widths));
    let mut sep = String::from("|");
    for width in &widths {
        sep.push_str(&format!("{:->w$}:|", "", w = width + 1));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in &rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Renders the timeline as CSV: raw integer columns only (derived rates
/// are a presentation concern; recompute them from the columns).
pub fn render_csv(timeline: &Timeline) -> String {
    let doc = &timeline.doc;
    let mut out = String::from("window,start");
    for s in &doc.series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    for w in 0..doc.windows() {
        out.push_str(&format!(
            "{w},{}",
            (w as u64).saturating_mul(doc.window_cycles)
        ));
        for s in &doc.series {
            out.push_str(&format!(",{}", s.values[w]));
        }
        out.push('\n');
    }
    out
}

/// The two series whose growth fails the [`diff`] gate: FIFO high water
/// (queue pressure) and the per-window detection-latency max (tail
/// latency). Everything else only produces notes.
pub const GATED_SERIES: &[&str] = &[
    metrics::MBM_FIFO_HIGH_WATER.name,
    metrics::DETECTION_LATENCY_MAX.name,
];

/// Outcome of diffing two timelines.
#[derive(Debug, Clone, Default)]
pub struct TimelineDelta {
    /// Gated-series growth beyond the threshold — CI-failing.
    pub regressions: Vec<String>,
    /// Informational changes (totals moved, window counts differ, ...).
    pub notes: Vec<String>,
}

impl TimelineDelta {
    /// `true` when the regression gate should fail.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn exceeds(baseline: u64, current: u64, threshold: f64) -> bool {
    if current <= baseline {
        return false;
    }
    if baseline == 0 {
        return true;
    }
    (current as f64) > (baseline as f64) * (1.0 + threshold)
}

/// Diffs `current` against `baseline`. Gated series regress when their
/// overall max grows beyond `threshold` (relative, e.g. `0.10` = 10%);
/// the per-window comparison is reported alongside so the regression
/// names *where* in the run the tail grew. Other series produce notes
/// when their totals move beyond the threshold.
pub fn diff(baseline: &MetricsDoc, current: &MetricsDoc, threshold: f64) -> TimelineDelta {
    let mut delta = TimelineDelta::default();
    if baseline.windows() != current.windows() {
        delta.notes.push(format!(
            "window count changed: {} -> {}",
            baseline.windows(),
            current.windows()
        ));
    }
    if baseline.window_cycles != current.window_cycles {
        delta.notes.push(format!(
            "window size changed: {} -> {} cycles (per-window comparison skipped)",
            baseline.window_cycles, current.window_cycles
        ));
    }
    let comparable_windows = if baseline.window_cycles == current.window_cycles {
        baseline.windows().min(current.windows())
    } else {
        0
    };

    for series in &current.series {
        let Some(base) = baseline.series(&series.name) else {
            delta
                .notes
                .push(format!("series `{}` is new in current", series.name));
            continue;
        };
        if GATED_SERIES.contains(&series.name.as_str()) {
            if exceeds(base.max(), series.max(), threshold) {
                let worst = (0..comparable_windows)
                    .filter(|w| series.values[*w] > base.values[*w])
                    .max_by_key(|w| series.values[*w]);
                let at = worst
                    .map(|w| format!(" (worst growth at window {w})"))
                    .unwrap_or_default();
                delta.regressions.push(format!(
                    "`{}` max grew {} -> {}{at}",
                    series.name,
                    base.max(),
                    series.max()
                ));
            }
            continue;
        }
        let (a, b) = match series.kind {
            SeriesKind::Counter => (base.total(), series.total()),
            SeriesKind::Gauge => (base.max(), series.max()),
        };
        if exceeds(a, b, threshold) || exceeds(b, a, threshold) {
            delta.notes.push(format!(
                "`{}` {} changed {a} -> {b}",
                series.name,
                match series.kind {
                    SeriesKind::Counter => "total",
                    SeriesKind::Gauge => "max",
                }
            ));
        }
    }
    for series in &baseline.series {
        if current.series(&series.name).is_none() {
            delta
                .notes
                .push(format!("series `{}` disappeared", series.name));
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_telemetry::series::Series;

    fn doc(fifo_hw: &[u64], latency: &[u64]) -> MetricsDoc {
        MetricsDoc {
            window_cycles: 1000,
            scenario: Some("t".to_string()),
            seed: Some(0),
            mode: Some("hypernel".to_string()),
            series: vec![
                Series {
                    name: "tlb-hits".to_string(),
                    kind: SeriesKind::Counter,
                    values: vec![90; fifo_hw.len()],
                },
                Series {
                    name: "tlb-misses".to_string(),
                    kind: SeriesKind::Counter,
                    values: vec![10; fifo_hw.len()],
                },
                Series {
                    name: "mbm-fifo-high-water".to_string(),
                    kind: SeriesKind::Gauge,
                    values: fifo_hw.to_vec(),
                },
                Series {
                    name: "detection-latency-max".to_string(),
                    kind: SeriesKind::Gauge,
                    values: latency.to_vec(),
                },
            ],
        }
    }

    #[test]
    fn metrics_jsonl_round_trips_through_ingest() {
        let original = doc(&[2, 5], &[0, 300]);
        let timeline = ingest(&original.to_jsonl()).expect("ingests");
        assert!(timeline.blackbox.is_none());
        assert_eq!(timeline.doc, original);
    }

    #[test]
    fn markdown_has_aligned_rows_and_derived_rates() {
        let timeline = ingest(&doc(&[2, 5], &[0, 300]).to_jsonl()).expect("ingests");
        let table = render_markdown(&timeline);
        assert!(table.contains("tlb-hit%"), "{table}");
        assert!(
            table.contains("90.0"),
            "90/(90+10) renders as 90.0:\n{table}"
        );
        let rows: Vec<&str> = table.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows.len(), 4, "header + separator + 2 windows");
        assert!(rows.iter().all(|r| r.len() == rows[0].len()), "aligned");
    }

    #[test]
    fn csv_is_raw_columns_only() {
        let timeline = ingest(&doc(&[2], &[7]).to_jsonl()).expect("ingests");
        let csv = render_csv(&timeline);
        assert_eq!(
            csv,
            "window,start,tlb-hits,tlb-misses,mbm-fifo-high-water,detection-latency-max\n\
             0,0,90,10,2,7\n"
        );
    }

    #[test]
    fn gate_fires_only_on_gated_series_growth() {
        let baseline = doc(&[2, 4], &[100, 200]);
        // FIFO high water grew 4 -> 9: regression. Latency unchanged.
        let grown = doc(&[2, 9], &[100, 200]);
        let delta = diff(&baseline, &grown, 0.10);
        assert!(delta.has_regressions());
        assert!(delta.regressions[0].contains("mbm-fifo-high-water"));
        assert!(delta.regressions[0].contains("window 1"));
        // Shrinking is never a regression.
        let shrunk = doc(&[1, 2], &[50, 80]);
        assert!(!diff(&baseline, &shrunk, 0.10).has_regressions());
        // A non-gated counter moving is a note, not a regression.
        let mut noisy = doc(&[2, 4], &[100, 200]);
        noisy.series[0].values = vec![500, 500];
        let delta = diff(&baseline, &noisy, 0.10);
        assert!(!delta.has_regressions());
        assert!(delta.notes.iter().any(|n| n.contains("tlb-hits")));
    }

    #[test]
    fn blackbox_dump_is_ingested_via_its_embedded_metrics() {
        let metrics = doc(&[3], &[42]);
        let dump = Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(BLACKBOX_KIND)),
            ("reason", Json::str("unit trigger")),
            (
                "violations",
                Json::Array(vec![Json::obj(vec![
                    ("oracle", Json::str("detection")),
                    ("expected", Json::Bool(false)),
                ])]),
            ),
            ("events_dropped", Json::UInt(0)),
            ("metrics_jsonl", Json::str(&metrics.to_jsonl())),
        ]);
        let timeline = ingest(&dump.to_string()).expect("ingests dump");
        let bb = timeline
            .blackbox
            .as_ref()
            .expect("carries blackbox context");
        assert_eq!(bb.reason, "unit trigger");
        assert_eq!(bb.unexpected_violations, 1);
        assert_eq!(timeline.doc, metrics);
        assert!(render_markdown(&timeline).contains("unit trigger"));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(ingest("not json at all").is_err());
        assert!(ingest("{\"kind\":\"something-else\"}").is_err());
    }
}
