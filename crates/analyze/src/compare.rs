//! Regression comparison of machine-readable run reports.
//!
//! `RunReport::to_json()` artifacts are nested JSON. [`flatten_metrics`]
//! projects every numeric leaf onto a stable dotted key —
//! `counters.hypercalls`, `telemetry.latencies.syscall@el1.p95`,
//! `mbm.events_matched` — and [`compare_reports`] diffs two such maps.
//! Only *cost-like* metrics (cycles, latency quantiles, miss/drop
//! counts; see [`is_cost_metric`]) gate the regression verdict:
//! behavioral counters like `counters.hypercalls` are reported as
//! changes but a workload may legitimately shift them, and keys present
//! on only one side are listed without gating — a baseline predating a
//! new metric must not fail the gate.

use hypernel_telemetry::json::Json;
use std::collections::BTreeMap;

/// Flattens a report document into `dotted.key -> value` pairs over
/// every numeric leaf. Arrays of objects are keyed by their `span`/
/// `point` + `track` fields (run-report latency tables), other arrays
/// by index. Strings, booleans and nulls are skipped.
pub fn flatten_metrics(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten_into("", doc, &mut out);
    out
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// A label for an array element, when it carries one.
fn element_label(item: &Json) -> Option<String> {
    let track = item.get("track").and_then(Json::as_str);
    let name = item
        .get("span")
        .or_else(|| item.get("point"))
        .and_then(Json::as_str);
    Some(format!("{}@{}", name?, track?))
}

fn flatten_into(prefix: &str, doc: &Json, out: &mut BTreeMap<String, f64>) {
    match doc {
        Json::UInt(_) | Json::Int(_) | Json::Float(_) => {
            if let Some(v) = doc.as_f64() {
                out.insert(prefix.to_string(), v);
            }
        }
        Json::Object(fields) => {
            for (key, value) in fields {
                // Label fields become part of the key, not metrics.
                if matches!(value, Json::Str(_) | Json::Bool(_) | Json::Null) {
                    continue;
                }
                flatten_into(&join(prefix, key), value, out);
            }
        }
        Json::Array(items) => {
            for (idx, item) in items.iter().enumerate() {
                let label = element_label(item).unwrap_or_else(|| idx.to_string());
                flatten_into(&join(prefix, &label), item, out);
            }
        }
        Json::Str(_) | Json::Bool(_) | Json::Null => {}
    }
}

/// Whether a flattened key measures *cost* — something where a higher
/// value is a regression (cycle counts, latency quantiles, misses,
/// telemetry loss). Sample counts under a latency table are population
/// sizes, not costs.
pub fn is_cost_metric(key: &str) -> bool {
    if key.ends_with(".count") {
        return false;
    }
    key == "cycles"
        || key == "micros"
        || key.ends_with(".cycles")
        || key.ends_with(".micros")
        || key.contains("latenc")
        || key.contains("misses")
        || key.contains("dropped")
        || key.contains("unmatched")
        || key.contains("open_spans")
}

/// One metric present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened dotted key.
    pub key: String,
    /// Value in the baseline report.
    pub baseline: f64,
    /// Value in the current report.
    pub current: f64,
}

impl MetricDelta {
    /// Absolute change.
    pub fn delta(&self) -> f64 {
        self.current - self.baseline
    }

    /// Relative change (`0.05` = 5 % up); `None` when the baseline is 0.
    pub fn ratio(&self) -> Option<f64> {
        (self.baseline != 0.0).then(|| self.delta() / self.baseline)
    }

    fn exceeds(&self, threshold: f64) -> bool {
        match self.ratio() {
            Some(r) => r.abs() > threshold,
            // 0 -> anything is an infinite relative change.
            None => self.current != 0.0,
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Relative-change threshold the verdicts used.
    pub threshold: f64,
    /// Every metric whose value changed, sorted by key.
    pub changed: Vec<MetricDelta>,
    /// Cost metrics that got worse beyond the threshold.
    pub regressions: Vec<MetricDelta>,
    /// Cost metrics that got better beyond the threshold.
    pub improvements: Vec<MetricDelta>,
    /// Keys only in the current report.
    pub added: Vec<String>,
    /// Keys only in the baseline report.
    pub removed: Vec<String>,
    /// `(baseline, current)` schema versions, when they disagree.
    pub schema_mismatch: Option<(u64, u64)>,
    /// Metrics compared in total.
    pub compared: usize,
}

impl Comparison {
    /// True when the perf gate should fail.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some((b, c)) = self.schema_mismatch {
            out.push_str(&format!(
                "warning: schema mismatch (baseline v{b}, current v{c}) — keys may not line up\n"
            ));
        }
        out.push_str(&format!(
            "{} metric(s) compared, {} changed, {} regression(s), {} improvement(s) at ±{:.1}%\n",
            self.compared,
            self.changed.len(),
            self.regressions.len(),
            self.improvements.len(),
            self.threshold * 100.0
        ));
        let fmt = |d: &MetricDelta| {
            let rel = match d.ratio() {
                Some(r) => format!("{:+.1}%", r * 100.0),
                None => "new-nonzero".to_string(),
            };
            format!(
                "  {:<48} {:>14} -> {:>14}  ({rel})\n",
                d.key, d.baseline, d.current
            )
        };
        if !self.regressions.is_empty() {
            out.push_str("REGRESSIONS:\n");
            self.regressions.iter().for_each(|d| out.push_str(&fmt(d)));
        }
        if !self.improvements.is_empty() {
            out.push_str("improvements:\n");
            self.improvements.iter().for_each(|d| out.push_str(&fmt(d)));
        }
        let neutral: Vec<&MetricDelta> = self
            .changed
            .iter()
            .filter(|d| !is_cost_metric(&d.key))
            .collect();
        if !neutral.is_empty() {
            out.push_str("other changed metrics (not gated):\n");
            neutral.into_iter().for_each(|d| out.push_str(&fmt(d)));
        }
        if !self.added.is_empty() || !self.removed.is_empty() {
            out.push_str(&format!(
                "{} key(s) only in current, {} only in baseline\n",
                self.added.len(),
                self.removed.len()
            ));
        }
        if self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty() {
            out.push_str("reports are metric-identical\n");
        }
        out
    }

    /// Machine-readable rendering (for CI logs).
    pub fn to_json(&self) -> Json {
        let deltas = |v: &[MetricDelta]| {
            Json::Array(
                v.iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("key", Json::str(&d.key)),
                            ("baseline", Json::Float(d.baseline)),
                            ("current", Json::Float(d.current)),
                            ("delta", Json::Float(d.delta())),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("threshold", Json::Float(self.threshold)),
            ("compared", Json::UInt(self.compared as u64)),
            ("changed", deltas(&self.changed)),
            ("regressions", deltas(&self.regressions)),
            ("improvements", deltas(&self.improvements)),
            (
                "added",
                Json::Array(self.added.iter().map(|k| Json::str(k)).collect()),
            ),
            (
                "removed",
                Json::Array(self.removed.iter().map(|k| Json::str(k)).collect()),
            ),
        ])
    }
}

/// Diffs two report documents at the given relative threshold.
pub fn compare_reports(baseline: &Json, current: &Json, threshold: f64) -> Comparison {
    let schema = |doc: &Json| doc.get("schema").and_then(Json::as_u64);
    let schema_mismatch = match (schema(baseline), schema(current)) {
        (Some(b), Some(c)) if b != c => Some((b, c)),
        _ => None,
    };
    let base = flatten_metrics(baseline);
    let cur = flatten_metrics(current);

    let mut comparison = Comparison {
        threshold,
        schema_mismatch,
        ..Comparison::default()
    };
    for (key, &b) in &base {
        match cur.get(key) {
            None => comparison.removed.push(key.clone()),
            Some(&c) => {
                comparison.compared += 1;
                let delta = MetricDelta {
                    key: key.clone(),
                    baseline: b,
                    current: c,
                };
                if b == c {
                    continue;
                }
                if is_cost_metric(key) && delta.exceeds(threshold) {
                    if c > b {
                        comparison.regressions.push(delta.clone());
                    } else {
                        comparison.improvements.push(delta.clone());
                    }
                }
                comparison.changed.push(delta);
            }
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            comparison.added.push(key.clone());
        }
    }
    // Worst regressions first.
    comparison.regressions.sort_by(|a, b| {
        let ra = a.ratio().unwrap_or(f64::INFINITY);
        let rb = b.ratio().unwrap_or(f64::INFINITY);
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    comparison
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, p95: u64, hypercalls: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":1,"mode":"Hypernel","cycles":{cycles},
                 "counters":{{"hypercalls":{hypercalls},"tlb_misses":10}},
                 "telemetry":{{"latencies":[
                    {{"span":"syscall","track":"el1","count":9,"p95":{p95}}}]}}}}"#
        ))
        .expect("valid fixture")
    }

    #[test]
    fn flatten_produces_stable_dotted_keys() {
        let m = flatten_metrics(&report(1000, 40, 7));
        assert_eq!(m["cycles"], 1000.0);
        assert_eq!(m["counters.hypercalls"], 7.0);
        assert_eq!(m["telemetry.latencies.syscall@el1.p95"], 40.0);
        assert_eq!(m["telemetry.latencies.syscall@el1.count"], 9.0);
        // The mode string and the schema label are not metrics… schema is
        // numeric though, and harmless to carry.
        assert!(!m.contains_key("mode"));
    }

    #[test]
    fn self_compare_has_zero_regressions() {
        let r = report(1000, 40, 7);
        let c = compare_reports(&r, &r, 0.05);
        assert!(!c.has_regressions());
        assert!(c.changed.is_empty());
        assert!(c.compared > 0);
        assert!(c.render_text().contains("metric-identical"));
    }

    #[test]
    fn cost_regressions_gate_but_counter_shifts_do_not() {
        let base = report(1000, 40, 7);
        // +20 % cycles and +50 % p95: both cost metrics regress.
        let worse = report(1200, 60, 7);
        let c = compare_reports(&base, &worse, 0.05);
        assert!(c.has_regressions());
        let keys: Vec<&str> = c.regressions.iter().map(|d| d.key.as_str()).collect();
        assert!(keys.contains(&"cycles"));
        assert!(keys.contains(&"telemetry.latencies.syscall@el1.p95"));
        // Worst first: p95 +50 % outranks cycles +20 %.
        assert_eq!(c.regressions[0].key, "telemetry.latencies.syscall@el1.p95");

        // A pure behavior change (more hypercalls) is reported but not
        // gated.
        let shifted = report(1000, 40, 9);
        let c = compare_reports(&base, &shifted, 0.05);
        assert!(!c.has_regressions());
        assert_eq!(c.changed.len(), 1);
        assert!(c.render_text().contains("not gated"));
    }

    #[test]
    fn threshold_suppresses_small_drift() {
        let base = report(1000, 40, 7);
        let slightly = report(1030, 41, 7); // +3 %, +2.5 %
        let strict = compare_reports(&base, &slightly, 0.01);
        assert!(strict.has_regressions());
        let lax = compare_reports(&base, &slightly, 0.05);
        assert!(!lax.has_regressions());
        assert_eq!(lax.changed.len(), 2); // still visible as changes
    }

    #[test]
    fn improvements_and_zero_baselines_are_classified() {
        let base = report(1000, 40, 7);
        let better = report(800, 40, 7);
        let c = compare_reports(&base, &better, 0.05);
        assert!(!c.has_regressions());
        assert_eq!(c.improvements.len(), 1);

        // 0 -> nonzero on a cost metric is always a regression.
        let zero = Json::parse(r#"{"schema":1,"cycles":0}"#).unwrap();
        let nonzero = Json::parse(r#"{"schema":1,"cycles":5}"#).unwrap();
        let c = compare_reports(&zero, &nonzero, 0.5);
        assert!(c.has_regressions());
    }

    #[test]
    fn added_removed_and_schema_mismatch_are_surfaced() {
        let base = Json::parse(r#"{"schema":1,"cycles":10,"old":1}"#).unwrap();
        let cur = Json::parse(r#"{"schema":2,"cycles":10,"new":2}"#).unwrap();
        let c = compare_reports(&base, &cur, 0.05);
        assert_eq!(c.schema_mismatch, Some((1, 2)));
        assert_eq!(c.added, vec!["new".to_string()]);
        assert_eq!(c.removed, vec!["old".to_string()]);
        assert!(c.render_text().contains("schema mismatch"));
        // JSON rendering survives a round-trip.
        let doc = Json::parse(&c.to_json().to_string()).unwrap();
        assert_eq!(doc.get("compared").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn new_metrics_are_tolerated_not_gated() {
        // A baseline predating a new metric must not fail the gate
        // just because keys were added.
        let base = Json::parse(r#"{"schema":1,"cycles":10}"#).unwrap();
        let cur = Json::parse(r#"{"schema":1,"cycles":10,"mbm":{"fifo_dropped":3}}"#).unwrap();
        let c = compare_reports(&base, &cur, 0.05);
        assert!(!c.has_regressions());
        assert_eq!(c.added, vec!["mbm.fifo_dropped".to_string()]);
        assert!(c.render_text().contains("only in current"));
    }

    #[test]
    fn cost_metric_classification() {
        assert!(is_cost_metric("cycles"));
        assert!(is_cost_metric("telemetry.latencies.syscall@el1.p99"));
        assert!(is_cost_metric("counters.tlb_misses"));
        assert!(is_cost_metric("mbm.fifo_dropped"));
        assert!(is_cost_metric("micros"));
        assert!(is_cost_metric("telemetry.unmatched_ends"));
        assert!(!is_cost_metric("counters.hypercalls"));
        assert!(!is_cost_metric("telemetry.latencies.syscall@el1.count"));
        assert!(!is_cost_metric("mbm.events_matched"));
    }
}
