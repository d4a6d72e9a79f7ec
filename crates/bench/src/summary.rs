//! Machine-readable bench summaries.
//!
//! When `HYPERNEL_BENCH_DIR` is set, each bench target additionally
//! writes its headline numbers as `<dir>/<name>.json`, in the summary
//! format `hypernel-analyze`'s `bench` module declares (its schema
//! version and `kind` tag are imported from there):
//!
//! ```text
//! {"schema":1,"kind":<SUMMARY_KIND>,"name":"table1_lmbench",
//!  "metrics":{"avg_hypernel_overhead_pct":8.8, …}}
//! ```
//!
//! `hypernel analyze bench --dir <dir>` aggregates those into a dated
//! `BENCH_<date>.json` trajectory and diffs it against a committed
//! baseline — the CI perf gate. Without the variable set, benches
//! behave exactly as before and write nothing.

use hypernel::telemetry::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub use hypernel::analyze::bench::{BENCH_SCHEMA, SUMMARY_KIND};

/// Headline metrics of one bench target, keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSummary {
    /// Bench target name (used as the output file stem).
    pub name: String,
    /// Metric name → value. Keys should be stable across runs so the
    /// trajectory diff lines up.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchSummary {
    /// Starts an empty summary for the named bench target.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records one metric. Non-finite values are dropped (JSON cannot
    /// carry them and a NaN metric is meaningless to diff).
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.metrics.insert(metric_key(key), value);
        }
        self
    }

    /// Serializes to the summary document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::UInt(BENCH_SCHEMA)),
            ("kind", Json::str(SUMMARY_KIND)),
            ("name", Json::str(&self.name)),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `<HYPERNEL_BENCH_DIR>/<name>.json` when the variable is
    /// set; returns the path written. A write failure is reported on
    /// stderr but never fails the bench itself.
    pub fn write_if_requested(&self) -> Option<PathBuf> {
        let dir = PathBuf::from(std::env::var_os("HYPERNEL_BENCH_DIR")?);
        let path = dir.join(format!("{}.json", self.name));
        let attempt = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", self.to_json())));
        match attempt {
            Ok(()) => {
                eprintln!("bench summary: {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot write bench summary {}: {e}",
                    path.display()
                );
                None
            }
        }
    }
}

/// Normalizes a human label into a stable metric key:
/// `"pipe lat"` → `pipe_lat`, `"fork+exit"` → `fork_exit`.
pub fn metric_key(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_normalize_and_nan_is_dropped() {
        assert_eq!(metric_key("pipe lat"), "pipe_lat");
        assert_eq!(metric_key("fork+exit"), "fork_exit");
        assert_eq!(metric_key("Signal  Ovh!"), "signal_ovh");
        let mut s = BenchSummary::new("t");
        s.metric("ok", 1.5).metric("bad", f64::NAN);
        assert_eq!(s.metrics.len(), 1);
    }

    #[test]
    fn summary_document_shape() {
        let mut s = BenchSummary::new("table1_lmbench");
        s.metric("avg hypernel overhead pct", 8.8);
        let doc = Json::parse(&s.to_json().to_string()).expect("round-trip");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(SUMMARY_KIND));
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("table1_lmbench")
        );
        let got = doc
            .get("metrics")
            .and_then(|m| m.get("avg_hypernel_overhead_pct"))
            .and_then(Json::as_f64);
        assert_eq!(got, Some(8.8));
    }
}
