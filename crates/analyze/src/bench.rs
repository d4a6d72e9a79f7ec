//! Aggregation of bench summaries into BENCH trajectory artifacts.
//!
//! Each bench target in `crates/bench` can emit a machine-readable
//! summary (`HYPERNEL_BENCH_DIR=… cargo bench`), one JSON file per
//! bench:
//!
//! ```text
//! {"schema":1,"kind":<SUMMARY_KIND>,"name":"table1_lmbench",
//!  "metrics":{"null_syscall_overhead_pct":4.0, …}}
//! ```
//!
//! [`read_summaries_dir`] collects a directory of those and
//! [`trajectory_json`] folds them into one dated `BENCH_<date>.json`
//! document whose flattened keys (`benches.<name>.<metric>`) feed the
//! [`crate::compare`] regression gate — because the simulation is
//! deterministic, a committed baseline trajectory is portable across
//! hosts.

use hypernel_telemetry::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema version of summary and trajectory documents.
pub const BENCH_SCHEMA: u64 = 1;
/// `kind` tag of a single-bench summary file.
pub const SUMMARY_KIND: &str = "hypernel-bench-summary";
/// `kind` tag of an aggregated trajectory artifact.
pub const TRAJECTORY_KIND: &str = "hypernel-bench-trajectory";

/// One bench target's summarized metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Bench target name (e.g. `table1_lmbench`).
    pub name: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one summary document; `None` when it isn't a bench summary.
pub fn entry_from_json(doc: &Json) -> Option<BenchEntry> {
    if doc.get("kind").and_then(Json::as_str) != Some(SUMMARY_KIND) {
        return None;
    }
    let name = doc.get("name").and_then(Json::as_str)?.to_string();
    let mut metrics = BTreeMap::new();
    if let Some(Json::Object(fields)) = doc.get("metrics") {
        for (key, value) in fields {
            if let Some(v) = value.as_f64() {
                metrics.insert(key.clone(), v);
            }
        }
    }
    Some(BenchEntry { name, metrics })
}

/// Reads every `*.json` summary in `dir`. Returns the entries sorted by
/// name plus the file names that were present but not parseable
/// summaries (skipped, never fatal — mirroring the lossy trace reader).
pub fn read_summaries_dir(dir: &Path) -> io::Result<(Vec<BenchEntry>, Vec<String>)> {
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    for path in names {
        let display = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let parsed = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| entry_from_json(&doc));
        match parsed {
            Some(entry) => entries.push(entry),
            None => skipped.push(display),
        }
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((entries, skipped))
}

/// Folds bench entries into one trajectory document.
pub fn trajectory_json(entries: &[BenchEntry], generated: &str) -> Json {
    Json::obj(vec![
        ("schema", Json::UInt(BENCH_SCHEMA)),
        ("kind", Json::str(TRAJECTORY_KIND)),
        ("generated", Json::str(generated)),
        (
            "benches",
            Json::Array(
                entries
                    .iter()
                    .map(|entry| {
                        Json::obj(vec![
                            ("name", Json::str(&entry.name)),
                            (
                                "metrics",
                                Json::Object(
                                    entry
                                        .metrics
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Today's UTC date as `YYYY-MM-DD` (no external date crate: civil
/// date via Howard Hinnant's days-from-epoch algorithm).
pub fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_reports, flatten_metrics};

    fn summary(name: &str, metric: &str, value: f64) -> String {
        format!(
            r#"{{"schema":1,"kind":"hypernel-bench-summary","name":"{name}",
                 "metrics":{{"{metric}":{value}}}}}"#
        )
    }

    #[test]
    fn entry_parses_and_rejects_foreign_documents() {
        let doc = Json::parse(&summary("smoke", "fork_cycles", 1234.0)).unwrap();
        let entry = entry_from_json(&doc).expect("valid summary");
        assert_eq!(entry.name, "smoke");
        assert_eq!(entry.metrics["fork_cycles"], 1234.0);
        // A run report is not a bench summary.
        let other = Json::parse(r#"{"schema":1,"kind":"hypernel-run-report"}"#).unwrap();
        assert!(entry_from_json(&other).is_none());
    }

    #[test]
    fn directory_scan_collects_and_skips() {
        let dir = std::env::temp_dir().join("hypernel-analyze-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.json"), summary("beta", "m", 2.0)).unwrap();
        std::fs::write(dir.join("a.json"), summary("alpha", "m", 1.0)).unwrap();
        std::fs::write(dir.join("junk.json"), "{not json").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored entirely").unwrap();
        let (entries, skipped) = read_summaries_dir(&dir).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["alpha", "beta"]
        );
        assert_eq!(skipped, vec!["junk.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trajectory_flattens_into_comparable_keys() {
        let entries = vec![
            BenchEntry {
                name: "smoke".into(),
                metrics: [("fork_cycles".to_string(), 1200.0)].into(),
            },
            BenchEntry {
                name: "traps".into(),
                metrics: [("wp_traps".to_string(), 7.0)].into(),
            },
        ];
        let doc = trajectory_json(&entries, "2026-08-07");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some(TRAJECTORY_KIND)
        );
        let flat = flatten_metrics(&doc);
        assert_eq!(flat["benches.smoke.metrics.fork_cycles"], 1200.0);
        assert_eq!(flat["benches.traps.metrics.wp_traps"], 7.0);
        // Self-compare of a trajectory is regression-free.
        let c = compare_reports(&doc, &doc, 0.05);
        assert!(!c.has_regressions());
        // Round-trips through text.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(flatten_metrics(&reparsed), flat);
    }

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024 leap year start
        assert_eq!(civil_from_days(19_723 + 31 + 29), (2024, 3, 1));
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert_eq!(&today[4..5], "-");
    }
}
