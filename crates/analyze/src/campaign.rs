//! Campaign-artifact analytics: ingest `campaign.jsonl` run records,
//! aggregate per-scenario rows, and diff against a baseline summary.
//!
//! This module speaks the `hypernel-campaign` artifact schema (see
//! `docs/CAMPAIGN.md`) but deliberately parses generic JSON rather than
//! linking the campaign crate — the analyzer must keep reading old
//! artifacts even as the engine evolves, and the dependency would be
//! circular anyway (`campaign → core → analyze`).

use hypernel_telemetry::json::Json;

/// `kind` tag of one campaign run record.
pub const CAMPAIGN_RECORD_KIND: &str = "hypernel-campaign-run";

/// `kind` tag of a campaign summary artifact.
pub const CAMPAIGN_SUMMARY_KIND: &str = "hypernel-campaign-summary";

/// The injected-fault counter names, in artifact order (the field
/// names of a run record's `faults` object).
pub const FAULT_COUNTERS: [&str; 6] = [
    "irqs_dropped",
    "irqs_delayed",
    "translator_stalls",
    "snoop_addr_flips",
    "hypercalls_lost",
    "bitmap_desyncs",
];

fn zero_faults() -> Vec<(String, u64)> {
    FAULT_COUNTERS.iter().map(|n| (n.to_string(), 0)).collect()
}

/// Per-scenario aggregation of a campaign sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRow {
    /// Scenario name.
    pub scenario: String,
    /// Runs executed.
    pub runs: u64,
    /// Runs whose violations were all declared by the scenario.
    pub passed: u64,
    /// Declared (expected) violations across all runs.
    pub expected_violations: u64,
    /// Undeclared violations — real failures.
    pub unexpected_violations: u64,
    /// Largest observed write→detection latency in cycles.
    pub max_latency: Option<u64>,
    /// Injected-fault counters summed over the scenario's runs, in
    /// artifact order ([`FAULT_COUNTERS`] plus any future names).
    pub faults: Vec<(String, u64)>,
}

impl CampaignRow {
    /// Total fault injections across all counters.
    pub fn fault_total(&self) -> u64 {
        self.faults.iter().map(|(_, n)| n).sum()
    }
}

fn row_mut<'a>(rows: &'a mut Vec<CampaignRow>, scenario: &str) -> &'a mut CampaignRow {
    if let Some(pos) = rows.iter().position(|r| r.scenario == scenario) {
        return &mut rows[pos];
    }
    rows.push(CampaignRow {
        scenario: scenario.to_string(),
        runs: 0,
        passed: 0,
        expected_violations: 0,
        unexpected_violations: 0,
        max_latency: None,
        faults: zero_faults(),
    });
    rows.last_mut().expect("pushed above")
}

fn add_faults(into: &mut Vec<(String, u64)>, doc: &Json) {
    if let Some(Json::Object(fields)) = doc.get("faults") {
        for (name, value) in fields {
            let n = value.as_u64().unwrap_or(0);
            match into.iter_mut().find(|(k, _)| k == name) {
                Some(slot) => slot.1 += n,
                None => into.push((name.clone(), n)),
            }
        }
    }
}

/// Aggregates a `campaign.jsonl` document (one run record per line)
/// into per-scenario rows, in first-seen order.
///
/// # Errors
///
/// Returns a message when no campaign run record parses at all;
/// individual malformed lines are skipped and counted.
pub fn ingest_records(text: &str) -> Result<(Vec<CampaignRow>, usize), String> {
    let mut rows: Vec<CampaignRow> = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(line) else {
            skipped += 1;
            continue;
        };
        if doc.get("kind").and_then(Json::as_str) != Some(CAMPAIGN_RECORD_KIND) {
            skipped += 1;
            continue;
        }
        let Some(scenario) = doc.get("scenario").and_then(Json::as_str) else {
            skipped += 1;
            continue;
        };
        let row = row_mut(&mut rows, scenario);
        row.runs += 1;
        let passed = matches!(doc.get("passed"), Some(Json::Bool(true)));
        row.passed += u64::from(passed);
        add_faults(&mut row.faults, &doc);
        if let Some(violations) = doc.get("violations").and_then(Json::as_array) {
            for v in violations {
                if matches!(v.get("expected"), Some(Json::Bool(true))) {
                    row.expected_violations += 1;
                } else {
                    row.unexpected_violations += 1;
                }
            }
        }
        if let Some(steps) = doc.get("steps").and_then(Json::as_array) {
            for s in steps {
                let detections = s.get("detections").and_then(Json::as_u64).unwrap_or(0);
                if detections == 0 {
                    continue;
                }
                if let Some(latency) = s.get("latency").and_then(Json::as_u64) {
                    row.max_latency = row.max_latency.max(Some(latency));
                }
            }
        }
    }
    if rows.is_empty() {
        return Err("no campaign run records found".to_string());
    }
    Ok((rows, skipped))
}

/// Reads rows back out of a summary artifact (as written by
/// `hypernel campaign run --summary` or [`summary_to_json`]).
///
/// # Errors
///
/// Returns a message when the document is not a campaign summary.
pub fn rows_from_summary(doc: &Json) -> Result<Vec<CampaignRow>, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(CAMPAIGN_SUMMARY_KIND) {
        return Err(format!(
            "not a campaign summary (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("summary has no `scenarios` array")?;
    let mut rows = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        rows.push(CampaignRow {
            scenario: s
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("scenario row without a name")?
                .to_string(),
            runs: s.get("runs").and_then(Json::as_u64).unwrap_or(0),
            passed: s.get("passed").and_then(Json::as_u64).unwrap_or(0),
            expected_violations: s
                .get("expected_violations")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            unexpected_violations: s
                .get("unexpected_violations")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            max_latency: s.get("max_latency").and_then(Json::as_u64),
            faults: {
                let mut faults = zero_faults();
                add_faults(&mut faults, s);
                // `add_faults` accumulates on top of the zeros, so a
                // summary row's absolute counts land unchanged.
                faults
            },
        });
    }
    Ok(rows)
}

/// Serializes rows as a summary artifact, byte-compatible with the one
/// `hypernel campaign run --summary` writes.
pub fn summary_to_json(rows: &[CampaignRow]) -> Json {
    Json::obj(vec![
        ("schema", Json::UInt(1)),
        ("kind", Json::str(CAMPAIGN_SUMMARY_KIND)),
        ("runs", Json::UInt(rows.iter().map(|r| r.runs).sum())),
        ("passed", Json::UInt(rows.iter().map(|r| r.passed).sum())),
        (
            "unexpected_violations",
            Json::UInt(rows.iter().map(|r| r.unexpected_violations).sum()),
        ),
        (
            "scenarios",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scenario", Json::str(&r.scenario)),
                            ("runs", Json::UInt(r.runs)),
                            ("passed", Json::UInt(r.passed)),
                            ("expected_violations", Json::UInt(r.expected_violations)),
                            ("unexpected_violations", Json::UInt(r.unexpected_violations)),
                            ("max_latency", r.max_latency.map_or(Json::Null, Json::UInt)),
                            (
                                "faults",
                                Json::Object(
                                    r.faults
                                        .iter()
                                        .map(|(name, n)| (name.clone(), Json::UInt(*n)))
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

/// One finding from a baseline diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignFinding {
    /// Scenario the finding is about.
    pub scenario: String,
    /// What changed.
    pub detail: String,
    /// `true` when the change should fail a gate (new unexpected
    /// violations, pass-rate drop, latency regression); `false` for
    /// informational drift (new/removed scenarios, improvements).
    pub regression: bool,
}

/// Diffs `current` against `baseline`. `latency_threshold` is the
/// fractional max-latency growth tolerated before it counts as a
/// regression (e.g. `0.10` = 10%).
pub fn diff_campaigns(
    baseline: &[CampaignRow],
    current: &[CampaignRow],
    latency_threshold: f64,
) -> Vec<CampaignFinding> {
    let mut findings = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.scenario == cur.scenario) else {
            findings.push(CampaignFinding {
                scenario: cur.scenario.clone(),
                detail: "new scenario (absent from baseline)".to_string(),
                regression: false,
            });
            continue;
        };
        if cur.unexpected_violations > base.unexpected_violations {
            findings.push(CampaignFinding {
                scenario: cur.scenario.clone(),
                detail: format!(
                    "unexpected violations {} -> {}",
                    base.unexpected_violations, cur.unexpected_violations
                ),
                regression: true,
            });
        }
        let base_rate = base.passed as f64 / base.runs.max(1) as f64;
        let cur_rate = cur.passed as f64 / cur.runs.max(1) as f64;
        if cur_rate < base_rate {
            findings.push(CampaignFinding {
                scenario: cur.scenario.clone(),
                detail: format!("pass rate {base_rate:.2} -> {cur_rate:.2}"),
                regression: true,
            });
        }
        if let (Some(base_lat), Some(cur_lat)) = (base.max_latency, cur.max_latency) {
            let limit = base_lat as f64 * (1.0 + latency_threshold);
            if cur_lat as f64 > limit {
                findings.push(CampaignFinding {
                    scenario: cur.scenario.clone(),
                    detail: format!(
                        "max detection latency {base_lat} -> {cur_lat} cycles \
                         (> {:.0}% growth)",
                        latency_threshold * 100.0
                    ),
                    regression: true,
                });
            }
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.scenario == base.scenario) {
            findings.push(CampaignFinding {
                scenario: base.scenario.clone(),
                detail: "scenario disappeared from the campaign".to_string(),
                regression: false,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_line(scenario: &str, seed: u64, passed: bool, latency: u64) -> String {
        Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(CAMPAIGN_RECORD_KIND)),
            ("scenario", Json::str(scenario)),
            ("seed", Json::UInt(seed)),
            (
                "steps",
                Json::Array(vec![Json::obj(vec![
                    ("detections", Json::UInt(1)),
                    ("latency", Json::UInt(latency)),
                ])]),
            ),
            (
                "violations",
                if passed {
                    Json::Array(vec![])
                } else {
                    Json::Array(vec![Json::obj(vec![
                        ("oracle", Json::str("detection")),
                        ("expected", Json::Bool(false)),
                    ])])
                },
            ),
            ("passed", Json::Bool(passed)),
        ])
        .to_string()
    }

    fn rows(spec: &[(&str, u64, u64, Option<u64>)]) -> Vec<CampaignRow> {
        spec.iter()
            .map(|(scenario, runs, unexpected, max_latency)| CampaignRow {
                scenario: (*scenario).to_string(),
                runs: *runs,
                passed: *runs - u64::from(*unexpected > 0),
                expected_violations: 0,
                unexpected_violations: *unexpected,
                max_latency: *max_latency,
                faults: zero_faults(),
            })
            .collect()
    }

    #[test]
    fn ingest_aggregates_and_counts_skips() {
        let text = format!(
            "{}\n{}\nnot json\n{}\n",
            record_line("a", 0, true, 100),
            record_line("a", 1, false, 300),
            record_line("b", 0, true, 50),
        );
        let (rows, skipped) = ingest_records(&text).expect("ingests");
        assert_eq!(skipped, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scenario, "a");
        assert_eq!(rows[0].runs, 2);
        assert_eq!(rows[0].passed, 1);
        assert_eq!(rows[0].unexpected_violations, 1);
        assert_eq!(rows[0].max_latency, Some(300));
        assert_eq!(rows[1].runs, 1);
    }

    #[test]
    fn ingest_sums_fault_counters_per_scenario() {
        let with_faults = |seed: u64, dropped: u64| {
            Json::obj(vec![
                ("schema", Json::UInt(1)),
                ("kind", Json::str(CAMPAIGN_RECORD_KIND)),
                ("scenario", Json::str("faulty")),
                ("seed", Json::UInt(seed)),
                (
                    "faults",
                    Json::obj(vec![
                        ("irqs_dropped", Json::UInt(dropped)),
                        ("irqs_delayed", Json::UInt(1)),
                    ]),
                ),
                ("passed", Json::Bool(true)),
            ])
            .to_string()
        };
        let text = format!("{}\n{}\n", with_faults(0, 2), with_faults(1, 3));
        let (rows, _) = ingest_records(&text).expect("ingests");
        assert_eq!(rows[0].fault_total(), 7);
        let dropped = rows[0].faults.iter().find(|(k, _)| k == "irqs_dropped");
        assert_eq!(dropped.map(|(_, n)| *n), Some(5));
        // Round trip through the summary artifact keeps the counters.
        let doc = Json::parse(&summary_to_json(&rows).to_string()).expect("valid");
        let back = rows_from_summary(&doc).expect("summary");
        assert_eq!(back, rows);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let original = rows(&[("a", 4, 0, Some(120)), ("b", 4, 1, None)]);
        let doc = summary_to_json(&original);
        let parsed = Json::parse(&doc.to_string()).expect("valid");
        assert_eq!(rows_from_summary(&parsed).expect("summary"), original);
    }

    #[test]
    fn diff_flags_regressions_and_tolerates_drift() {
        let baseline = rows(&[("a", 4, 0, Some(100)), ("gone", 4, 0, None)]);
        let current = rows(&[("a", 4, 1, Some(200)), ("new", 4, 0, None)]);
        let findings = diff_campaigns(&baseline, &current, 0.10);
        let regressions: Vec<_> = findings.iter().filter(|f| f.regression).collect();
        // unexpected violations, pass-rate drop, latency growth on `a`.
        assert_eq!(regressions.len(), 3, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.scenario == "new" && !f.regression));
        assert!(findings
            .iter()
            .any(|f| f.scenario == "gone" && !f.regression));
        assert!(diff_campaigns(&baseline, &baseline, 0.10)
            .iter()
            .all(|f| !f.regression));
    }
}
