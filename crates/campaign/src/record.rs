//! Run records: the machine-readable artifact of one `(scenario, seed)`
//! execution, and campaign-level summaries.
//!
//! Records are fully deterministic — field order is fixed, there are no
//! timestamps, and every number derives from the simulated machine — so
//! the same `(scenario, seed)` always serializes to byte-identical
//! JSON. `campaign.jsonl` is one record per line, sorted by
//! `(scenario, seed)`.

use hypernel_machine::FaultStats;
use hypernel_mbm::MbmStats;
use hypernel_telemetry::json::Json;
use hypernel_telemetry::series::MetricsDoc;

use crate::coverage::CoverageMap;

/// Schema version stamped into every campaign record.
pub const CAMPAIGN_SCHEMA: u64 = 1;

/// `kind` tag of one run record.
pub const RECORD_KIND: &str = "hypernel-campaign-run";

/// `kind` tag of the campaign summary artifact.
pub const SUMMARY_KIND: &str = "hypernel-campaign-summary";

/// An oracle violation observed in one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle flagged it (`outcomes` | `wx` | `detection` |
    /// `latency` | `audit`).
    pub oracle: &'static str,
    /// 0-based attack-step index the violation anchors to, if any.
    pub step: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
    /// `true` when the scenario *declared* this violation (a masked
    /// detection gap, overflow pressure): the record still carries it,
    /// but it does not fail the run.
    pub expected: bool,
}

impl Violation {
    fn to_json(&self) -> Json {
        let mut fields = vec![("oracle", Json::str(self.oracle))];
        if let Some(step) = self.step {
            fields.push(("step", Json::UInt(step as u64)));
        }
        fields.push(("detail", Json::str(&self.detail)));
        fields.push(("expected", Json::Bool(self.expected)));
        Json::obj(fields)
    }
}

/// What one attack step did and what the pipeline saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Step kind name (`cred-escalation`, ...).
    pub name: String,
    /// Outcome display string (`succeeded` or `blocked: <why>`).
    pub outcome: String,
    /// `true` when the operation was refused.
    pub blocked: bool,
    /// Monitored physical span `(base, len)` the step wrote, if any.
    pub monitored: Option<(u64, u64)>,
    /// Number of detections whose address falls in the monitored span.
    pub detections: u64,
    /// Cycles from step start to the end of the service pass that
    /// followed it — the observed write→detection latency when
    /// `detections > 0`.
    pub latency: Option<u64>,
}

impl StepRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(&self.name)),
            ("outcome", Json::str(&self.outcome)),
            ("blocked", Json::Bool(self.blocked)),
        ];
        if let Some((base, len)) = self.monitored {
            fields.push((
                "monitored",
                Json::obj(vec![("base", Json::UInt(base)), ("len", Json::UInt(len))]),
            ));
        }
        fields.push(("detections", Json::UInt(self.detections)));
        if let Some(latency) = self.latency {
            fields.push(("latency", Json::UInt(latency)));
        }
        Json::obj(fields)
    }
}

/// Condensed static-audit section of a run record. The full report
/// (chains, per-finding detail) is the `hypernel audit` artifact; the
/// run record keeps just enough to diff and to anchor the `audit`
/// oracle's violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// Translation roots the static pass walked.
    pub roots: u64,
    /// Distinct table pages visited.
    pub tables: u64,
    /// Leaves checked.
    pub leaves: u64,
    /// Invariant findings (all of them, expected or not).
    pub findings: u64,
    /// Static-vs-incremental verdict; `None` when the differential did
    /// not run (non-Hypernel modes).
    pub differential_agrees: Option<bool>,
}

impl AuditRecord {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("roots", Json::UInt(self.roots)),
            ("tables", Json::UInt(self.tables)),
            ("leaves", Json::UInt(self.leaves)),
            ("findings", Json::UInt(self.findings)),
            (
                "differential_agrees",
                self.differential_agrees.map_or(Json::Null, Json::Bool),
            ),
        ])
    }
}

/// The artifact of one `(scenario, seed)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Protection mode display string.
    pub mode: String,
    /// The seed driving workload interleaving.
    pub seed: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-step results, in program order.
    pub steps: Vec<StepRecord>,
    /// Total detections Hypersec dispatched.
    pub detections_total: u64,
    /// MBM statistics (Hypernel mode).
    pub mbm: Option<MbmStats>,
    /// Injected-fault counters (when the scenario declares faults).
    pub faults: Option<FaultStats>,
    /// Static whole-system audit of the final state.
    pub audit: Option<AuditRecord>,
    /// Oracle violations, expected and not.
    pub violations: Vec<Violation>,
    /// `true` iff every violation was declared by the scenario.
    pub passed: bool,
    /// Full windowed metrics for the run. Carried in memory for
    /// `--metrics` export; [`RunRecord::to_json`] stamps only the
    /// bounded summary (totals and maxima per series).
    pub metrics: Option<MetricsDoc>,
    /// Pre-serialized flight-recorder dump, present when the run
    /// failed. Carried in memory for `--blackbox` export; never part
    /// of the record JSON.
    pub blackbox: Option<String>,
    /// Structural coverage of the run. Carried in memory for
    /// `--coverage` atlas merging; never part of the record JSON (the
    /// atlas is its own artifact).
    pub coverage: Option<CoverageMap>,
}

impl RunRecord {
    /// Serializes the record as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::UInt(CAMPAIGN_SCHEMA)),
            ("kind", Json::str(RECORD_KIND)),
            ("scenario", Json::str(&self.scenario)),
            ("mode", Json::str(&self.mode)),
            ("seed", Json::UInt(self.seed)),
            ("cycles", Json::UInt(self.cycles)),
            (
                "steps",
                Json::Array(self.steps.iter().map(StepRecord::to_json).collect()),
            ),
            ("detections_total", Json::UInt(self.detections_total)),
        ];
        if let Some(mbm) = self.mbm {
            let mut mbm_fields = vec![
                ("events_matched", Json::UInt(mbm.events_matched)),
                ("irqs_raised", Json::UInt(mbm.irqs_raised)),
                ("fifo_dropped", Json::UInt(mbm.fifo_dropped)),
            ];
            match mbm.first_dropped_addr {
                Some(addr) => mbm_fields.push(("first_dropped_addr", Json::UInt(addr.raw()))),
                None => mbm_fields.push(("first_dropped_addr", Json::Null)),
            }
            fields.push(("mbm", Json::obj(mbm_fields)));
        }
        if let Some(f) = self.faults {
            fields.push(("faults", fault_counters_json(&f)));
        }
        if let Some(audit) = self.audit {
            fields.push(("audit", audit.to_json()));
        }
        if let Some(metrics) = &self.metrics {
            fields.push(("metrics", metrics.summary_json()));
        }
        fields.push((
            "violations",
            Json::Array(self.violations.iter().map(Violation::to_json).collect()),
        ));
        fields.push(("passed", Json::Bool(self.passed)));
        Json::obj(fields)
    }

    /// The violations the scenario did *not* declare — what fails a run.
    pub fn unexpected_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.expected)
    }
}

/// Serializes the per-kind injected-fault counters as one JSON object
/// — the single source of the artifact field names, shared by run
/// records and summary rows.
fn fault_counters_json(f: &FaultStats) -> Json {
    Json::Object(
        f.counters()
            .iter()
            .map(|(name, n)| (name.to_string(), Json::UInt(*n)))
            .collect(),
    )
}

/// Per-scenario aggregation of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Runs executed.
    pub runs: u64,
    /// Runs whose violations were all declared.
    pub passed: u64,
    /// Violations the scenario declared (masked gaps etc.).
    pub expected_violations: u64,
    /// Violations nobody declared — real failures.
    pub unexpected_violations: u64,
    /// Largest observed write→detection latency (cycles).
    pub max_latency: Option<u64>,
    /// Injected-fault hits summed over the scenario's runs (the
    /// injector's per-fault counters, surfaced into artifacts).
    pub faults: FaultStats,
}

/// Aggregates records (already sorted by scenario) into per-scenario
/// rows plus campaign totals.
pub fn summarize(records: &[RunRecord]) -> Vec<ScenarioSummary> {
    let mut rows: Vec<ScenarioSummary> = Vec::new();
    for r in records {
        if rows.last().map(|row| row.scenario.as_str()) != Some(r.scenario.as_str()) {
            rows.push(ScenarioSummary {
                scenario: r.scenario.clone(),
                runs: 0,
                passed: 0,
                expected_violations: 0,
                unexpected_violations: 0,
                max_latency: None,
                faults: FaultStats::default(),
            });
        }
        let row = rows.last_mut().expect("pushed above");
        row.runs += 1;
        row.passed += u64::from(r.passed);
        if let Some(f) = &r.faults {
            row.faults.add(f);
        }
        for v in &r.violations {
            if v.expected {
                row.expected_violations += 1;
            } else {
                row.unexpected_violations += 1;
            }
        }
        for s in &r.steps {
            if s.detections > 0 {
                row.max_latency = row.max_latency.max(s.latency);
            }
        }
    }
    rows
}

/// Serializes a summary (plus campaign totals) as a deterministic JSON
/// artifact `hypernel analyze campaign` can diff.
pub fn summary_json(rows: &[ScenarioSummary]) -> Json {
    let total_runs: u64 = rows.iter().map(|r| r.runs).sum();
    let total_passed: u64 = rows.iter().map(|r| r.passed).sum();
    let total_unexpected: u64 = rows.iter().map(|r| r.unexpected_violations).sum();
    Json::obj(vec![
        ("schema", Json::UInt(CAMPAIGN_SCHEMA)),
        ("kind", Json::str(SUMMARY_KIND)),
        ("runs", Json::UInt(total_runs)),
        ("passed", Json::UInt(total_passed)),
        ("unexpected_violations", Json::UInt(total_unexpected)),
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
                            ("faults", fault_counters_json(&r.faults)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: &str, seed: u64, passed: bool) -> RunRecord {
        RunRecord {
            scenario: scenario.to_string(),
            mode: "Hypernel".to_string(),
            seed,
            cycles: 1000,
            steps: vec![StepRecord {
                name: "cred-escalation".to_string(),
                outcome: "succeeded".to_string(),
                blocked: false,
                monitored: Some((0x4000, 64)),
                detections: 1,
                latency: Some(seed * 10),
            }],
            detections_total: 1,
            mbm: None,
            faults: None,
            audit: None,
            violations: if passed {
                vec![]
            } else {
                vec![Violation {
                    oracle: "detection",
                    step: Some(0),
                    detail: "missed".to_string(),
                    expected: false,
                }]
            },
            passed,
            metrics: None,
            blackbox: None,
            coverage: None,
        }
    }

    #[test]
    fn record_json_round_trips_and_is_deterministic() {
        let r = record("demo", 3, false);
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b, "same record, same bytes");
        let doc = Json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(RECORD_KIND));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(3));
        let violations = doc
            .get("violations")
            .and_then(Json::as_array)
            .expect("violations");
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].get("oracle").and_then(Json::as_str),
            Some("detection")
        );
        assert_eq!(r.unexpected_violations().count(), 1);
    }

    #[test]
    fn summary_aggregates_per_scenario() {
        let records = vec![
            record("a", 1, true),
            record("a", 2, false),
            record("b", 1, true),
        ];
        let rows = summarize(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scenario, "a");
        assert_eq!(rows[0].runs, 2);
        assert_eq!(rows[0].passed, 1);
        assert_eq!(rows[0].unexpected_violations, 1);
        assert_eq!(rows[0].max_latency, Some(20));
        let json = summary_json(&rows).to_string();
        let doc = Json::parse(&json).expect("valid");
        assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("unexpected_violations").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn summary_rolls_up_fault_counters() {
        let mut a = record("a", 1, true);
        a.faults = Some(FaultStats {
            irqs_dropped: 2,
            ..FaultStats::default()
        });
        let mut b = record("a", 2, true);
        b.faults = Some(FaultStats {
            irqs_dropped: 1,
            irqs_delayed: 3,
            ..FaultStats::default()
        });
        let rows = summarize(&[a, b]);
        assert_eq!(rows[0].faults.irqs_dropped, 3);
        assert_eq!(rows[0].faults.irqs_delayed, 3);
        let json = summary_json(&rows).to_string();
        let doc = Json::parse(&json).expect("valid");
        let scenarios = doc.get("scenarios").and_then(Json::as_array).expect("rows");
        let faults = scenarios[0].get("faults").expect("faults object");
        assert_eq!(faults.get("irqs_dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(faults.get("bitmap_desyncs").and_then(Json::as_u64), Some(0));
    }
}
