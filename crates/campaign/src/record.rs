//! Run records: the machine-readable artifact of one `(scenario, seed)`
//! execution, and campaign-level summaries.
//!
//! Records are fully deterministic — field order is fixed, there are no
//! timestamps, and every number derives from the simulated machine — so
//! the same `(scenario, seed)` always serializes to byte-identical
//! JSON. `campaign.jsonl` is one record per line, sorted by
//! `(scenario, seed)`.
//!
//! One accumulator builds the per-scenario summary, whether it is fed
//! typed records ([`summarize`], `hypernel campaign run --summary`) or
//! record lines ([`ingest_records`], `hypernel analyze campaign`);
//! [`summary_json`] is the one writer and [`read_summary`] the strict
//! reader [`diff_campaigns`] takes its baseline from.

use hypernel_machine::FaultStats;
use hypernel_mbm::MbmStats;
use hypernel_telemetry::counters::{add, json_object, samples};
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
    /// The violation as run records and flight-recorder dumps write it.
    pub(crate) fn to_json(&self) -> Json {
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
            let mut mbm_fields: Vec<_> = samples(MbmStats::COUNTERS, &mbm, |n| n.record)
                .map(|(key, n)| (key, Json::UInt(n)))
                .collect();
            let addr = mbm.first_dropped_addr.map(|a| a.raw());
            mbm_fields.push(("first_dropped_addr", addr.map_or(Json::Null, Json::UInt)));
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
    json_object(samples(FaultStats::COUNTERS, f, |n| n.record))
}

/// The fault counter a record or summary calls `name`.
fn fault_counter<'a>(faults: &'a mut FaultStats, name: &str) -> Option<&'a mut u64> {
    let counters = FaultStats::COUNTERS.iter();
    counters
        .into_iter()
        .find(|c| c.names.record == Some(name))?
        .slot(faults)
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

impl ScenarioSummary {
    /// The one-run row of a typed record.
    fn of_record(r: &RunRecord) -> Self {
        let unexpected = r.unexpected_violations().count() as u64;
        Self {
            scenario: r.scenario.clone(),
            runs: 1,
            passed: u64::from(r.passed),
            expected_violations: r.violations.len() as u64 - unexpected,
            unexpected_violations: unexpected,
            max_latency: r
                .steps
                .iter()
                .filter(|s| s.detections > 0)
                .filter_map(|s| s.latency)
                .max(),
            faults: r.faults.unwrap_or_default(),
        }
    }

    /// The one-run row of a `campaign.jsonl` line: `None` when the
    /// document is not a run record of this schema (wrong kind, no
    /// scenario name, or a `faults` object naming a counter
    /// [`FaultStats`] lacks).
    fn of_line(doc: &Json) -> Option<Self> {
        if doc.get("kind").and_then(Json::as_str) != Some(RECORD_KIND) {
            return None;
        }
        let mut faults = FaultStats::default();
        if let Some(Json::Object(fields)) = doc.get("faults") {
            for (name, value) in fields {
                *fault_counter(&mut faults, name)? += value.as_u64().unwrap_or(0);
            }
        }
        let violations = doc
            .get("violations")
            .and_then(Json::as_array)
            .unwrap_or_default();
        let expected = violations
            .iter()
            .filter(|v| v.get("expected") == Some(&Json::Bool(true)))
            .count() as u64;
        Some(Self {
            scenario: doc.get("scenario").and_then(Json::as_str)?.to_string(),
            runs: 1,
            passed: u64::from(doc.get("passed") == Some(&Json::Bool(true))),
            expected_violations: expected,
            unexpected_violations: violations.len() as u64 - expected,
            max_latency: doc
                .get("steps")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter(|s| s.get("detections").and_then(Json::as_u64).unwrap_or(0) > 0)
                .filter_map(|s| s.get("latency").and_then(Json::as_u64))
                .max(),
            faults,
        })
    }

    /// Folds another row of the same scenario into this one.
    fn add(&mut self, other: &Self) {
        self.runs += other.runs;
        self.passed += other.passed;
        self.expected_violations += other.expected_violations;
        self.unexpected_violations += other.unexpected_violations;
        self.max_latency = self.max_latency.max(other.max_latency);
        add(FaultStats::COUNTERS, &mut self.faults, &other.faults);
    }
}

/// One aligned text line per row, as `hypernel campaign run` and
/// `hypernel analyze campaign` print it.
impl std::fmt::Display for ScenarioSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<28} runs {:>3}  passed {:>3}  expected-violations {:>3}  unexpected {:>3}",
            self.scenario,
            self.runs,
            self.passed,
            self.expected_violations,
            self.unexpected_violations
        )?;
        if let Some(latency) = self.max_latency {
            write!(f, "  max-latency {latency}")?;
        }
        match self.faults.total() {
            0 => Ok(()),
            n => write!(f, "  fault-hits {n}"),
        }
    }
}

/// The one per-row accumulator behind [`summarize`] and
/// [`ingest_records`]: adds a one-run row to its scenario's row,
/// appending it the first time the scenario is seen.
fn accumulate(rows: &mut Vec<ScenarioSummary>, run: ScenarioSummary) {
    match rows.iter_mut().rfind(|row| row.scenario == run.scenario) {
        Some(row) => row.add(&run),
        None => rows.push(run),
    }
}

/// Aggregates records into per-scenario rows, in first-seen order.
pub fn summarize(records: &[RunRecord]) -> Vec<ScenarioSummary> {
    let mut rows = Vec::new();
    for r in records {
        accumulate(&mut rows, ScenarioSummary::of_record(r));
    }
    rows
}

/// Aggregates a `campaign.jsonl` document (one run record per line)
/// into per-scenario rows, in first-seen order, through the same
/// accumulator as [`summarize`]. Returns the rows and the number of
/// non-empty lines that are not run records of this schema (skipped).
///
/// # Errors
///
/// Returns a message when no campaign run record parses at all.
pub fn ingest_records(text: &str) -> Result<(Vec<ScenarioSummary>, usize), String> {
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let doc = Json::parse(line).ok();
        match doc.as_ref().and_then(ScenarioSummary::of_line) {
            Some(run) => accumulate(&mut rows, run),
            None => skipped += 1,
        }
    }
    if rows.is_empty() {
        return Err("no campaign run records found".to_string());
    }
    Ok((rows, skipped))
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

/// Reads a summary artifact (as written by [`summary_json`]) back into
/// rows — the `--baseline` input of `hypernel analyze campaign`.
///
/// # Errors
///
/// Returns a message when the document is not a campaign summary, or
/// naming the scenario and the field when a row is malformed: a count
/// that is missing or not a non-negative integer, a `max_latency` that
/// is neither an integer nor null, or a `faults` object naming an
/// unknown counter.
pub fn read_summary(doc: &Json) -> Result<Vec<ScenarioSummary>, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(SUMMARY_KIND) {
        return Err(format!(
            "not a campaign summary (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    doc.get("scenarios")
        .and_then(Json::as_array)
        .ok_or("summary has no `scenarios` array")?
        .iter()
        .map(read_summary_row)
        .collect()
}

fn read_summary_row(row: &Json) -> Result<ScenarioSummary, String> {
    let scenario = row
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("scenario row without a name")?;
    let bad = |field: &str, want: &str| format!("scenario `{scenario}`: `{field}` {want}");
    let count = |field: &str| {
        row.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(field, "must be a non-negative integer"))
    };
    let max_latency = match row.get("max_latency") {
        Some(Json::Null) => None,
        latency => Some(
            latency
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("max_latency", "must be an integer or null"))?,
        ),
    };
    let mut faults = FaultStats::default();
    match row.get("faults") {
        None => {}
        Some(Json::Object(fields)) => {
            for (name, value) in fields {
                let field = format!("faults.{name}");
                let slot = fault_counter(&mut faults, name)
                    .ok_or_else(|| bad(&field, "is not a fault counter"))?;
                *slot += value
                    .as_u64()
                    .ok_or_else(|| bad(&field, "must be a non-negative integer"))?;
            }
        }
        Some(_) => return Err(bad("faults", "must be an object")),
    }
    Ok(ScenarioSummary {
        scenario: scenario.to_string(),
        runs: count("runs")?,
        passed: count("passed")?,
        expected_violations: count("expected_violations")?,
        unexpected_violations: count("unexpected_violations")?,
        max_latency,
        faults,
    })
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
    baseline: &[ScenarioSummary],
    current: &[ScenarioSummary],
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

    fn record_line(scenario: &str, seed: u64, passed: bool, latency: u64) -> String {
        Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(RECORD_KIND)),
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

    fn rows(spec: &[(&str, u64, u64, Option<u64>)]) -> Vec<ScenarioSummary> {
        spec.iter()
            .map(
                |(scenario, runs, unexpected, max_latency)| ScenarioSummary {
                    scenario: (*scenario).to_string(),
                    runs: *runs,
                    passed: *runs - u64::from(*unexpected > 0),
                    expected_violations: 0,
                    unexpected_violations: *unexpected,
                    max_latency: *max_latency,
                    faults: FaultStats::default(),
                },
            )
            .collect()
    }

    #[test]
    fn ingest_aggregates_and_counts_skips() {
        // A record naming a fault counter `FaultStats` lacks is not a
        // record of this schema: skipped like the garbage line.
        let unknown_fault = record_line("b", 1, true, 50).replace(
            "\"passed\":true",
            "\"faults\":{\"gremlins\":1},\"passed\":true",
        );
        let text = format!(
            "{}\n{}\nnot json\n{}\n{unknown_fault}\n",
            record_line("a", 0, true, 100),
            record_line("a", 1, false, 300),
            record_line("b", 0, true, 50),
        );
        let (rows, skipped) = ingest_records(&text).expect("ingests");
        assert_eq!(skipped, 2);
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
                ("kind", Json::str(RECORD_KIND)),
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
        assert_eq!(rows[0].faults.total(), 7);
        assert_eq!(rows[0].faults.irqs_dropped, 5);
        // Round trip through the summary artifact keeps the counters.
        let doc = Json::parse(&summary_json(&rows).to_string()).expect("valid");
        let back = read_summary(&doc).expect("summary");
        assert_eq!(back, rows);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let original = rows(&[("a", 4, 0, Some(120)), ("b", 4, 1, None)]);
        let doc = summary_json(&original);
        let parsed = Json::parse(&doc.to_string()).expect("valid");
        assert_eq!(read_summary(&parsed).expect("summary"), original);
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

    #[test]
    fn summary_reader_rejects_malformed_rows() {
        let text = summary_json(&rows(&[("a", 4, 0, Some(120))])).to_string();
        assert!(read_summary(&Json::parse(&text).expect("valid")).is_ok());
        // Each edit targets the scenario row, not the campaign totals.
        for (from, to, field) in [
            (r#""passed":4,"e"#, r#""e"#, "`passed`"),
            (r#""passed":4,"e"#, r#""passed":"4","e"#, "`passed`"),
            (r#""a","runs":4"#, r#""a","runs":-4"#, "`runs`"),
            (
                r#""max_latency":120"#,
                r#""max_latency":"x""#,
                "`max_latency`",
            ),
            (
                r#""irqs_dropped":0"#,
                r#""gremlins":0"#,
                "`faults.gremlins`",
            ),
        ] {
            assert!(text.contains(from), "{from} in {text}");
            let doc = Json::parse(&text.replacen(from, to, 1)).expect("valid");
            let err = read_summary(&doc).expect_err(field);
            assert!(err.contains("scenario `a`") && err.contains(field), "{err}");
        }
    }
}
