//! Structural coverage: which model behaviors a run actually exercised.
//!
//! The oracles judge *correctness*; this module measures *reach*. Every
//! run derives a [`CoverageMap`] — feature-key → hit-count — from the
//! final simulated state and the run's records. Keys are
//! `<crate>/<facet>/<detail>` paths (docs/COVERAGE.md lists them). A
//! counter's key is declared once, in the counter table beside its stats
//! struct (`MachineStats::COUNTERS`, `MbmStats::COUNTERS`, ...); the
//! fault-site, rule, attack, oracle and `tuple/<outcome>/<fault>/<oracle>/<mode>`
//! keys derive from their enums. Host counters have no coverage key, so
//! a coverage map is a pure function of `(scenario, seed)` and the
//! merged `coverage.json` atlas is byte-identical at any `--jobs`, with
//! fast paths disabled, and across fork vs fresh boot
//! (`tests/fastpath_determinism.rs`).
//!
//! [`known_features`] enumerates the full universe from the same tables
//! and enums [`coverage_of_run`] records, so nothing is listed twice. The
//! atlas embeds the universe, and [`Atlas`] reads it back so uncovered
//! features are computed from the artifact alone. [`render_report`]
//! prints the per-group tables and [`diff_atlases`] is the CI coverage
//! gate.

use std::collections::{BTreeMap, BTreeSet};

use hypernel::{Mode, System};
use hypernel_hypersec::{codes, HypersecStats};
use hypernel_kernel::{AttackStep, ComposeStats, KernelStats};
use hypernel_machine::machine::MachineStats;
use hypernel_machine::tlb::TlbStats;
use hypernel_machine::{FaultHit, FaultKind};
use hypernel_mbm::{Mbm, MbmStats};
use hypernel_telemetry::counters::{samples, Counter};
use hypernel_telemetry::json::Json;

use crate::record::{StepRecord, Violation};
use crate::scenario::Scenario;

/// Schema version stamped into the coverage atlas artifact.
pub const COVERAGE_SCHEMA: u64 = 1;

/// `kind` tag of the coverage atlas artifact.
pub const COVERAGE_KIND: &str = "hypernel-coverage-atlas";

/// Per-step outcome classes a run can land in.
pub const OUTCOMES: &[&str] = &["blocked", "detected", "undetected"];

/// Every oracle name, sorted (mirrors `crate::oracle`).
pub const ORACLES: &[&str] = &["audit", "detection", "latency", "outcomes", "wx"];

/// The outcome class of one executed step.
pub fn step_outcome(step: &StepRecord) -> &'static str {
    if step.blocked {
        "blocked"
    } else if step.detections > 0 {
        "detected"
    } else {
        "undetected"
    }
}

/// Feature-key → hit-count accumulator. Keys are sorted (BTreeMap), a
/// count is never zero (an absent key *is* "uncovered"), and merging is
/// commutative addition — so merged maps are independent of worker
/// scheduling and serialize canonically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    counts: BTreeMap<String, u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one hit of `key`.
    pub fn record(&mut self, key: impl Into<String>) {
        self.record_n(key, 1);
    }

    /// Counts `n` hits of `key`; `n == 0` records nothing (zero counts
    /// are represented by absence).
    pub fn record_n(&mut self, key: impl Into<String>, n: u64) {
        if n > 0 {
            *self.counts.entry(key.into()).or_insert(0) += n;
        }
    }

    /// Adds every count from `other` into this map.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (key, n) in &other.counts {
            self.record_n(key.clone(), *n);
        }
    }

    /// Whether `key` was hit at least once.
    pub fn covers(&self, key: &str) -> bool {
        self.counts.contains_key(key)
    }

    /// Hit count of `key` (0 when uncovered).
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct covered features.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing was covered.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `(key, count)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counts.iter().map(|(k, n)| (k.as_str(), *n))
    }

    /// The covered `tuple/...` keys, sorted.
    pub fn tuples(&self) -> impl Iterator<Item = &str> + '_ {
        self.counts
            .keys()
            .filter(|k| k.starts_with("tuple/"))
            .map(String::as_str)
    }
}

/// The `tuple/<outcome>/<fault>/<oracle>/<mode>` keys one run covers:
/// the cross product of its observed step outcomes, its *declared*
/// fault kinds (or `none`), the oracles that spoke (or `none`), and the
/// scenario mode.
pub fn tuple_keys(
    scenario: &Scenario,
    steps: &[StepRecord],
    violations: &[Violation],
) -> Vec<String> {
    let outcomes: BTreeSet<&str> = steps.iter().map(step_outcome).collect();
    let mut faults: BTreeSet<&str> = scenario
        .faults
        .specs
        .iter()
        .map(|s| s.kind.name())
        .collect();
    if faults.is_empty() {
        faults.insert("none");
    }
    let mut oracles: BTreeSet<&str> = violations.iter().map(|v| v.oracle).collect();
    if oracles.is_empty() {
        oracles.insert("none");
    }
    let mode = scenario.mode.key();
    let mut out = Vec::new();
    for outcome in &outcomes {
        for fault in &faults {
            for oracle in &oracles {
                out.push(format!("tuple/{outcome}/{fault}/{oracle}/{mode}"));
            }
        }
    }
    out
}

/// The coverage keys of a counter table's model rows.
fn coverage_keys<S>(table: &[Counter<S>]) -> impl Iterator<Item = &'static str> + '_ {
    table.iter().filter_map(|c| c.names.coverage)
}

/// Records every model counter of `table` that has a coverage key.
fn record_counters<S>(cov: &mut CoverageMap, table: &[Counter<S>], stats: &S) {
    for (key, n) in samples(table, stats, |n| n.coverage) {
        cov.record_n(key, n);
    }
}

/// Derives the coverage map of one finished run from the final system
/// state and the run's own step/violation/fault-log records. Reads only
/// the model rows of the counter tables — never a host counter — so
/// the result is identical with fast paths on or off.
pub fn coverage_of_run(
    sys: &System,
    scenario: &Scenario,
    steps: &[StepRecord],
    violations: &[Violation],
    fault_log: &[FaultHit],
) -> CoverageMap {
    let mut cov = CoverageMap::new();
    let machine = sys.machine();
    record_counters(&mut cov, MachineStats::COUNTERS, &machine.stats());
    record_counters(&mut cov, TlbStats::COUNTERS, &machine.tlb().stats());
    for hit in fault_log {
        cov.record(format!("machine/fault-site/{}", hit.kind.name()));
    }

    if let Some(mbm) = machine.bus().snooper::<Mbm>() {
        record_counters(&mut cov, MbmStats::COUNTERS, &mbm.stats());
        cov.record(format!(
            "mbm/fifo-occupancy/{}",
            mbm.fifo_occupancy_bucket()
        ));
    }

    if let Some(hypersec) = sys.hypersec() {
        record_counters(&mut cov, HypersecStats::COUNTERS, &hypersec.stats());
        for (code, n) in hypersec.rule_hits() {
            cov.record_n(format!("hypersec/rule/{}", codes::name(code)), n);
        }
    }

    record_counters(&mut cov, KernelStats::COUNTERS, &sys.kernel().stats());
    record_counters(
        &mut cov,
        ComposeStats::COUNTERS,
        &sys.kernel().compose_stats(),
    );

    for step in steps {
        cov.record(format!(
            "kernel/attack/{}/{}",
            step.name,
            step_outcome(step)
        ));
    }

    if violations.is_empty() {
        cov.record("oracle/none");
    }
    for v in violations {
        let verdict = if v.expected { "expected" } else { "unexpected" };
        cov.record(format!("oracle/{}/{verdict}", v.oracle));
    }

    for key in tuple_keys(scenario, steps, violations) {
        cov.record(key);
    }
    cov
}

/// The full feature universe: every key [`coverage_of_run`] can emit,
/// sorted. The counter keys come from the counter tables
/// `coverage_of_run` records. The atlas embeds this list so uncovered
/// features can be computed from the artifact alone.
pub fn known_features() -> Vec<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    let counters = coverage_keys(MachineStats::COUNTERS)
        .chain(coverage_keys(TlbStats::COUNTERS))
        .chain(coverage_keys(MbmStats::COUNTERS))
        .chain(coverage_keys(HypersecStats::COUNTERS))
        .chain(coverage_keys(KernelStats::COUNTERS))
        .chain(coverage_keys(ComposeStats::COUNTERS));
    out.extend(counters.map(str::to_string));
    for kind in FaultKind::ALL {
        out.insert(format!("machine/fault-site/{}", kind.name()));
    }
    for bucket in Mbm::FIFO_OCCUPANCY_BUCKETS {
        out.insert(format!("mbm/fifo-occupancy/{bucket}"));
    }
    for rule in codes::METADATA {
        out.insert(format!("hypersec/rule/{}", rule.name));
    }
    for step in AttackStep::defaults() {
        for outcome in OUTCOMES {
            out.insert(format!("kernel/attack/{}/{outcome}", step.name()));
        }
    }
    out.insert("oracle/none".to_string());
    for oracle in ORACLES {
        for verdict in ["expected", "unexpected"] {
            out.insert(format!("oracle/{oracle}/{verdict}"));
        }
    }
    let fault_dim: Vec<&str> = FaultKind::ALL
        .iter()
        .map(|k| k.name())
        .chain(["none"])
        .collect();
    let oracle_dim: Vec<&str> = ORACLES.iter().copied().chain(["none"]).collect();
    for outcome in OUTCOMES {
        for fault in &fault_dim {
            for oracle in &oracle_dim {
                for mode in Mode::ALL {
                    out.insert(format!("tuple/{outcome}/{fault}/{oracle}/{}", mode.key()));
                }
            }
        }
    }
    out.into_iter().collect()
}

/// Serializes a merged coverage map as the canonical atlas artifact:
/// sorted feature counts plus the embedded feature universe. Same map,
/// same bytes — the determinism gates diff this file directly.
pub fn atlas_json(map: &CoverageMap, runs: u64) -> Json {
    Json::obj(vec![
        ("schema", Json::UInt(COVERAGE_SCHEMA)),
        ("kind", Json::str(COVERAGE_KIND)),
        ("runs", Json::UInt(runs)),
        (
            "features",
            Json::Object(
                map.iter()
                    .map(|(k, n)| (k.to_string(), Json::UInt(n)))
                    .collect(),
            ),
        ),
        (
            "universe",
            Json::Array(known_features().iter().map(|k| Json::str(k)).collect()),
        ),
    ])
}

/// A parsed coverage atlas: the merged feature counts plus the feature
/// universe they are measured against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atlas {
    /// Runs merged into the atlas.
    pub runs: u64,
    /// Feature hit counts (uncovered features are absent).
    pub features: CoverageMap,
    /// Every feature the instrumentation can emit, sorted.
    pub universe: Vec<String>,
}

impl Atlas {
    /// Universe features never reached, in universe order.
    pub fn uncovered(&self) -> Vec<&str> {
        self.universe
            .iter()
            .map(String::as_str)
            .filter(|k| !self.features.covers(k))
            .collect()
    }
}

/// Parses a coverage atlas document.
///
/// # Errors
///
/// Returns a message when the document is not a coverage atlas or the
/// `features`/`universe` sections have the wrong shape.
pub fn ingest_atlas(doc: &Json) -> Result<Atlas, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(COVERAGE_KIND) {
        return Err(format!(
            "not a coverage atlas (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    let Some(Json::Object(fields)) = doc.get("features") else {
        return Err("atlas has no `features` object".to_string());
    };
    let mut features = CoverageMap::new();
    for (key, value) in fields {
        let n = value
            .as_u64()
            .ok_or_else(|| format!("feature `{key}` has a non-integer count"))?;
        features.record_n(key.clone(), n);
    }
    Ok(Atlas {
        runs: doc.get("runs").and_then(Json::as_u64).unwrap_or(0),
        features,
        universe: string_array(doc, "universe")?,
    })
}

/// The string array `doc.<field>` of an artifact.
pub(crate) fn string_array(doc: &Json, field: &str) -> Result<Vec<String>, String> {
    doc.get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("artifact has no `{field}` array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{field}` entries must be strings"))
        })
        .collect()
}

/// Coverage rollup for one key group (the first `/`-separated segment:
/// `machine`, `mbm`, `hypersec`, `kernel`, `oracle`, `tuple`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCoverage {
    /// Group name.
    pub group: String,
    /// Distinct features reached.
    pub covered: usize,
    /// Features the universe defines for this group.
    pub universe: usize,
    /// Total hits across the group's features.
    pub hits: u64,
}

fn group_of(key: &str) -> &str {
    key.split('/').next().unwrap_or(key)
}

/// Rolls the atlas up per key group, in universe order. Features
/// outside the universe (newer emitter than universe snapshot) still
/// count toward their group's `covered` and `hits`.
pub fn per_group(atlas: &Atlas) -> Vec<GroupCoverage> {
    let mut groups: Vec<GroupCoverage> = Vec::new();
    let group_mut = |name: &str, groups: &mut Vec<GroupCoverage>| -> usize {
        if let Some(pos) = groups.iter().position(|g| g.group == name) {
            return pos;
        }
        groups.push(GroupCoverage {
            group: name.to_string(),
            covered: 0,
            universe: 0,
            hits: 0,
        });
        groups.len() - 1
    };
    for key in &atlas.universe {
        let pos = group_mut(group_of(key), &mut groups);
        groups[pos].universe += 1;
    }
    for (key, hits) in atlas.features.iter() {
        let pos = group_mut(group_of(key), &mut groups);
        groups[pos].covered += 1;
        groups[pos].hits += hits;
    }
    groups
}

/// How many uncovered keys a rendered report lists per section before
/// summarizing the rest by count (never silently).
const UNCOVERED_LIST_CAP: usize = 40;

/// Renders the atlas as an aligned markdown report: the per-group
/// rollup table, then the uncovered tuple list and the uncovered
/// non-tuple features (each capped at [`UNCOVERED_LIST_CAP`] lines with
/// an explicit remainder count).
pub fn render_report(atlas: &Atlas) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let groups = per_group(atlas);
    let covered: usize = groups.iter().map(|g| g.covered).sum();
    let universe: usize = groups.iter().map(|g| g.universe).sum();
    let _ = writeln!(out, "coverage atlas: {} run(s) merged", atlas.runs);
    let _ = writeln!(out);
    let _ = writeln!(out, "| group    | covered | universe |  pct   | hits |");
    let _ = writeln!(out, "|----------|--------:|---------:|-------:|-----:|");
    for g in &groups {
        let _ = writeln!(
            out,
            "| {:<8} | {:>7} | {:>8} | {:>5.1}% | {:>4} |",
            g.group,
            g.covered,
            g.universe,
            percent(g.covered, g.universe),
            g.hits,
        );
    }
    let total_hits: u64 = groups.iter().map(|g| g.hits).sum();
    let _ = writeln!(
        out,
        "| total    | {:>7} | {:>8} | {:>5.1}% | {:>4} |",
        covered,
        universe,
        percent(covered, universe),
        total_hits,
    );
    let uncovered = atlas.uncovered();
    let (tuples, rest): (Vec<&str>, Vec<&str>) =
        uncovered.iter().partition(|k| k.starts_with("tuple/"));
    let (unfired_rules, features): (Vec<&str>, Vec<&str>) =
        rest.iter().partition(|k| k.starts_with("hypersec/rule/"));
    let _ = writeln!(out);
    write_unfired_rules(&mut out, atlas, &unfired_rules);
    write_uncovered(&mut out, "uncovered tuples", &tuples);
    write_uncovered(&mut out, "uncovered features", &features);
    out
}

/// The dedicated unfired-rules table: every `hypersec/rule/*` key the
/// universe defines but no run fired, one row per rule, with the
/// fired/total headline. These are the protection surfaces the corpus
/// never provoked — the static analyzer ranks which of them an attack
/// step could actually reach (`hypernel staticheck targets`).
fn write_unfired_rules(out: &mut String, atlas: &Atlas, unfired: &[&str]) {
    use std::fmt::Write as _;
    let total = atlas
        .universe
        .iter()
        .filter(|k| k.starts_with("hypersec/rule/"))
        .count();
    let _ = writeln!(
        out,
        "unfired rules: {} (fired {} of {} in the universe)",
        unfired.len(),
        total - unfired.len(),
        total
    );
    if !unfired.is_empty() {
        let _ = writeln!(
            out,
            "| rule                 | key                                  |"
        );
        let _ = writeln!(
            out,
            "|----------------------|--------------------------------------|"
        );
        for key in unfired {
            let rule = key.rsplit('/').next().unwrap_or(key);
            let _ = writeln!(out, "| {rule:<20} | {key:<36} |");
        }
    }
    let _ = writeln!(out);
}

fn percent(covered: usize, universe: usize) -> f64 {
    if universe == 0 {
        100.0
    } else {
        covered as f64 * 100.0 / universe as f64
    }
}

fn write_uncovered(out: &mut String, what: &str, keys: &[&str]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{what}: {}", keys.len());
    for key in keys.iter().take(UNCOVERED_LIST_CAP) {
        let _ = writeln!(out, "  - {key}");
    }
    if keys.len() > UNCOVERED_LIST_CAP {
        let _ = writeln!(out, "  ... and {} more", keys.len() - UNCOVERED_LIST_CAP);
    }
}

/// Result of diffing a candidate atlas against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageDiff {
    /// Features covered in the baseline but not in the candidate —
    /// each one fails the gate.
    pub regressions: Vec<String>,
    /// Features the candidate covers that the baseline did not
    /// (informational).
    pub newly_covered: Vec<String>,
}

impl CoverageDiff {
    /// Whether the candidate lost coverage anywhere.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Diffs `candidate` against `baseline`: every feature reached by the
/// baseline must still be reached by the candidate.
pub fn diff_atlases(baseline: &Atlas, candidate: &Atlas) -> CoverageDiff {
    let missing_from = |a: &Atlas, b: &Atlas| -> Vec<String> {
        a.features
            .iter()
            .filter(|(k, _)| !b.features.covers(k))
            .map(|(k, _)| k.to_string())
            .collect()
    };
    CoverageDiff {
        regressions: missing_from(baseline, candidate),
        newly_covered: missing_from(candidate, baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_one;
    use crate::scenario::StepExpect;
    use hypernel_machine::FaultSpec;

    #[test]
    fn merge_is_commutative_and_additive() {
        let mut a = CoverageMap::new();
        a.record("x");
        a.record_n("y", 3);
        let mut b = CoverageMap::new();
        b.record_n("y", 2);
        b.record("z");
        b.record_n("never", 0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count("y"), 5);
        assert!(!ab.covers("never"), "zero counts are not coverage");
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn constant_tables_mirror_the_model() {
        // The kind dimensions derive from their enums; the universe
        // must span every one of them.
        let universe = known_features();
        let count = |prefix: &str| universe.iter().filter(|k| k.starts_with(prefix)).count();
        assert_eq!(count("machine/fault-site/"), FaultKind::ALL.len());
        assert_eq!(
            count("kernel/attack/"),
            AttackStep::defaults().len() * OUTCOMES.len()
        );
        assert_eq!(
            count("tuple/"),
            OUTCOMES.len() * (FaultKind::ALL.len() + 1) * (ORACLES.len() + 1) * Mode::ALL.len()
        );
    }

    fn run(scenario: &Scenario, seed: u64) -> crate::record::RunRecord {
        run_one(scenario, seed).expect("runs")
    }

    #[test]
    fn a_real_run_covers_the_expected_features() {
        let s = Scenario::new("cov-cred", Mode::Hypernel)
            .background(2)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected);
        let record = run(&s, 7);
        let cov = record.coverage.expect("campaign runs derive coverage");
        for key in [
            "machine/trap/hypercall",
            "machine/irq/delivered",
            "machine/tlb/hit",
            "mbm/stage/snooped",
            "mbm/stage/matched",
            "hypersec/verdict/detection",
            "kernel/syscall/fork",
            "kernel/attack/cred-escalation/detected",
            "tuple/detected/none/none/hypernel",
        ] {
            assert!(cov.covers(key), "missing `{key}`: {:?}", cov);
        }
        assert!(
            cov.iter().all(|(_, n)| n > 0),
            "no zero counts may be stored"
        );
    }

    #[test]
    fn every_emitted_feature_is_in_the_universe() {
        let universe: BTreeSet<String> = known_features().into_iter().collect();
        let scenarios = [
            Scenario::new("cov-hyp", Mode::Hypernel)
                .background(2)
                .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
                .step(AttackStep::TextPatch, StepExpect::Blocked),
            Scenario::new("cov-native", Mode::Native)
                .background(1)
                .step(
                    AttackStep::CredEscalation { pid: 1 },
                    StepExpect::Undetected,
                ),
            Scenario::new("cov-masked", Mode::Hypernel)
                .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
                .fault(FaultSpec::drop_irq(1, u64::MAX)),
        ];
        for s in scenarios {
            let record = run(&s, 3);
            let cov = record.coverage.expect("coverage");
            for (key, _) in cov.iter() {
                assert!(universe.contains(key), "`{key}` missing from universe");
            }
        }
    }

    #[test]
    fn atlas_artifact_is_deterministic_and_parses() {
        let s = Scenario::new("cov-atlas", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected);
        let mut merged = CoverageMap::new();
        for seed in 0..2 {
            merged.merge(&run(&s, seed).coverage.expect("coverage"));
        }
        let a = atlas_json(&merged, 2).to_string();
        let b = atlas_json(&merged, 2).to_string();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(COVERAGE_KIND));
        assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(2));
        let universe = doc.get("universe").and_then(Json::as_array).expect("u");
        assert_eq!(universe.len(), known_features().len());
    }

    fn atlas(features: &[(&str, u64)], universe: &[&str]) -> Atlas {
        let mut map = CoverageMap::new();
        for (key, n) in features {
            map.record_n(*key, *n);
        }
        Atlas {
            runs: 8,
            features: map,
            universe: universe.iter().map(|k| k.to_string()).collect(),
        }
    }

    const SAMPLE_UNIVERSE: &[&str] = &[
        "machine/tlb/hit",
        "machine/tlb/miss",
        "mbm/stage/snooped",
        "tuple/detected/none/none/hypernel",
        "tuple/detected/none/none/kvm",
    ];

    fn sample() -> Atlas {
        atlas(
            &[
                ("machine/tlb/hit", 100),
                ("mbm/stage/snooped", 40),
                ("tuple/detected/none/none/hypernel", 8),
            ],
            SAMPLE_UNIVERSE,
        )
    }

    #[test]
    fn ingest_round_trips_the_artifact_shape() {
        let doc = Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(COVERAGE_KIND)),
            ("runs", Json::UInt(8)),
            (
                "features",
                Json::obj(vec![("machine/tlb/hit", Json::UInt(100))]),
            ),
            (
                "universe",
                Json::Array(vec![
                    Json::str("machine/tlb/hit"),
                    Json::str("machine/tlb/miss"),
                ]),
            ),
        ]);
        let parsed = ingest_atlas(&Json::parse(&doc.to_string()).expect("valid")).expect("atlas");
        assert_eq!(parsed.runs, 8);
        assert_eq!(parsed.features.count("machine/tlb/hit"), 100);
        assert!(!parsed.features.covers("machine/tlb/miss"));
        assert_eq!(parsed.uncovered(), vec!["machine/tlb/miss"]);
        assert!(ingest_atlas(&Json::obj(vec![("kind", Json::str("nope"))])).is_err());
    }

    #[test]
    fn groups_roll_up_covered_universe_and_hits() {
        let groups = per_group(&sample());
        let machine = groups.iter().find(|g| g.group == "machine").expect("m");
        assert_eq!(
            (machine.covered, machine.universe, machine.hits),
            (1, 2, 100)
        );
        let tuple = groups.iter().find(|g| g.group == "tuple").expect("t");
        assert_eq!((tuple.covered, tuple.universe), (1, 2));
        let report = render_report(&sample());
        assert!(report.contains("machine"), "{report}");
        assert!(report.contains("tuple/detected/none/none/kvm"), "{report}");
        assert!(report.contains("uncovered tuples: 1"), "{report}");
    }

    #[test]
    fn unfired_rules_get_their_own_table() {
        let atlas = atlas(
            &[("hypersec/rule/wxorx", 4), ("oracle/none", 8)],
            &[
                "hypersec/rule/wxorx",
                "hypersec/rule/frozen-sysreg",
                "hypersec/rule/not-a-table",
                "oracle/none",
            ],
        );
        let report = render_report(&atlas);
        assert!(
            report.contains("unfired rules: 2 (fired 1 of 3 in the universe)"),
            "{report}"
        );
        assert!(report.contains("| frozen-sysreg"), "{report}");
        assert!(report.contains("| not-a-table"), "{report}");
        // Rule keys live in their table, not the generic feature list.
        assert!(report.contains("uncovered features: 0"), "{report}");
    }

    #[test]
    fn diff_flags_lost_coverage_only() {
        let base = sample();
        let candidate = atlas(
            &[
                ("machine/tlb/hit", 100),
                ("machine/tlb/miss", 3),
                ("tuple/detected/none/none/hypernel", 8),
            ],
            SAMPLE_UNIVERSE,
        );
        let diff = diff_atlases(&base, &candidate);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions, vec!["mbm/stage/snooped".to_string()]);
        assert_eq!(diff.newly_covered, vec!["machine/tlb/miss".to_string()]);
        assert!(!diff_atlases(&base, &base).has_regressions());
    }
}
