//! Structural coverage: which model behaviors a run actually exercised.
//!
//! The oracles judge *correctness*; this module measures *reach*. Every
//! run derives a [`CoverageMap`] — feature-key → hit-count — from the
//! final simulated state: machine trap/TLB/IRQ activity and fault-site
//! hits, the MBM pipeline stages and overflow edges, which Hypersec
//! policy rules fired, kernel syscall families and attack outcomes,
//! which oracles spoke, and the run's `(outcome, fault, oracle, mode)`
//! tuples. Everything counted is **model-visible** — host fast-path
//! counters (L0 micro-TLB, MBM watch-page filter) never appear — so a
//! coverage map is a pure function of `(scenario, seed)` and the merged
//! `coverage.json` atlas is byte-identical at any `--jobs`, with fast
//! paths disabled, and across fork vs fresh boot
//! (`tests/coverage_determinism.rs`).
//!
//! Key namespaces (`<crate>/<facet>/<detail>`):
//!
//! - `machine/trap/*`, `machine/irq/delivered`, `machine/tlb/*`,
//!   `machine/fault-site/<kind>` — one hit per injected-fault firing;
//! - `mbm/stage/*` (snooped → captured → translated → matched →
//!   irq-raised), `mbm/capture/{matched,unmatched}`, `mbm/edge/*`
//!   (overflow/drop/alarm/divergence), `mbm/fifo-occupancy/<bucket>`;
//! - `hypersec/rule/<code-name>` — which policy denial fired —
//!   and `hypersec/verdict/*` — allowed/denied counts per boundary;
//! - `kernel/syscall/<family>`, `kernel/event/*`,
//!   `kernel/irq-service/*`, `kernel/attack/<step>/<outcome>`;
//! - `compose/*` — composed multi-domain systems: domains spawned by
//!   role, channel/region lowering, legitimate channel traffic, and
//!   the derived/merged/issued watch-set spans;
//! - `oracle/<name>/{expected,unexpected}` (or `oracle/none`);
//! - `tuple/<outcome>/<fault>/<oracle>/<mode>` — the cross product the
//!   `explore` loop hunts for. The fault dimension is the *declared*
//!   plan (the scenario shape); actual firings are under
//!   `machine/fault-site/*`.
//!
//! [`known_features`] enumerates the full universe so the analyzer can
//! list what was *never* reached; the universe is embedded in the atlas
//! artifact because `hypernel-analyze` deliberately does not link this
//! crate.

use std::collections::{BTreeMap, BTreeSet};

use hypernel::{Mode, System};
use hypernel_hypersec::codes;
use hypernel_kernel::AttackStep;
use hypernel_machine::{FaultHit, FaultKind};
use hypernel_mbm::Mbm;
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

/// Derives the coverage map of one finished run from the final system
/// state and the run's own step/violation/fault-log records. Reads only
/// model-visible counters — never the host-only fast-path statistics —
/// so the result is identical with fast paths on or off.
pub fn coverage_of_run(
    sys: &System,
    scenario: &Scenario,
    steps: &[StepRecord],
    violations: &[Violation],
    fault_log: &[FaultHit],
) -> CoverageMap {
    let mut cov = CoverageMap::new();

    let machine = sys.machine().stats();
    cov.record_n("machine/trap/hypercall", machine.hypercalls);
    cov.record_n("machine/trap/sysreg", machine.sysreg_traps);
    cov.record_n("machine/trap/stage2-fault", machine.stage2_faults);
    cov.record_n("machine/trap/el1-abort", machine.el1_aborts);
    cov.record_n("machine/irq/delivered", machine.irqs_delivered);
    let tlb = sys.machine().tlb().stats();
    cov.record_n("machine/tlb/hit", tlb.hits);
    cov.record_n("machine/tlb/miss", tlb.misses);
    cov.record_n("machine/tlb/eviction", tlb.evictions);
    cov.record_n("machine/tlb/flush", tlb.flushes);
    for hit in fault_log {
        cov.record(format!("machine/fault-site/{}", hit.kind.name()));
    }

    if let Some(mbm) = sys.machine().bus().snooper::<Mbm>() {
        let s = mbm.stats();
        cov.record_n("mbm/stage/snooped", s.bus_writes_seen);
        cov.record_n("mbm/stage/captured", s.captured);
        cov.record_n("mbm/stage/translated", s.bitmap_lookups);
        cov.record_n("mbm/stage/matched", s.events_matched);
        cov.record_n("mbm/stage/irq-raised", s.irqs_raised);
        cov.record_n("mbm/capture/matched", s.events_matched);
        cov.record_n(
            "mbm/capture/unmatched",
            s.captured.saturating_sub(s.events_matched),
        );
        cov.record_n("mbm/edge/fifo-overflow", s.fifo_dropped);
        cov.record_n("mbm/edge/ring-overflow", s.ring_overflows);
        cov.record_n("mbm/edge/secure-alarm", s.secure_alarms);
        cov.record_n("mbm/edge/lookup-divergence", s.lookup_divergences);
        cov.record(format!(
            "mbm/fifo-occupancy/{}",
            mbm.fifo_occupancy_bucket()
        ));
    }

    if let Some(hypersec) = sys.hypersec() {
        let s = hypersec.stats();
        cov.record_n("hypersec/verdict/pt-write-allowed", s.pt_writes);
        cov.record_n("hypersec/verdict/pt-write-denied", s.pt_denials);
        cov.record_n("hypersec/verdict/table-registered", s.tables_registered);
        cov.record_n("hypersec/verdict/sysreg-allowed", s.sysreg_allowed);
        cov.record_n("hypersec/verdict/sysreg-denied", s.sysreg_denied);
        cov.record_n("hypersec/verdict/event-dispatched", s.events_dispatched);
        cov.record_n("hypersec/verdict/stray-event", s.stray_events);
        cov.record_n("hypersec/verdict/detection", s.detections);
        cov.record_n("hypersec/verdict/emulated-write", s.emulated_writes);
        for (code, n) in hypersec.rule_hits() {
            cov.record_n(format!("hypersec/rule/{}", codes::name(code)), n);
        }
    }

    let kernel = sys.kernel().stats();
    for (family, n) in kernel.syscall_families() {
        cov.record_n(format!("kernel/syscall/{family}"), n);
    }
    cov.record_n("kernel/event/context-switch", kernel.context_switches);
    cov.record_n("kernel/event/page-fault", kernel.page_faults);
    cov.record_n("kernel/event/file-create", kernel.files_created);
    cov.record_n("kernel/irq-service/forwarded", kernel.irqs_forwarded);
    cov.record_n("kernel/irq-service/emulated-write", kernel.emulated_writes);
    cov.record_n(
        "kernel/irq-service/monitor-registration",
        kernel.monitor_registrations,
    );

    let compose = sys.kernel().compose_stats();
    cov.record_n("compose/domain/server", compose.server_domains);
    cov.record_n("compose/domain/client", compose.client_domains);
    cov.record_n("compose/domain/task", compose.domain_tasks);
    cov.record_n("compose/channel/created", compose.channels_created);
    cov.record_n("compose/channel/message", compose.channel_messages);
    cov.record_n("compose/region/mapped", compose.regions_mapped);
    cov.record_n("compose/region/protected", compose.protected_regions);
    cov.record_n("compose/region/shared-mapping", compose.shared_mappings);
    cov.record_n("compose/watch/derived-span", compose.watch_spans_derived);
    cov.record_n("compose/watch/merged-span", compose.watch_spans_merged);
    cov.record_n("compose/watch/batched-call", compose.watch_calls_issued);

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
/// sorted. The atlas embeds this list so uncovered features can be
/// computed from the artifact alone.
pub fn known_features() -> Vec<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    for k in ["hypercall", "sysreg", "stage2-fault", "el1-abort"] {
        out.insert(format!("machine/trap/{k}"));
    }
    out.insert("machine/irq/delivered".to_string());
    for k in ["hit", "miss", "eviction", "flush"] {
        out.insert(format!("machine/tlb/{k}"));
    }
    for kind in FaultKind::ALL {
        out.insert(format!("machine/fault-site/{}", kind.name()));
    }
    for k in ["snooped", "captured", "translated", "matched", "irq-raised"] {
        out.insert(format!("mbm/stage/{k}"));
    }
    for k in ["matched", "unmatched"] {
        out.insert(format!("mbm/capture/{k}"));
    }
    for k in [
        "fifo-overflow",
        "ring-overflow",
        "secure-alarm",
        "lookup-divergence",
    ] {
        out.insert(format!("mbm/edge/{k}"));
    }
    for k in ["empty", "low", "high", "full"] {
        out.insert(format!("mbm/fifo-occupancy/{k}"));
    }
    for rule in codes::METADATA {
        out.insert(format!("hypersec/rule/{}", rule.name));
    }
    for k in [
        "pt-write-allowed",
        "pt-write-denied",
        "table-registered",
        "sysreg-allowed",
        "sysreg-denied",
        "event-dispatched",
        "stray-event",
        "detection",
        "emulated-write",
    ] {
        out.insert(format!("hypersec/verdict/{k}"));
    }
    for k in ["fork", "exec", "exit", "other"] {
        out.insert(format!("kernel/syscall/{k}"));
    }
    for k in ["context-switch", "page-fault", "file-create"] {
        out.insert(format!("kernel/event/{k}"));
    }
    for k in ["forwarded", "emulated-write", "monitor-registration"] {
        out.insert(format!("kernel/irq-service/{k}"));
    }
    for k in ["server", "client", "task"] {
        out.insert(format!("compose/domain/{k}"));
    }
    for k in ["created", "message"] {
        out.insert(format!("compose/channel/{k}"));
    }
    for k in ["mapped", "protected", "shared-mapping"] {
        out.insert(format!("compose/region/{k}"));
    }
    for k in ["derived-span", "merged-span", "batched-call"] {
        out.insert(format!("compose/watch/{k}"));
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
}
