//! Integration tests for the static whole-system auditor, its
//! differential cross-check against Hypersec's incremental verifier,
//! and the ownership sanitizer's zero-cost-when-off contract
//! (docs/AUDIT.md).
//!
//! The load-bearing properties:
//!
//! - for *any* attack primitive and seed under Hypernel, the static and
//!   incremental audits agree (proptest);
//! - a deliberately miswired verifier (W⊕X check disabled) is caught by
//!   the differential — the static pass sees the mapping the
//!   incremental pass no longer checks;
//! - a `desync-bitmap` hardware fault is caught by the audit oracle
//!   (bitmap lookup divergences) even when every other oracle has an
//!   excuse;
//! - under Native, attack footprints surface as the expected static
//!   findings (`linear-identity`, `rogue-root`, `wx-mapping`);
//! - enabling the sanitizer changes no simulated result;
//! - the report and every finding are pinned byte for byte over the
//!   corpus, every primitive in every mode and the miswired verifier.

use std::path::PathBuf;

use hypernel::Mode;
use hypernel_audit::chain_display;
use hypernel_campaign::engine::{boot_system, run_one, run_one_full};
use hypernel_campaign::scenario::{Scenario, StepExpect};
use hypernel_kernel::AttackStep;
use hypernel_machine::FaultSpec;
use proptest::prelude::*;

fn arb_attack() -> impl Strategy<Value = AttackStep> {
    prop_oneof![
        Just(AttackStep::CredEscalation { pid: 1 }),
        any::<u16>().prop_map(|inode| AttackStep::DentryHijack {
            path: "/bin/sh".to_string(),
            rogue_inode: 0xE00 + u64::from(inode % 256),
        }),
        Just(AttackStep::MapSecureRegion { pid: 1 }),
        any::<u16>().prop_map(|v| AttackStep::PtDirectWrite {
            pid: 1,
            value: u64::from(v),
        }),
        Just(AttackStep::TtbrRedirect),
        Just(AttackStep::CodeInjection),
        Just(AttackStep::TextPatch),
        Just(AttackStep::AtraCred { pid: 1 }),
        Just(AttackStep::AtraDentry {
            path: "/bin/sh".to_string()
        }),
        Just(AttackStep::DoubleMapCred { pid: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any primitive and interleaving, the static auditor and the
    /// incremental verifier reach the same verdict — the differential
    /// never fires on a correctly-wired system.
    #[test]
    fn static_and_incremental_audits_always_agree(
        step in arb_attack(),
        seed in any::<u64>(),
        background in any::<u64>(),
    ) {
        let s = Scenario::new("prop-audit", Mode::Hypernel)
            .background(background % 5)
            .step(step, StepExpect::Any);
        let record = run_one(&s, seed).expect("run");
        let audit = record.audit.expect("every run carries an audit record");
        prop_assert_eq!(
            audit.differential_agrees,
            Some(true),
            "disagreement (seed {}): {:?}",
            seed,
            record.violations
        );
        prop_assert_eq!(audit.findings, 0, "static findings under Hypernel: {:?}", record.violations);
        prop_assert!(audit.tables > 0 && audit.leaves > 0, "the walk must cover the graph");
        prop_assert!(record.passed, "unexpected violations: {:?}", record.violations);
    }
}

/// A desynced watch bitmap blinds the decision unit: the detection gap
/// is excused by the declared fault (`masked`), the W⊕X/incremental
/// audits are clean — only the audit oracle, watching the MBM's
/// lookup-divergence counter, reports the run as genuinely broken.
#[test]
fn desync_bitmap_fault_is_caught_only_by_the_audit_oracle() {
    let scenario = Scenario::new("unit-desync", Mode::Hypernel)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
        .fault(FaultSpec::desync_bitmap(1, u64::MAX));
    let record = run_one(&scenario, 3).expect("run");
    let mbm = record.mbm.expect("hypernel runs have MBM stats");
    assert!(
        mbm.lookup_divergences > 0,
        "the fault must actually desync a lookup"
    );
    let unexpected: Vec<_> = record.violations.iter().filter(|v| !v.expected).collect();
    assert!(
        !unexpected.is_empty() && unexpected.iter().all(|v| v.oracle == "audit"),
        "only the audit oracle may flag the desync as unexpected: {:?}",
        record.violations
    );
    assert!(
        unexpected.iter().any(|v| v.detail.contains("desync")),
        "the violation must name the desync: {unexpected:?}"
    );
    assert!(!record.passed);
}

/// The differential's reason to exist: disable the incremental
/// verifier's W⊕X check (a seeded verifier bug) and the injected
/// writable+executable mapping sails through every runtime check — but
/// the static pass, which re-derives the invariant from the raw tables,
/// sees it, and the disagreement convicts the verifier.
#[test]
fn miswired_verifier_is_convicted_by_the_differential() {
    let scenario = miswired_scenario();
    let mut sys = boot_system(&scenario).expect("boot");
    sys.hypersec_mut()
        .expect("hypernel mode has hypersec")
        .testonly_disable_wx_check();
    let (record, _, mut sys) = run_one_full(sys, &scenario, 1).expect("run");

    assert!(
        !record.steps[0].blocked,
        "with the check disabled the injection must land"
    );
    let audit = record.audit.expect("audit record");
    assert_eq!(
        audit.differential_agrees,
        Some(false),
        "the static pass must disagree with the blinded verifier"
    );
    assert!(audit.findings > 0);
    assert!(
        record
            .violations
            .iter()
            .any(|v| v.oracle == "audit" && !v.expected && v.detail.contains("disagreement")),
        "the disagreement must be an unexpected violation: {:?}",
        record.violations
    );
    assert!(!record.passed);

    // The report itself names the missed invariant, with a descriptor
    // chain proving where it lives.
    let report = sys.audit_static();
    assert!(report
        .findings
        .iter()
        .any(|f| f.check == hypernel_audit::CheckKind::WxMapping));
    let diff = report.differential.expect("locked system runs it");
    assert!(!diff.agrees());
    assert!(diff.static_findings > diff.incremental_violations.len() as u64);
}

/// Under Native the attacks land by design, and the static auditor
/// names each footprint with the right invariant.
#[test]
fn native_attack_footprints_surface_as_expected_findings() {
    let cases = [
        (AttackStep::DoubleMapCred { pid: 1 }, "linear-identity"),
        (AttackStep::TtbrRedirect, "rogue-root"),
        (AttackStep::CodeInjection, "wx-mapping"),
    ];
    for (step, check) in cases {
        let name = step.name().to_string();
        let scenario =
            Scenario::new("unit-native-audit", Mode::Native).step(step, StepExpect::Undetected);
        let record = run_one(&scenario, 1).expect("run");
        let audit_violations: Vec<_> = record
            .violations
            .iter()
            .filter(|v| v.oracle == "audit")
            .collect();
        assert!(
            audit_violations.iter().any(|v| v.detail.contains(check)),
            "{name}: expected a `{check}` finding, got {audit_violations:?}"
        );
        assert!(
            audit_violations.iter().all(|v| v.expected),
            "{name}: native footprint findings are declared/expected"
        );
        assert!(record.passed, "{name}: {:?}", record.violations);
    }
}

/// The sanitizer is contractually free when enabled on a clean system
/// and *zero-cost* in simulated terms either way: the same (scenario,
/// seed) produces byte-identical records and identical cycle counts
/// with and without it.
#[test]
fn sanitizer_costs_zero_simulated_cycles_and_changes_no_result() {
    let scenario = Scenario::new("unit-sanitizer-cost", Mode::Hypernel)
        .background(3)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected);

    let plain = boot_system(&scenario).expect("boot");
    let mut tagged = boot_system(&scenario).expect("boot");
    tagged.enable_sanitizer();
    assert!(tagged.sanitizer_enabled());

    let (record_plain, _, sys_plain) = run_one_full(plain, &scenario, 9).expect("run");
    let (record_tagged, _, mut sys_tagged) = run_one_full(tagged, &scenario, 9).expect("run");

    assert_eq!(
        sys_plain.cycles(),
        sys_tagged.cycles(),
        "zero simulated cost"
    );
    assert_eq!(
        record_plain.to_json().to_string(),
        record_tagged.to_json().to_string(),
        "byte-identical run record"
    );

    // And the tagged run really was checking: the report carries the
    // sanitizer counters, with nothing denied on a healthy system.
    let report = sys_tagged.audit_static();
    let sanitizer = report.sanitizer.as_ref().expect("enabled");
    assert!(sanitizer.stats.checked > 0, "stores were checked");
    assert_eq!(sanitizer.stats.denied, 0);
    assert!(report.is_clean(), "{report:?}");
}

/// What [`audit_reports_and_findings_are_pinned_byte_for_byte`] must
/// see: runs audited, findings reported and the digest of both.
const PIN_RUNS: u64 = 57;
const PIN_FINDINGS: u64 = 21;
const PIN_DIGEST: u64 = 0xe61e_c44f_9edd_ac19;

/// The code-injection run with the incremental W⊕X check disabled.
fn miswired_scenario() -> Scenario {
    Scenario::new("unit-miswired", Mode::Hypernel).step(AttackStep::CodeInjection, StepExpect::Any)
}

/// Every observable of the static audit, pinned byte for byte: the
/// report JSON and each finding's check, detail and descriptor chain,
/// after every corpus scenario at seed 1, every non-compose primitive
/// in every mode and the miswired verifier. Runs the engine refuses
/// (`ttbr-redirect` under KVM faults on some seeds) are skipped; at
/// seed 1 there are none. The expected values were
/// produced by the per-leaf walker that preceded the run-based one, so
/// the walk's representation can change but its output cannot.
#[test]
fn audit_reports_and_findings_are_pinned_byte_for_byte() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut cases: Vec<(Scenario, bool)> = hypernel_campaign::load_corpus(&corpus)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|s| (s, false))
        .collect();
    for mode in Mode::ALL {
        for step in AttackStep::defaults() {
            let compose = matches!(
                step,
                AttackStep::CrossDomainCredTheft { .. }
                    | AttackStep::SharedRegionToctou { .. }
                    | AttackStep::ChannelSpoof { .. }
            );
            if !compose {
                cases.push((
                    Scenario::new("pin-audit", mode).step(step, StepExpect::Any),
                    false,
                ));
            }
        }
    }
    cases.push((miswired_scenario(), true));

    // FNV-1a over every string, each followed by a separator byte.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |text: &str| {
        for byte in text.bytes().chain([0xFF]) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let (mut runs, mut findings) = (0u64, 0u64);
    for (scenario, miswired) in &cases {
        let mut sys = boot_system(scenario).expect("boot");
        if *miswired {
            sys.hypersec_mut()
                .expect("hypernel mode has hypersec")
                .testonly_disable_wx_check();
        }
        let Ok((_, _, mut sys)) = run_one_full(sys, scenario, 1) else {
            continue;
        };
        let report = sys.audit_static();
        feed(&report.to_json().to_string());
        for finding in &report.findings {
            feed(finding.check.name());
            feed(&finding.detail);
            feed(&chain_display(&finding.chain));
        }
        runs += 1;
        findings += report.findings.len() as u64;
    }
    println!("pinned audit: {runs} runs, {findings} findings, digest {digest:#018x}");
    assert_eq!(
        (runs, findings, digest),
        (PIN_RUNS, PIN_FINDINGS, PIN_DIGEST),
        "the audit output changed"
    );
}

/// Under Native nothing stops a page-table write from pointing a table
/// entry past the end of DRAM (here at 4 GiB, twice the DRAM size).
/// The walker reports it as a `malformed` finding instead of reading
/// outside DRAM.
#[test]
fn table_pointer_outside_dram_is_a_malformed_finding() {
    let scenario = Scenario::from_toml(
        r#"
name = "pt-pointer-outside-dram"
mode = "native"

[[step]]
kind = "pt-direct-write"
pid = 1
value = 0x100000003
expect = "any"
"#,
    )
    .expect("load");
    let record = run_one(&scenario, 1).expect("run");
    let malformed: Vec<_> = record
        .violations
        .iter()
        .filter(|v| v.oracle == "audit" && v.detail.starts_with("[malformed]"))
        .collect();
    assert_eq!(malformed.len(), 1, "{:?}", record.violations);
    assert!(
        malformed[0].detail.contains("outside DRAM") && malformed[0].detail.contains("0x100000000"),
        "{malformed:?}"
    );
    assert!(malformed[0].expected, "native footprints are expected");
    assert!(record.passed, "{:?}", record.violations);
}
