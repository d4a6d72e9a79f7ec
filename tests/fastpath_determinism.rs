//! Determinism properties of every run artifact — the `campaign.jsonl`
//! record, the `metrics.jsonl` windows and the coverage map: each must
//! be a pure function of `(scenario, seed)`, byte-identical whether the
//! host fast paths are on or off, whether block accesses stream
//! cache-line runs or take a per-word access for every word (those
//! tests keep the names of the access-plan layer the runs replaced),
//! whether the system is forked from a warm template or booted afresh,
//! and (after the sweep merge) at any `--jobs` count.
//!
//! The fast-path comparisons use the per-structure toggles
//! (`Tlb::set_l0_enabled`, `Machine::set_block_fastpath`,
//! `Machine::set_compiled_enabled`, `Mbm::set_filter_enabled`) because
//! the process-wide `HYPERNEL_NO_FASTPATH` switch is latched once per
//! process; the CI determinism gate repeats the comparison across
//! processes with the environment variable.
//!
//! These legs never run the MBM's watch-word filter: every campaign run
//! carries the flight recorder, and the filter stands down while the
//! machine lends the MBM a telemetry recorder. The filter is compared on and off where it runs,
//! in `crates/mbm/tests/properties.rs` and `tests/monitoring.rs`.

use std::path::Path;

use hypernel::{Mode, System};
use hypernel_campaign::coverage::{atlas_json, CoverageMap};
use hypernel_campaign::engine::{boot_system, run_one, run_one_on};
use hypernel_campaign::record::RunRecord;
use hypernel_campaign::scenario::{MetricsSpec, Scenario, StepExpect};
use hypernel_campaign::sweep::{run_sweep, SweepConfig, SweepOutcome};
use hypernel_kernel::AttackStep;
use hypernel_mbm::Mbm;
use proptest::prelude::*;

/// Two detected attacks over background load, with a metrics window:
/// every step and artifact the properties below compare.
fn scenario() -> Scenario {
    Scenario::new("fastpath-det", Mode::Hypernel)
        .background(2)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
        .step(
            AttackStep::DentryHijack {
                path: "/bin/sh".to_string(),
                rogue_inode: 0xBAD,
            },
            StepExpect::Detected,
        )
        .metrics(MetricsSpec {
            window_cycles: 10_000,
            series: None,
        })
}

/// The three artifacts a campaign run emits — `campaign.jsonl`,
/// `metrics.jsonl` and the coverage map — captured as the exact bytes
/// the sweep writer would produce.
fn artifacts(record: &RunRecord) -> (String, String, &CoverageMap) {
    let campaign = format!("{}\n", record.to_json());
    let metrics = record
        .metrics
        .as_ref()
        .expect("scenario declares metrics")
        .to_jsonl();
    let coverage = record.coverage.as_ref().expect("runs record coverage");
    (campaign, metrics, coverage)
}

/// Boots the scenario's system with block accesses taking a per-word
/// access for every word, never a line run.
fn boot_without_line_runs(s: &Scenario) -> System {
    let mut sys = boot_system(s).expect("boot");
    sys.parts().1.set_compiled_enabled(false);
    sys
}

/// Boots the scenario's system with every host fast path off: the L0
/// micro-TLB, block-access streaming and its line runs, and the MBM's
/// watch-word filter.
fn boot_without_fastpaths(s: &Scenario) -> System {
    let mut sys = boot_without_line_runs(s);
    {
        let (_, machine, _) = sys.parts();
        machine.tlb_mut().set_l0_enabled(false);
        machine.set_block_fastpath(false);
        if let Some(mbm) = machine.bus_mut().snooper_mut::<Mbm>() {
            mbm.set_filter_enabled(false);
        }
    }
    sys
}

fn merged_atlas(outcome: &SweepOutcome) -> String {
    let mut merged = CoverageMap::new();
    for record in &outcome.records {
        merged.merge(artifacts(record).2);
    }
    format!("{}\n", atlas_json(&merged, outcome.records.len() as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Line runs on vs off: identical campaign.jsonl, metrics.jsonl
    /// and coverage.
    #[test]
    fn compiled_plans_never_leak_into_artifacts(seed in 0u64..64) {
        let s = scenario();
        let compiled = run_one(&s, seed).expect("compiled run");
        let (reference, _) =
            run_one_on(boot_without_line_runs(&s), &s, seed).expect("reference run");
        let (c_campaign, c_metrics, c_cov) = artifacts(&compiled);
        let (r_campaign, r_metrics, r_cov) = artifacts(&reference);
        prop_assert_eq!(c_campaign, r_campaign);
        prop_assert_eq!(c_metrics, r_metrics);
        prop_assert_eq!(c_cov, r_cov);
    }

    /// Every host fast path off against the all-on default: identical
    /// campaign.jsonl, metrics.jsonl and coverage.
    #[test]
    fn all_fastpaths_off_matches_all_on(seed in 0u64..64) {
        let s = scenario();
        let fast = run_one(&s, seed).expect("fast run");
        let (slow, _) = run_one_on(boot_without_fastpaths(&s), &s, seed).expect("slow run");
        let (f_campaign, f_metrics, f_cov) = artifacts(&fast);
        let (s_campaign, s_metrics, s_cov) = artifacts(&slow);
        prop_assert_eq!(f_campaign, s_campaign);
        prop_assert_eq!(f_metrics, s_metrics);
        prop_assert_eq!(f_cov, s_cov);
    }

    /// The crossed legs: a fork inheriting the template's warm cache
    /// and TLB (line runs on) against a fresh boot that never streams a
    /// line run: identical campaign.jsonl, metrics.jsonl and coverage.
    #[test]
    fn warm_forked_plans_match_cold_referenced_boot(seed in 0u64..64) {
        let s = scenario();
        let template = boot_system(&s).expect("template boot");
        let (warm, _) = run_one_on(template.fork(), &s, seed).expect("warm forked run");
        let (reference, _) =
            run_one_on(boot_without_line_runs(&s), &s, seed).expect("reference run");
        let (w_campaign, w_metrics, w_cov) = artifacts(&warm);
        let (r_campaign, r_metrics, r_cov) = artifacts(&reference);
        prop_assert_eq!(w_campaign, r_campaign);
        prop_assert_eq!(w_metrics, r_metrics);
        prop_assert_eq!(w_cov, r_cov);
    }

    /// A fork of a warm template against a fresh boot: identical
    /// campaign.jsonl, metrics.jsonl and coverage.
    #[test]
    fn fork_and_fresh_boot_emit_identical_metrics(seed in 0u64..64) {
        let s = scenario();
        let fresh = run_one(&s, seed).expect("fresh run");
        let template = boot_system(&s).expect("template boot");
        let (forked, _) = run_one_on(template.fork(), &s, seed).expect("forked run");
        let (f_campaign, f_metrics, f_cov) = artifacts(&fresh);
        let (k_campaign, k_metrics, k_cov) = artifacts(&forked);
        prop_assert_eq!(f_campaign, k_campaign);
        prop_assert_eq!(f_metrics, k_metrics);
        prop_assert_eq!(f_cov, k_cov);
    }
}

/// Every compose scenario shipped in the corpus, by file stem —
/// mirrors `tests/compose.rs`, here exercised against the line-run
/// toggle (composed systems register watch sets at boot, which turns
/// pages non-cacheable under running block accesses).
const COMPOSE_CORPUS: &[&str] = &[
    "compose-cred-theft",
    "compose-cross-kvm",
    "compose-cross-native",
    "compose-spoof",
    "compose-toctou",
];

#[test]
fn compose_scenarios_survive_compiled_off() {
    for stem in COMPOSE_CORPUS {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../corpus/{stem}.toml"));
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let scenario = Scenario::from_toml(&source).expect("corpus loads");
        for seed in 0..4u64 {
            let compiled = run_one(&scenario, seed).expect("compiled run");
            let (reference, _) = run_one_on(boot_without_line_runs(&scenario), &scenario, seed)
                .expect("reference run");
            assert_eq!(
                format!("{}\n", compiled.to_json()),
                format!("{}\n", reference.to_json()),
                "{stem} seed {seed}: line runs leaked into the record"
            );
            assert_eq!(
                compiled.coverage, reference.coverage,
                "{stem} seed {seed}: line runs leaked into coverage"
            );
        }
    }
}

#[test]
fn jobs_count_does_not_change_the_atlas() {
    let scenarios = vec![scenario()];
    let serial = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 1 });
    let threaded = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 4 });
    assert!(serial.failures.is_empty() && threaded.failures.is_empty());
    assert_eq!(
        merged_atlas(&serial),
        merged_atlas(&threaded),
        "parallelism must not leak into coverage.json"
    );
    let metrics = |outcome: &SweepOutcome| -> Vec<String> {
        outcome.records.iter().map(|r| artifacts(r).1).collect()
    };
    assert_eq!(
        metrics(&serial),
        metrics(&threaded),
        "parallelism must not leak into metrics.jsonl"
    );
}
