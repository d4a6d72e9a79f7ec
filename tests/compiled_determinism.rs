//! Determinism properties of the line runs of block accesses (the
//! tests keep the names of the access-plan layer the runs replaced):
//! every run artifact — the `campaign.jsonl` record, the
//! `metrics.jsonl` windows and the coverage map — must be a pure
//! function of `(scenario, seed)`, byte-identical whether block
//! accesses stream cache-line runs or take a per-word access for every
//! word, and whether the system is forked from a warm template or
//! booted afresh.
//!
//! The comparison uses the per-machine toggle
//! (`Machine::set_compiled_enabled`); the CI determinism gate turns
//! line runs off across processes with `HYPERNEL_NO_FASTPATH=1`, with
//! every other fast path.

use std::path::Path;

use hypernel::Mode;
use hypernel_campaign::coverage::CoverageMap;
use hypernel_campaign::engine::{boot_system, run_one, run_one_on};
use hypernel_campaign::record::RunRecord;
use hypernel_campaign::scenario::{MetricsSpec, Scenario, StepExpect};
use hypernel_kernel::AttackStep;
use hypernel_mbm::Mbm;
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new("compiled-det", Mode::Hypernel)
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

/// The three artifacts a campaign run emits, captured as the exact
/// bytes the sweep writer would produce.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Line runs on vs off: identical campaign.jsonl, metrics.jsonl
    /// and coverage.
    #[test]
    fn compiled_plans_never_leak_into_artifacts(seed in 0u64..64) {
        let s = scenario();
        let compiled = run_one(&s, seed).expect("compiled run");
        let mut sys = boot_system(&s).expect("boot");
        {
            let (_, machine, _) = sys.parts();
            machine.set_compiled_enabled(false);
        }
        let (reference, _) = run_one_on(sys, &s, seed).expect("reference run");
        let (c_campaign, c_metrics, c_cov) = artifacts(&compiled);
        let (r_campaign, r_metrics, r_cov) = artifacts(&reference);
        prop_assert_eq!(c_campaign, r_campaign);
        prop_assert_eq!(c_metrics, r_metrics);
        prop_assert_eq!(c_cov, r_cov);
    }

    /// All host fast paths off at once (L0 micro-TLB, block-access
    /// streaming and its line runs, MBM watch-page filter) against the
    /// all-on default.
    #[test]
    fn all_fastpaths_off_matches_all_on(seed in 0u64..64) {
        let s = scenario();
        let fast = run_one(&s, seed).expect("fast run");
        let mut sys = boot_system(&s).expect("boot");
        {
            let (_, machine, _) = sys.parts();
            machine.tlb_mut().set_l0_enabled(false);
            machine.set_block_fastpath(false);
            machine.set_compiled_enabled(false);
            if let Some(mbm) = machine.bus_mut().snooper_mut::<Mbm>() {
                mbm.set_filter_enabled(false);
            }
        }
        let (slow, _) = run_one_on(sys, &s, seed).expect("slow run");
        let (f_campaign, f_metrics, f_cov) = artifacts(&fast);
        let (s_campaign, s_metrics, s_cov) = artifacts(&slow);
        prop_assert_eq!(f_campaign, s_campaign);
        prop_assert_eq!(f_metrics, s_metrics);
        prop_assert_eq!(f_cov, s_cov);
    }

    /// The crossed legs: a fork inheriting the template's warm cache
    /// and TLB (line runs on) against a fresh boot that never streams a
    /// line run.
    #[test]
    fn warm_forked_plans_match_cold_referenced_boot(seed in 0u64..64) {
        let s = scenario();
        let template = boot_system(&s).expect("template boot");
        let (warm, _) = run_one_on(template.fork(), &s, seed).expect("warm forked run");
        let mut cold = boot_system(&s).expect("fresh boot");
        {
            let (_, machine, _) = cold.parts();
            machine.set_compiled_enabled(false);
        }
        let (reference, _) = run_one_on(cold, &s, seed).expect("reference run");
        let (w_campaign, w_metrics, w_cov) = artifacts(&warm);
        let (r_campaign, r_metrics, r_cov) = artifacts(&reference);
        prop_assert_eq!(w_campaign, r_campaign);
        prop_assert_eq!(w_metrics, r_metrics);
        prop_assert_eq!(w_cov, r_cov);
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
            let mut sys = boot_system(&scenario).expect("boot");
            {
                let (_, machine, _) = sys.parts();
                machine.set_compiled_enabled(false);
            }
            let (reference, _) = run_one_on(sys, &scenario, seed).expect("reference run");
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
