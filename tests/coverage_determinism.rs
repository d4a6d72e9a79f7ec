//! Determinism properties of the coverage atlas: a run's
//! [`CoverageMap`] must be a pure function of `(scenario, seed)` —
//! identical whether the system is freshly booted or forked from a warm
//! template, whether the host fast paths (L0 micro-TLB, block-access
//! streaming and its line runs, MBM watch-page filter) are on or off,
//! and (after the sweep merge) byte-identical at any `--jobs` count.
//!
//! The fast-path comparison uses the per-structure toggles
//! (`Tlb::set_l0_enabled`, `Machine::set_block_fastpath`,
//! `Machine::set_compiled_enabled`, `Mbm::set_filter_enabled`) because
//! the process-wide `HYPERNEL_NO_FASTPATH` switch is latched once per
//! process; the CI coverage gate repeats the same comparison across
//! processes with the environment variable.

use hypernel::Mode;
use hypernel_campaign::coverage::{atlas_json, CoverageMap};
use hypernel_campaign::engine::{boot_system, run_one, run_one_on};
use hypernel_campaign::scenario::{Scenario, StepExpect};
use hypernel_campaign::sweep::{run_sweep, SweepConfig, SweepOutcome};
use hypernel_kernel::AttackStep;
use hypernel_mbm::Mbm;
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new("coverage-det", Mode::Hypernel)
        .background(2)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
        .step(
            AttackStep::DentryHijack {
                path: "/bin/sh".to_string(),
                rogue_inode: 0xBAD,
            },
            StepExpect::Detected,
        )
}

fn coverage_of(record: &hypernel_campaign::record::RunRecord) -> &CoverageMap {
    record
        .coverage
        .as_ref()
        .expect("campaign runs always record coverage")
}

fn merged_atlas(outcome: &SweepOutcome) -> String {
    let mut merged = CoverageMap::new();
    for record in &outcome.records {
        merged.merge(coverage_of(record));
    }
    format!("{}\n", atlas_json(&merged, outcome.records.len() as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fork_and_fresh_boot_cover_identically(seed in 0u64..64) {
        let s = scenario();
        let fresh = run_one(&s, seed).expect("fresh run");
        let template = boot_system(&s).expect("template boot");
        let (forked, _) = run_one_on(template.fork(), &s, seed).expect("forked run");
        prop_assert_eq!(coverage_of(&fresh), coverage_of(&forked));
    }

    /// Every host fast path off (L0 micro-TLB, block-access streaming
    /// and its line runs, MBM watch-page filter) against the all-on
    /// default.
    #[test]
    fn host_fastpaths_never_leak_into_coverage(seed in 0u64..64) {
        let s = scenario();
        let fast = run_one(&s, seed).expect("fast-path run");
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
        let (slow, _) = run_one_on(sys, &s, seed).expect("slow-path run");
        prop_assert_eq!(coverage_of(&fast), coverage_of(&slow));
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
}
