//! Determinism properties of the windowed metrics artifact: for any
//! seed, `metrics.jsonl` must be a pure function of `(scenario, seed)`
//! — byte-identical whether the system is freshly booted or forked from
//! a warm template, whether the host fast paths (L0 micro-TLB,
//! block-access streaming and its line runs, MBM watch-page filter) are
//! on or off, and at any `--jobs` count.
//!
//! The fast-path comparison uses the per-structure toggles
//! (`Tlb::set_l0_enabled`, `Machine::set_block_fastpath`,
//! `Machine::set_compiled_enabled`, `Mbm::set_filter_enabled`) because
//! the process-wide `HYPERNEL_NO_FASTPATH` switch is latched once per
//! process; the CI determinism gate repeats the same comparison across
//! processes with the environment variable.

use hypernel::Mode;
use hypernel_campaign::engine::{boot_system, run_one, run_one_on};
use hypernel_campaign::scenario::{MetricsSpec, Scenario, StepExpect};
use hypernel_campaign::sweep::{run_sweep, SweepConfig};
use hypernel_kernel::AttackStep;
use hypernel_mbm::Mbm;
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new("metrics-det", Mode::Hypernel)
        .background(2)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
        .metrics(MetricsSpec {
            window_cycles: 10_000,
            series: None,
        })
}

fn metrics_bytes(record: &hypernel_campaign::record::RunRecord) -> String {
    record
        .metrics
        .as_ref()
        .expect("campaign runs always record metrics")
        .to_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fork_and_fresh_boot_emit_identical_metrics(seed in 0u64..64) {
        let s = scenario();
        let fresh = run_one(&s, seed).expect("fresh run");
        let template = boot_system(&s).expect("template boot");
        let (forked, _) = run_one_on(template.fork(), &s, seed).expect("forked run");
        prop_assert_eq!(metrics_bytes(&fresh), metrics_bytes(&forked));
        prop_assert_eq!(fresh.to_json().to_string(), forked.to_json().to_string());
    }

    /// Every host fast path off (L0 micro-TLB, block-access streaming
    /// and its line runs, MBM watch-page filter) against the all-on
    /// default.
    #[test]
    fn host_fastpaths_never_leak_into_metrics(seed in 0u64..64) {
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
        prop_assert_eq!(metrics_bytes(&fast), metrics_bytes(&slow));
        prop_assert_eq!(fast.to_json().to_string(), slow.to_json().to_string());
    }
}

#[test]
fn jobs_count_does_not_change_the_metrics() {
    let scenarios = vec![scenario()];
    let serial = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 1 });
    let threaded = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 4 });
    assert!(serial.failures.is_empty() && threaded.failures.is_empty());
    let a: Vec<String> = serial.records.iter().map(metrics_bytes).collect();
    let b: Vec<String> = threaded.records.iter().map(metrics_bytes).collect();
    assert_eq!(a, b, "parallelism must not leak into metrics.jsonl");
}
