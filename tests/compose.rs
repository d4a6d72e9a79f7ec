//! Compose subsystem integration: the shipped compose corpus
//! round-trips exactly through [`ComposeDoc::to_toml`], a declared
//! multi-domain system lowers to a running kernel with a
//! compiler-derived watch set (no hand-maintained watch lists), and the
//! composed-system artifacts are a pure function of `(scenario, seed)`
//! — byte-identical forked vs freshly booted, fast paths on or off, and
//! at any `--jobs` count.
//!
//! The fast-path comparison uses the per-structure toggles because the
//! process-wide `HYPERNEL_NO_FASTPATH` switch is latched once per
//! process; `just compose-smoke` repeats the comparison across
//! processes with the environment variable.

use std::path::Path;

use hypernel::Mode;
use hypernel_campaign::engine::{boot_system, run_one, run_one_on};
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::sweep::{run_sweep, SweepConfig, SweepOutcome};
use hypernel_compose::ComposeDoc;
use hypernel_mbm::Mbm;
use proptest::prelude::*;

/// Every compose scenario shipped in the corpus, by file stem.
const COMPOSE_CORPUS: &[&str] = &[
    "compose-cred-theft",
    "compose-cross-kvm",
    "compose-cross-native",
    "compose-spoof",
    "compose-toctou",
];

fn corpus_source(stem: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../corpus/{stem}.toml"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn corpus_compose_docs_round_trip_exactly() {
    for stem in COMPOSE_CORPUS {
        // The scenario loader owns the top-level keys and hands the
        // compose sections to `ComposeDoc::from_doc`.
        let doc = Scenario::from_toml(&corpus_source(stem))
            .unwrap_or_else(|e| panic!("{stem}: scenario loads: {e}"))
            .compose
            .unwrap_or_else(|| panic!("{stem}: declares compose sections"));
        let emitted = doc.to_toml();
        let reparsed = ComposeDoc::from_toml(&emitted)
            .unwrap_or_else(|e| panic!("{stem}: emitted TOML re-parses: {e}"));
        assert_eq!(doc, reparsed, "{stem}: to_toml must preserve the document");
        // Canonical emission is a fixpoint: emitting the reparse is
        // byte-identical to the first emission.
        assert_eq!(emitted, reparsed.to_toml(), "{stem}: to_toml is canonical");
        assert_eq!(doc.validate(), Vec::<String>::new(), "{stem}: valid");
    }
}

/// The acceptance shape: a description with >= 3 domains, >= 2
/// channels and >= 1 shared region lowers to a running system whose
/// watch set was derived by the compiler, not hand-listed.
#[test]
fn declared_system_lowers_with_a_derived_watch_set() {
    let source = corpus_source("compose-cred-theft");
    let scenario = Scenario::from_toml(&source).expect("scenario loads");
    let doc = scenario.compose.as_ref().expect("has a compose section");
    assert!(doc.domains.len() >= 3, "acceptance floor: 3 domains");
    assert!(doc.channels.len() >= 2, "acceptance floor: 2 channels");
    assert!(!doc.regions.is_empty(), "acceptance floor: 1 region");

    // The pure plan mirrors the declaration (+ the ArmWatch step).
    let plan = hypernel_compose::plan(doc);
    assert_eq!(
        plan.len(),
        doc.domains.len() + doc.channels.len() + doc.regions.len() + 1
    );

    let sys = boot_system(&scenario).expect("hypernel boot lowers the description");
    let stats = sys.kernel().compose_stats();
    assert!(stats.server_domains >= 1, "{stats:?}");
    assert_eq!(
        stats.server_domains + stats.client_domains,
        doc.domains.len() as u64
    );
    assert_eq!(stats.channels_created, doc.channels.len() as u64);
    assert!(stats.regions_mapped >= 1 && stats.protected_regions >= 1);
    assert!(stats.watch_spans_derived > 0, "compiler derived the spans");
    assert!(
        stats.watch_calls_issued > 0,
        "hypernel mode registers the derived spans: {stats:?}"
    );

    // Under native the identical lowering runs but arms nothing.
    let mut native = scenario.clone();
    native.mode = Mode::Native;
    let sys = boot_system(&native).expect("native boot lowers too");
    let stats = sys.kernel().compose_stats();
    assert!(stats.watch_spans_derived > 0, "derivation is mode-blind");
    assert_eq!(stats.watch_calls_issued, 0, "nothing consumes the spans");
}

fn compose_scenarios() -> Vec<Scenario> {
    COMPOSE_CORPUS
        .iter()
        .map(|stem| Scenario::from_toml(&corpus_source(stem)).expect("corpus loads"))
        .collect()
}

fn artifact(record: &hypernel_campaign::record::RunRecord) -> String {
    format!("{}\n", record.to_json())
}

fn artifacts(outcome: &SweepOutcome) -> String {
    outcome.records.iter().map(artifact).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn composed_artifacts_are_fork_vs_fresh_identical(seed in 0u64..64) {
        for scenario in &compose_scenarios() {
            let fresh = run_one(scenario, seed).expect("fresh run");
            prop_assert!(fresh.passed, "{}: declared verdicts hold", scenario.name);
            let template = boot_system(scenario).expect("template boot");
            let (forked, _) = run_one_on(template.fork(), scenario, seed).expect("forked run");
            prop_assert_eq!(artifact(&fresh), artifact(&forked), "{}", &scenario.name);
        }
    }

    /// Every host fast path off (L0 micro-TLB, block-access streaming
    /// and its line runs, MBM watch-word filter) against the all-on
    /// default. The filter stands down under the run's telemetry sink
    /// either way.
    #[test]
    fn composed_artifacts_survive_fastpath_off(seed in 0u64..64) {
        for scenario in &compose_scenarios() {
            let fast = run_one(scenario, seed).expect("fast-path run");
            let mut sys = boot_system(scenario).expect("boot");
            {
                let (_, machine, _) = sys.parts();
                machine.tlb_mut().set_l0_enabled(false);
                machine.set_block_fastpath(false);
                machine.set_compiled_enabled(false);
                if let Some(mbm) = machine.bus_mut().snooper_mut::<Mbm>() {
                    mbm.set_filter_enabled(false);
                }
            }
            let (slow, _) = run_one_on(sys, scenario, seed).expect("slow-path run");
            prop_assert_eq!(artifact(&fast), artifact(&slow), "{}", &scenario.name);
        }
    }
}

#[test]
fn jobs_count_does_not_change_composed_artifacts() {
    let scenarios = compose_scenarios();
    let serial = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 1 });
    let threaded = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 4 });
    assert!(serial.failures.is_empty() && threaded.failures.is_empty());
    assert_eq!(
        artifacts(&serial),
        artifacts(&threaded),
        "parallelism must not leak into campaign.jsonl"
    );
}
