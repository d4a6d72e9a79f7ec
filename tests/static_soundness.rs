//! The static-analyzer soundness contract, enforced differentially:
//! for every corpus scenario, every protection mode and many seeds, the
//! dynamically observed contract-namespace coverage keys
//! (`hypersec/rule/*`, `oracle/*`, `kernel/attack/*`) must be a subset
//! of what the abstract interpreter predicted *without executing
//! anything*. Excess keys mean the analyzer under-approximated — a
//! soundness bug (or, for the deliberately-impossible
//! protection-invariant keys like `oracle/wx/*`, a real protection
//! bug). Either way the gate must go red, which the miswired negative
//! control proves it can.
//!
//! The artifact side: `static-coverage.json` must be a pure function of
//! the corpus — byte-identical at any `--jobs` shard count and
//! indifferent to the dynamic engine's `HYPERNEL_NO_FASTPATH` switch
//! (the analyzer never executes, so execution-path toggles cannot reach
//! it; checked through the `hypernel staticheck` CLI, one process per
//! setting).

use std::path::Path;

use hypernel::Mode;
use hypernel_campaign::engine::run_one;
use hypernel_campaign::load_corpus;
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::staticheck::{
    predict_corpus_jobs, predict_scenario, reachable_rules, remode, soundness_excess,
    soundness_sweep, static_coverage_json, step_for_rule, testonly_miswire,
};
use proptest::prelude::*;

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");

fn corpus() -> Vec<Scenario> {
    load_corpus(Path::new(CORPUS)).expect("shipped corpus loads")
}

/// The full differential gate: corpus x 3 modes x 8 seeds. One test,
/// not a proptest, because the space is finite and we want all of it.
#[test]
fn every_corpus_run_stays_inside_the_static_prediction() {
    let corpus = corpus();
    let report = soundness_sweep(&corpus, 8);
    assert!(
        report.breaches.is_empty(),
        "dynamic coverage escaped the static prediction: {:?}",
        report.breaches
    );
    // The sweep must actually have exercised the matrix (a few re-moded
    // runs are legitimately non-executable and skipped).
    assert_eq!(report.runs, corpus.len() as u64 * 3 * 8);
    assert!(
        report.skipped.len() < report.runs as usize / 10,
        "too many skipped runs to trust the gate: {:?}",
        report.skipped
    );
}

/// Negative control: a deliberately miswired prediction (every rule
/// key dropped) must turn the gate red for a scenario that fires a
/// rule. A gate that stays green here tests nothing.
#[test]
fn the_miswired_prediction_fails_the_gate() {
    let corpus = corpus();
    let base = corpus
        .iter()
        .find(|s| s.name == "wxorx")
        .expect("the wxorx scenario ships in the corpus");
    let broken = testonly_miswire(&predict_scenario(base));
    let record = run_one(base, 0).expect("runs");
    let coverage = record.coverage.expect("runs record coverage");
    let excess = soundness_excess(&broken.possible, &coverage);
    assert!(
        excess.iter().any(|k| k == "hypersec/rule/wxorx"),
        "the miswired prediction must expose the dropped rule key, got {excess:?}"
    );
}

/// The artifact is a pure function of the corpus: byte-identical at
/// any shard count.
#[test]
fn static_coverage_artifact_is_deterministic() {
    let corpus = corpus();
    let reference = static_coverage_json(&predict_corpus_jobs(&corpus, 1)).to_string();
    for jobs in [2, 5, 16] {
        assert_eq!(
            reference,
            static_coverage_json(&predict_corpus_jobs(&corpus, jobs)).to_string(),
            "--jobs {jobs} changed the artifact"
        );
    }
}

/// Execution-path toggles: the analyzer never executes anything, so
/// the artifact cannot depend on them. The engine reads the switch
/// once per process, so each setting needs a process of its own: the
/// CLI must print the in-process artifact with and without it.
#[test]
fn static_coverage_artifact_ignores_the_engine_toggles() {
    let reference = static_coverage_json(&predict_corpus_jobs(&corpus(), 4)).to_string();
    for set in [false, true] {
        let mut cli = std::process::Command::new(env!("CARGO_BIN_EXE_hypernel"));
        cli.args(["staticheck", "corpus", "--jobs", "4", "--corpus", CORPUS]);
        cli.env_remove("HYPERNEL_NO_FASTPATH");
        if set {
            cli.env("HYPERNEL_NO_FASTPATH", "1");
        }
        let out = cli.output().expect("runs");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, format!("{reference}\n"), "toggles set: {set}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (scenario, mode, seed) samples beyond the exhaustive
    /// 8-seed matrix: soundness holds for any seed, not just small
    /// ones.
    #[test]
    fn random_seeds_stay_inside_the_prediction(
        index in 0usize..17,
        mode_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let base = &corpus[index % corpus.len()];
        let scenario = remode(base, Mode::ALL[mode_index]);
        let prediction = predict_scenario(&scenario);
        // Re-moded scenarios can be legitimately non-executable; only
        // executed runs make soundness claims.
        if let Ok(record) = run_one(&scenario, seed) {
            let coverage = record.coverage.expect("runs record coverage");
            let excess = soundness_excess(&prediction.possible, &coverage);
            prop_assert!(
                excess.is_empty(),
                "`{}` under {:?} seed {seed}: {excess:?}",
                scenario.name,
                Mode::ALL[mode_index],
            );
        }
    }

    /// The per-mode reachability frontier is itself sound: a run can
    /// only fire rules the frontier declares reachable for its mode.
    #[test]
    fn fired_rules_stay_inside_the_reachable_frontier(
        index in 0usize..17,
        mode_index in 0usize..3,
        seed in 0u64..64,
    ) {
        let corpus = corpus();
        let base = &corpus[index % corpus.len()];
        let mode = Mode::ALL[mode_index];
        let scenario = remode(base, mode);
        let frontier: Vec<String> = reachable_rules(mode)
            .into_iter()
            .map(|r| format!("hypersec/rule/{r}"))
            .collect();
        if let Ok(record) = run_one(&scenario, seed) {
            let coverage = record.coverage.expect("runs record coverage");
            for (key, _) in coverage.iter() {
                if key.starts_with("hypersec/rule/") {
                    prop_assert!(
                        frontier.contains(&key.to_string()),
                        "`{}` under {mode:?} fired {key} outside the frontier",
                        scenario.name,
                    );
                }
            }
        }
    }
}

/// Pins the exact Hypernel targets story the steering loop relies on:
/// 9 reachable rules, and the shipped baseline covers 6 of them.
#[test]
fn hypernel_reachability_matches_the_model() {
    let reachable = reachable_rules(Mode::Hypernel);
    assert_eq!(reachable.len(), 9, "{reachable:?}");
    assert!(reachable_rules(Mode::Native).is_empty());
    assert!(reachable_rules(Mode::KvmGuest).is_empty());
    for rule in ["unknown-hypercall", "frozen-sysreg", "not-a-table"] {
        assert!(reachable.contains(rule), "probe-reachable `{rule}` missing");
        assert!(step_for_rule(rule).is_some());
    }
}
