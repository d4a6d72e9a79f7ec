//! Static reachability analysis toolkit for Hypernel scenario corpora.
//!
//! The analysis core lives in [`hypernel_campaign::staticheck`] (the
//! campaign crate's linter and explore loop consume it directly); this
//! crate re-exports it and adds the corpus-level drivers the
//! `hypernel-staticheck` CLI and the CI soundness gate use:
//!
//! - [`load_corpus`] — the campaign crate's name-sorted `*.toml`
//!   corpus loader, re-exported;
//! - [`predict_corpus_jobs`] — whole-corpus prediction sharded over a
//!   thread pool, with output independent of the job count (shards are
//!   merged back in name order; the analysis itself is pure);
//! - [`soundness_sweep`] — the differential gate: run every scenario
//!   across all three modes and many seeds, and report every
//!   dynamically observed contract key the static prediction did not
//!   allow. Any [`Breach`] is an analyzer soundness bug — or, for the
//!   deliberately-impossible protection-invariant keys, a real
//!   protection bug. Both must fail CI loudly.

#![forbid(unsafe_code)]

use hypernel::Mode;
use hypernel_campaign::engine::run_one;
use hypernel_campaign::explore::with_mode;
use hypernel_campaign::scenario::Scenario;

pub use hypernel_campaign::load_corpus;
pub use hypernel_campaign::staticheck::{
    contract_key, impossible_expectations, predict_corpus, predict_scenario, prediction_universe,
    ranked_targets, reachable_rules, soundness_excess, static_coverage_json, step_for_rule,
    step_vocabulary, testonly_miswire, AbstractState, Finding, Prediction, StepPrediction,
    STATIC_KIND, STATIC_SCHEMA, WRITER_KERNEL,
};

/// The three protection modes the soundness gate sweeps.
pub const SOUNDNESS_MODES: [Mode; 3] = Mode::ALL;

/// Re-targets `base` at `mode`: the scenario itself when the mode
/// already matches, otherwise the same expectation-rewriting remode the
/// explore loop uses (so the gate never manufactures expectations the
/// dynamic oracles would reject by construction).
pub fn remode(base: &Scenario, mode: Mode) -> Scenario {
    if base.mode == mode {
        base.clone()
    } else {
        with_mode(base, mode)
    }
}

/// Whole-corpus prediction sharded over `jobs` threads. The prediction
/// of one scenario is a pure function, so the shard boundaries cannot
/// change the result; shards are merged back in corpus name order and
/// the output is byte-identical at any job count.
pub fn predict_corpus_jobs(corpus: &[Scenario], jobs: usize) -> Vec<Prediction> {
    let jobs = jobs.max(1);
    if jobs == 1 || corpus.len() <= 1 {
        return predict_corpus(corpus);
    }
    let mut sorted: Vec<&Scenario> = corpus.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let chunk = sorted.len().div_ceil(jobs);
    let mut out: Vec<Prediction> = Vec::with_capacity(sorted.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sorted
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .iter()
                        .map(|s| predict_scenario(s))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("prediction shard panicked"));
        }
    });
    out
}

/// One soundness-contract breach: a dynamically observed contract key
/// the static prediction did not allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// Scenario name (after remoding — the name is unchanged).
    pub scenario: String,
    /// Mode the run executed under.
    pub mode: Mode,
    /// Seed of the breaching run.
    pub seed: u64,
    /// The contract keys outside the prediction.
    pub excess: Vec<String>,
}

/// The outcome of one differential soundness sweep.
#[derive(Debug, Clone, Default)]
pub struct SoundnessReport {
    /// Runs whose dynamic coverage escaped the static prediction.
    pub breaches: Vec<Breach>,
    /// `(scenario, mode, seed, error)` runs the engine could not
    /// execute at all (a re-moded scenario can be non-executable —
    /// e.g. a TTBR redirect that the baseline never refuses leaves the
    /// machine faulting). No coverage exists, so no soundness claim is
    /// made; reported so a gate log shows exactly what was exercised.
    pub skipped: Vec<(String, Mode, u64, String)>,
    /// Total runs attempted.
    pub runs: u64,
}

/// Runs the differential soundness gate: every corpus scenario ×
/// [`SOUNDNESS_MODES`] × seeds `0..seeds`, checking that the dynamic
/// contract-namespace coverage of each run is ⊆ the static prediction
/// of the (re-moded) scenario. An empty `breaches` is a green gate.
pub fn soundness_sweep(corpus: &[Scenario], seeds: u64) -> SoundnessReport {
    let mut report = SoundnessReport::default();
    for base in corpus {
        for mode in SOUNDNESS_MODES {
            let scenario = remode(base, mode);
            let prediction = predict_scenario(&scenario);
            for seed in 0..seeds {
                report.runs += 1;
                let record = match run_one(&scenario, seed) {
                    Ok(record) => record,
                    Err(e) => {
                        report
                            .skipped
                            .push((scenario.name.clone(), mode, seed, e.to_string()));
                        continue;
                    }
                };
                let Some(coverage) = record.coverage else {
                    report.skipped.push((
                        scenario.name.clone(),
                        mode,
                        seed,
                        "run carried no coverage map".to_string(),
                    ));
                    continue;
                };
                let excess = soundness_excess(&prediction, &coverage);
                if !excess.is_empty() {
                    report.breaches.push(Breach {
                        scenario: scenario.name.clone(),
                        mode,
                        seed,
                        excess,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn corpus_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
    }

    #[test]
    fn the_shipped_corpus_loads_and_predicts() {
        let corpus = load_corpus(&corpus_dir()).expect("corpus loads");
        assert!(corpus.len() >= 17, "corpus shrank to {}", corpus.len());
        let predictions = predict_corpus(&corpus);
        assert_eq!(predictions.len(), corpus.len());
        // Name-sorted, and every prediction is non-trivial.
        for pair in predictions.windows(2) {
            assert!(pair[0].scenario < pair[1].scenario);
        }
        for p in &predictions {
            assert!(!p.possible.is_empty(), "`{}` predicts nothing", p.scenario);
        }
    }

    #[test]
    fn job_count_does_not_change_the_artifact() {
        let corpus = load_corpus(&corpus_dir()).expect("corpus loads");
        let one = static_coverage_json(&predict_corpus_jobs(&corpus, 1)).to_string();
        for jobs in [2, 3, 8, 64] {
            let many = static_coverage_json(&predict_corpus_jobs(&corpus, jobs)).to_string();
            assert_eq!(one, many, "--jobs {jobs} changed the artifact bytes");
        }
    }

    #[test]
    fn remode_is_identity_on_matching_mode() {
        let corpus = load_corpus(&corpus_dir()).expect("corpus loads");
        for base in &corpus {
            assert_eq!(remode(base, base.mode), *base);
        }
    }
}
