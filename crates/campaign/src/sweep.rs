//! Parallel multi-seed sweeps.
//!
//! A campaign is the cross product `scenarios × seeds`. Each worker
//! thread owns its own simulated `System` (the machine is `!Send` —
//! nothing is shared but the work queue), pulls `(scenario, seed)`
//! pairs from a shared injector queue, and reports records over an
//! mpsc channel. The collector sorts by `(scenario index, seed)`, so
//! the output is independent of scheduling — the same campaign at
//! `--jobs 1` and `--jobs 8` produces byte-identical artifacts.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use hypernel::System;
use hypernel_machine::fastpath_enabled;

use crate::engine::{self, EngineError};
use crate::record::RunRecord;
use crate::scenario::Scenario;

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Seeds per scenario (`0..seeds`).
    pub seeds: u64,
    /// Worker threads.
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { seeds: 16, jobs: 1 }
    }
}

/// One failed run: which pair, and why the engine refused it.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Scenario name.
    pub scenario: String,
    /// Seed of the failing run.
    pub seed: u64,
    /// The engine error.
    pub error: EngineError,
}

/// All records (sorted by `(scenario, seed)`) plus any engine failures.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Successful run records, in deterministic order.
    pub records: Vec<RunRecord>,
    /// Runs the engine could not execute at all.
    pub failures: Vec<SweepFailure>,
}

impl SweepOutcome {
    /// `true` when every run executed and every violation was declared.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.records.iter().all(|r| r.passed)
    }
}

/// One arrival, handed to the progress callback of
/// [`run_sweep_with`] as workers finish runs. Arrivals come in
/// completion order — scheduling-dependent by nature — which is why
/// the callback only *observes*: the artifact is still assembled from
/// the deterministic sort afterwards.
#[derive(Debug)]
pub struct SweepProgress<'a> {
    /// Runs finished so far, including this one.
    pub done: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Scenario of the finished run.
    pub scenario: &'a str,
    /// Seed of the finished run.
    pub seed: u64,
    /// The finished run's result.
    pub result: &'a Result<RunRecord, EngineError>,
}

type WorkItem = (usize, u64);
type WorkResult = (usize, u64, Result<RunRecord, EngineError>);

fn worker(
    scenarios: &[Scenario],
    queue: &Mutex<VecDeque<WorkItem>>,
    tx: &mpsc::Sender<WorkResult>,
) {
    // Warm-boot cache: booting a scenario's system is seed-independent
    // (see `engine::boot_system`), so each worker boots a template once
    // per scenario and forks a copy per seed. Forks are observationally
    // identical to fresh boots, so the records — and the campaign
    // artifact — are byte-identical with the cache on or off
    // (`HYPERNEL_NO_FASTPATH=1` disables it for the determinism gate).
    let mut templates: HashMap<usize, System> = HashMap::new();
    loop {
        let item = queue.lock().expect("queue poisoned").pop_front();
        let Some((scenario_idx, seed)) = item else {
            break;
        };
        let scenario = &scenarios[scenario_idx];
        let result = if fastpath_enabled() {
            use std::collections::hash_map::Entry;
            match templates.entry(scenario_idx) {
                Entry::Occupied(e) => Ok(&*e.into_mut()),
                Entry::Vacant(v) => engine::boot_system(scenario).map(|sys| &*v.insert(sys)),
            }
            .and_then(|t| engine::run_one_on(t.fork(), scenario, seed).map(|(record, _)| record))
        } else {
            engine::run_one(scenario, seed)
        };
        if tx.send((scenario_idx, seed, result)).is_err() {
            break;
        }
    }
}

/// Runs the full `scenarios × seeds` cross product on `config.jobs`
/// worker threads and returns the deterministic, sorted outcome.
pub fn run_sweep(scenarios: &[Scenario], config: SweepConfig) -> SweepOutcome {
    run_sweep_with(scenarios, config, |_| {})
}

/// [`run_sweep`] with a live progress callback, invoked on the
/// collector thread once per finished run (in completion order). The
/// callback feeds `hypernel campaign run --watch`; it cannot perturb
/// the artifact, which is sorted afterwards regardless.
pub fn run_sweep_with(
    scenarios: &[Scenario],
    config: SweepConfig,
    mut on_progress: impl FnMut(&SweepProgress<'_>),
) -> SweepOutcome {
    let jobs = config.jobs.max(1);
    let mut work: VecDeque<WorkItem> = VecDeque::new();
    for (scenario_idx, _) in scenarios.iter().enumerate() {
        for seed in 0..config.seeds {
            work.push_back((scenario_idx, seed));
        }
    }
    let total = work.len();
    let queue = Arc::new(Mutex::new(work));
    let (tx, rx) = mpsc::channel::<WorkResult>();

    let mut results: Vec<WorkResult> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            scope.spawn(move || worker(scenarios, &queue, &tx));
        }
        drop(tx);
        while let Ok(result) = rx.recv() {
            let (scenario_idx, seed, run) = &result;
            on_progress(&SweepProgress {
                done: results.len() + 1,
                total,
                scenario: &scenarios[*scenario_idx].name,
                seed: *seed,
                result: run,
            });
            results.push(result);
        }
    });

    // Scheduling decided arrival order; the artifact must not show it.
    results.sort_by_key(|(scenario_idx, seed, _)| (*scenario_idx, *seed));
    let mut outcome = SweepOutcome {
        records: Vec::with_capacity(results.len()),
        failures: Vec::new(),
    };
    for (scenario_idx, seed, result) in results {
        match result {
            Ok(record) => outcome.records.push(record),
            Err(error) => outcome.failures.push(SweepFailure {
                scenario: scenarios[scenario_idx].name.clone(),
                seed,
                error,
            }),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StepExpect;
    use hypernel::Mode;
    use hypernel_kernel::AttackStep;

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new("sweep-cred", Mode::Hypernel)
                .background(1)
                .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected),
            Scenario::new("sweep-native", Mode::Native).step(
                AttackStep::CredEscalation { pid: 1 },
                StepExpect::Undetected,
            ),
        ]
    }

    #[test]
    fn sweep_is_sorted_and_complete() {
        let outcome = run_sweep(&scenarios(), SweepConfig { seeds: 3, jobs: 2 });
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.records.len(), 6);
        let keys: Vec<(String, u64)> = outcome
            .records
            .iter()
            .map(|r| (r.scenario.clone(), r.seed))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        // scenario order in the input is alphabetical here, so sorted
        // keys coincide with (scenario_idx, seed) order.
        assert_eq!(keys, sorted);
        assert!(outcome.all_passed());
    }

    #[test]
    fn jobs_count_does_not_change_the_artifact() {
        let scenarios = scenarios();
        let serial = run_sweep(&scenarios, SweepConfig { seeds: 2, jobs: 1 });
        let threaded = run_sweep(&scenarios, SweepConfig { seeds: 2, jobs: 4 });
        let a: Vec<String> = serial
            .records
            .iter()
            .map(|r| r.to_json().to_string())
            .collect();
        let b: Vec<String> = threaded
            .records
            .iter()
            .map(|r| r.to_json().to_string())
            .collect();
        assert_eq!(a, b, "parallelism must not leak into records");
    }

    #[test]
    fn warm_boot_cache_does_not_change_the_artifact() {
        // Same campaign with the per-worker template cache exercised
        // hard (one worker, many seeds per scenario) must serialize
        // identically to an independent in-process reference built run
        // by run — the exact comparison the CI determinism gate repeats
        // across processes with HYPERNEL_NO_FASTPATH=1.
        let scenarios = scenarios();
        let swept = run_sweep(&scenarios, SweepConfig { seeds: 3, jobs: 1 });
        let mut reference = Vec::new();
        for scenario in &scenarios {
            for seed in 0..3 {
                reference.push(
                    crate::engine::run_one(scenario, seed)
                        .expect("runs")
                        .to_json()
                        .to_string(),
                );
            }
        }
        let swept: Vec<String> = swept
            .records
            .iter()
            .map(|r| r.to_json().to_string())
            .collect();
        assert_eq!(swept, reference);
    }

    #[test]
    fn engine_failures_are_reported_not_dropped() {
        let bad = vec![Scenario::new("sweep-bad", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 999 }, StepExpect::Any)];
        let outcome = run_sweep(&bad, SweepConfig { seeds: 2, jobs: 1 });
        assert_eq!(outcome.failures.len(), 2);
        assert!(!outcome.all_passed());
    }
}
