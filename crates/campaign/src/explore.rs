//! Coverage-guided scenario exploration: the loop the atlas exists for.
//!
//! `explore` sweeps the corpus to learn which
//! `tuple/<outcome>/<fault>/<oracle>/<mode>` coverage keys the existing
//! scenarios already reach, then derives deterministic mutants — mode
//! flips, adjacent step swaps, fault-kind substitutions and additions,
//! MBM pressure knobs — and keeps only mutants that (a) run clean on
//! every probe seed, (b) cover at least one tuple the corpus never
//! reached, and (c) serialize to a lint-clean TOML. Survivors come back
//! as ready-to-commit scenario sources (`hypernel campaign explore`
//! writes them to `--out`).
//!
//! There is no randomness anywhere: mutants are generated in a fixed
//! order from a name-sorted corpus, so the same corpus always yields
//! the same discoveries.

use std::collections::BTreeSet;
use std::fmt;

use hypernel::Mode;
use hypernel_kernel::kernel::MonitorMode;
use hypernel_machine::{FaultKind, FaultSpec};

use crate::coverage::tuple_keys;
use crate::engine::run_one;
use crate::lint::lint_source;
use crate::record::RunRecord;
use crate::scenario::{Scenario, StepExpect, StepSpec};
use crate::staticheck::{ranked_targets, step_for_rule};
use crate::sweep::{run_sweep, SweepConfig};

/// How an exploration pass is steered toward unfired protection rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Steering {
    /// Coverage-tuple novelty only (the historical behavior).
    Off,
    /// Chase every statically-reachable `hypersec/rule/*` key the
    /// baseline sweep did not fire, ranked by
    /// [`ranked_targets`].
    Auto,
    /// Chase exactly these `hypersec/rule/*` coverage keys.
    Keys(Vec<String>),
}

/// Knobs of one exploration pass.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Probe seeds per candidate (`0..seeds`); the baseline corpus
    /// sweep uses the same count.
    pub seeds: u64,
    /// Worker threads for the baseline sweep.
    pub jobs: usize,
    /// Stop after emitting this many novel scenarios.
    pub max_emit: usize,
    /// Rule-key steering derived from the static analyzer.
    pub steering: Steering,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            seeds: 2,
            jobs: 1,
            max_emit: 4,
            steering: Steering::Off,
        }
    }
}

/// One discovered scenario: a mutant that reached tuples the corpus
/// missed and lints clean.
#[derive(Debug, Clone)]
pub struct EmittedScenario {
    /// Mutant name (`<base>-x<id>` where `<id>` is a stable hash of
    /// the mutant's own TOML; also the suggested file stem). The id
    /// depends only on the mutant's content — never on its position in
    /// the mutation schedule — so re-running explore over a grown
    /// corpus renames nothing, and two distinct novel mutants of the
    /// same base scenario can never overwrite each other on disk.
    pub name: String,
    /// Ready-to-lint TOML source.
    pub toml: String,
    /// The tuple keys this mutant covers that the corpus did not.
    pub new_tuples: Vec<String>,
    /// The `hypersec/rule/*` keys this mutant fires that the corpus
    /// never did — the steering payoff.
    pub new_rules: Vec<String>,
}

/// Result of an exploration pass.
#[derive(Debug, Clone, Default)]
pub struct ExploreOutcome {
    /// Distinct tuple keys the baseline corpus covers.
    pub baseline_tuples: usize,
    /// Mutants generated and probed.
    pub candidates_tried: usize,
    /// Novel scenarios, in discovery order.
    pub emitted: Vec<EmittedScenario>,
}

/// Exploration failed outright (empty corpus).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreError {
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExploreError {}

/// Runs one exploration pass over `corpus`. Pure apart from CPU time:
/// writes nothing, returns the discoveries.
///
/// # Errors
///
/// Returns [`ExploreError`] when the corpus is empty — there is nothing
/// to mutate from.
pub fn explore(
    corpus: &[Scenario],
    config: &ExploreConfig,
) -> Result<ExploreOutcome, ExploreError> {
    if corpus.is_empty() {
        return Err(ExploreError {
            message: "explore needs a non-empty corpus to mutate from".to_string(),
        });
    }
    let mut bases: Vec<&Scenario> = corpus.iter().collect();
    bases.sort_by(|a, b| a.name.cmp(&b.name));

    // Baseline: which tuples does the corpus already reach?
    let baseline = run_sweep(
        corpus,
        SweepConfig {
            seeds: config.seeds,
            jobs: config.jobs,
        },
    );
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut fired_rules: BTreeSet<String> = BTreeSet::new();
    for record in &baseline.records {
        if let Some(cov) = &record.coverage {
            covered.extend(cov.tuples().map(str::to_string));
            fired_rules.extend(
                cov.iter()
                    .map(|(k, _)| k)
                    .filter(|k| k.starts_with("hypersec/rule/"))
                    .map(str::to_string),
            );
        }
    }
    let mut outcome = ExploreOutcome {
        baseline_tuples: covered.len(),
        ..ExploreOutcome::default()
    };
    // Rule keys join the novelty frontier: a mutant also counts as
    // novel when it fires a denial the corpus never fired.
    covered.extend(fired_rules.iter().cloned());

    // Steered candidates run before the generic schedule so the emit
    // cap cannot starve the analyzer's targets.
    let targets = match &config.steering {
        Steering::Off => Vec::new(),
        Steering::Auto => ranked_targets(&fired_rules),
        Steering::Keys(keys) => keys.clone(),
    };
    let mut candidates: Vec<(String, Scenario)> = Vec::new();
    for (base_name, mutant) in targeted_mutants(&bases, &targets, &fired_rules) {
        candidates.push((base_name, mutant));
    }
    for base in &bases {
        for mutant in mutants_of(base) {
            candidates.push((base.name.clone(), mutant));
        }
    }

    for (base_name, mutant) in candidates {
        if outcome.emitted.len() >= config.max_emit {
            break;
        }
        let mutant = named(mutant, &base_name);
        outcome.candidates_tried += 1;
        let Some((new_tuples, new_rules)) = probe(&mutant, config.seeds, &covered) else {
            continue;
        };
        let toml = mutant.to_toml();
        if !lint_source(Some(&mutant.name), &toml).is_empty() {
            continue;
        }
        // Count everything the survivor reaches as covered so the
        // next mutant must be novel *beyond* it.
        covered.extend(all_keys(&mutant, config.seeds));
        outcome.emitted.push(EmittedScenario {
            name: mutant.name.clone(),
            toml,
            new_tuples,
            new_rules,
        });
    }
    Ok(outcome)
}

/// One steered candidate per unfired target key: the first Hypernel
/// base (name order; any base re-moded if the corpus has none) with the
/// rule's canonical generator step appended, expecting `blocked` — the
/// analyzer guarantees every generator step is refused under Hypernel.
fn targeted_mutants(
    bases: &[&Scenario],
    targets: &[String],
    fired: &BTreeSet<String>,
) -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    let host = bases
        .iter()
        .find(|b| b.mode == Mode::Hypernel)
        .map(|b| (*b).clone())
        .or_else(|| bases.first().map(|b| with_mode(b, Mode::Hypernel)));
    let Some(host) = host else {
        return out;
    };
    for key in targets {
        if fired.contains(key) {
            continue;
        }
        let Some(rule) = key.strip_prefix("hypersec/rule/") else {
            continue;
        };
        let Some(step) = step_for_rule(rule) else {
            continue;
        };
        let mut m = host.clone();
        m.description = format!("explore: {} steered at rule `{rule}`", host.name);
        m.steps.push(StepSpec {
            step,
            expect: StepExpect::Blocked,
        });
        out.push((host.name.clone(), m));
    }
    out
}

/// Runs the candidate on every probe seed; returns the `(tuple, rule)`
/// keys it covers beyond `covered`, or `None` if any run fails (engine
/// error or undeclared oracle violation) or nothing new is reached.
fn probe(
    candidate: &Scenario,
    seeds: u64,
    covered: &BTreeSet<String>,
) -> Option<(Vec<String>, Vec<String>)> {
    let mut fresh: BTreeSet<String> = BTreeSet::new();
    for seed in 0..seeds {
        let record = run_one(candidate, seed).ok()?;
        if !record.passed {
            return None;
        }
        for key in record_keys(&record, candidate) {
            if !covered.contains(&key) {
                fresh.insert(key);
            }
        }
    }
    if fresh.is_empty() {
        return None;
    }
    let (rules, tuples): (Vec<String>, Vec<String>) = fresh
        .into_iter()
        .partition(|k| k.starts_with("hypersec/rule/"));
    Some((tuples, rules))
}

/// Every tuple and rule key the candidate reaches across the probe
/// seeds (runs it again; runs are deterministic so this matches
/// `probe`).
fn all_keys(candidate: &Scenario, seeds: u64) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for seed in 0..seeds {
        if let Ok(record) = run_one(candidate, seed) {
            out.extend(record_keys(&record, candidate));
        }
    }
    out
}

fn record_keys(record: &RunRecord, candidate: &Scenario) -> Vec<String> {
    match &record.coverage {
        Some(cov) => cov
            .tuples()
            .chain(
                cov.iter()
                    .map(|(k, _)| k)
                    .filter(|k| k.starts_with("hypersec/rule/")),
            )
            .map(str::to_string)
            .collect(),
        // Coverage is always derived by the engine; recompute from the
        // record if a caller stripped it (rule firings cannot be
        // reconstructed without it).
        None => tuple_keys(candidate, &record.steps, &record.violations),
    }
}

/// Names a mutant with a stable content-derived id: FNV-1a of the
/// mutant's serialized form (still carrying the base name, so equal
/// mutations of different bases differ). Schedule position never
/// enters the name — reordering or extending the mutation schedule
/// cannot rename an existing discovery or collide two of them.
fn named(mut mutant: Scenario, base: &str) -> Scenario {
    let id = hypernel_kernel::fnv1a(mutant.to_toml().as_bytes()) & 0xFFFF_FFFF;
    mutant.name = format!("{base}-x{id:08x}");
    mutant
}

/// The deterministic mutation schedule for one base scenario, in the
/// order they are probed: mode flips first (whole uncovered mode
/// columns), then step-order swaps, fault substitutions/additions, and
/// MBM pressure knobs.
fn mutants_of(base: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for mode in Mode::ALL {
        if mode != base.mode {
            out.push(with_mode(base, mode));
        }
    }
    for i in 0..base.steps.len().saturating_sub(1) {
        let mut m = base.clone();
        m.steps.swap(i, i + 1);
        m.description = format!("explore: swap steps {} and {} of {}", i, i + 1, base.name);
        out.push(m);
    }
    if base.faults.specs.is_empty() {
        for kind in FaultKind::ALL {
            let mut m = base.clone();
            m.faults = m.faults.with(FaultSpec::of_kind(kind, 1, u64::MAX));
            m.description = format!("explore: {} under a persistent {}", base.name, kind.name());
            out.push(m);
        }
    } else {
        for (i, spec) in base.faults.specs.iter().enumerate() {
            for kind in FaultKind::ALL {
                if kind == spec.kind {
                    continue;
                }
                let mut m = base.clone();
                m.faults.specs[i] = FaultSpec::of_kind(kind, spec.at, spec.count);
                m.description =
                    format!("explore: {} with fault {} as {}", base.name, i, kind.name());
                out.push(m);
            }
        }
    }
    if base.mode == Mode::Hypernel {
        let mut fifo = base.clone();
        fifo.fifo_capacity = Some(4);
        fifo.description = format!("explore: {} under FIFO pressure", base.name);
        out.push(fifo);
        let mut drain = base.clone();
        drain.drain_budget = Some(1);
        drain.description = format!("explore: {} under drain pressure", base.name);
        out.push(drain);
    }
    out
}

/// Re-targets a scenario at another mode, rewriting everything that is
/// mode-specific: baseline modes lose the hypernel-only knobs and any
/// detection expectations; a hypernel re-target drops expectations to
/// `any` (exploration will observe what actually happens). Public
/// because the static-soundness gate reuses the same remoding to sweep
/// every corpus scenario across all three modes.
pub fn with_mode(base: &Scenario, mode: Mode) -> Scenario {
    let mut m = base.clone();
    m.mode = mode;
    m.description = format!("explore: {} under {}", base.name, mode.key());
    if mode == Mode::Hypernel {
        for step in &mut m.steps {
            step.expect = StepExpect::Any;
        }
    } else {
        m.monitor = MonitorMode::SensitiveFields;
        m.latency_bound = None;
        m.fifo_capacity = None;
        m.drain_budget = None;
        for step in &mut m.steps {
            step.expect = match step.expect {
                StepExpect::Detected | StepExpect::Masked => StepExpect::Undetected,
                StepExpect::Blocked => StepExpect::Any,
                other => other,
            };
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_kernel::AttackStep;

    fn tiny_corpus() -> Vec<Scenario> {
        vec![
            Scenario::new("probe-hypernel", Mode::Hypernel)
                .background(2)
                .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected),
            Scenario::new("probe-drop", Mode::Hypernel)
                .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
                .fault(FaultSpec::drop_irq(1, u64::MAX)),
        ]
    }

    #[test]
    fn explore_discovers_lint_clean_novel_scenarios() {
        let corpus = tiny_corpus();
        let outcome = explore(&corpus, &ExploreConfig::default()).expect("explores");
        assert!(outcome.baseline_tuples > 0);
        assert!(
            !outcome.emitted.is_empty(),
            "tried {} candidates, none novel",
            outcome.candidates_tried
        );
        for e in &outcome.emitted {
            assert!(
                lint_source(Some(&e.name), &e.toml).is_empty(),
                "{} must lint clean",
                e.name
            );
            assert!(!e.new_tuples.is_empty());
            let parsed = Scenario::from_toml(&e.toml).expect("emitted TOML parses");
            assert_eq!(parsed.name, e.name);
        }
    }

    #[test]
    fn explore_is_deterministic() {
        let corpus = tiny_corpus();
        let config = ExploreConfig {
            max_emit: 2,
            ..ExploreConfig::default()
        };
        let a = explore(&corpus, &config).expect("explores");
        let b = explore(&corpus, &config).expect("explores");
        let names =
            |o: &ExploreOutcome| o.emitted.iter().map(|e| e.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.candidates_tried, b.candidates_tried);
        for (x, y) in a.emitted.iter().zip(b.emitted.iter()) {
            assert_eq!(x.toml, y.toml);
            assert_eq!(x.new_tuples, y.new_tuples);
        }
    }

    #[test]
    fn steering_emits_a_mutant_firing_an_unfired_rule() {
        // The tiny corpus only fires detections, never a denial — so
        // every probe-reachable rule is an unfired steering target.
        let corpus = tiny_corpus();
        let config = ExploreConfig {
            steering: Steering::Keys(vec!["hypersec/rule/frozen-sysreg".to_string()]),
            max_emit: 1,
            ..ExploreConfig::default()
        };
        let outcome = explore(&corpus, &config).expect("explores");
        let steered = &outcome.emitted[0];
        assert_eq!(
            steered.new_rules,
            vec!["hypersec/rule/frozen-sysreg".to_string()],
            "the first emission must be the steered mutant"
        );
        assert!(lint_source(Some(&steered.name), &steered.toml).is_empty());
        let parsed = Scenario::from_toml(&steered.toml).expect("parses");
        assert_eq!(parsed.steps.last().unwrap().step.name(), "sysreg-probe");
        assert_eq!(parsed.steps.last().unwrap().expect, StepExpect::Blocked);
    }

    #[test]
    fn explore_rejects_an_empty_corpus() {
        assert!(explore(&[], &ExploreConfig::default()).is_err());
    }

    #[test]
    fn mutant_names_are_stable_content_hashes() {
        let base = tiny_corpus().remove(1);
        let mutants = mutants_of(&base);
        assert!(mutants.len() > 2);
        let name_of = |m: &Scenario| named(m.clone(), &base.name).name;
        let names: Vec<String> = mutants.iter().map(name_of).collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "no two mutants share a name");
        // Position independence: the id survives schedule reordering,
        // so growing the mutation schedule can never rename or clobber
        // an earlier discovery.
        let mut reversed: Vec<String> = mutants.iter().rev().map(name_of).collect();
        reversed.reverse();
        assert_eq!(reversed, names);
        for name in &names {
            let suffix = name.rsplit("-x").next().expect("suffix");
            assert_eq!(suffix.len(), 8, "`{name}` must end in an 8-hex-digit id");
            assert!(suffix.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }
}
