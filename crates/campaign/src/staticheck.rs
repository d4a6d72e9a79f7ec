//! Static reachability analysis: abstract interpretation of scenarios
//! against the protection model, without executing anything.
//!
//! The paper's security argument is a *reachability* claim — every
//! kernel-integrity violation must cross a surface Hypersec or the MBM
//! monitors. This module makes that claim checkable before a single
//! simulated cycle runs:
//!
//! 1. [`AbstractState`] lowers a scenario's boot plan and `[compose]`
//!    section into a **writer-reachability lattice**: for each abstract
//!    writer (the EL1 kernel context, each composed domain) the
//!    over-approximated set of abstract physical surfaces it can write,
//!    including aliasing through shared regions and channel slots, plus
//!    the derived MBM watch set.
//! 2. [`predict_scenario`] abstractly interprets each attack step
//!    against that lattice and emits a [`Prediction`]: per coverage-key
//!    universe, which `hypersec/rule/*` denials, `oracle/*` firings and
//!    `kernel/attack/<step>/<outcome>` classes are *possible*.
//! 3. Statically detectable policy defects — watch-gap writable
//!    monitored words, secure-page aliases, spoofable channel headers —
//!    come back as lint-grade [`Finding`]s.
//!
//! **Soundness contract** (enforced differentially in CI): for every
//! `(scenario, seed, mode)` the dynamically observed keys in the
//! contract namespaces ([`contract_key`]) must be ⊆ the static
//! prediction. Any excess is an analyzer soundness bug — a hard
//! failure, checked by [`soundness_excess`]. Two key families are
//! deliberately predicted *impossible* under Hypernel — `oracle/wx/*`
//! and protection-invariant `oracle/audit/unexpected` firings without a
//! desync fault — so a dynamic firing trips the gate: there it flags a
//! real protection bug, which is exactly as loud as we want it.
//!
//! The inverse map [`step_for_rule`] turns statically-reachable-but-
//! never-fired rule keys into concrete attack steps, which
//! `explore` appends to corpus scenarios to steer mutation toward
//! unfired rules (see [`ranked_targets`]).

use std::collections::{BTreeMap, BTreeSet};

use hypernel::Mode;
use hypernel_hypersec::codes;
use hypernel_kernel::AttackStep;
use hypernel_machine::{fastpath_enabled, FaultKind};
use hypernel_telemetry::json::Json;

use crate::coverage::{known_features, CoverageMap};
use crate::engine::{boot_system, run_one, run_one_on};
use crate::explore::with_mode;
use crate::scenario::{Scenario, StepExpect};

/// Schema version stamped into `static-coverage.json`.
pub const STATIC_SCHEMA: u64 = 1;

/// `kind` tag of the static-coverage artifact.
pub const STATIC_KIND: &str = "hypernel-static-coverage";

/// Is this coverage key inside the soundness contract? The static
/// analyzer predicts rule denials, oracle firings and attack-outcome
/// classes; raw machine/MBM/compose event counters and the derived
/// tuple keys are execution detail it deliberately does not model.
pub fn contract_key(key: &str) -> bool {
    key.starts_with("hypersec/rule/")
        || key.starts_with("oracle/")
        || key.starts_with("kernel/attack/")
}

/// The contract-namespace slice of the coverage-key universe, sorted.
pub fn prediction_universe() -> Vec<String> {
    known_features()
        .into_iter()
        .filter(|k| contract_key(k))
        .collect()
}

// ---------------------------------------------------------------------
// Writer-reachability lattice
// ---------------------------------------------------------------------

/// Abstract interpretation of one scenario's boot + compose plan: who
/// can write what, and what the MBM watches. Surfaces are abstract
/// page classes, not concrete frames — the lattice answers "is there
/// *any* mapping through which this writer reaches this surface",
/// which over-approximates every concrete placement.
#[derive(Debug, Clone)]
pub struct AbstractState {
    /// Protection mode the lattice was built for.
    pub mode: Mode,
    /// writer → set of writable abstract surfaces.
    pub writable: BTreeMap<String, BTreeSet<String>>,
    /// Surfaces covered by the derived MBM watch set (empty outside
    /// Hypernel — nothing snoops the bus).
    pub watched: BTreeSet<String>,
    /// Statically detectable policy defects.
    pub findings: Vec<Finding>,
}

/// The kernel/rootkit writer key (compromised EL1 is the threat model).
pub const WRITER_KERNEL: &str = "el1/kernel";

/// One statically detectable policy defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Defect class: `watch-gap`, `spoofable-header`, `secure-alias`.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl AbstractState {
    /// Builds the lattice for a scenario: boot-time mappings by mode,
    /// plus the compose plan's regions, channels and derived watch set.
    pub fn of(scenario: &Scenario) -> Self {
        let hypernel = scenario.mode == Mode::Hypernel;
        let mut writable: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut watched: BTreeSet<String> = BTreeSet::new();
        let mut findings = Vec::new();

        let mut kernel: BTreeSet<String> = ["kernel-data", "monitored/cred", "monitored/dentry"]
            .into_iter()
            .map(str::to_string)
            .collect();
        if !hypernel {
            // Without the verifier the kernel writer reaches every
            // surface: table pages are plain writable memory, text can
            // be remapped writable, and nothing stops a forged mapping
            // of the secure region.
            kernel.extend(
                ["table-pages", "kernel-text", "secure-region"]
                    .into_iter()
                    .map(str::to_string),
            );
            findings.push(Finding {
                kind: "secure-alias",
                detail: format!(
                    "mode `{}`: the kernel linear map can alias the secure region \
                     (no verifier, no stage-2 isolation)",
                    scenario.mode.key()
                ),
            });
        } else {
            // Monitor hooks are armed at Hypernel boot: both monitor
            // policies watch at least the sensitive object words.
            watched.insert("monitored/cred".to_string());
            watched.insert("monitored/dentry".to_string());
        }

        if let Some(compose) = &scenario.compose {
            for region in &compose.regions {
                let surface = format!("compose-region/{}", region.name);
                kernel.insert(surface.clone());
                for domain in std::iter::once(&region.owner).chain(region.share.iter()) {
                    writable
                        .entry(format!("el1/domain/{domain}"))
                        .or_default()
                        .insert(surface.clone());
                }
                if hypernel && region.protect {
                    if compose.watch {
                        watched.insert(surface.clone());
                    } else {
                        findings.push(Finding {
                            kind: "watch-gap",
                            detail: format!(
                                "region `{}` is declared protected but `watch = false` \
                                 leaves its pages writable and unmonitored",
                                region.name
                            ),
                        });
                    }
                }
            }
            for channel in &compose.channels {
                let header = format!("channel-header/{}", channel.name);
                let data = format!("channel-data/{}", channel.name);
                // The spoof threat: any kernel-context writer can store
                // to the header word; only the watch set makes that
                // visible.
                kernel.insert(header.clone());
                kernel.insert(data.clone());
                writable
                    .entry(format!("el1/domain/{}", channel.from))
                    .or_default()
                    .insert(data.clone());
                if hypernel {
                    if compose.watch {
                        watched.insert(header.clone());
                    } else {
                        findings.push(Finding {
                            kind: "spoofable-header",
                            detail: format!(
                                "channel `{}` header is writable from EL1 and unwatched \
                                 (`watch = false`): senders can be spoofed silently",
                                channel.name
                            ),
                        });
                    }
                }
            }
        }

        writable.insert(WRITER_KERNEL.to_string(), kernel);
        AbstractState {
            mode: scenario.mode,
            writable,
            watched,
            findings,
        }
    }

    /// Can `writer` reach `surface` with a store?
    pub fn can_write(&self, writer: &str, surface: &str) -> bool {
        self.writable
            .get(writer)
            .is_some_and(|s| s.contains(surface))
    }

    /// Is `surface` covered by the derived watch set?
    pub fn is_watched(&self, surface: &str) -> bool {
        self.watched.contains(surface)
    }
}

// ---------------------------------------------------------------------
// Per-step transfer functions
// ---------------------------------------------------------------------

/// What the abstract interpreter concluded about one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPrediction {
    /// Step position in the scenario (0-based).
    pub index: usize,
    /// Step kind name.
    pub kind: String,
    /// Possible outcome classes (`blocked` / `detected` / `undetected`).
    pub outcomes: BTreeSet<&'static str>,
    /// `hypersec/rule/*` names the step can fire.
    pub rules: BTreeSet<&'static str>,
}

impl StepPrediction {
    /// Can the step complete (land its store / load)?
    pub fn can_succeed(&self) -> bool {
        self.outcomes.contains("detected") || self.outcomes.contains("undetected")
    }

    /// Can the step be refused?
    pub fn can_block(&self) -> bool {
        self.outcomes.contains("blocked")
    }
}

/// The monitored-object surface a step's declared span lives in, if the
/// step has one (mirrors `run_attack_step`'s `monitored` field).
fn monitored_surface(step: &AttackStep) -> Option<String> {
    Some(match step {
        AttackStep::CredEscalation { .. }
        | AttackStep::DoubleMapCred { .. }
        | AttackStep::CrossDomainCredTheft { .. } => "monitored/cred".to_string(),
        AttackStep::DentryHijack { .. } => "monitored/dentry".to_string(),
        AttackStep::SharedRegionToctou { region } => format!("compose-region/{region}"),
        AttackStep::ChannelSpoof { channel } => format!("channel-header/{channel}"),
        _ => return None,
    })
}

/// The rule names a step kind can fire under Hypernel. Empirically
/// pinned by the soundness gate: each entry mirrors exactly which
/// denial the verification surface raises for that operation.
fn hypernel_rules(step: &AttackStep) -> &'static [&'static str] {
    match step {
        AttackStep::MapSecureRegion { .. } => &["secure-mapping"],
        AttackStep::TtbrRedirect => &["rogue-root"],
        AttackStep::CodeInjection => &["wxorx"],
        AttackStep::TextPatch => &["bad-emulated-write", "text-immutable"],
        AttackStep::AtraCred { .. } | AttackStep::AtraDentry { .. } => &["linear-identity"],
        AttackStep::DoubleMapCred { .. } => &["linear-identity"],
        AttackStep::HypercallProbe { .. } => &["unknown-hypercall"],
        AttackStep::SysregProbe => &["frozen-sysreg"],
        AttackStep::PtForgeProbe => &["not-a-table"],
        _ => &[],
    }
}

/// Steps whose success leaves a structural trace the whole-system
/// static audit reports (forged mappings, rogue roots, W^X breaks,
/// non-identity linear leaves) — the source of *expected* `audit`
/// oracle firings in the unprotected baseline modes.
fn leaves_audit_findings(step: &AttackStep) -> bool {
    matches!(
        step,
        AttackStep::MapSecureRegion { .. }
            | AttackStep::PtDirectWrite { .. }
            | AttackStep::TtbrRedirect
            | AttackStep::CodeInjection
            | AttackStep::TextPatch
            | AttackStep::AtraCred { .. }
            | AttackStep::AtraDentry { .. }
            | AttackStep::DoubleMapCred { .. }
    )
}

/// Abstractly interprets one step against the lattice.
pub fn predict_step(state: &AbstractState, index: usize, step: &AttackStep) -> StepPrediction {
    let hypernel = state.mode == Mode::Hypernel;
    let mut outcomes: BTreeSet<&'static str> = BTreeSet::new();
    let mut rules: BTreeSet<&'static str> = BTreeSet::new();

    if hypernel {
        for rule in hypernel_rules(step) {
            rules.insert(rule);
        }
    }

    let blocked_under_hypernel =
        !hypernel_rules(step).is_empty() || matches!(step, AttackStep::PtDirectWrite { .. });
    if hypernel && blocked_under_hypernel {
        // Every verified surface denies the whole operation: the store
        // never lands (pt-direct-write dies on the read-only linear
        // mapping of table pages — an EL1 abort, no rule).
        outcomes.insert("blocked");
    } else if matches!(
        step,
        AttackStep::HypercallProbe { .. } | AttackStep::PtForgeProbe
    ) {
        // Probes that travel over the hypercall interface are refused
        // in every mode: Hypersec denies them at a verification
        // surface, NullHyp and KVM refuse the trap itself.
        outcomes.insert("blocked");
    } else {
        // The store lands. Detection needs a watched span.
        let watched = monitored_surface(step).is_some_and(|s| state.is_watched(&s));
        if watched {
            outcomes.insert("detected");
        }
        outcomes.insert("undetected");
    }

    StepPrediction {
        index,
        kind: step.name().to_string(),
        outcomes,
        rules,
    }
}

// ---------------------------------------------------------------------
// Whole-scenario prediction
// ---------------------------------------------------------------------

/// The static prediction for one `(scenario, mode)`: everything a
/// dynamic run of any seed may put into the contract namespaces.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Scenario name.
    pub scenario: String,
    /// Mode analyzed.
    pub mode: Mode,
    /// Per-step conclusions.
    pub steps: Vec<StepPrediction>,
    /// Every contract-namespace coverage key a run may produce.
    pub possible: BTreeSet<String>,
    /// Policy defects from the lattice.
    pub findings: Vec<Finding>,
}

/// Expectations that can *never* be met — each one guarantees an
/// oracle violation on every seed, so the corpus linter flags them.
pub fn impossible_expectations(scenario: &Scenario) -> Vec<(usize, String)> {
    let state = AbstractState::of(scenario);
    let hypernel = scenario.mode == Mode::Hypernel;
    let pressure = scenario.fifo_capacity.is_some()
        || scenario.drain_budget.is_some()
        || scenario
            .faults
            .specs
            .iter()
            .any(|f| f.kind == FaultKind::StallTranslator);
    let has_faults = !scenario.faults.specs.is_empty();
    let mut out = Vec::new();
    for (i, spec) in scenario.steps.iter().enumerate() {
        let pred = predict_step(&state, i, &spec.step);
        let kind = spec.step.name();
        match spec.expect {
            StepExpect::Blocked if !pred.can_block() => out.push((
                i,
                format!(
                    "expect `blocked` is statically impossible: `{kind}` always \
                     completes in `{}` mode (nothing refuses the store)",
                    scenario.mode.key()
                ),
            )),
            StepExpect::Detected | StepExpect::Undetected | StepExpect::Masked
                if !pred.can_succeed() =>
            {
                out.push((
                    i,
                    format!(
                        "expect `{}` is statically impossible: `{kind}` is always \
                         blocked in `{}` mode",
                        spec.expect.name(),
                        scenario.mode.key()
                    ),
                ));
            }
            StepExpect::Detected if hypernel && !pred.outcomes.contains("detected") => out.push((
                i,
                format!(
                    "expect `detected` is statically impossible: `{kind}` touches \
                     no watched word (no monitored span, or the span is outside \
                     the derived watch set)"
                ),
            )),
            StepExpect::Undetected
                if hypernel && pred.outcomes.contains("detected") && !has_faults && !pressure =>
            {
                out.push((
                    i,
                    format!(
                        "expect `undetected` is statically impossible: `{kind}` \
                         writes a watched span and the scenario declares no fault \
                         or FIFO pressure that could mask the capture"
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Abstractly interprets a whole scenario. Pure: same scenario, same
/// prediction, no execution anywhere.
pub fn predict_scenario(scenario: &Scenario) -> Prediction {
    let state = AbstractState::of(scenario);
    let hypernel = scenario.mode == Mode::Hypernel;
    let steps: Vec<StepPrediction> = scenario
        .steps
        .iter()
        .enumerate()
        .map(|(i, spec)| predict_step(&state, i, &spec.step))
        .collect();

    let mut possible: BTreeSet<String> = BTreeSet::new();
    for pred in &steps {
        for rule in &pred.rules {
            possible.insert(format!("hypersec/rule/{rule}"));
        }
        for outcome in &pred.outcomes {
            possible.insert(format!("kernel/attack/{}/{outcome}", pred.kind));
        }
    }

    let pressure = scenario.fifo_capacity.is_some()
        || scenario.drain_budget.is_some()
        || scenario
            .faults
            .specs
            .iter()
            .any(|f| f.kind == FaultKind::StallTranslator);
    let has_faults = !scenario.faults.specs.is_empty();

    // --- outcomes oracle: fires (unexpected) when an expectation class
    // misses every possible outcome of some seed.
    let mut guaranteed_violation = false;
    for (spec, pred) in scenario.steps.iter().zip(&steps) {
        let (mismatch_possible, mismatch_certain) = match spec.expect {
            StepExpect::Blocked => (pred.can_succeed(), !pred.can_block()),
            StepExpect::Detected | StepExpect::Undetected | StepExpect::Masked => {
                (pred.can_block(), !pred.can_succeed())
            }
            StepExpect::Any => (false, false),
        };
        if mismatch_possible || mismatch_certain {
            possible.insert("oracle/outcomes/unexpected".to_string());
        }
        guaranteed_violation |= mismatch_certain;
    }

    // --- detection oracle.
    if !hypernel {
        for spec in &scenario.steps {
            if spec.expect == StepExpect::Detected {
                // Monitor-less mode: flagged on every seed.
                possible.insert("oracle/detection/unexpected".to_string());
                guaranteed_violation = true;
            }
        }
    } else {
        for (spec, pred) in scenario.steps.iter().zip(&steps) {
            let Some(surface) = monitored_surface(&scenario.steps[pred.index].step) else {
                continue;
            };
            if !pred.can_succeed() {
                continue; // blocked steps never reach the detection oracle
            }
            let watched = state.is_watched(&surface);
            // In a clean run (no faults, no declared pressure) the
            // deterministic pipeline always reports a watched write
            // before the run ends; only faults or overflow can make
            // `detections == 0`.
            let zero_detections_possible = !watched || has_faults || pressure;
            if spec.expect == StepExpect::Undetected {
                if watched {
                    possible.insert("oracle/detection/unexpected".to_string());
                    if !has_faults && !pressure {
                        guaranteed_violation = true;
                    }
                }
                continue;
            }
            if zero_detections_possible {
                let masked_declared = spec.expect == StepExpect::Masked && has_faults;
                if masked_declared {
                    possible.insert("oracle/detection/expected".to_string());
                } else {
                    if pressure {
                        possible.insert("oracle/detection/expected".to_string());
                    }
                    possible.insert("oracle/detection/unexpected".to_string());
                    if !watched && !has_faults && !pressure {
                        guaranteed_violation = true;
                    }
                }
            }
        }
    }

    // --- latency oracle: a bound plus any possible detection makes an
    // overrun unprovable either way — keep it possible.
    if hypernel
        && scenario.latency_bound.is_some()
        && steps.iter().any(|p| p.outcomes.contains("detected"))
    {
        possible.insert("oracle/latency/unexpected".to_string());
    }

    // --- audit oracle. In the baseline modes a successful structural
    // attack *should* leave static-audit findings (expected). Under
    // Hypernel the invariants must hold — a finding is a protection
    // bug, deliberately predicted impossible so the soundness gate
    // screams. Bitmap-desync faults can make watch lookups diverge,
    // which is unexpected in any mode that has an MBM.
    if !hypernel
        && scenario
            .steps
            .iter()
            .any(|spec| leaves_audit_findings(&spec.step))
    {
        possible.insert("oracle/audit/expected".to_string());
    }
    if hypernel
        && scenario
            .faults
            .specs
            .iter()
            .any(|f| matches!(f.kind, FaultKind::DesyncBitmap | FaultKind::FlipSnoopAddr))
    {
        possible.insert("oracle/audit/unexpected".to_string());
    }

    // --- the quiet run: possible unless some violation is guaranteed
    // on every seed.
    if !guaranteed_violation {
        possible.insert("oracle/none".to_string());
    }

    Prediction {
        scenario: scenario.name.clone(),
        mode: scenario.mode,
        steps,
        possible,
        findings: state.findings,
    }
}

/// Predicts every scenario, name-sorted (the artifact order).
pub fn predict_corpus(corpus: &[Scenario]) -> Vec<Prediction> {
    let mut sorted: Vec<&Scenario> = corpus.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    sorted.iter().map(|s| predict_scenario(s)).collect()
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

// ---------------------------------------------------------------------
// Soundness + steering
// ---------------------------------------------------------------------

/// Dynamically observed contract keys outside the `possible` set of a
/// static prediction, sorted — empty means the coverage is inside the
/// contract; anything else is an analyzer soundness bug (or, for the
/// protection-invariant keys, a real protection bug). The one
/// soundness filter: the per-run sweep and the artifact diff
/// ([`crate::staticcov::static_dynamic_diff`]) both use it.
pub fn soundness_excess(possible: &BTreeSet<String>, coverage: &CoverageMap) -> Vec<String> {
    coverage
        .iter()
        .map(|(k, _)| k)
        .filter(|k| contract_key(k) && !possible.contains(*k))
        .map(str::to_string)
        .collect()
}

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
/// [`Mode::ALL`] × seeds `0..seeds`, checking that the dynamic
/// contract-namespace coverage of each run is ⊆ the static prediction
/// of the (re-moded) scenario. An empty `breaches` is a green gate.
pub fn soundness_sweep(corpus: &[Scenario], seeds: u64) -> SoundnessReport {
    let mut report = SoundnessReport::default();
    for base in corpus {
        for mode in Mode::ALL {
            let scenario = remode(base, mode);
            let prediction = predict_scenario(&scenario);
            // Booting is seed-independent: like a sweep worker, boot one
            // template and fork it per seed (its forks share the audit
            // memos), unless `HYPERNEL_NO_FASTPATH` asks for cold boots.
            let template = fastpath_enabled().then(|| boot_system(&scenario));
            for seed in 0..seeds {
                report.runs += 1;
                let ran = match &template {
                    Some(Ok(t)) => run_one_on(t.fork(), &scenario, seed).map(|(record, _)| record),
                    Some(Err(e)) => Err(e.clone()),
                    None => run_one(&scenario, seed),
                };
                let record = match ran {
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
                let excess = soundness_excess(&prediction.possible, &coverage);
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

/// Negative control for the soundness gate: a deliberately miswired
/// prediction with every rule key dropped. A gate that stays green on
/// this cannot be trusted; tests prove it goes red.
pub fn testonly_miswire(prediction: &Prediction) -> Prediction {
    let mut broken = prediction.clone();
    broken.possible.retain(|k| !k.starts_with("hypersec/rule/"));
    for step in &mut broken.steps {
        step.rules.clear();
    }
    broken
}

/// The attacker step vocabulary with canonical parameters — what the
/// reachability sweep and the steering generator draw from: one step
/// of every kind, with its defaults.
pub fn step_vocabulary() -> Vec<AttackStep> {
    AttackStep::defaults().into()
}

/// Every rule name any vocabulary step can fire in `mode` — the
/// reachable-rule frontier. Empty outside Hypernel: no verifier, no
/// denials.
pub fn reachable_rules(mode: Mode) -> BTreeSet<&'static str> {
    let mut out = BTreeSet::new();
    if mode == Mode::Hypernel {
        for step in step_vocabulary() {
            out.extend(hypernel_rules(&step).iter().copied());
        }
    }
    out
}

/// The canonical attack step that fires `rule` under Hypernel, if the
/// EL1 attacker vocabulary can reach it at all (boot-phase and
/// device-interface rules like `bad-phase` or `no-stage2` have no
/// post-LOCK EL1 trigger).
pub fn step_for_rule(rule: &str) -> Option<AttackStep> {
    Some(match rule {
        "unknown-hypercall" => AttackStep::HypercallProbe { nr: 0xDEAD },
        "frozen-sysreg" => AttackStep::SysregProbe,
        "not-a-table" => AttackStep::PtForgeProbe,
        "secure-mapping" => AttackStep::MapSecureRegion { pid: 1 },
        "rogue-root" => AttackStep::TtbrRedirect,
        "wxorx" => AttackStep::CodeInjection,
        "text-immutable" | "bad-emulated-write" => AttackStep::TextPatch,
        "linear-identity" => AttackStep::AtraCred { pid: 1 },
        _ => return None,
    })
}

/// Statically-reachable-but-unfired rule *keys*, ranked: rules with a
/// single-step generator first (cheap, guaranteed to fire), then the
/// rest alphabetically. `fired` is the set of coverage keys some
/// dynamic baseline already covered.
pub fn ranked_targets(fired: &BTreeSet<String>) -> Vec<String> {
    let mut targets: Vec<(u8, String)> = reachable_rules(Mode::Hypernel)
        .into_iter()
        .map(|rule| format!("hypersec/rule/{rule}"))
        .filter(|key| !fired.contains(key))
        .map(|key| {
            let rule = key.rsplit('/').next().unwrap_or_default();
            (u8::from(step_for_rule(rule).is_none()), key)
        })
        .collect();
    targets.sort();
    targets.into_iter().map(|(_, key)| key).collect()
}

// ---------------------------------------------------------------------
// Artifact
// ---------------------------------------------------------------------

/// Serializes predictions as the self-contained `static-coverage.json`
/// artifact: schema + kind tags, per-scenario predictions, the merged
/// possible set, the reachable-rule frontier per mode, rule metadata
/// (so the artifact renders its guarding surfaces on its own), and the
/// contract-namespace universe. [`crate::staticcov`] reads it back.
pub fn static_coverage_json(predictions: &[Prediction]) -> Json {
    let mut merged: BTreeSet<String> = BTreeSet::new();
    for p in predictions {
        merged.extend(p.possible.iter().cloned());
    }
    let scenarios = predictions
        .iter()
        .map(|p| {
            (
                p.scenario.clone(),
                Json::obj(vec![
                    ("mode", Json::str(p.mode.key())),
                    (
                        "possible",
                        Json::Array(p.possible.iter().map(|k| Json::str(k)).collect()),
                    ),
                    (
                        "steps",
                        Json::Array(
                            p.steps
                                .iter()
                                .map(|s| {
                                    Json::obj(vec![
                                        ("index", Json::UInt(s.index as u64)),
                                        ("kind", Json::str(&s.kind)),
                                        (
                                            "outcomes",
                                            Json::Array(
                                                s.outcomes.iter().map(|o| Json::str(o)).collect(),
                                            ),
                                        ),
                                        (
                                            "rules",
                                            Json::Array(
                                                s.rules.iter().map(|r| Json::str(r)).collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "findings",
                        Json::Array(
                            p.findings
                                .iter()
                                .map(|f| {
                                    Json::obj(vec![
                                        ("kind", Json::str(f.kind)),
                                        ("detail", Json::str(&f.detail)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    let reachable = Mode::ALL
        .into_iter()
        .map(|mode| {
            (
                mode.key().to_string(),
                Json::Array(
                    reachable_rules(mode)
                        .into_iter()
                        .map(|r| Json::str(&format!("hypersec/rule/{r}")))
                        .collect(),
                ),
            )
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::UInt(STATIC_SCHEMA)),
        ("kind", Json::str(STATIC_KIND)),
        (
            "possible",
            Json::Array(merged.iter().map(|k| Json::str(k)).collect()),
        ),
        ("scenarios", Json::Object(scenarios)),
        ("reachable-rules", Json::Object(reachable)),
        (
            "rules",
            Json::Array(
                codes::METADATA
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("code", Json::UInt(u64::from(m.code))),
                            ("name", Json::str(m.name)),
                            ("surface", Json::str(m.surface)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "universe",
            Json::Array(prediction_universe().iter().map(|k| Json::str(k)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::load_corpus;

    fn scenario(mode: Mode, steps: Vec<(AttackStep, StepExpect)>) -> Scenario {
        let mut s = Scenario::new("static-test", mode);
        for (step, expect) in steps {
            s = s.step(step, expect);
        }
        s
    }

    #[test]
    fn hypernel_lattice_watches_monitored_objects_and_locks_tables() {
        let s = scenario(
            Mode::Hypernel,
            vec![(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)],
        );
        let state = AbstractState::of(&s);
        assert!(state.can_write(WRITER_KERNEL, "kernel-data"));
        assert!(!state.can_write(WRITER_KERNEL, "table-pages"));
        assert!(!state.can_write(WRITER_KERNEL, "secure-region"));
        assert!(state.is_watched("monitored/cred"));
        assert!(state.findings.is_empty());
    }

    #[test]
    fn baseline_lattice_aliases_everything_and_watches_nothing() {
        let s = scenario(
            Mode::Native,
            vec![(
                AttackStep::CredEscalation { pid: 1 },
                StepExpect::Undetected,
            )],
        );
        let state = AbstractState::of(&s);
        assert!(state.can_write(WRITER_KERNEL, "secure-region"));
        assert!(state.can_write(WRITER_KERNEL, "table-pages"));
        assert!(state.watched.is_empty());
        assert!(state.findings.iter().any(|f| f.kind == "secure-alias"));
    }

    #[test]
    fn verified_steps_block_and_fire_their_rules_only_under_hypernel() {
        let steps = vec![
            (AttackStep::MapSecureRegion { pid: 1 }, StepExpect::Blocked),
            (
                AttackStep::HypercallProbe { nr: 0xDEAD },
                StepExpect::Blocked,
            ),
        ];
        let p = predict_scenario(&scenario(Mode::Hypernel, steps.clone()));
        assert!(p.possible.contains("hypersec/rule/secure-mapping"));
        assert!(p.possible.contains("hypersec/rule/unknown-hypercall"));
        assert!(p
            .possible
            .contains("kernel/attack/map-secure-region/blocked"));
        assert!(!p
            .possible
            .contains("kernel/attack/map-secure-region/undetected"));

        let mut baseline_steps = steps;
        for (_, expect) in &mut baseline_steps {
            *expect = StepExpect::Any;
        }
        let p = predict_scenario(&scenario(Mode::Native, baseline_steps));
        assert!(p.possible.iter().all(|k| !k.starts_with("hypersec/rule/")));
        assert!(p
            .possible
            .contains("kernel/attack/map-secure-region/undetected"));
        // The probe still dies at the trap without EL2 software.
        assert!(p.possible.contains("kernel/attack/hypercall-probe/blocked"));
    }

    #[test]
    fn detection_keys_follow_the_watch_set() {
        let s = scenario(
            Mode::Hypernel,
            vec![(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)],
        );
        let p = predict_scenario(&s);
        assert!(p
            .possible
            .contains("kernel/attack/cred-escalation/detected"));
        assert!(p.possible.contains("oracle/none"));
        // Clean watched scenario: the detection oracle stays silent.
        assert!(!p.possible.contains("oracle/detection/unexpected"));

        let native = scenario(
            Mode::Native,
            vec![(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)],
        );
        let p = predict_scenario(&native);
        assert!(p.possible.contains("oracle/detection/unexpected"));
        assert!(!p.possible.contains("oracle/none"), "violation guaranteed");
    }

    #[test]
    fn impossible_expectations_are_caught() {
        let s = scenario(
            Mode::Hypernel,
            vec![
                (AttackStep::TtbrRedirect, StepExpect::Detected),
                (AttackStep::CredEscalation { pid: 1 }, StepExpect::Blocked),
                (AttackStep::SysregProbe, StepExpect::Detected),
            ],
        );
        let flagged = impossible_expectations(&s);
        assert_eq!(flagged.len(), 3, "{flagged:?}");
        assert!(flagged[0].1.contains("always blocked"), "{}", flagged[0].1);
        assert!(
            flagged[1].1.contains("always completes"),
            "{}",
            flagged[1].1
        );
        assert!(flagged[2].1.contains("always blocked"), "{}", flagged[2].1);
    }

    #[test]
    fn soundness_excess_and_the_negative_control() {
        let s = scenario(
            Mode::Hypernel,
            vec![(AttackStep::TtbrRedirect, StepExpect::Blocked)],
        );
        let p = predict_scenario(&s);
        let mut cov = CoverageMap::new();
        cov.record("hypersec/rule/rogue-root");
        cov.record("kernel/attack/ttbr-redirect/blocked");
        cov.record("machine/trap/sysreg"); // outside the contract
        assert!(soundness_excess(&p.possible, &cov).is_empty());

        let broken = testonly_miswire(&p);
        let excess = soundness_excess(&broken.possible, &cov);
        assert_eq!(excess, vec!["hypersec/rule/rogue-root".to_string()]);
    }

    #[test]
    fn steering_targets_rank_probe_reachable_rules() {
        let fired: BTreeSet<String> = [
            "hypersec/rule/secure-mapping",
            "hypersec/rule/rogue-root",
            "hypersec/rule/wxorx",
            "hypersec/rule/text-immutable",
            "hypersec/rule/bad-emulated-write",
            "hypersec/rule/linear-identity",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        let targets = ranked_targets(&fired);
        assert_eq!(
            targets,
            vec![
                "hypersec/rule/frozen-sysreg".to_string(),
                "hypersec/rule/not-a-table".to_string(),
                "hypersec/rule/unknown-hypercall".to_string(),
            ]
        );
        for key in &targets {
            let rule = key.rsplit('/').next().unwrap();
            assert!(step_for_rule(rule).is_some());
        }
        assert!(step_for_rule("no-stage2").is_none());
    }

    #[test]
    fn artifact_is_deterministic_and_tagged() {
        let corpus = vec![
            scenario(
                Mode::Hypernel,
                vec![(AttackStep::TextPatch, StepExpect::Blocked)],
            ),
            scenario(Mode::Native, vec![(AttackStep::TextPatch, StepExpect::Any)]),
        ];
        let a = static_coverage_json(&predict_corpus(&corpus)).to_string();
        let b = static_coverage_json(&predict_corpus(&corpus)).to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("round-trips");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some(STATIC_KIND));
        assert_eq!(parsed.get("schema").and_then(Json::as_u64), Some(1));
        assert!(parsed.get("rules").and_then(Json::as_array).is_some());
    }

    fn corpus_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
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

    #[test]
    fn prediction_universe_is_the_contract_slice() {
        let universe = prediction_universe();
        assert!(universe.iter().all(|k| contract_key(k)));
        assert!(universe.contains(&"hypersec/rule/unknown-hypercall".to_string()));
        assert!(universe.contains(&"oracle/none".to_string()));
        assert!(universe.contains(&"kernel/attack/sysreg-probe/blocked".to_string()));
        assert!(!universe.contains(&"machine/trap/hypercall".to_string()));
    }
}
