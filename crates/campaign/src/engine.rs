//! Deterministic single-run execution: one `(scenario, seed)` pair in,
//! one [`RunRecord`] out.
//!
//! Everything the run does is a pure function of `(scenario, seed)`:
//! the background workload interleaving is driven by a splitmix64
//! stream seeded from both, the machine itself is cycle-deterministic,
//! and records carry no wall-clock state — so re-running the same pair
//! yields byte-identical JSON, which the sweep tests assert.

use std::fmt;

use hypernel::metrics::metric_samples;
use hypernel::{Mode, System, SystemBuilder};
use hypernel_kernel::kernel::{KernelError, MonitorHooks};
use hypernel_machine::addr::PhysAddr;
use hypernel_mbm::MbmConfig;
use hypernel_telemetry::{metrics, MetricsRecorder};
use hypernel_workloads::lmbench::{run_op, LmbenchOp};

use crate::blackbox;
use crate::coverage;
use crate::oracle;
use crate::record::{AuditRecord, RunRecord, StepRecord};
use crate::scenario::Scenario;

/// Background operations the interleaver picks from. All are safe to
/// repeat in any order under every mode.
const BACKGROUND_OPS: &[LmbenchOp] = &[
    LmbenchOp::SyscallStat,
    LmbenchOp::SignalInstall,
    LmbenchOp::SignalOverhead,
    LmbenchOp::Mmap,
    LmbenchOp::PageFault,
    LmbenchOp::ForkExit,
];

/// A splitmix64 stream — tiny, seedable, and stable across platforms,
/// which is all the interleaver needs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a, used to fold the scenario name into the seed so equal seeds
/// still produce distinct interleavings across scenarios (and by
/// `explore` as the stable mutant-id suffix).
pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A run failed outright (scenario referenced a missing task/path, or
/// the kernel hit a resource limit) — distinct from oracle violations,
/// which are *results*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// What failed.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<KernelError> for EngineError {
    fn from(e: KernelError) -> Self {
        Self {
            message: e.to_string(),
        }
    }
}

/// Boots the system a scenario runs on. The result depends only on the
/// scenario — never the seed — so sweeps boot each scenario **once** and
/// [`System::fork`] a copy per seed (the warm-boot fast path); a fork is
/// observationally identical to a fresh boot.
///
/// # Errors
///
/// Propagates boot failures as [`EngineError`].
pub fn boot_system(scenario: &Scenario) -> Result<System, EngineError> {
    let mut builder = SystemBuilder::new(scenario.mode);
    if !scenario.faults.is_empty() {
        builder = builder.fault_plan(scenario.faults.clone());
    }
    if scenario.fifo_capacity.is_some() || scenario.drain_budget.is_some() {
        use hypernel_kernel::layout;
        let mut config = MbmConfig::standard(
            PhysAddr::new(layout::MBM_WINDOW_BASE),
            layout::MBM_WINDOW_LEN,
            PhysAddr::new(layout::MBM_BITMAP_BASE),
            PhysAddr::new(layout::MBM_RING_BASE),
            layout::MBM_RING_ENTRIES,
        )
        .with_secure_guard(
            PhysAddr::new(layout::HYPERSEC_PRIVATE_BASE),
            layout::HYPERSEC_PRIVATE_SIZE,
        );
        if let Some(capacity) = scenario.fifo_capacity {
            config.fifo_capacity = capacity;
        }
        if let Some(budget) = scenario.drain_budget {
            config.drain_per_transaction = Some(budget);
        }
        builder = builder.mbm_config(config);
    }
    let mut sys = builder.build().map_err(EngineError::from)?;
    if scenario.mode == Mode::Hypernel {
        let monitor = scenario.monitor;
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .arm_monitor_hooks(machine, hyp, MonitorHooks { mode: monitor })
            .map_err(EngineError::from)?;
    }
    // Lower the composed system description (if any) after the hooks
    // are armed, so the derived watch set registers under Hypernel —
    // and runs identically-unwatched under the baseline modes. Still
    // seed-independent: the lowering is a pure function of the doc.
    if let Some(doc) = &scenario.compose {
        let (kernel, machine, hyp) = sys.parts();
        hypernel_compose::apply(doc, kernel, machine, hyp).map_err(EngineError::from)?;
    }
    Ok(sys)
}

fn run_background(sys: &mut System, rng: &mut SplitMix64, ops: u64) -> Result<(), EngineError> {
    for _ in 0..ops {
        let op = BACKGROUND_OPS[(rng.next_u64() % BACKGROUND_OPS.len() as u64) as usize];
        let (kernel, machine, hyp) = sys.parts();
        run_op(kernel, machine, hyp, op, 1).map_err(EngineError::from)?;
    }
    Ok(())
}

fn span_overlaps(pa: u64, base: u64, len: u64) -> bool {
    pa >= base && pa < base + len
}

/// Executes one `(scenario, seed)` run and evaluates the oracles.
///
/// # Errors
///
/// Returns an [`EngineError`] when the scenario itself cannot run
/// (dangling pid/path, out of frames). Attack outcomes and oracle
/// violations are *not* errors — they are the record.
pub fn run_one(scenario: &Scenario, seed: u64) -> Result<RunRecord, EngineError> {
    run_one_logged(scenario, seed).map(|(record, _)| record)
}

/// [`run_one`], but also returns the injected-fault hit log — the raw
/// material the minimizer expands into single-occurrence schedules.
///
/// # Errors
///
/// Same as [`run_one`].
pub fn run_one_logged(
    scenario: &Scenario,
    seed: u64,
) -> Result<(RunRecord, Vec<hypernel_machine::FaultHit>), EngineError> {
    run_one_on(boot_system(scenario)?, scenario, seed)
}

/// [`run_one_logged`] on an already-booted system — the warm-boot entry
/// point. `sys` must come from [`boot_system`] (or a [`System::fork`] of
/// one) for the same scenario; the record is identical either way.
///
/// # Errors
///
/// Same as [`run_one`].
pub fn run_one_on(
    sys: System,
    scenario: &Scenario,
    seed: u64,
) -> Result<(RunRecord, Vec<hypernel_machine::FaultHit>), EngineError> {
    run_one_full(sys, scenario, seed).map(|(record, log, _)| (record, log))
}

/// [`run_one_on`], but also hands back the finished [`System`] so
/// callers (the `hypernel audit` command) can run further analyses — a full
/// static audit, sanitizer inspection — over the exact final state the
/// record describes.
///
/// # Errors
///
/// Same as [`run_one`].
pub fn run_one_full(
    mut sys: System,
    scenario: &Scenario,
    seed: u64,
) -> Result<(RunRecord, Vec<hypernel_machine::FaultHit>, System), EngineError> {
    let mut rng = SplitMix64::new(seed ^ fnv1a(&scenario.name));

    // The always-on flight recorder: a small ring of recent telemetry
    // events, dumped as `blackbox.json` if the run fails. Installed
    // identically after a fresh boot or a fork (forks detach sinks),
    // and recording never changes simulated results — so the record
    // stays a pure function of `(scenario, seed)`.
    sys.enable_telemetry(blackbox::FLIGHT_RING_CAPACITY);

    // Windowed metrics: poll the standard catalog at step boundaries.
    // The baseline sample right after boot keeps boot-time activity out
    // of window 0's deltas.
    let metrics_config = scenario.metrics.clone().unwrap_or_default().to_config();
    let mut recorder = MetricsRecorder::new(&metrics_config);
    recorder.sample(sys.cycles(), &metric_samples(&sys));

    // (step index, cycles at step start, cycles after its service pass)
    let mut timings: Vec<(u64, u64)> = Vec::new();
    let mut outcomes = Vec::new();
    for spec in &scenario.steps {
        run_background(&mut sys, &mut rng, scenario.background_ops)?;
        recorder.sample(sys.cycles(), &metric_samples(&sys));
        let started = sys.cycles();
        let result = {
            let (kernel, machine, hyp) = sys.parts();
            kernel
                .run_attack_step(machine, hyp, &spec.step)
                .map_err(EngineError::from)?
        };
        // Service immediately so each step's detections land before the
        // next step muddies the water; latency covers write → dispatch.
        sys.service_interrupts().map_err(EngineError::from)?;
        timings.push((started, sys.cycles()));
        outcomes.push(result);
        recorder.sample(sys.cycles(), &metric_samples(&sys));
    }
    run_background(&mut sys, &mut rng, scenario.background_ops)?;
    sys.service_interrupts().map_err(EngineError::from)?;
    recorder.sample(sys.cycles(), &metric_samples(&sys));

    let detections: Vec<(u64, u64)> = sys
        .hypersec()
        .map(|hs| {
            hs.detections()
                .iter()
                .map(|d| (d.event.pa.raw(), d.event.value))
                .collect()
        })
        .unwrap_or_default();

    let steps: Vec<StepRecord> = scenario
        .steps
        .iter()
        .zip(outcomes.iter())
        .zip(timings.iter())
        .map(|((spec, result), (started, serviced))| {
            let monitored = result.monitored.map(|(base, len)| (base.raw(), len));
            let matched = monitored.map_or(0, |(base, len)| {
                detections
                    .iter()
                    .filter(|(pa, _)| span_overlaps(*pa, base, len))
                    .count() as u64
            });
            StepRecord {
                name: spec.step.name().to_string(),
                outcome: result.outcome.to_string(),
                blocked: !result.outcome.succeeded(),
                monitored,
                detections: matched,
                latency: Some(serviced - started),
            }
        })
        .collect();

    let (static_audit, audit) = sys.audit();
    let mbm = sys.mbm_stats();
    let faults = sys.fault_stats();
    let fault_log = sys.fault_log().unwrap_or_default();
    let violations = oracle::evaluate(&oracle::OracleInput {
        scenario,
        steps: &steps,
        audit: audit.as_ref(),
        static_audit: Some(&static_audit),
        mbm,
        faults,
    });
    let passed = violations.iter().all(|v| v.expected);

    // Detection latencies are event-driven gauges: feed each detected
    // step's latency into the window its service pass landed in.
    for (step, (_, serviced)) in steps.iter().zip(timings.iter()) {
        if step.detections > 0 {
            if let Some(latency) = step.latency {
                recorder.observe(metrics::DETECTION_LATENCY_MAX.name, *serviced, latency);
            }
        }
    }
    let metrics_doc = recorder.finish(
        Some(&scenario.name),
        Some(seed),
        Some(&scenario.mode.to_string()),
    );

    let coverage = coverage::coverage_of_run(&sys, scenario, &steps, &violations, &fault_log);

    let blackbox = if passed {
        None
    } else {
        let reason = violations
            .iter()
            .find(|v| !v.expected)
            .map(|v| format!("unexpected `{}` violation: {}", v.oracle, v.detail))
            .unwrap_or_else(|| "run failed".to_string());
        Some(
            blackbox::capture(
                &sys,
                scenario,
                seed,
                &reason,
                &violations,
                &fault_log,
                Some(&metrics_doc),
            )
            .to_string(),
        )
    };

    let record = RunRecord {
        scenario: scenario.name.clone(),
        mode: scenario.mode.to_string(),
        seed,
        cycles: sys.cycles(),
        steps,
        detections_total: detections.len() as u64,
        mbm,
        faults,
        audit: Some(AuditRecord {
            roots: static_audit.roots_walked,
            tables: static_audit.tables_walked,
            leaves: static_audit.leaves_checked,
            findings: static_audit.findings.len() as u64,
            differential_agrees: static_audit
                .differential
                .as_ref()
                .map(hypernel::audit::DifferentialReport::agrees),
        }),
        violations,
        passed,
        metrics: Some(metrics_doc),
        blackbox,
        coverage: Some(coverage),
    };
    Ok((record, fault_log, sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StepExpect;
    use hypernel_kernel::AttackStep;
    use hypernel_machine::FaultSpec;

    fn cred_scenario() -> Scenario {
        Scenario::new("unit-cred", Mode::Hypernel)
            .background(2)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
    }

    #[test]
    fn detected_attack_passes_cleanly() {
        let record = run_one(&cred_scenario(), 7).expect("runs");
        assert!(record.passed, "violations: {:?}", record.violations);
        assert_eq!(record.steps.len(), 1);
        assert!(!record.steps[0].blocked);
        assert!(record.steps[0].detections >= 1);
        assert!(record.steps[0].latency.unwrap() > 0);
        assert!(record.detections_total >= 1);
    }

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let scenario = cred_scenario();
        let a = run_one(&scenario, 11).expect("runs").to_json().to_string();
        let b = run_one(&scenario, 11).expect("runs").to_json().to_string();
        assert_eq!(a, b, "determinism: same (scenario, seed), same bytes");
        let c = run_one(&scenario, 12).expect("runs").to_json().to_string();
        assert_ne!(a, c, "different seed must change the interleaving");
    }

    #[test]
    fn warm_boot_fork_yields_identical_record() {
        let scenario = cred_scenario();
        let cold = run_one(&scenario, 5).expect("cold").to_json().to_string();
        let template = boot_system(&scenario).expect("template");
        for seed in [5, 9] {
            let (warm, _) = run_one_on(template.fork(), &scenario, seed).expect("warm");
            let reference = run_one(&scenario, seed)
                .expect("cold")
                .to_json()
                .to_string();
            assert_eq!(warm.to_json().to_string(), reference, "seed {seed}");
        }
        // The template itself is untouched and still usable.
        let (again, _) = run_one_on(template.fork(), &scenario, 5).expect("reuse");
        assert_eq!(again.to_json().to_string(), cold);
    }

    #[test]
    fn warm_boot_fork_matches_under_faults() {
        let scenario = Scenario::new("unit-drop", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
            .fault(FaultSpec::drop_irq(1, u64::MAX));
        let template = boot_system(&scenario).expect("template");
        let (warm, warm_log) = run_one_on(template.fork(), &scenario, 3).expect("warm");
        let (cold, cold_log) = run_one_logged(&scenario, 3).expect("cold");
        assert_eq!(warm.to_json().to_string(), cold.to_json().to_string());
        assert_eq!(warm_log, cold_log, "fault hit logs must agree");
    }

    #[test]
    fn native_mode_expects_no_detection() {
        let scenario = Scenario::new("unit-native", Mode::Native).step(
            AttackStep::CredEscalation { pid: 1 },
            StepExpect::Undetected,
        );
        let record = run_one(&scenario, 1).expect("runs");
        assert!(record.passed, "violations: {:?}", record.violations);
        assert_eq!(record.detections_total, 0);
        assert!(record.mbm.is_none());
    }

    #[test]
    fn dropped_irq_scenario_is_flagged_but_expected() {
        let scenario = Scenario::new("unit-drop", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
            .fault(FaultSpec::drop_irq(1, u64::MAX));
        let record = run_one(&scenario, 1).expect("runs");
        assert!(record.passed, "declared mask: {:?}", record.violations);
        let flagged: Vec<_> = record
            .violations
            .iter()
            .filter(|v| v.oracle == "detection")
            .collect();
        assert_eq!(flagged.len(), 1, "the gap must be flagged");
        assert!(flagged[0].expected);
        assert!(record.faults.unwrap().irqs_dropped > 0);
    }

    #[test]
    fn missing_task_is_an_engine_error() {
        let scenario = Scenario::new("unit-bad", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 999 }, StepExpect::Any);
        assert!(run_one(&scenario, 1).is_err());
    }
}
