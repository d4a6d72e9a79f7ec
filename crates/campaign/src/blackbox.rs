//! The flight recorder: a bounded post-mortem snapshot of a failing run.
//!
//! Every engine run keeps an always-on fixed-size ring of recent
//! telemetry events (cheap: the ring holds a few hundred events and
//! recording never changes simulated results). When a run fails — an
//! oracle the scenario did not declare fires, which includes unexpected
//! audit findings — the engine assembles the ring plus a bounded
//! machine-state snapshot into a `blackbox.json` document: mode,
//! exception level, translation roots, MBM statistics, the tail of the
//! fault-hit log, pending interrupt lines, the run's windowed metrics,
//! and the violations themselves. `hypernel analyze timeline` ingests
//! it, so "oracle X failed at seed 17" arrives as a self-contained
//! artifact instead of a repro recipe.
//!
//! Like every campaign artifact the document is deterministic: all
//! captured state is simulated, so the same `(scenario, seed)` failure
//! dumps byte-identical JSON.

use hypernel::System;
use hypernel_machine::machine::MachineStats;
use hypernel_machine::regs::SysReg;
use hypernel_machine::FaultHit;
use hypernel_mbm::{Mbm, MbmStats};
use hypernel_telemetry::counters::{json_object, samples};
use hypernel_telemetry::export::event_to_json;
use hypernel_telemetry::json::Json;
use hypernel_telemetry::series::MetricsDoc;

use crate::record::Violation;
use crate::scenario::Scenario;

/// Schema version of the blackbox document.
pub const BLACKBOX_SCHEMA: u64 = 1;

/// `kind` tag of the blackbox document, declared by its reader.
pub use hypernel::analyze::timeline::BLACKBOX_KIND;

/// Telemetry events the engine's always-on flight ring retains.
pub const FLIGHT_RING_CAPACITY: usize = 512;

/// Fault-log entries kept in the dump (the most recent ones).
pub const FAULT_LOG_TAIL: usize = 32;

/// Assembles the blackbox document from a finished (failed) run.
///
/// `reason` names the trigger ("unexpected `audit` violation", "fault
/// minimization reproduced the gap", ...). `fault_log` is the full
/// chronological hit log; only the last [`FAULT_LOG_TAIL`] entries are
/// embedded. `metrics` embeds the run's windowed series so the dump is
/// self-contained for `hypernel analyze timeline`.
pub fn capture(
    sys: &System,
    scenario: &Scenario,
    seed: u64,
    reason: &str,
    violations: &[Violation],
    fault_log: &[FaultHit],
    metrics: Option<&MetricsDoc>,
) -> Json {
    let machine = sys.machine();
    let regs = machine.regs();
    let stats = machine.stats();

    let mut state = vec![
        ("el", Json::str(&machine.el().to_string())),
        ("cycles", Json::UInt(sys.cycles())),
        ("ttbr0_el1", Json::UInt(regs.read(SysReg::TTBR0_EL1))),
        ("ttbr1_el1", Json::UInt(regs.read(SysReg::TTBR1_EL1))),
        ("vttbr_el2", Json::UInt(regs.read(SysReg::VTTBR_EL2))),
        ("hcr_el2", Json::UInt(regs.read(SysReg::HCR_EL2))),
        (
            "pending_irqs",
            Json::Array(
                machine
                    .irq()
                    .pending_lines()
                    .iter()
                    .map(|line| Json::UInt(u64::from(line.0)))
                    .collect(),
            ),
        ),
        (
            "irqs_raised_total",
            Json::UInt(machine.irq().raised_total()),
        ),
    ];
    state.push((
        "counters",
        json_object(samples(MachineStats::COUNTERS, &stats, |n| n.report)),
    ));

    let mut fields = vec![
        ("schema", Json::UInt(BLACKBOX_SCHEMA)),
        ("kind", Json::str(BLACKBOX_KIND)),
        ("scenario", Json::str(&scenario.name)),
        ("mode", Json::str(&scenario.mode.to_string())),
        ("seed", Json::UInt(seed)),
        ("reason", Json::str(reason)),
        ("state", Json::obj(state)),
    ];

    if let Some(mbm) = machine.bus().snooper::<Mbm>() {
        let stats = mbm.stats();
        let counters = samples(MbmStats::COUNTERS, &stats, |n| n.report);
        let gauges = samples(Mbm::GAUGES, mbm, |n| n.report);
        fields.push(("mbm", json_object(counters.chain(gauges))));
    }

    let tail_start = fault_log.len().saturating_sub(FAULT_LOG_TAIL);
    fields.push(("fault_log_total", Json::UInt(fault_log.len() as u64)));
    fields.push((
        "fault_log_tail",
        Json::Array(
            fault_log[tail_start..]
                .iter()
                .map(|hit| {
                    Json::obj(vec![
                        ("kind", Json::str(hit.kind.name())),
                        ("site_index", Json::UInt(hit.site_index)),
                        ("info", Json::UInt(hit.info)),
                    ])
                })
                .collect(),
        ),
    ));

    fields.push((
        "violations",
        Json::Array(violations.iter().map(Violation::to_json).collect()),
    ));

    let events = sys.telemetry_events().unwrap_or_default();
    fields.push((
        "events_dropped",
        Json::UInt(sys.telemetry_dropped().unwrap_or(0)),
    ));
    fields.push((
        "recent_events",
        Json::Array(events.iter().map(event_to_json).collect()),
    ));

    if let Some(doc) = metrics {
        fields.push(("metrics_summary", doc.summary_json()));
        fields.push(("metrics_jsonl", Json::str(&doc.to_jsonl())));
    }

    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use hypernel::Mode;
    use hypernel_kernel::AttackStep;

    #[test]
    fn capture_produces_a_parseable_self_contained_document() {
        let scenario = Scenario::new("bb-unit", Mode::Hypernel).step(
            AttackStep::CredEscalation { pid: 1 },
            crate::StepExpect::Detected,
        );
        let mut sys = engine::boot_system(&scenario).expect("boot");
        sys.enable_telemetry(FLIGHT_RING_CAPACITY);
        {
            let (kernel, machine, hyp) = sys.parts();
            kernel
                .run_attack_step(machine, hyp, &scenario.steps[0].step)
                .expect("step");
        }
        sys.service_interrupts().expect("service");
        let violations = vec![Violation {
            oracle: "detection",
            step: Some(0),
            detail: "unit trigger".to_string(),
            expected: false,
        }];
        let doc = capture(&sys, &scenario, 9, "unit test", &violations, &[], None);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(BLACKBOX_KIND)
        );
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(9));
        assert!(parsed
            .get("state")
            .and_then(|s| s.get("ttbr1_el1"))
            .is_some());
        assert!(parsed.get("mbm").is_some(), "hypernel mode embeds MBM");
        let events = parsed
            .get("recent_events")
            .and_then(Json::as_array)
            .expect("events");
        assert!(!events.is_empty(), "flight ring captured the attack");
        assert!(events.len() <= FLIGHT_RING_CAPACITY);
    }

    #[test]
    fn capture_is_deterministic() {
        let scenario = Scenario::new("bb-det", Mode::Hypernel)
            .step(AttackStep::TextPatch, crate::StepExpect::Blocked);
        let dump = |()| {
            let mut sys = engine::boot_system(&scenario).expect("boot");
            sys.enable_telemetry(FLIGHT_RING_CAPACITY);
            {
                let (kernel, machine, hyp) = sys.parts();
                let _ = kernel.run_attack_step(machine, hyp, &scenario.steps[0].step);
            }
            capture(&sys, &scenario, 4, "det", &[], &[], None).to_string()
        };
        assert_eq!(dump(()), dump(()));
    }
}
