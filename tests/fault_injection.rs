//! Fault injection at the machine/MBM boundary, end to end: the
//! `SystemBuilder::fault_plan` hook must degrade the detection pipeline
//! in exactly the declared way — and `System::service_interrupts` must
//! drain *everything* pending in one call, even when servicing one
//! interrupt surfaces the next (snoop-FIFO backlog translating
//! mid-drain).

use hypernel::kernel::kernel::{MonitorHooks, MonitorMode};
use hypernel::kernel::task::Pid;
use hypernel::machine::{FaultPlan, FaultSpec};
use hypernel::mbm::Mbm;
use hypernel::system::SystemBuilder;
use hypernel::{Mode, System};

fn arm(sys: &mut System) {
    let (kernel, machine, hyp) = sys.parts();
    kernel
        .arm_monitor_hooks(
            machine,
            hyp,
            MonitorHooks {
                mode: MonitorMode::SensitiveFields,
            },
        )
        .expect("arm hooks");
}

fn set_drain_budget(sys: &mut System, budget: Option<usize>) {
    sys.machine_mut()
        .bus_mut()
        .snooper_mut::<Mbm>()
        .expect("mbm attached")
        .set_drain_per_transaction(budget);
}

/// The satellite bugfix: a single `service_interrupts` call must not
/// stop after the first interrupt when the FIFO refills mid-drain.
///
/// Setup: stall the translator completely while the attack runs, so all
/// four sensitive-field writes sit captured-but-untranslated. Then allow
/// one translation per pipeline step. Each serviced interrupt surfaces
/// the next event only after another device step — the exact shape the
/// old single-`step_devices` loop missed.
#[test]
fn service_interrupts_drains_fifo_backlog_in_one_call() {
    let mut sys = System::boot(Mode::Hypernel).expect("boot");
    arm(&mut sys);
    set_drain_budget(&mut sys, Some(0)); // translator wedged
    {
        let (kernel, machine, hyp) = sys.parts();
        let outcome = kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
        assert!(outcome.succeeded());
    }
    let backlog = sys
        .machine()
        .bus()
        .snooper::<Mbm>()
        .expect("mbm")
        .fifo_len();
    assert!(backlog >= 4, "all cred writes captured, none translated");
    set_drain_budget(&mut sys, Some(1)); // one event per step
    let handled = sys.service_interrupts().expect("irq path");
    assert!(
        handled >= 2,
        "the loop must keep servicing past the first ack ({handled})"
    );
    assert_eq!(
        sys.mbm_stats().expect("mbm").events_matched,
        backlog as u64,
        "every backlogged capture translated"
    );
    assert_eq!(
        sys.machine()
            .bus()
            .snooper::<Mbm>()
            .expect("mbm")
            .fifo_len(),
        0,
        "FIFO fully drained"
    );
    assert_eq!(
        sys.service_interrupts().expect("irq path"),
        0,
        "nothing left pending"
    );
    let hs = sys.hypersec().expect("hypersec");
    assert!(
        !hs.detections().is_empty(),
        "backlogged escalation still detected"
    );
}

/// A dropped MBM interrupt suppresses the detection that write should
/// have produced — the fault the drop-irq campaign scenario exercises.
#[test]
fn dropped_irq_masks_detection() {
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .fault_plan(FaultPlan::new().with(FaultSpec::drop_irq(1, u64::MAX)))
        .build()
        .expect("boot");
    arm(&mut sys);
    {
        let (kernel, machine, hyp) = sys.parts();
        let outcome = kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
        assert!(outcome.succeeded());
    }
    sys.service_interrupts().expect("irq path");
    let stats = sys.fault_stats().expect("injector installed");
    assert!(stats.irqs_dropped >= 1, "the drop fault fired");
    let hs = sys.hypersec().expect("hypersec");
    assert!(
        hs.detections().is_empty(),
        "every IRQ dropped ⇒ Hypersec never notified"
    );
    // The evidence is still in the ring: the monitor saw the writes.
    let mbm = sys.mbm_stats().expect("mbm");
    assert!(mbm.events_matched >= 4);
    assert_eq!(mbm.irqs_raised, 0);
}

/// A *delayed* interrupt only defers detection: the next service pass
/// still finds it.
#[test]
fn delayed_irq_defers_but_does_not_mask_detection() {
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .fault_plan(FaultPlan::new().with(FaultSpec::delay_irq(1, u64::MAX, 3)))
        .build()
        .expect("boot");
    arm(&mut sys);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
    }
    // The drain-all loop keeps stepping devices until the delayed
    // assertions mature, so even a delayed IRQ lands within one call.
    sys.service_interrupts().expect("irq path");
    let stats = sys.fault_stats().expect("injector installed");
    assert!(stats.irqs_delayed >= 1, "the delay fault fired");
    assert!(
        !sys.hypersec().expect("hypersec").detections().is_empty(),
        "delay must not mask detection"
    );
}

/// A desynced watch bitmap blinds the decision unit for the faulted
/// lookups: those writes produce no match at all.
#[test]
fn bitmap_desync_blinds_the_monitor() {
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .fault_plan(FaultPlan::new().with(FaultSpec::desync_bitmap(1, u64::MAX)))
        .build()
        .expect("boot");
    arm(&mut sys);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
    }
    sys.service_interrupts().expect("irq path");
    let mbm = sys.mbm_stats().expect("mbm");
    assert_eq!(mbm.events_matched, 0, "desync hides every watched write");
    let stats = sys.fault_stats().expect("injector installed");
    assert!(stats.bitmap_desyncs >= 4);
}

/// Fault counters surface in the JSON run artifact.
#[test]
fn run_report_carries_fault_counters() {
    use hypernel::report::RunReport;
    use hypernel::telemetry::json::Json;
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .fault_plan(FaultPlan::new().with(FaultSpec::drop_irq(1, 2)))
        .build()
        .expect("boot");
    arm(&mut sys);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
    }
    sys.service_interrupts().expect("irq path");
    let doc = Json::parse(&RunReport::capture(&sys).to_json().to_string()).expect("valid JSON");
    let faults = doc.get("faults").expect("faults section present");
    assert_eq!(faults.get("irqs_dropped").and_then(Json::as_u64), Some(2));
    assert!(faults.get("total").and_then(Json::as_u64).unwrap() >= 2);
}

/// Pins the raw event stream and the fault-hit log of one run whose
/// plan fires at every owner's sites: a lost hypercall (the machine),
/// a flipped snoop address (the bus), and a translator stall, a delayed
/// IRQ and a bitmap desync (the MBM). Telemetry runs from boot, so the
/// stream interleaves CPU-side and bus-side events on one clock, and
/// the ring is sized to evict the oldest of them. Any
/// change to who records an event or consults the injector, or in what
/// order, moves one of these values.
#[test]
fn telemetry_stream_and_fault_log_are_pinned() {
    use hypernel::kernel::abi::call;
    use hypernel::kernel::fnv1a;
    use hypernel::telemetry::export::write_jsonl;
    use hypernel::workloads::{lmbench, LmbenchOp};

    let plan = FaultPlan::new()
        .with(FaultSpec::lose_hypercall(1, 1, call::IRQ_NOTIFY))
        .with(FaultSpec::flip_snoop_addr(50, 2, 12))
        .with(FaultSpec::stall_translator(30, 3))
        .with(FaultSpec::delay_irq(2, 1, 2))
        .with(FaultSpec::desync_bitmap(3, 1));
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .telemetry(1 << 11)
        .fault_plan(plan)
        .build()
        .expect("boot");
    arm(&mut sys);
    {
        let (kernel, machine, hyp) = sys.parts();
        lmbench::run_op(kernel, machine, hyp, LmbenchOp::ForkExit, 2).expect("fork+exit");
        kernel
            .attack_cred_escalation(machine, hyp, Pid(1))
            .expect("attack runs");
    }
    sys.service_interrupts().expect("irq path");

    let events = sys.telemetry_events().expect("telemetry on");
    let snapshot = sys.telemetry_snapshot().expect("telemetry on");
    let spans: Vec<(String, u64)> = snapshot
        .spans
        .iter()
        .map(|((track, span), s)| (format!("{}/{}", track.name(), span.name()), s.count))
        .collect();
    let log: Vec<(&str, u64, u64)> = sys
        .fault_log()
        .expect("injector installed")
        .iter()
        .map(|hit| (hit.kind.name(), hit.site_index, hit.info))
        .collect();
    assert_eq!(events.len(), 2048);
    assert_eq!(sys.telemetry_dropped(), Some(209));
    assert_eq!(
        fnv1a(write_jsonl(&events).as_bytes()),
        0x5155_e5f1_4573_61c0
    );
    assert_eq!(
        spans,
        [
            ("el1/syscall", 4),
            ("el1/mbm-irq-service", 1),
            ("el2/hypercall-verify", 174),
            ("el2/sysreg-verify", 7),
            ("el2/stage2-check", 140),
            ("mbm/mbm-drain", 47),
        ]
        .map(|(name, count)| (name.to_string(), count))
    );
    assert_eq!(
        log,
        [
            ("desync-bitmap", 3, 0x7902_0140),
            ("stall-translator", 30, 0),
            ("stall-translator", 31, 0),
            ("stall-translator", 32, 0),
            ("flip-snoop-addr", 50, 0x81_a000),
            ("flip-snoop-addr", 51, 0x40_5040),
            ("delay-irq", 2, 0x81_3028),
            ("lose-hypercall", 1, call::IRQ_NOTIFY),
        ]
    );
}
