//! Attack forensics: inject the paper's cred-escalation rootkit under an
//! armed Hypernel system, then walk the telemetry trace back through the
//! full causal chain — watched-word write → MBM FIFO capture → drain →
//! IRQ → kernel service → EL2 verdict — and print the per-incident
//! report with end-to-end detection latency, the quantity behind the
//! paper's Table 2.
//!
//! ```sh
//! cargo run --release -p hypernel --example forensics
//! ```

use hypernel::analyze::{attribution, forensics};
use hypernel::kernel::kernel::{KernelError, MonitorHooks, MonitorMode};
use hypernel::kernel::task::Pid;
use hypernel::{Mode, SystemBuilder, DEFAULT_TELEMETRY_CAPACITY};

fn main() -> Result<(), KernelError> {
    // Boot Hypernel with word-granular monitoring armed and the
    // telemetry pipeline recording every cross-EL event.
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .telemetry(DEFAULT_TELEMETRY_CAPACITY)
        .build()?;
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel.arm_monitor_hooks(
            machine,
            hyp,
            MonitorHooks {
                mode: MonitorMode::SensitiveFields,
            },
        )?;
    }

    // The rootkit: forge uid/euid of pid 1 to 0 by writing the cred
    // structure directly, bypassing setuid(). The write itself succeeds
    // — Hypernel detects, it does not prevent, plain data writes.
    {
        let (kernel, machine, hyp) = sys.parts();
        let outcome = kernel.attack_cred_escalation(machine, hyp, Pid(1))?;
        println!(
            "rootkit cred escalation ran: {}",
            if outcome.succeeded() {
                "write landed (as expected — detection, not prevention)"
            } else {
                "write blocked"
            }
        );
    }
    // Deliver the MBM IRQ so the kernel services the FIFO and the EL2
    // security applications render their verdicts.
    sys.service_interrupts()?;

    // What did Hypersec conclude?
    let hs = sys.hypersec().expect("hypersec present in Hypernel mode");
    println!("\nsecurity application verdicts:");
    for d in hs.detections() {
        println!("  [sid {}] {}", d.sid, d.reason);
    }

    // Now the forensics: rebuild every incident's causal timeline from
    // the raw telemetry events alone — exactly what
    // `hypernel analyze forensics trace.jsonl` does offline.
    let events = sys.telemetry_events().expect("telemetry enabled");
    let incidents = forensics::reconstruct_incidents(&events);
    println!("\n{}", forensics::render_text(&incidents));

    assert!(
        !incidents.is_empty(),
        "the forged cred write must surface as an MBM incident"
    );
    assert!(
        incidents.iter().any(|i| i.detection_latency().is_some()),
        "at least one incident must have a measured detection latency"
    );

    // And the cost side: where did this run's cycles go?
    let attribution = attribution::attribute(&events);
    println!("cycle attribution (top 10):");
    print!("{}", attribution.render_table(10));
    Ok(())
}
