//! Trace inspection: record one `fork` through the telemetry pipeline
//! and print the exact sequence of privilege-boundary point events it
//! caused — the hypercall-per-descriptor pattern that explains
//! Hypernel's Table 1 fork overhead at a glance.
//!
//! ```sh
//! cargo run --release -p hypernel --example trace_inspection
//! ```

use hypernel::kernel::abi::call;
use hypernel::kernel::kernel::KernelError;
use hypernel::kernel::task::Pid;
use hypernel::telemetry::{EventKind, PointKind};
use hypernel::{Mode, System, DEFAULT_TELEMETRY_CAPACITY};

fn main() -> Result<(), KernelError> {
    let mut system = System::boot(Mode::Hypernel)?;
    system.enable_telemetry(DEFAULT_TELEMETRY_CAPACITY);

    let start = system.cycles();
    {
        let (kernel, machine, hyp) = system.parts();
        let child = kernel.sys_fork(machine, hyp)?;
        kernel.switch_to(machine, hyp, child)?;
        kernel.sys_exit(machine, hyp, child, Pid(1))?;
    }
    let end = system.cycles();

    let points: Vec<(u64, PointKind, u64, u64)> = system
        .telemetry_events()
        .expect("telemetry enabled")
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Mark(kind, a, b) => Some((e.cycles, kind, a, b)),
            _ => None,
        })
        .collect();
    println!(
        "one fork+exit under Hypernel: {} cycles, {} point events ({} dropped)\n",
        end - start,
        points.len(),
        system.telemetry_dropped().unwrap_or(0)
    );

    // Histogram by event kind / hypercall number.
    let mut pt_writes = 0u64;
    let mut registrations = 0u64;
    let mut retirements = 0u64;
    let mut other_hvc = 0u64;
    let mut ttbr_traps = 0u64;
    let mut tlb_ops = 0u64;
    for &(_, kind, a, _) in &points {
        match kind {
            PointKind::Hypercall if a == call::PT_WRITE => pt_writes += 1,
            PointKind::Hypercall if a == call::PT_REGISTER_TABLE => registrations += 1,
            PointKind::Hypercall if a == call::PT_UNREGISTER_TABLE => retirements += 1,
            PointKind::Hypercall => other_hvc += 1,
            PointKind::SysregTrap => ttbr_traps += 1,
            PointKind::TlbMaintenance => tlb_ops += 1,
            _ => {}
        }
    }
    println!("privilege-boundary breakdown:");
    println!("  PT_WRITE hypercalls (verified descriptor stores): {pt_writes}");
    println!("  PT_REGISTER_TABLE   (fresh tables adopted):       {registrations}");
    println!("  PT_UNREGISTER_TABLE (address space retired):      {retirements}");
    println!("  other hypercalls:                                 {other_hvc}");
    println!("  TVM traps (TTBR0 context-switch validation):      {ttbr_traps}");
    println!("  TLB maintenance:                                  {tlb_ops}");

    println!("\nfirst ten point events:");
    for (cycles, kind, a, b) in points.iter().take(10) {
        println!("  @{cycles:>8} {:<16} {a:#x} {b:#x}", kind.name());
    }
    println!("\nEach PT_WRITE is one verified page-table descriptor — fork copies");
    println!("the parent's user mappings into the child's fresh tables, which is");
    println!("exactly why fork carries Hypernel's largest Table 1 overhead while");
    println!("a plain syscall carries none.");
    Ok(())
}
