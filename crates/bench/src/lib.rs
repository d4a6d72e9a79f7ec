#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Shared helpers for the Hypernel benchmark harnesses.
//!
//! Each `benches/*.rs` target regenerates one table or figure of the
//! paper; this crate provides the system drivers and table formatting
//! they share. The drivers behind Table 1 ([`lmbench_on`]), Figure 6
//! ([`app_on`]) and Table 2 ([`trap_events`]) are also what
//! `tests/paper_claims.rs` pins, cell for cell, so the printed tables
//! and the tier-1 pin measure the same thing.

use hypernel::{Mode, System};
use hypernel_kernel::kernel::{KernelError, MonitorHooks, MonitorMode};
use hypernel_workloads::{apps, lmbench, AppBenchmark, LmbenchOp, Measurement};

/// Iterations per LMbench operation (LMbench itself repeats and averages;
/// the simulation is deterministic, so fewer repetitions suffice — the
/// repetitions still matter because cache, TLB and allocator state evolve
/// across them).
pub const LMBENCH_ITERS: u64 = 100;

/// Runs one LMbench op on a freshly booted system of the given mode.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn lmbench_on(mode: Mode, op: LmbenchOp) -> Result<Measurement, KernelError> {
    let mut sys = System::boot(mode)?;
    let (kernel, machine, hyp) = sys.parts();
    lmbench::run_op(kernel, machine, hyp, op, LMBENCH_ITERS)
}

/// Runs one application benchmark on a freshly booted system.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn app_on(mode: Mode, bench: AppBenchmark) -> Result<Measurement, KernelError> {
    let mut sys = System::boot(mode)?;
    let (kernel, machine, hyp) = sys.parts();
    apps::prepare(kernel, machine, hyp, bench)?;
    apps::run(kernel, machine, hyp, bench, 1, 42)
}

/// Runs one application benchmark on Hypernel with the security
/// solution of the paper's Table 2 monitoring the `cred` and `dentry`
/// objects at `granularity`, and returns the MBM's matched-event count
/// (the paper's "number of interrupts generated").
///
/// # Errors
///
/// Propagates kernel errors.
pub fn trap_events(bench: AppBenchmark, granularity: MonitorMode) -> Result<u64, KernelError> {
    let mut sys = System::boot(Mode::Hypernel)?;
    {
        let (kernel, machine, hyp) = sys.parts();
        apps::prepare(kernel, machine, hyp, bench)?;
        // The benchmark starts on a quiet system: the security solution
        // arms now (sweeping existing objects), counters reset now.
        let hooks = MonitorHooks { mode: granularity };
        kernel.arm_monitor_hooks(machine, hyp, hooks)?;
    }
    sys.reset_mbm_stats();
    {
        let (kernel, machine, hyp) = sys.parts();
        apps::run(kernel, machine, hyp, bench, 1, 42)?;
    }
    let events = sys.mbm_stats().expect("Hypernel has an MBM").events_matched;
    // Disarm and drain before teardown.
    sys.parts().0.set_monitor_hooks(None);
    let _ = sys.service_interrupts();
    Ok(events)
}

/// Formats a signed percentage (`0.155` → `+15.5%`).
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Prints a horizontal rule of `width` dashes.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.155), "+15.5%");
        assert_eq!(pct(-0.031), "-3.1%");
    }
}
