#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel
//!
//! A full-system reproduction of **"Hypernel: A Hardware-Assisted
//! Framework for Kernel Protection without Nested Paging"** (Kwon et al.,
//! DAC 2018), built on a simulated AArch64-like machine.
//!
//! The paper's hardware prototype (ARM Juno r1 + an FPGA memory bus
//! monitor + patched Linux 3.10) is replaced by faithful software models:
//!
//! | Component | Crate |
//! |---|---|
//! | CPU/MMU/TLB/cache/bus machine model | [`hypernel_machine`] |
//! | Memory Bus Monitor (MBM) hardware   | [`hypernel_mbm`] |
//! | Mini monolithic kernel              | [`hypernel_kernel`] |
//! | Hypersec (EL2 secure software)      | [`hypernel_hypersec`] |
//! | KVM-style nested-paging baseline    | [`hypernel_hypervisor`] |
//! | LMbench + application workloads     | [`hypernel_workloads`] |
//!
//! This crate assembles them into the paper's three evaluation
//! configurations — [`Mode::Native`], [`Mode::KvmGuest`] and
//! [`Mode::Hypernel`] — behind one [`System`] type.
//!
//! ## Quickstart
//!
//! ```
//! use hypernel::{Mode, System};
//!
//! // Boot the kernel under Hypernel protection.
//! let mut system = System::boot(Mode::Hypernel)?;
//!
//! // Run a kernel operation; page-table updates go through verified
//! // hypercalls instead of nested paging.
//! let (kernel, machine, hyp) = system.parts();
//! let child = kernel.sys_fork(machine, hyp)?;
//! kernel.switch_to(machine, hyp, child)?;
//! kernel.sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))?;
//!
//! assert!(system.machine().stats().hypercalls > 0);
//! assert!(!system.machine().regs().stage2_enabled()); // no nested paging
//! # Ok::<(), hypernel_kernel::kernel::KernelError>(())
//! ```

pub mod metrics;
pub mod report;
pub mod system;

pub use report::{Latency, RunReport, REPORT_KIND, REPORT_SCHEMA};
pub use system::{Mode, System, SystemBuilder, DEFAULT_TELEMETRY_CAPACITY};

// Re-export the component crates so downstream users need only one
// dependency.
pub use hypernel_analyze as analyze;
pub use hypernel_audit as audit;
pub use hypernel_hypersec as hypersec;
pub use hypernel_hypervisor as hypervisor;
pub use hypernel_kernel as kernel;
pub use hypernel_machine as machine;
pub use hypernel_mbm as mbm;
pub use hypernel_telemetry as telemetry;
pub use hypernel_workloads as workloads;
