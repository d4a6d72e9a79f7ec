#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-hypersec
//!
//! **Hypersec**, the secure-space software of the [Hypernel (DAC 2018)][paper]
//! framework. It runs at EL2 with the ARM virtualization
//! extension but **without nested paging**: instead of a stage-2 table it
//! verifies every kernel page-table update submitted by hypercall,
//! validates trapped `TVM` register writes, and — together with the
//! memory bus monitor (`hypernel-mbm`) — gives security applications
//! word-granularity write monitoring over kernel objects.
//!
//! See [`hypersec::Hypersec`] for the runtime and [`secapp`] for the
//! hosted security applications (the paper's cred/dentry integrity
//! solution).
//!
//! ## Example
//!
//! ```
//! use hypernel_machine::machine::{Machine, MachineConfig};
//! use hypernel_kernel::layout;
//! use hypernel_hypersec::{CredMonitor, Hypersec, HypersecConfig};
//!
//! let mut machine = Machine::new(MachineConfig {
//!     dram_size: layout::DRAM_SIZE,
//!     ..MachineConfig::default()
//! });
//! let mut hypersec = Hypersec::install(&mut machine, HypersecConfig::standard());
//! hypersec.install_app(Box::new(CredMonitor::new()));
//! assert!(!hypersec.is_locked());
//! assert!(machine.regs().tvm_enabled());
//! assert!(!machine.regs().stage2_enabled()); // no nested paging!
//! ```
//!
//! [paper]: https://doi.org/10.1145/3195970.3196061

pub mod audit;
pub mod hypersec;
pub mod secapp;

pub use audit::AuditBaseline;
pub use hypersec::{
    codes, AuditReport, Detection, Hypersec, HypersecConfig, HypersecCosts, HypersecStats,
};
pub use secapp::{
    ComposeMonitor, CredMonitor, DentryMonitor, MonitorEvent, Region, SecurityApp,
    ValueWhitelistMonitor, Verdict,
};
