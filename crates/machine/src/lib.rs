#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # hypernel-machine
//!
//! The simulated hardware substrate for the [Hypernel (DAC 2018)][paper]
//! reproduction: an AArch64-like machine with exception levels, a
//! configurable MMU (stage-1, optional stage-2/nested paging, and a
//! separate EL2 regime), a finite TLB, a write-back data cache, and a
//! snoopable CPU↔DRAM memory bus — everything the paper's software
//! (Hypersec, a mini kernel, a KVM-style baseline) and hardware (the
//! memory bus monitor) plug into.
//!
//! The machine is *driven*, not self-executing: there is no instruction
//! decoder. Software is ordinary Rust code that calls [`machine::Machine`]
//! methods (translated loads/stores, system-register writes, hypercalls),
//! and the machine charges cycles from a calibrated [`cost::CostModel`]
//! and routes traps to the installed [`machine::Hyp`] implementation,
//! exactly as the architectural state machine would.
//!
//! ## Example
//!
//! ```
//! use hypernel_machine::machine::{Machine, MachineConfig, NullHyp};
//! use hypernel_machine::regs::{ExceptionLevel, SysReg};
//! use hypernel_machine::addr::VirtAddr;
//!
//! // A machine with the MMU off behaves like flat physical memory.
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.set_el(ExceptionLevel::El1);
//! let mut hyp = NullHyp;
//! machine.write_u64(VirtAddr::new(0x1000), 42, &mut hyp)?;
//! assert_eq!(machine.read_u64(VirtAddr::new(0x1000), &mut hyp)?, 42);
//! # Ok::<(), hypernel_machine::machine::Exception>(())
//! ```
//!
//! [paper]: https://doi.org/10.1145/3195970.3196061

pub mod addr;
pub mod bus;
pub mod cache;
pub mod cost;
pub mod fastpath;
pub mod fault;
pub mod fxhash;
pub mod irq;
pub mod machine;
pub mod mem;
pub mod pagetable;
pub mod regs;
pub mod shadow;
pub mod snapshot;
pub mod tlb;

pub use addr::{IntermAddr, PhysAddr, VirtAddr};
pub use fastpath::fastpath_enabled;
pub use fault::{FaultHit, FaultKind, FaultPlan, FaultSpec, FaultStats, IrqFault, SharedFaults};
pub use machine::{
    AccessKind, BlockFault, Exception, Hyp, Machine, MachineConfig, NullHyp, PlanStats,
    PolicyViolation,
};
pub use regs::{ExceptionLevel, SysReg};
pub use shadow::{PageTag, ShadowStats, ShadowTags, TagPolicy, TagViolation, Writer};
