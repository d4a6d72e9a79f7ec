#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-kernel
//!
//! A mini monolithic kernel substrate for the Hypernel (DAC 2018)
//! reproduction. (Top-level `Kernel` arrives in `kernel` module.)

pub mod abi;
pub mod attack;
pub mod compose;
pub mod kernel;
pub mod kobj;
pub mod layout;
pub mod pgalloc;
pub mod pgtable;
pub mod sched;
pub mod slab;
pub mod task;

pub use attack::{AttackOutcome, AttackStep, StepParam, StepResult};
pub use compose::{
    ChannelInfo, ComposeState, ComposeStats, DomainInfo, DomainRole, RegionInfo, MAX_CHANNELS,
};
pub use kernel::{Kernel, KernelConfig, KernelError, KernelStats, MonitorHooks, MonitorMode};
pub use pgtable::{LinearMapMode, PtRoute};
pub use task::{Pid, Task};
