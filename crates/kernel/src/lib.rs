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

/// 64-bit FNV-1a of `bytes`: the kernel's dentry name hash and its
/// shared-region stamps, and the campaign's seed mixing and mutant ids.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
