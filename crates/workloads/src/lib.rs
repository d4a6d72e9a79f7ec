#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-workloads
//!
//! Workload generators for the Hypernel (DAC 2018) reproduction:
//!
//! * [`lmbench`] — the nine kernel-operation microbenchmarks of the
//!   paper's Table 1 (`stat`, signals, pipe/socket latency, fork/exec,
//!   page fault, mmap);
//! * [`apps`] — the five application benchmarks of Figure 6 and Table 2
//!   (whetstone, dhrystone, untar, iozone, apache), modeled as the
//!   kernel-operation mixes the real programs generate.
//!
//! All workloads are deterministic (seeded) and operate directly on the
//! `(Kernel, Machine, Hyp)` triple, so the same generator runs unchanged
//! under the Native, KVM-guest and Hypernel configurations.

pub mod apps;
pub mod lmbench;
pub mod measure;

pub use apps::AppBenchmark;
pub use lmbench::LmbenchOp;
pub use measure::Measurement;
