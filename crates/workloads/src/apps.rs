//! Application benchmark models (paper Figure 6 and Table 2).
//!
//! Each [`AppBenchmark`] reproduces the *kernel-operation mix* of the
//! benchmark the paper ran: process launches, file creation/IO, socket
//! traffic, and user-space compute phases with memory traffic. Absolute
//! run times are meaningless across a simulator boundary; what matters —
//! and what these mixes are calibrated for — is (a) the relative overhead
//! of the three system configurations (Figure 6) and (b) the ratio of
//! sensitive-field writes to whole-object writes on the monitored `cred`
//! and `dentry` objects (Table 2).
//!
//! Sizes are scaled down ~10× from the paper's runs (see
//! [`AppBenchmark::paper_scale_factor`]); both Table 2 columns scale
//! linearly with workload size, so the ratio is preserved.

use hypernel_kernel::kernel::{Kernel, KernelError};
use hypernel_kernel::layout;
use hypernel_kernel::task::Pid;

use hypernel_machine::addr::{VirtAddr, PAGE_SIZE};
use hypernel_machine::machine::{Hyp, Machine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::measure::Measurement;

/// The five application benchmarks of the paper's Figure 6 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppBenchmark {
    /// Floating-point compute (whetstone).
    Whetstone,
    /// Integer/string compute (dhrystone).
    Dhrystone,
    /// Archive extraction: many small file creations (untar).
    Untar,
    /// Filesystem throughput (iozone).
    Iozone,
    /// Web serving: sockets + static files + CGI forks (apache).
    Apache,
}

impl AppBenchmark {
    /// All benchmarks in the paper's Table 2 row order.
    pub const ALL: &'static [AppBenchmark] = &[
        Self::Whetstone,
        Self::Dhrystone,
        Self::Untar,
        Self::Iozone,
        Self::Apache,
    ];

    /// Paper §7.1.2, Figure 6: the average overhead over native of the
    /// KVM guest and of Hypernel ("13.5% and 3.1% of the performance
    /// overhead, respectively"). The paper gives no per-application
    /// values.
    pub const PAPER_AVG_OVERHEAD: [f64; 2] = [0.135, 0.031];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Whetstone => "whetstone",
            Self::Dhrystone => "dhrystone",
            Self::Untar => "untar",
            Self::Iozone => "iozone",
            Self::Apache => "apache",
        }
    }

    /// Paper Table 2: trap events under page-granularity monitoring.
    pub fn paper_page_granularity_events(self) -> u64 {
        match self {
            Self::Whetstone => 525,
            Self::Dhrystone => 637,
            Self::Untar => 2_173_870,
            Self::Iozone => 1_510,
            Self::Apache => 48_650,
        }
    }

    /// Paper Table 2: trap events under word-granularity monitoring.
    pub fn paper_word_granularity_events(self) -> u64 {
        match self {
            Self::Whetstone => 48,
            Self::Dhrystone => 39,
            Self::Untar => 96_467,
            Self::Iozone => 117,
            Self::Apache => 1_754,
        }
    }

    /// How much smaller (roughly) our default workload sizes are than the
    /// paper's runs. Event counts scale linearly; ratios do not change.
    pub fn paper_scale_factor(self) -> f64 {
        match self {
            Self::Whetstone | Self::Dhrystone | Self::Iozone => 1.0,
            Self::Untar => 10.0,
            Self::Apache => 10.0,
        }
    }
}

impl std::fmt::Display for AppBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// User-space compute phase: charges cycles and performs strided loads
/// and stores over the current task's image pages at EL0 — the traffic
/// that makes nested-paging TLB misses expensive under KVM. Accesses go
/// through the kernel's demand-paging path, so pages exec left unmapped
/// fault in naturally.
fn user_compute(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    compute_cycles: u64,
    mem_ops: u64,
    rng: &mut SmallRng,
) -> Result<(), KernelError> {
    m.charge(compute_cycles);
    let pages = hypernel_kernel::kernel::tuning::USER_IMAGE_PAGES as u64;
    for i in 0..mem_ops {
        let page = rng.gen_range(0..pages);
        let word = rng.gen_range(0..PAGE_SIZE / 8);
        let va = VirtAddr::new(layout::USER_IMAGE_BASE + page * PAGE_SIZE + word * 8);
        if i % 3 == 0 {
            kernel.user_store(m, hyp, va, i)?;
        } else {
            kernel.user_touch(m, hyp, va)?;
        }
    }
    Ok(())
}

/// Interactive-shell background activity around a benchmark run: PATH
/// stats, history appends — the dcache traffic a driver script causes.
fn shell_activity(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    rounds: u64,
) -> Result<(), KernelError> {
    kernel.sys_create(m, hyp, "/tmp/.sh_history")?;
    for i in 0..rounds {
        let path = ["/bin/sh", "/bin", "/etc", "/usr"][(i % 4) as usize];
        kernel.sys_stat(m, hyp, path)?;
        kernel.sys_write_file(m, hyp, "/tmp/.sh_history", 64)?;
    }
    kernel.sys_unlink(m, hyp, "/tmp/.sh_history")?;
    Ok(())
}

/// Launches a benchmark process: fork from the shell, exec the binary.
fn launch(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    binary: &str,
) -> Result<(Pid, Pid), KernelError> {
    let shell = kernel.current();
    let child = kernel.sys_fork(m, hyp)?;
    kernel.switch_to(m, hyp, child)?;
    kernel.sys_execve(m, hyp, binary)?;
    Ok((shell, child))
}

fn finish(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    shell: Pid,
    child: Pid,
) -> Result<(), KernelError> {
    kernel.sys_exit(m, hyp, child, shell)?;
    kernel.poll_irqs(m, hyp)?;
    Ok(())
}

/// Creates the static filesystem content a benchmark expects (binaries,
/// archives, document roots). Run this **before** resetting monitor
/// statistics: the paper's benchmarks also start from an existing
/// filesystem.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn prepare(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    bench: AppBenchmark,
) -> Result<(), KernelError> {
    match bench {
        AppBenchmark::Whetstone => kernel.sys_create(m, hyp, "/bin/whetstone"),
        AppBenchmark::Dhrystone => kernel.sys_create(m, hyp, "/bin/dhrystone"),
        AppBenchmark::Untar => {
            kernel.sys_create(m, hyp, "/bin/tar")?;
            kernel.sys_create(m, hyp, "/tmp/archive.tar")?;
            kernel.sys_write_file(m, hyp, "/tmp/archive.tar", 64 * 1024)?;
            kernel.sys_create(m, hyp, "/tmp/untar")
        }
        AppBenchmark::Iozone => kernel.sys_create(m, hyp, "/bin/iozone"),
        AppBenchmark::Apache => {
            kernel.sys_create(m, hyp, "/bin/httpd")?;
            kernel.sys_create(m, hyp, "/usr/index.html")?;
            kernel.sys_write_file(m, hyp, "/usr/index.html", 8 * 1024)?;
            kernel.sys_create(m, hyp, "/bin/cgi")?;
            kernel.sys_create(m, hyp, "/tmp/access.log")
        }
    }
}

/// Runs `bench` at `scale` (1 = default size) with a deterministic
/// `seed`, returning the cycles consumed. Call [`prepare`] first.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    bench: AppBenchmark,
    scale: u32,
    seed: u64,
) -> Result<Measurement, KernelError> {
    let scale = scale.max(1) as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let start = m.cycles();
    match bench {
        AppBenchmark::Whetstone => {
            let (shell, child) = launch(kernel, m, hyp, "/bin/whetstone")?;
            kernel.sys_create(m, hyp, "/tmp/whet.out")?;
            for i in 0..60 * scale {
                user_compute(kernel, m, hyp, 55_000, 96, &mut rng)?;
                if i % 20 == 19 {
                    // Timer check + intermediate result append.
                    kernel.sys_getpid(m);
                    kernel.sys_write_file(m, hyp, "/tmp/whet.out", 256)?;
                }
            }
            // Per-section scratch files, as the driver script produces.
            for s in 0..3 {
                let scratch = format!("/tmp/whet.{s}");
                kernel.sys_create(m, hyp, &scratch)?;
                kernel.sys_write_file(m, hyp, &scratch, 512)?;
                kernel.sys_unlink(m, hyp, &scratch)?;
            }
            kernel.sys_unlink(m, hyp, "/tmp/whet.out")?;
            shell_activity(kernel, m, hyp, 30)?;
            finish(kernel, m, hyp, shell, child)?;
        }
        AppBenchmark::Dhrystone => {
            let (shell, child) = launch(kernel, m, hyp, "/bin/dhrystone")?;
            kernel.sys_create(m, hyp, "/tmp/dhry.out")?;
            for i in 0..80 * scale {
                user_compute(kernel, m, hyp, 40_000, 160, &mut rng)?;
                if i % 25 == 24 {
                    kernel.sys_getpid(m);
                    kernel.sys_write_file(m, hyp, "/tmp/dhry.out", 128)?;
                }
            }
            kernel.sys_unlink(m, hyp, "/tmp/dhry.out")?;
            shell_activity(kernel, m, hyp, 24)?;
            finish(kernel, m, hyp, shell, child)?;
        }
        AppBenchmark::Untar => {
            let (shell, child) = launch(kernel, m, hyp, "/bin/tar")?;
            let files = 1_900 * scale;
            for f in 0..files {
                let dir = f / 100;
                let dir_path = format!("/tmp/untar/d{dir}");
                if f % 100 == 0 {
                    kernel.sys_create(m, hyp, &dir_path)?;
                }
                // Read the next archive chunk.
                kernel.sys_read_file(m, hyp, "/tmp/archive.tar", 4096)?;
                // Extract: create, write, chmod/utime (stat-like touch).
                let path = format!("{dir_path}/f{f}");
                kernel.sys_create(m, hyp, &path)?;
                // tar writes in 512-byte blocks: eight write() calls.
                for _ in 0..8 {
                    kernel.sys_write_file(m, hyp, &path, 512)?;
                }
                kernel.sys_stat(m, hyp, &path)?;
                kernel.sys_stat(m, hyp, &path)?; // chmod + utime touch
                user_compute(kernel, m, hyp, 6_000, 16, &mut rng)?;
                if f % 256 == 255 {
                    kernel.poll_irqs(m, hyp)?;
                }
            }
            finish(kernel, m, hyp, shell, child)?;
        }
        AppBenchmark::Iozone => {
            let (shell, child) = launch(kernel, m, hyp, "/bin/iozone")?;
            for t in 0..20 * scale {
                let path = format!("/tmp/ioz{t}");
                kernel.sys_create(m, hyp, &path)?;
                // Sequential write + rewrite (64 KiB in 4 KiB chunks).
                for _ in 0..2 {
                    for _ in 0..16 {
                        kernel.sys_write_file(m, hyp, &path, 4096)?;
                    }
                }
                // Read + reread.
                for _ in 0..2 {
                    for _ in 0..16 {
                        kernel.sys_read_file(m, hyp, &path, 4096)?;
                    }
                }
                // Random reads.
                for _ in 0..8 {
                    kernel.sys_read_file(m, hyp, &path, 512)?;
                }
                kernel.sys_unlink(m, hyp, &path)?;
                kernel.poll_irqs(m, hyp)?;
            }
            finish(kernel, m, hyp, shell, child)?;
        }
        AppBenchmark::Apache => {
            let (shell, httpd) = launch(kernel, m, hyp, "/bin/httpd")?;
            // Prefork one worker that requests bounce off.
            let worker = kernel.sys_fork(m, hyp)?;
            let requests = 2_000 * scale;
            for r in 0..requests {
                kernel.sys_socket_roundtrip(m, hyp, worker, 512)?;
                kernel.sys_stat(m, hyp, "/usr/index.html")?;
                kernel.sys_read_file(m, hyp, "/usr/index.html", 8 * 1024)?;
                kernel.sys_write_file(m, hyp, "/tmp/access.log", 128)?;
                user_compute(kernel, m, hyp, 3_000, 16, &mut rng)?;
                if r % 200 == 199 {
                    // CGI request: fork + exec + exit.
                    let me = kernel.current();
                    let cgi = kernel.sys_fork(m, hyp)?;
                    kernel.switch_to(m, hyp, cgi)?;
                    kernel.sys_execve(m, hyp, "/bin/cgi")?;
                    let out = format!("/tmp/cgi{r}");
                    kernel.sys_create(m, hyp, &out)?;
                    kernel.sys_write_file(m, hyp, &out, 1024)?;
                    kernel.sys_unlink(m, hyp, &out)?;
                    kernel.sys_exit(m, hyp, cgi, me)?;
                }
                if r % 256 == 255 {
                    kernel.poll_irqs(m, hyp)?;
                }
            }
            kernel.sys_exit(m, hyp, worker, httpd)?;
            finish(kernel, m, hyp, shell, httpd)?;
        }
    }
    Ok(Measurement {
        total_cycles: m.cycles() - start,
        iterations: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_kernel::kernel::KernelConfig;
    use hypernel_machine::machine::{MachineConfig, NullHyp};

    fn boot() -> (Machine, NullHyp, Kernel) {
        let mut m = Machine::new(MachineConfig {
            dram_size: layout::DRAM_SIZE,
            ..MachineConfig::default()
        });
        let mut hyp = NullHyp;
        let k = Kernel::boot(&mut m, &mut hyp, KernelConfig::native()).expect("boot");
        (m, hyp, k)
    }

    #[test]
    fn whetstone_is_compute_dominated() {
        let (mut m, mut hyp, mut k) = boot();
        prepare(&mut k, &mut m, &mut hyp, AppBenchmark::Whetstone).unwrap();
        let syscalls_before = k.stats().syscalls;
        let meas = run(&mut k, &mut m, &mut hyp, AppBenchmark::Whetstone, 1, 42).unwrap();
        assert!(meas.total_cycles > 3_000_000, "got {}", meas.total_cycles);
        assert!(k.stats().syscalls - syscalls_before < 200, "few syscalls");
    }

    #[test]
    fn untar_creates_many_files() {
        let (mut m, mut hyp, mut k) = boot();
        prepare(&mut k, &mut m, &mut hyp, AppBenchmark::Untar).unwrap();
        run(&mut k, &mut m, &mut hyp, AppBenchmark::Untar, 1, 42).unwrap();
        assert!(k.stats().files_created >= 1_900);
    }

    #[test]
    fn apache_mixes_sockets_and_forks() {
        let (mut m, mut hyp, mut k) = boot();
        prepare(&mut k, &mut m, &mut hyp, AppBenchmark::Apache).unwrap();
        run(&mut k, &mut m, &mut hyp, AppBenchmark::Apache, 1, 42).unwrap();
        assert!(k.stats().forks >= 10, "CGI forks happened");
        assert!(k.stats().context_switches > 2_000, "socket round trips");
    }

    #[test]
    fn iozone_is_io_dominated() {
        let (mut m, mut hyp, mut k) = boot();
        prepare(&mut k, &mut m, &mut hyp, AppBenchmark::Iozone).unwrap();
        let meas = run(&mut k, &mut m, &mut hyp, AppBenchmark::Iozone, 1, 42).unwrap();
        assert!(meas.total_cycles > 500_000);
        assert_eq!(k.dentry_slab().stats().live, k.dentry_slab().stats().live);
    }

    #[test]
    fn runs_are_deterministic() {
        let run_once = || {
            let (mut m, mut hyp, mut k) = boot();
            prepare(&mut k, &mut m, &mut hyp, AppBenchmark::Dhrystone).unwrap();
            run(&mut k, &mut m, &mut hyp, AppBenchmark::Dhrystone, 1, 7)
                .unwrap()
                .total_cycles
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn labels_and_paper_rows() {
        for &b in AppBenchmark::ALL {
            assert!(!b.label().is_empty());
            assert!(b.paper_page_granularity_events() > b.paper_word_granularity_events());
            assert!(b.paper_scale_factor() >= 1.0);
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(AppBenchmark::ALL.len(), 5);
    }
}
