//! Sampling the standard metric catalog from a live [`System`].
//!
//! The windowed-metrics recorder (`hypernel_telemetry::MetricsRecorder`)
//! is driver-agnostic: it just buckets `(name, value)` samples into
//! cycle windows. This module is the system-side half — it reads every
//! standard metric's current cumulative value (or instantaneous level)
//! off a [`System`], so drivers can poll with one call:
//!
//! ```
//! use hypernel::{metrics::metric_samples, Mode, System};
//! use hypernel::telemetry::{MetricsConfig, MetricsRecorder};
//!
//! let sys = System::boot(Mode::Hypernel)?;
//! let mut rec = MetricsRecorder::new(&MetricsConfig::default());
//! rec.sample(sys.cycles(), &metric_samples(&sys));
//! # Ok::<(), hypernel_kernel::kernel::KernelError>(())
//! ```
//!
//! Every series is a model row of a counter table (or one of the MBM's
//! FIFO gauges) that names a metric; host counters carry no metric
//! name, so the resulting artifacts are byte-identical under
//! `HYPERNEL_NO_FASTPATH`.

use hypernel_machine::machine::MachineStats;
use hypernel_machine::tlb::TlbStats;
use hypernel_mbm::{Mbm, MbmStats};
use hypernel_telemetry::counters::{samples, Names};

use crate::system::System;

/// Reads the current value of every standard metric the system can
/// provide. Counters are cumulative; gauges are instantaneous. MBM
/// series are only present in Hypernel mode. `detection-latency-max`
/// is event-driven and never polled — drivers feed it via
/// `MetricsRecorder::observe`.
pub fn metric_samples(sys: &System) -> Vec<(&'static str, u64)> {
    fn series(names: &Names) -> Option<&'static str> {
        Some(names.metric?.name)
    }
    let machine = sys.machine();
    let mut out: Vec<_> = samples(MachineStats::COUNTERS, &machine.stats(), series)
        .chain(samples(TlbStats::COUNTERS, &machine.tlb().stats(), series))
        .collect();
    if let Some(mbm) = machine.bus().snooper::<Mbm>() {
        out.extend(samples(MbmStats::COUNTERS, &mbm.stats(), series));
        out.extend(samples(Mbm::GAUGES, mbm, series));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Mode;
    use hypernel_telemetry::metrics::metric;

    #[test]
    fn every_sampled_name_is_in_the_catalog() {
        for mode in [Mode::Native, Mode::Hypernel] {
            let sys = System::boot(mode).expect("boot");
            for (name, _) in metric_samples(&sys) {
                assert!(metric(name).is_some(), "unknown metric {name}");
            }
        }
    }

    #[test]
    fn hypernel_mode_samples_the_mbm_series() {
        let sys = System::boot(Mode::Hypernel).expect("boot");
        let names: Vec<&str> = metric_samples(&sys).iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"mbm-fifo-depth"));
        assert!(names.contains(&"mbm-fifo-high-water"));
        let native = System::boot(Mode::Native).expect("boot");
        let native_names: Vec<&str> = metric_samples(&native).iter().map(|(n, _)| *n).collect();
        assert!(!native_names.contains(&"mbm-fifo-depth"));
    }

    #[test]
    fn sampling_twice_reads_monotone_counters() {
        let mut sys = System::boot(Mode::Hypernel).expect("boot");
        let before = metric_samples(&sys);
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let after = metric_samples(&sys);
        let get =
            |v: &[(&str, u64)], n: &str| v.iter().find(|(name, _)| *name == n).map(|(_, v)| *v);
        assert!(get(&after, "hypercalls") > get(&before, "hypercalls"));
        assert!(get(&after, "tlb-hits") >= get(&before, "tlb-hits"));
    }
}
