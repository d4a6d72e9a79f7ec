//! The metric catalog: every end-to-end and per-layer metric, by the
//! name and unit `BENCHMARK.json` declares. An untraced run reports the
//! end-to-end set, a traced run the per-layer set; a per-layer metric
//! the workload does not exercise reads 0.

use std::fmt::Write as _;

pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("sim_maccess_per_s", "Macc/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("audit.static_ms", "ms"),
    ("audit.share", "ratio"),
    ("audit.leaves_checked", "count"),
    ("audit.tables_walked", "count"),
    ("hypersec.audit_ms", "ms"),
    ("campaign.run_ms", "ms"),
    ("campaign.body_ms_est", "ms"),
    ("campaign.oracle_us", "us"),
    ("campaign.coverage_us", "us"),
    ("core.boot_ms", "ms"),
    ("core.fork_ms", "ms"),
    ("machine.ns_per_access", "ns"),
    ("machine.tlb_hit_rate", "ratio"),
    ("machine.tlb_l0_share", "ratio"),
    ("machine.dcache_hit_rate", "ratio"),
    ("machine.uncached_share", "ratio"),
    ("machine.plan_replay_share", "ratio"),
    ("machine.plan_hint_repairs", "count"),
    ("machine.plan_invalidations", "count"),
    ("machine.sysreg_traps", "count"),
    ("machine.fastpath_gain.l0_tlb", "ratio"),
    ("machine.fastpath_gain.block", "ratio"),
    ("machine.fastpath_gain.compiled", "ratio"),
    ("machine.fastpath_gain.mbm_filter", "ratio"),
    ("machine.fastpath_gain.warm_fork", "ratio"),
    ("mbm.captured", "count"),
    ("mbm.filter_skip_share", "ratio"),
    ("mbm.bitmap_cache_hit_rate", "ratio"),
    ("mbm.events_matched", "count"),
    ("mbm.fifo_dropped", "count"),
    ("hypersec.hypercalls", "count"),
    ("hypersec.pt_writes", "count"),
    ("hypervisor.stage2_faults", "count"),
    ("hypervisor.stage2_tlb_hit_rate", "ratio"),
    ("kernel.syscalls", "count"),
    ("kernel.forks", "count"),
    ("kernel.page_faults", "count"),
    ("kernel.us_per_syscall", "us"),
    ("workloads.table1_us.native", "us"),
    ("workloads.table1_us.kvm", "us"),
    ("workloads.table1_us.hypernel", "us"),
    ("workloads.fig6_ms.native", "ms"),
    ("workloads.fig6_ms.kvm", "ms"),
    ("workloads.fig6_ms.hypernel", "ms"),
    ("workloads.untar_rep_ms.p50", "ms"),
    ("workloads.untar_rep_ms.tail", "ms"),
    ("paper_err_pp", "pp"),
    ("failed_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All metrics of the end-to-end (untraced) or per-layer (traced)
    /// set, at 0.
    pub fn new(traced: bool) -> Self {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        Self {
            catalog,
            values: vec![0.0; catalog.len()],
        }
    }

    /// Sets a metric of this set; names outside it are a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalog
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not in this metric set"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn set_gain(&mut self, fast_path: &str, gain: f64) {
        self.set(&format!("machine.fastpath_gain.{fast_path}"), gain);
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, ((name, unit), value)) in self.catalog.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}
