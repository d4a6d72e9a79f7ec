//! The cycle cost model.
//!
//! Every architectural event the simulation performs charges cycles from
//! this table. The defaults are calibrated for the paper's platform — a
//! Cortex-A57 at 1.15 GHz on the Juno r1 (paper §6) — using publicly
//! reported latencies for that generation of core (L1 ≈ 4 cycles, L2 ≈ 20,
//! DRAM ≈ 170, exception entry/exit ≈ 300–400, EL2 world switch ≈ 1.2 k).
//! EXPERIMENTS.md documents how measured results track the paper when these
//! defaults are used.

/// Clock frequency of the modeled big core (Cortex-A57 on Juno r1).
pub const CPU_FREQ_HZ: u64 = 1_150_000_000;

/// Cycle costs of architectural events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// A load/store that hits the L1 data cache.
    pub cache_hit: u64,
    /// DRAM access latency (cache-line fill, write-back, or non-cacheable
    /// access).
    pub dram_access: u64,
    /// One page-table descriptor fetch during a walk (walks are well
    /// cached in real cores; this sits between L1 and L2 latency).
    pub walk_access: u64,
    /// TLB lookup (charged on every translated access).
    pub tlb_lookup: u64,
    /// EL0→EL1 exception entry + return (SVC round trip).
    pub syscall_roundtrip: u64,
    /// EL1→EL2 synchronous exception entry + return (HVC or trap round
    /// trip), excluding handler work.
    pub hyp_roundtrip: u64,
    /// Full world switch with register-file save/restore, as KVM performs
    /// on vmexit/vmentry.
    pub world_switch: u64,
    /// IRQ entry + return at EL1.
    pub irq_roundtrip: u64,
    /// Fault (data abort) entry + return at EL1.
    pub fault_roundtrip: u64,
    /// TLB maintenance operation (per invalidate instruction).
    pub tlb_maintenance: u64,
    /// Cache maintenance operation (per line).
    pub cache_maintenance: u64,
}

impl CostModel {
    /// The calibrated default model (see module docs).
    pub const fn calibrated() -> Self {
        Self {
            cache_hit: 4,
            dram_access: 170,
            walk_access: 12,
            tlb_lookup: 1,
            syscall_roundtrip: 300,
            hyp_roundtrip: 400,
            world_switch: 1500,
            irq_roundtrip: 350,
            fault_roundtrip: 400,
            tlb_maintenance: 35,
            cache_maintenance: 30,
        }
    }

    /// An alternative calibration for the platform's *little* core (a
    /// Cortex-A53-class in-order core at 650 MHz, the other half of the
    /// paper's big.LITTLE Juno). Lower clock means fewer cycles per DRAM
    /// access but a costlier in-order exception path. Used by the
    /// sensitivity bench to show the paper's overhead *shape* is robust
    /// to the calibration point, not an artifact of one constant set.
    pub const fn cortex_a53() -> Self {
        Self {
            cache_hit: 3,
            dram_access: 95,
            walk_access: 9,
            tlb_lookup: 1,
            syscall_roundtrip: 380,
            hyp_roundtrip: 520,
            world_switch: 1900,
            irq_roundtrip: 430,
            fault_roundtrip: 500,
            tlb_maintenance: 45,
            cache_maintenance: 35,
        }
    }

    /// Cycles one cacheable access that hits both the TLB and the L1
    /// charges: `tlb_lookup + cache_hit`. A block access's line run
    /// multiplies this by the run length when batching hit sequences,
    /// so the batched charge stays equal to the per-word reference
    /// accounting by construction.
    pub const fn hit_access(&self) -> u64 {
        self.tlb_lookup + self.cache_hit
    }

    /// Converts a cycle count to microseconds at [`CPU_FREQ_HZ`].
    pub fn cycles_to_us(cycles: u64) -> f64 {
        cycles as f64 / (CPU_FREQ_HZ as f64 / 1e6)
    }

    /// Converts microseconds to cycles at [`CPU_FREQ_HZ`].
    pub fn us_to_cycles(us: f64) -> u64 {
        (us * (CPU_FREQ_HZ as f64 / 1e6)).round() as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_calibrated() {
        assert_eq!(CostModel::default(), CostModel::calibrated());
    }

    #[test]
    fn unit_conversion_roundtrip() {
        assert_eq!(CostModel::us_to_cycles(1.0), 1150);
        let us = CostModel::cycles_to_us(2300);
        assert!((us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn a53_profile_is_distinct_but_sane() {
        let big = CostModel::calibrated();
        let little = CostModel::cortex_a53();
        assert_ne!(big, little);
        assert!(little.cache_hit < little.walk_access);
        assert!(little.walk_access < little.dram_access);
        assert!(little.hyp_roundtrip < little.world_switch);
    }

    #[test]
    fn relative_ordering_is_sane() {
        let c = CostModel::calibrated();
        assert!(c.cache_hit < c.walk_access);
        assert!(c.walk_access < c.dram_access);
        assert!(c.syscall_roundtrip < c.hyp_roundtrip);
        assert!(c.hyp_roundtrip < c.world_switch);
    }
}
