//! Host-side fast-path switches.
//!
//! Several structures keep a *host* fast path in front of their model —
//! the L0 micro-TLB, the MBM watch-word filter, bulk block accesses
//! with their cache-line runs, and warm-boot system cloning. All of
//! them are contractually invisible to the simulation: simulated
//! cycles, statistics that serialize into artifacts, and every
//! model-visible side effect are byte-identical with the fast paths on
//! or off. `HYPERNEL_NO_FASTPATH=1` force-disables all of them at once,
//! which is how CI proves the contract (`diff` of `campaign.jsonl` and
//! of the printing benches' output with the paths on vs off).
//!
//! The environment is read once per process; tests that need both
//! behaviors in one process use the per-structure setters instead
//! (e.g. [`crate::tlb::Tlb::set_l0_enabled`] or
//! [`crate::machine::Machine::set_compiled_enabled`]).

use std::sync::OnceLock;

/// Whether host fast paths are enabled for this process (the default).
/// Set `HYPERNEL_NO_FASTPATH=1` to force every consumer onto its
/// reference path.
pub fn fastpath_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("HYPERNEL_NO_FASTPATH") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    })
}
