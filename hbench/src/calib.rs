//! A fixed probe of the host's current speed.
//!
//! A shared virtual machine can change speed by up to 2× for spells of
//! seconds to minutes (seen on a 2-vCPU x86-64 VM), with CPU time
//! tracking wall time, so no clock subtracts the slowdown. The probe
//! does a fixed amount of
//! work resembling the simulator's — random read-modify-writes plus
//! integer mixing — and its time, taken between slices of the workload,
//! says how fast the host ran them. It belongs to the benchmark, not to
//! the program measured, so a change to the program cannot move it.
//!
//! A table larger than the L2 cache slows with the memory traffic of
//! other tenants; one that fits in the L1 slows only with lost cycles.
//! Workloads differ in which they slow like, so each names its
//! [`Footprint`].

use std::hint::black_box;
use std::time::Instant;

/// Table size: 4 MiB of `u64`.
const WORDS: usize = 1 << 19;

/// Words of the cache-resident run: the first 32 KiB of the table.
const L1_WORDS: usize = 1 << 12;

/// Random updates per probe run (about a millisecond on a quiet host).
const UPDATES: u64 = 1 << 18;

/// Probe runs per measurement and table; the median is taken.
const RUNS: usize = 3;

/// The memory a workload's host time depends on, and so the probe that
/// tracks it. On the reference VM, as the large-table probe slowed 1.7×
/// the untar and campaign units slowed alike, while the paper-table
/// cells slowed by less than a fifth. Over ten runs, scaled by the large
/// table alone, the paper timings spread up to 15% between quartiles, and
/// by the mixed probe 2–8%; the mixed probe left untar's at 10–16%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// The workload walks large memory (the untar file system, the
    /// campaign audit): the large-table run alone.
    Large,
    /// The workload mostly stays in cache (short Table 1 cells): the
    /// geometric mean of the large-table and the cache-resident run.
    Mixed,
}

pub struct Calibrator {
    table: Vec<u64>,
    footprint: Footprint,
}

impl Calibrator {
    pub fn new(footprint: Footprint) -> Self {
        let table = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Self { table, footprint }
    }

    fn run_once(&mut self, words: usize) -> f64 {
        let start = Instant::now();
        let mask = words - 1;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            let v = black_box(self.table[j]);
            self.table[j] = v.rotate_left(5) ^ x.wrapping_add(i);
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64() * 1e3
    }

    fn median_run(&mut self, words: usize) -> f64 {
        let mut runs: Vec<f64> = (0..RUNS).map(|_| self.run_once(words)).collect();
        runs.sort_by(f64::total_cmp);
        runs[RUNS / 2]
    }

    /// Host ms of one probe now.
    pub fn measure(&mut self) -> f64 {
        let large = self.median_run(WORDS);
        match self.footprint {
            Footprint::Large => large,
            Footprint::Mixed => (large * self.median_run(L1_WORDS)).sqrt(),
        }
    }
}
