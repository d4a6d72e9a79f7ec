//! `untar-steady`: `untar` under Hypernel, repeated in one booted,
//! prepared and preallocated system. Repetitions re-extract the same
//! archive over the same paths, so every one after the first reuses the
//! files and frames the first created: the block-access hot path in a
//! steady state. The warm-up repetition runs in set-up on the template;
//! each pass forks the template and runs one more repetition, untimed,
//! before its window opens.

use std::time::Instant;

use hypernel::{Mode, System};
use hypernel_kernel::layout;
use hypernel_machine::addr::PhysAddr;
use hypernel_workloads::{apps, AppBenchmark, Measurement};

use crate::counters::{sim_digest, Counters, Fnv};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::{median, tail, Knobs, Pass, Unit, Workload};

/// Repetitions the digest covers (and each ablation runs).
const PREFIX: usize = 8;

/// Repetitions per slice of the end-to-end statistics (about half a
/// second).
const SLICE: usize = 16;

/// Frame-pool bytes pre-faulted on the host before timing.
const PREALLOCATE: u64 = 64 << 20;

pub struct Untar {
    template: System,
    pass: Option<System>,
    boot_ms: f64,
    fork_ms: f64,
    seed: u64,
}

fn repetition(sys: &mut System, seed: u64) -> Result<Measurement, String> {
    let (kernel, machine, hyp) = sys.parts();
    apps::run(kernel, machine, hyp, AppBenchmark::Untar, 1, seed).map_err(|e| e.to_string())
}

impl Workload for Untar {
    fn setup(seed: u64) -> Result<Self, String> {
        let start = Instant::now();
        let mut sys = System::boot(Mode::Hypernel).map_err(|e| format!("boot: {e}"))?;
        let boot_ms = start.elapsed().as_secs_f64() * 1e3;
        {
            let (kernel, machine, hyp) = sys.parts();
            apps::prepare(kernel, machine, hyp, AppBenchmark::Untar)
                .map_err(|e| format!("prepare: {e}"))?;
            machine.preallocate(PhysAddr::new(layout::FRAME_POOL_BASE), PREALLOCATE);
        }
        repetition(&mut sys, seed)?;
        Ok(Self {
            template: sys,
            pass: None,
            boot_ms,
            fork_ms: 0.0,
            seed,
        })
    }

    fn round(&self) -> usize {
        1
    }

    fn prefix(&self) -> usize {
        PREFIX
    }

    fn slice(&self) -> usize {
        SLICE
    }

    fn tail_window(&self) -> usize {
        SLICE
    }

    fn begin_pass(&mut self, knobs: Knobs) -> Result<(), String> {
        let start = Instant::now();
        let mut sys = self.template.fork();
        self.fork_ms = start.elapsed().as_secs_f64() * 1e3;
        knobs.apply(&mut sys);
        repetition(&mut sys, self.seed)?;
        self.pass = Some(sys);
        Ok(())
    }

    fn boot_ms(&self) -> f64 {
        self.boot_ms
    }

    fn forks_per_unit(&self) -> bool {
        false
    }

    fn unit(&mut self, index: usize, _knobs: Knobs, tracer: &mut Tracer) -> Unit {
        let seed = self.seed;
        let sys = self.pass.as_mut().expect("begin_pass readies the system");
        let before = Counters::of(sys);
        let (ran, ms) = tracer.span("apps::run", "workloads", index as u64, |_| {
            repetition(sys, seed)
        });
        let measurement = match ran {
            Ok(m) => m,
            Err(e) => return Unit::failed(index, e),
        };
        // A benign workload: Hypersec must not flag anything.
        let detections = sys.hypersec().map_or(0, |hs| hs.stats().detections);
        if detections > 0 {
            eprintln!("hbench: untar repetition {index}: {detections} detections");
        }
        Unit {
            ms,
            fork_ms: 0.0,
            work_ms: ms,
            digest: Fnv::default()
                .word(sim_digest(sys))
                .word(measurement.total_cycles)
                .finish(),
            counters: Counters::of(sys).delta(before),
            passed: detections == 0,
            probe: None,
            measurement: None,
        }
    }

    fn layer_metrics(&self, traced: &Pass, m: &mut Metrics) {
        let reps: Vec<f64> = traced.units.iter().map(|u| u.ms).collect();
        let tail_ms = tail(&reps, SLICE);
        println!(
            "hbench: untar repetition p50 {:.3} ms, tail (median p90 of windows of {SLICE}) {tail_ms:.3} ms of {} repetitions",
            median(&reps),
            reps.len()
        );
        m.set("workloads.untar_rep_ms.p50", median(&reps));
        m.set("workloads.untar_rep_ms.tail", tail_ms);
        m.set("core.fork_ms", self.fork_ms);
    }
}
