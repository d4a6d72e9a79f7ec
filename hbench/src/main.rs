//! The repository benchmark: three closed-loop workloads (one client,
//! one process, one simulated `System` at a time), timed end to end in
//! an untraced pass and per layer in a separate traced pass. See
//! `hbench/README.md` for the metrics, the workloads and why each was
//! chosen.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path hbench/Cargo.toml -- \
//!     --workload campaign-corpus --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! say what was measured (seed, simulated-counter digest, sample counts,
//! the bases of ratios).

mod calib;
mod campaign;
mod counters;
mod metrics;
mod paper;
mod trace;
mod untar;

use std::process::ExitCode;
use std::time::Instant;

use hypernel::System;
use hypernel_mbm::Mbm;
use hypernel_workloads::Measurement;

use calib::{Calibrator, Footprint};
use counters::{Counters, Fnv};
use metrics::Metrics;
use trace::Tracer;

/// A seed no tuning in this benchmark has used: a later perf claim
/// made on other seeds must also hold on this one.
pub const HELD_OUT_SEED: u64 = 90_001;

/// Set-ups per run: at least `MIN_SETUPS`, and more, up to `MAX_SETUPS`,
/// until they have taken `SETUP_SECONDS` of host time. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_SECONDS: f64 = 3.0;

/// Host ms of one `Calibrator::measure` on the reference host (a
/// 2-vCPU x86-64 VM, Xeon at 2.0 GHz): the large-table probe in a quiet
/// spell; the mixed probe's run medians there lay between 1.17 and
/// 1.42 ms. End-to-end times are scaled to this host speed.
const REFERENCE_PROBE_MS: f64 = 1.2;

/// Interleaved rounds of the fast-path ablation.
const ABLATION_ROUNDS: usize = 3;

/// Which host fast paths a pass runs with. Every one of them is
/// model-invisible, so the simulated digest must not change when one is
/// off; the ablation measures what each buys in host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    pub l0_tlb: bool,
    pub block: bool,
    pub compiled: bool,
    pub mbm_filter: bool,
    /// Fork a booted template per unit instead of booting afresh.
    pub warm_fork: bool,
}

impl Knobs {
    pub const ALL_ON: Knobs = Knobs {
        l0_tlb: true,
        block: true,
        compiled: true,
        mbm_filter: true,
        warm_fork: true,
    };

    /// Turns off, through the in-process setters, the machine fast paths
    /// this pass runs without.
    pub fn apply(self, sys: &mut System) {
        let m = sys.machine_mut();
        if !self.l0_tlb {
            m.tlb_mut().set_l0_enabled(false);
        }
        if !self.block {
            m.set_block_fastpath(false);
        }
        if !self.compiled {
            m.set_compiled_enabled(false);
        }
        if !self.mbm_filter {
            if let Some(mbm) = m.bus_mut().snooper_mut::<Mbm>() {
                mbm.set_filter_enabled(false);
            }
        }
    }
}

/// One fast path off at a time, by the name its gain is reported under.
const ABLATIONS: &[(&str, Knobs)] = &[
    (
        "l0_tlb",
        Knobs {
            l0_tlb: false,
            ..Knobs::ALL_ON
        },
    ),
    (
        "block",
        Knobs {
            block: false,
            ..Knobs::ALL_ON
        },
    ),
    (
        "compiled",
        Knobs {
            compiled: false,
            ..Knobs::ALL_ON
        },
    ),
    (
        "mbm_filter",
        Knobs {
            mbm_filter: false,
            ..Knobs::ALL_ON
        },
    ),
    (
        "warm_fork",
        Knobs {
            warm_fork: false,
            ..Knobs::ALL_ON
        },
    ),
];

/// Host times of the audit probes re-invoked on a finished campaign
/// run's `System` (traced pass only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub static_ms: f64,
    pub hypersec_ms: f64,
    pub oracle_us: f64,
    pub coverage_us: f64,
    pub leaves: u64,
    pub tables: u64,
}

/// One unit of work: a campaign run, an untar repetition or a
/// paper-table cell.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Host ms of the whole unit: what `run_ms_*` report.
    pub ms: f64,
    /// Host ms spent obtaining the unit's system (fork or cold boot).
    pub fork_ms: f64,
    /// Host ms inside the layer call that simulates the unit.
    pub work_ms: f64,
    /// Digest of the unit's simulated result.
    pub digest: u64,
    /// Simulated work the unit did.
    pub counters: Counters,
    /// The run executed and its outputs checked out.
    pub passed: bool,
    pub probe: Option<Probe>,
    /// The paper-harness measurement (paper-tables only).
    pub measurement: Option<Measurement>,
}

impl Unit {
    pub fn failed(index: usize, error: String) -> Self {
        eprintln!("hbench: unit {index} failed: {error}");
        Self::default()
    }

    /// Host ms spent simulating: the layer call minus the audit work
    /// the probes attribute to it.
    fn sim_ms(&self) -> f64 {
        let audit = self.probe.map_or(0.0, |p| p.static_ms + p.hypersec_ms);
        (self.work_ms - audit).max(0.0)
    }
}

/// A workload the benchmark can drive.
pub trait Workload: Sized {
    /// The memory the workload's host time depends on, which picks the
    /// host-speed probe its times are scaled by.
    const FOOTPRINT: Footprint = Footprint::Large;
    /// Builds everything outside the timed window (corpus parse, boots,
    /// prepare, preallocate, warm-up).
    fn setup(seed: u64) -> Result<Self, String>;
    /// Units per round; a pass always ends on a round boundary, and its
    /// first `prefix()` units are the fixed work the digest covers.
    fn round(&self) -> usize;
    fn prefix(&self) -> usize {
        self.round()
    }
    /// Units between two host-speed probes.
    fn slice(&self) -> usize {
        self.round()
    }
    /// Units per window of the tail statistic.
    fn tail_window(&self) -> usize {
        self.round()
    }
    /// Readies a pass run with `knobs` (untimed).
    fn begin_pass(&mut self, knobs: Knobs) -> Result<(), String>;
    fn unit(&mut self, index: usize, knobs: Knobs, tracer: &mut Tracer) -> Unit;
    /// Host ms per boot during set-up.
    fn boot_ms(&self) -> f64;
    /// Workload-level checks on a finished pass.
    fn check(&self, _pass: &Pass) -> Result<(), String> {
        Ok(())
    }
    /// Workload-specific per-layer metrics from the traced pass.
    fn layer_metrics(&self, _traced: &Pass, _metrics: &mut Metrics) {}
    /// Whether the ablation can turn `warm_fork` off for this workload.
    fn forks_per_unit(&self) -> bool {
        true
    }
}

pub struct Pass {
    pub units: Vec<Unit>,
    pub window_s: f64,
    /// Host-speed probe ms before every slice and after the last.
    probes: Vec<f64>,
    slice: usize,
    /// Process high-water RSS in MB once the prefix has run: fixed work,
    /// so the figure does not grow with the number of units a faster or
    /// slower host fits in the window.
    prefix_rss_mb: f64,
}

impl Pass {
    /// Unit times scaled to the reference host speed: each unit's host
    /// ms times `REFERENCE_PROBE_MS` over the mean of the probes taken
    /// before and after its slice.
    fn scaled_ms(&self) -> Vec<f64> {
        let last = self.probes.len() - 1;
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let s = i / self.slice;
                let probe = (self.probes[s] + self.probes[(s + 1).min(last)]) / 2.0;
                u.ms * REFERENCE_PROBE_MS / probe
            })
            .collect()
    }

    fn digests(&self, n: usize) -> Vec<u64> {
        self.units.iter().take(n).map(|u| u.digest).collect()
    }

    fn failed(&self) -> usize {
        self.units.iter().filter(|u| !u.passed).count()
    }

    fn total<T: std::iter::Sum<T>>(&self, f: impl Fn(&Unit) -> T) -> T {
        self.units.iter().map(f).sum()
    }

    fn prefix_counters(&self, n: usize) -> Counters {
        self.units
            .iter()
            .take(n)
            .fold(Counters::default(), |acc, u| acc.add(u.counters))
    }
}

fn run_pass<W: Workload>(
    w: &mut W,
    seconds: f64,
    knobs: Knobs,
    tracer: &mut Tracer,
    calib: &mut Calibrator,
    begin: bool,
) -> Result<Pass, String> {
    if begin {
        w.begin_pass(knobs)?;
    }
    let (round, prefix, slice) = (w.round(), w.prefix(), w.slice());
    let start = Instant::now();
    let mut units = Vec::new();
    let mut probes = Vec::new();
    let mut prefix_rss_mb = 0.0;
    while units.len() < prefix
        || units.len() % round != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        let index = units.len();
        if index % slice == 0 {
            probes.push(calib.measure());
        }
        units.push(w.unit(index, knobs, tracer));
        if units.len() == prefix {
            prefix_rss_mb = peak_rss_mb();
        }
    }
    probes.push(calib.measure());
    Ok(Pass {
        units,
        window_s: start.elapsed().as_secs_f64(),
        probes,
        slice,
        prefix_rss_mb,
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank p90 of `values`.
fn p90(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(n * 9).div_ceil(10) - 1],
    }
}

/// The tail: the p90 of every whole window of `window` consecutive
/// units, and the median of those (the p90 of all units when no window
/// is whole). A shared host slows whole spells of units, which a tail
/// over the whole pass reads as the program's; a window is short enough
/// to lie inside one spell, and the median drops the slowed windows.
pub fn tail(values: &[f64], window: usize) -> f64 {
    let windows: Vec<f64> = values.chunks_exact(window.max(1)).map(p90).collect();
    if windows.is_empty() {
        p90(values)
    } else {
        median(&windows)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced pass writes its spans: the build directory, inside
/// the checkout.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    std::path::Path::new(&dir)
        .join("hbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

/// Sets up `W` and readies its first pass, returning the host seconds
/// that took, raw and scaled to the reference host speed by probes taken
/// just before and after.
fn timed_setup<W: Workload>(seed: u64, calib: &mut Calibrator) -> Result<(W, f64, f64), String> {
    let before = calib.measure();
    let start = Instant::now();
    let mut w = W::setup(seed)?;
    w.begin_pass(Knobs::ALL_ON)?;
    let raw = start.elapsed().as_secs_f64();
    let probe = (before + calib.measure()) / 2.0;
    Ok((w, raw, raw * REFERENCE_PROBE_MS / probe))
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    println!(
        "hbench: workload={} seed={} held-out-seed={HELD_OUT_SEED} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut calib = Calibrator::new(W::FOOTPRINT);
    let (mut w, first_raw_s, first_setup_s) = timed_setup::<W>(args.seed, &mut calib)?;
    let prefix = w.prefix();
    let mut problems = Vec::new();

    // A traced run splits its time between the untraced and the traced
    // pass, so it costs little more than an untraced run.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut quiet = Tracer::new(false);
    let untraced = run_pass(&mut w, window, Knobs::ALL_ON, &mut quiet, &mut calib, false)?;
    let digest = untraced
        .digests(prefix)
        .iter()
        .fold(Fnv::default(), |mut h, d| {
            h.word(*d);
            h
        })
        .finish();
    println!("hbench: simulated digest {digest:#018x} over the first {prefix} units");
    if let Err(e) = w.check(&untraced) {
        problems.push(format!("untraced pass: {e}"));
    }
    let mut attempted = untraced.units.len();
    let mut failed = untraced.failed();

    let mut metrics = Metrics::new(args.trace);
    if !args.trace {
        let times = untraced.scaled_ms();
        let raw: Vec<f64> = untraced.units.iter().map(|u| u.ms).collect();
        let busy_s = times.iter().sum::<f64>() / 1e3;
        let accesses = untraced.total(|u| u.counters.accesses) as f64;
        let window = w.tail_window();
        let tail_ms = tail(&times, window);
        println!(
            "hbench: {} units in {:.3} s; run_ms_tail is the median p90 of {} windows of {window} units",
            times.len(),
            untraced.window_s,
            times.len() / window
        );
        println!(
            "hbench: host-speed probe median {:.4} ms (reference {REFERENCE_PROBE_MS} ms, {} probes); \
             unscaled p50 {:.4} ms, tail {:.4} ms, {:.4} units/s",
            median(&untraced.probes),
            untraced.probes.len(),
            median(&raw),
            tail(&raw, window),
            raw.len() as f64 * 1e3 / raw.iter().sum::<f64>()
        );
        metrics.set("runs_per_s", times.len() as f64 / busy_s);
        metrics.set("run_ms_p50", median(&times));
        metrics.set("run_ms_tail", tail_ms);
        metrics.set("sim_maccess_per_s", accesses / 1e6 / busy_s);
        println!(
            "hbench: peak_rss_mb is read after the {prefix}-unit prefix; {:.1} MB at the end of the pass",
            peak_rss_mb()
        );
        metrics.set("peak_rss_mb", untraced.prefix_rss_mb);
        drop(w);
        let mut setup_s = vec![first_setup_s];
        let mut setup_raw = vec![first_raw_s];
        while setup_s.len() < MIN_SETUPS
            || (setup_raw.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
        {
            let (_, raw, scaled) = timed_setup::<W>(args.seed, &mut calib)?;
            setup_raw.push(raw);
            setup_s.push(scaled);
        }
        metrics.set("setup_s", median(&setup_s));
        println!(
            "hbench: setup_s is the median of {} set-ups, scaled {setup_s:.3?}, unscaled {setup_raw:.3?}",
            setup_s.len()
        );
    } else {
        let mut tracer = Tracer::new(true);
        let traced = run_pass(&mut w, window, Knobs::ALL_ON, &mut tracer, &mut calib, true)?;
        attempted += traced.units.len();
        failed += traced.failed();
        if traced.digests(prefix) != untraced.digests(prefix) {
            problems.push("traced pass changed the simulated digest".to_string());
        }
        if let Err(e) = w.check(&traced) {
            problems.push(format!("traced pass: {e}"));
        }
        report_spans(args, &tracer);

        // Fast-path ablation: the digested prefix with all fast paths on
        // (the control) and with each one off in turn, interleaved over
        // a few rounds (rotating the order) so slow spells of the host
        // hit every variant alike.
        let mut variants: Vec<(&str, Knobs)> = vec![("control", Knobs::ALL_ON)];
        variants.extend(
            ABLATIONS
                .iter()
                .filter(|(_, k)| k.warm_fork || w.forks_per_unit()),
        );
        let mut times = vec![Vec::new(); variants.len()];
        for round in 0..ABLATION_ROUNDS {
            for i in 0..variants.len() {
                let v = (i + round) % variants.len();
                let (name, knobs) = variants[v];
                let pass = run_pass(&mut w, 0.0, knobs, &mut quiet, &mut calib, true)?;
                attempted += pass.units.len();
                failed += pass.failed();
                if pass.digests(prefix) != untraced.digests(prefix) {
                    problems.push(format!("turning off `{name}` changed the simulated digest"));
                }
                times[v].push(pass.scaled_ms().iter().sum::<f64>());
            }
        }
        let control_ms = median(&times[0]);
        for ((name, _), t) in variants.iter().zip(&times).skip(1) {
            let off_ms = median(t);
            println!(
                "hbench: ablation {name}: {off_ms:.1} ms off vs {control_ms:.1} ms on \
                 (medians of {ABLATION_ROUNDS} runs of {prefix} units)"
            );
            metrics.set_gain(name, ratio(off_ms, control_ms) - 1.0);
        }

        let mean = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64);
        let untraced_mean = mean(untraced.scaled_ms());
        let traced_mean = mean(traced.scaled_ms());
        println!(
            "hbench: tracing overhead {:.2}% ({traced_mean:.3} ms traced vs {untraced_mean:.3} ms untraced \
             per unit at reference speed, probes excluded; {} spans)",
            100.0 * (ratio(traced_mean, untraced_mean) - 1.0),
            tracer.span_count()
        );
        metrics.set("trace.overhead", ratio(traced_mean, untraced_mean) - 1.0);
        layer_metrics(&w, &traced, prefix, &mut metrics);
        w.layer_metrics(&traced, &mut metrics);
    }
    if args.trace {
        metrics.set("failed_frac", ratio(failed as f64, attempted as f64));
    }
    for p in &problems {
        println!("hbench: check failed: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn report_spans(args: &Args, tracer: &Tracer) {
    for (layer, ms) in tracer.self_ms_by_layer() {
        println!("hbench: self time {layer:<10} {ms:>10.1} ms");
    }
    let path = spans_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => println!("hbench: spans written to {}", path.display()),
        Err(e) => eprintln!("hbench: cannot write {}: {e}", path.display()),
    }
}

/// The per-layer metrics every workload reports the same way.
fn layer_metrics<W: Workload>(w: &W, traced: &Pass, prefix: usize, m: &mut Metrics) {
    let n = traced.units.len() as f64;
    let mean = |f: &dyn Fn(&Unit) -> f64| ratio(traced.total(f), n);
    let probes: Vec<Probe> = traced.units.iter().filter_map(|u| u.probe).collect();
    if !probes.is_empty() {
        let run_ms = mean(&|u| u.ms);
        let static_ms = mean(&|u| u.probe.map_or(0.0, |p| p.static_ms));
        let hypersec_ms = mean(&|u| u.probe.map_or(0.0, |p| p.hypersec_ms));
        println!(
            "hbench: audit share {:.1}% = audit_static probe {static_ms:.2} ms / run {run_ms:.2} ms (means over {} runs)",
            100.0 * ratio(static_ms, run_ms),
            traced.units.len()
        );
        m.set("audit.static_ms", static_ms);
        m.set("audit.share", ratio(static_ms, run_ms));
        let first = &traced.units[..prefix.min(traced.units.len())];
        m.set(
            "audit.leaves_checked",
            first
                .iter()
                .filter_map(|u| u.probe)
                .map(|p| p.leaves)
                .sum::<u64>() as f64,
        );
        m.set(
            "audit.tables_walked",
            first
                .iter()
                .filter_map(|u| u.probe)
                .map(|p| p.tables)
                .sum::<u64>() as f64,
        );
        m.set("hypersec.audit_ms", hypersec_ms);
        m.set("campaign.run_ms", run_ms);
        m.set("campaign.body_ms_est", run_ms - static_ms - hypersec_ms);
        m.set(
            "campaign.oracle_us",
            mean(&|u| u.probe.map_or(0.0, |p| p.oracle_us)),
        );
        m.set(
            "campaign.coverage_us",
            mean(&|u| u.probe.map_or(0.0, |p| p.coverage_us)),
        );
    }
    m.set("core.boot_ms", w.boot_ms());
    let forked: Vec<f64> = traced
        .units
        .iter()
        .map(|u| u.fork_ms)
        .filter(|&ms| ms > 0.0)
        .collect();
    if !forked.is_empty() {
        m.set(
            "core.fork_ms",
            forked.iter().sum::<f64>() / forked.len() as f64,
        );
    }

    let all = traced.prefix_counters(traced.units.len());
    let sim_ms = traced.total(Unit::sim_ms);
    m.set(
        "machine.ns_per_access",
        ratio(sim_ms * 1e6, all.accesses as f64),
    );
    m.set(
        "kernel.us_per_syscall",
        ratio(sim_ms * 1e3, all.syscalls as f64),
    );

    // Counts over the digested prefix: exact, so a host-only change
    // must leave them equal.
    let c = traced.prefix_counters(prefix);
    let f = |x: u64| x as f64;
    let lookups = f(c.tlb_hits + c.tlb_misses);
    m.set("machine.tlb_hit_rate", ratio(f(c.tlb_hits), lookups));
    m.set("machine.tlb_l0_share", ratio(f(c.tlb_l0_hits), lookups));
    m.set(
        "machine.dcache_hit_rate",
        ratio(f(c.dcache_hits), f(c.dcache_hits + c.dcache_misses)),
    );
    m.set(
        "machine.uncached_share",
        ratio(f(c.uncached), f(c.accesses)),
    );
    m.set(
        "machine.plan_replay_share",
        ratio(f(c.plan_replayed_words), f(c.accesses)),
    );
    m.set("machine.plan_hint_repairs", f(c.plan_hint_repairs));
    m.set("machine.plan_invalidations", f(c.plan_invalidations));
    m.set("machine.sysreg_traps", f(c.sysreg_traps));
    m.set("mbm.captured", f(c.mbm_captured));
    m.set(
        "mbm.filter_skip_share",
        ratio(f(c.mbm_filter_skips), f(c.mbm_captured)),
    );
    m.set(
        "mbm.bitmap_cache_hit_rate",
        ratio(f(c.bitmap_hits), f(c.bitmap_hits + c.bitmap_misses)),
    );
    m.set("mbm.events_matched", f(c.mbm_events_matched));
    m.set("mbm.fifo_dropped", f(c.mbm_fifo_dropped));
    m.set("hypersec.hypercalls", f(c.hypercalls));
    m.set("hypersec.pt_writes", f(c.pt_writes));
    m.set("hypervisor.stage2_faults", f(c.stage2_faults));
    m.set(
        "hypervisor.stage2_tlb_hit_rate",
        ratio(f(c.s2_tlb_hits), f(c.s2_tlb_hits + c.s2_tlb_misses)),
    );
    m.set("kernel.syscalls", f(c.syscalls));
    m.set("kernel.forks", f(c.forks));
    m.set("kernel.page_faults", f(c.page_faults));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hbench: {e}");
            eprintln!(
                "usage: hbench --workload campaign-corpus|untar-steady|paper-tables \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "campaign-corpus" => bench::<campaign::Campaign>(&args),
        "untar-steady" => bench::<untar::Untar>(&args),
        "paper-tables" => bench::<paper::Paper>(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(o) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.correct,
                o.attempted,
                o.failed,
                o.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hbench: {e}");
            ExitCode::FAILURE
        }
    }
}
