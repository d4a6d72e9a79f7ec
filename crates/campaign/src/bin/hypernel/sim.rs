//! `hypernel sim` — drive the Hypernel full-system simulation.
//!
//! ```text
//! hypernel sim run --mode hypernel --op fork+exit --iters 100
//! hypernel sim run --mode kvm --app untar
//! hypernel sim compare --op 'pipe lat'
//! hypernel sim monitor --app iozone --granularity word
//! hypernel sim replay --script workload.hsim --mode hypernel
//! hypernel sim audit
//! hypernel sim help
//! ```

use std::process::ExitCode;

use hypernel::kernel::kernel::{MonitorHooks, MonitorMode};
use hypernel::metrics::metric_samples;
use hypernel::telemetry::export;
use hypernel::telemetry::{MetricsConfig, MetricsRecorder};
use hypernel::workloads::{apps, lmbench, AppBenchmark, LmbenchOp};
use hypernel::{Mode, RunReport, System, SystemBuilder, DEFAULT_TELEMETRY_CAPACITY};

use crate::args::{write_file, Args, Command};

/// Modeled core clock: 1.15 GHz, i.e. cycles per trace microsecond.
const CYCLES_PER_US: f64 = 1150.0;

pub const USAGE: &str = "\
hypernel sim — drive the Hypernel (DAC 2018) full-system simulation

USAGE:
    hypernel sim <COMMAND> [OPTIONS]

COMMANDS:
    run        run one workload on one configuration, print a report
    compare    run one workload on all three configurations
    monitor    run an app benchmark with kernel-object monitoring armed
    replay     replay a workload script (see hypernel_workloads::replay)
    audit      boot Hypernel, run a stress mix, audit every invariant
    help       print this message

OPTIONS (each command rejects those it does not use):
    --mode <native|kvm|hypernel>   configuration (default: hypernel)
    --op <name>                    LMbench op: 'syscall stat', 'pipe lat',
                                   'fork+exit', 'fork+execv', 'page fault',
                                   'mmap', 'signal install', 'signal ovh',
                                   'socket lat'
    --app <name>                   app benchmark: whetstone, dhrystone,
                                   untar, iozone, apache
    --iters <N>                    LMbench iterations (default: 100)
    --granularity <word|object>    monitoring policy (default: word)
    --script <path>                replay script file
    --markdown                     print the machine report as markdown
    --trace-out <path>             write the telemetry event stream to a file
    --trace-format <jsonl|chrome>  trace file format (default: chrome; the
                                   chrome format loads in Perfetto and
                                   chrome://tracing)
    --histograms                   print span latency histograms
                                   (p50/p95/p99/max, in cycles)
    --report-json <path>           write the full run report as JSON
    --metrics <path>               write windowed time-series metrics
                                   (metrics.jsonl); --op runs sample per
                                   iteration chunk, other runs at the
                                   start and end
    --forensics                    reconstruct and print the causal
                                   timeline of every MBM incident
                                   (watched write -> FIFO -> drain ->
                                   IRQ -> service) with detection latency
    --audit                        statically audit the final state: walk
                                   every stage-1 table reachable from the
                                   active/hypervisor roots, check the
                                   protected invariants, and (under
                                   Hypernel) differentially compare with
                                   the incremental verifier
    --audit=<N>                    like --audit, but also audit every N
                                   LMbench iterations (--op runs only)
    --sanitize                     enable the guest-memory ownership
                                   sanitizer: every store is checked
                                   against the per-page tag policy, with
                                   verdicts in the audit report
    --strict-telemetry             fail (exit nonzero) if the telemetry
                                   ring dropped any event, instead of
                                   only warning; implies telemetry is
                                   enabled
";

pub const COMMANDS: &[Command] = &[
    Command::new("run", "", cmd_run)
        .options("mode op app iters audit metrics trace-out trace-format report-json")
        .flags("audit sanitize markdown histograms forensics strict-telemetry"),
    Command::new("compare", "", cmd_compare).options("op app iters audit"),
    Command::new("monitor", "", cmd_monitor)
        .options("granularity op app iters audit metrics trace-out trace-format report-json")
        .flags("audit sanitize histograms forensics strict-telemetry"),
    Command::new("replay", "", cmd_replay)
        .options("script mode metrics trace-out trace-format report-json")
        .flags("sanitize markdown histograms forensics strict-telemetry"),
    Command::new("audit", "", cmd_audit),
];

/// Whether any flag needs the telemetry pipeline installed.
fn wants_telemetry(args: &Args) -> bool {
    args.get("trace-out").is_some()
        || args.flag("histograms")
        || args.get("report-json").is_some()
        || args.flag("forensics")
        || args.flag("strict-telemetry")
}

fn run_workload(
    sys: &mut System,
    args: &Args,
    mut recorder: Option<&mut MetricsRecorder>,
) -> Result<f64, String> {
    let iters = args.count("iters")?.unwrap_or(100);
    let audit_every = args.count("audit")?;
    if let Some(op) = args.choice("op", LmbenchOp::ALL)? {
        // `--audit=<N>` and `--metrics` both break the run into
        // iteration chunks: the former re-audits the whole system
        // between chunks (pinning an invariant break to the chunk that
        // introduced it), the latter samples the windowed series.
        // `--audit=<N>` picks the chunk size; metrics alone samples
        // every iters/64 iterations.
        if audit_every.is_some() || recorder.is_some() {
            let every = audit_every.unwrap_or_else(|| (iters / 64).max(1));
            let mut done = 0;
            let mut cycles = 0.0;
            while done < iters {
                let chunk = every.min(iters - done);
                let m = {
                    let (kernel, machine, hyp) = sys.parts();
                    lmbench::run_op(kernel, machine, hyp, op, chunk).map_err(|e| e.to_string())?
                };
                cycles += m.cycles_per_iter() * chunk as f64;
                done += chunk;
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.sample(sys.cycles(), &metric_samples(sys));
                }
                if audit_every.is_some() {
                    let report = sys.audit_static();
                    if !report.is_clean() {
                        report_static_audit(&report);
                        return Err(format!(
                            "static audit failed after {done}/{iters} iterations"
                        ));
                    }
                }
            }
            let audited = audit_every
                .map(|every| format!(", audited every {every}"))
                .unwrap_or_default();
            println!(
                "{op}: {:.2} us/iter ({:.0} cycles, {iters} iters{audited})",
                cycles / iters as f64 / CYCLES_PER_US,
                cycles / iters as f64,
            );
            return Ok(cycles / iters as f64);
        }
        let (kernel, machine, hyp) = sys.parts();
        let m = lmbench::run_op(kernel, machine, hyp, op, iters).map_err(|e| e.to_string())?;
        println!(
            "{op}: {:.2} us/iter ({:.0} cycles, {} iters)",
            m.micros_per_iter(),
            m.cycles_per_iter(),
            m.iterations
        );
        Ok(m.cycles_per_iter())
    } else if let Some(app) = args.choice("app", AppBenchmark::ALL)? {
        let (kernel, machine, hyp) = sys.parts();
        apps::prepare(kernel, machine, hyp, app).map_err(|e| e.to_string())?;
        let m = apps::run(kernel, machine, hyp, app, 1, 42).map_err(|e| e.to_string())?;
        println!(
            "{app}: {:.2} Mcycles ({:.2} ms modeled)",
            m.total_cycles as f64 / 1e6,
            m.total_cycles as f64 / 1.15e9 * 1e3
        );
        Ok(m.total_cycles as f64)
    } else {
        Err("provide --op or --app".into())
    }
}

/// Starts a windowed-metrics recorder (with a baseline sample) when
/// `--metrics` asks for one.
fn new_recorder(sys: &System, args: &Args) -> Option<MetricsRecorder> {
    args.get("metrics").map(|_| {
        let mut rec = MetricsRecorder::new(&MetricsConfig::default());
        rec.sample(sys.cycles(), &metric_samples(sys));
        rec
    })
}

/// Boots `mode`, with telemetry installed when any output flag needs it
/// and the ownership sanitizer armed when `--sanitize` asks for it.
fn boot(mode: Mode, args: &Args) -> Result<System, String> {
    let mut builder = SystemBuilder::new(mode);
    if wants_telemetry(args) {
        builder = builder.telemetry(DEFAULT_TELEMETRY_CAPACITY);
    }
    let mut sys = builder.build().map_err(|e| e.to_string())?;
    if args.flag("sanitize") {
        sys.enable_sanitizer();
    }
    Ok(sys)
}

/// Prints a static-audit report in the sim's human format.
fn report_static_audit(report: &hypernel::audit::StaticAuditReport) {
    println!(
        "static audit: {} roots, {} tables, {} leaves, {} regions checked",
        report.roots_walked, report.tables_walked, report.leaves_checked, report.regions_checked
    );
    for finding in &report.findings {
        println!("FINDING: {finding}");
    }
    if let Some(diff) = &report.differential {
        if diff.agrees() {
            println!("differential: static and incremental verdicts agree");
        } else {
            for d in &diff.disagreements {
                println!("DISAGREEMENT: {d}");
            }
        }
    }
    if let Some(san) = &report.sanitizer {
        println!(
            "sanitizer: {} writes checked, {} denied",
            san.stats.checked, san.stats.denied
        );
        for v in &san.violations {
            println!(
                "DENIED: {} wrote {:#x} (page tagged {})",
                v.writer.name(),
                v.pa.raw(),
                v.tag.name()
            );
        }
    }
}

/// Runs the final `--audit` pass; an unclean report (or any
/// differential disagreement) is an error.
fn final_static_audit(sys: &mut System) -> Result<(), String> {
    let report = sys.audit_static();
    report_static_audit(&report);
    if report.is_clean() {
        println!("static audit: all invariants hold");
        Ok(())
    } else {
        Err(format!(
            "static audit failed: {} finding(s)",
            report.findings.len()
        ))
    }
}

/// Writes the `--metrics` artifact (after a final sample) and the
/// trace/histogram/report artifacts the arguments request.
fn export(
    sys: &System,
    args: &Args,
    recorder: Option<MetricsRecorder>,
    mode: Mode,
) -> Result<ExitCode, String> {
    if let (Some(path), Some(mut rec)) = (args.get("metrics"), recorder) {
        rec.sample(sys.cycles(), &metric_samples(sys));
        let doc = rec.finish(None, None, Some(&mode.to_string()));
        write_file(path, &doc.to_jsonl())?;
        println!("metrics: {} window(s) -> {path}", doc.windows());
    }
    // Truncation warning up front: a full ring silently understates
    // every trace-derived view, so say so once, for all of them.
    let dropped = sys.telemetry_dropped().unwrap_or(0);
    if dropped > 0 && wants_telemetry(args) {
        if args.flag("strict-telemetry") {
            return Err(format!(
                "strict telemetry: ring full, {dropped} event(s) dropped; \
                 traces and reports would understate the run"
            ));
        }
        eprintln!(
            "warning: telemetry ring full, {dropped} oldest event(s) dropped; \
             traces and reports understate the run"
        );
    }
    if let Some(path) = args.get("trace-out") {
        let events = sys.telemetry_events().ok_or("telemetry is not enabled")?;
        let text = match args.get("trace-format").unwrap_or("chrome") {
            "jsonl" => export::write_jsonl(&events),
            "chrome" => export::write_chrome_trace(&events, CYCLES_PER_US),
            other => return Err(format!("unknown trace format '{other}' (jsonl|chrome)")),
        };
        write_file(path, &text)?;
        println!("trace: {} events -> {path}", events.len());
    }
    if args.flag("histograms") {
        let snap = sys.telemetry_snapshot().ok_or("telemetry is not enabled")?;
        println!("\nspan latencies (cycles):");
        println!(
            "  {:<18} {:<5} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "span", "track", "count", "p50", "p95", "p99", "max"
        );
        for ((track, span), s) in &snap.spans {
            println!(
                "  {:<18} {:<5} {:>8} {:>8} {:>8} {:>8} {:>8}",
                span.name(),
                track.name(),
                s.count,
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        if snap.open_spans > 0 {
            println!("  ({} span(s) still open)", snap.open_spans);
        }
    }
    if let Some(path) = args.get("report-json") {
        let report = RunReport::capture(sys);
        write_file(path, &format!("{}\n", report.to_json()))?;
        println!("report: {path}");
    }
    if args.flag("forensics") {
        let events = sys.telemetry_events().ok_or("telemetry is not enabled")?;
        let incidents = hypernel::analyze::reconstruct_incidents(&events);
        println!(
            "\n{}",
            hypernel::analyze::forensics::render_text(&incidents)
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let mode = args.mode()?.unwrap_or(Mode::Hypernel);
    let mut sys = boot(mode, args)?;
    println!("booted: {mode}");
    let mut recorder = new_recorder(&sys, args);
    run_workload(&mut sys, args, recorder.as_mut())?;
    sys.service_interrupts().map_err(|e| e.to_string())?;
    if args.flag("audit") {
        final_static_audit(&mut sys)?;
    }
    if args.flag("markdown") {
        println!("\n{}", RunReport::capture(&sys).to_markdown());
    }
    export(&sys, args, recorder, mode)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
        let mut sys = System::boot(mode).map_err(|e| e.to_string())?;
        print!("{mode:<12} ");
        results.push((mode, run_workload(&mut sys, args, None)?));
    }
    let native = results[0].1;
    println!("\noverheads vs native:");
    for (mode, cost) in &results[1..] {
        println!("  {mode}: {:+.1}%", (cost / native - 1.0) * 100.0);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_monitor(args: &Args) -> Result<ExitCode, String> {
    let mode = match args.get("granularity").unwrap_or("word") {
        "word" => MonitorMode::SensitiveFields,
        "object" | "page" => MonitorMode::WholeObject,
        other => return Err(format!("unknown granularity '{other}' (word|object)")),
    };
    let mut sys = boot(Mode::Hypernel, args)?;
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .arm_monitor_hooks(machine, hyp, MonitorHooks { mode })
            .map_err(|e| e.to_string())?;
    }
    sys.reset_mbm_stats();
    let mut recorder = new_recorder(&sys, args);
    run_workload(&mut sys, args, recorder.as_mut())?;
    sys.service_interrupts().map_err(|e| e.to_string())?;
    if args.flag("audit") {
        final_static_audit(&mut sys)?;
    }
    let stats = sys.mbm_stats().expect("mbm attached");
    let hs = sys.hypersec().expect("hypersec");
    println!("\nmonitoring ({mode:?}):");
    println!("  MBM events matched:   {}", stats.events_matched);
    println!("  events dispatched:    {}", hs.stats().events_dispatched);
    println!("  detections:           {}", hs.detections().len());
    for d in hs.detections() {
        println!("    [sid {}] {}", d.sid, d.reason);
    }
    export(&sys, args, recorder, Mode::Hypernel)
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    use hypernel::workloads::replay;
    let path = args.required("script")?;
    let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let statements = replay::parse(&script).map_err(|e| format!("{path}: {e}"))?;
    let mode = args.mode()?.unwrap_or(Mode::Hypernel);
    let mut sys = boot(mode, args)?;
    let recorder = new_recorder(&sys, args);
    let m = {
        let (kernel, machine, hyp) = sys.parts();
        replay::replay(kernel, machine, hyp, &statements, 42).map_err(|e| e.to_string())?
    };
    println!(
        "{mode}: {} statements, {} cycles ({:.2} us modeled)",
        statements.len(),
        m.total_cycles,
        m.total_cycles as f64 / CYCLES_PER_US
    );
    if args.flag("markdown") {
        println!("\n{}", RunReport::capture(&sys).to_markdown());
    }
    export(&sys, args, recorder, mode)
}

fn cmd_audit(_: &Args) -> Result<ExitCode, String> {
    let mut sys = System::boot(Mode::Hypernel).map_err(|e| e.to_string())?;
    sys.enable_sanitizer();
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .arm_monitor_hooks(
                machine,
                hyp,
                MonitorHooks {
                    mode: MonitorMode::SensitiveFields,
                },
            )
            .map_err(|e| e.to_string())?;
        for i in 0..8 {
            let child = kernel.sys_fork(machine, hyp).map_err(|e| e.to_string())?;
            kernel
                .switch_to(machine, hyp, child)
                .map_err(|e| e.to_string())?;
            kernel
                .sys_execve(machine, hyp, "/bin/sh")
                .map_err(|e| e.to_string())?;
            let p = format!("/tmp/audit{i}");
            kernel
                .sys_create(machine, hyp, &p)
                .map_err(|e| e.to_string())?;
            kernel
                .sys_exit(machine, hyp, child, hypernel::kernel::task::Pid(1))
                .map_err(|e| e.to_string())?;
            kernel.poll_irqs(machine, hyp).map_err(|e| e.to_string())?;
        }
    }
    let report = sys.audit_hypersec().expect("hypernel mode");
    println!(
        "incremental audit: {} tables, {} leaves, {} regions checked",
        report.tables_checked, report.leaves_checked, report.regions_checked
    );
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    // The independent static pass re-derives the same invariants from
    // the raw page tables and cross-checks the incremental verdict.
    let outcome = final_static_audit(&mut sys);
    if report.is_clean() && outcome.is_ok() {
        println!("all invariants hold (incremental and static passes agree)");
        Ok(ExitCode::SUCCESS)
    } else {
        outcome.and(Err(format!(
            "{} incremental violation(s)",
            report.violations.len()
        )))
    }
}
