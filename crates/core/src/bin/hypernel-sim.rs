//! `hypernel-sim` — command-line driver for the Hypernel full-system
//! simulation.
//!
//! ```text
//! hypernel-sim run --mode hypernel --op fork+exit --iters 100
//! hypernel-sim run --mode kvm --app untar
//! hypernel-sim compare --op 'pipe lat'
//! hypernel-sim monitor --app iozone --granularity word
//! hypernel-sim replay --script workload.hsim --mode hypernel
//! hypernel-sim audit
//! hypernel-sim --help
//! ```

use std::process::ExitCode;

use hypernel::kernel::kernel::{MonitorHooks, MonitorMode};
use hypernel::metrics::metric_samples;
use hypernel::telemetry::export;
use hypernel::telemetry::{MetricsConfig, MetricsRecorder};
use hypernel::workloads::{apps, lmbench, AppBenchmark, LmbenchOp};
use hypernel::{Mode, RunReport, System, SystemBuilder, DEFAULT_TELEMETRY_CAPACITY};

/// Modeled core clock: 1.15 GHz, i.e. cycles per trace microsecond.
const CYCLES_PER_US: f64 = 1150.0;

const HELP: &str = "\
hypernel-sim — drive the Hypernel (DAC 2018) full-system simulation

USAGE:
    hypernel-sim <COMMAND> [OPTIONS]

COMMANDS:
    run        run one workload on one configuration, print a report
    compare    run one workload on all three configurations
    monitor    run an app benchmark with kernel-object monitoring armed
    replay     replay a workload script (see hypernel_workloads::replay)
    audit      boot Hypernel, run a stress mix, audit every invariant
    help       print this message

OPTIONS:
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

fn parse_mode(s: &str) -> Result<Mode, String> {
    Mode::from_key(s).ok_or_else(|| {
        let keys: Vec<&str> = Mode::ALL.iter().map(|m| m.key()).collect();
        format!("unknown mode '{s}' ({})", keys.join("|"))
    })
}

fn parse_op(s: &str) -> Result<LmbenchOp, String> {
    LmbenchOp::ALL
        .iter()
        .copied()
        .find(|op| op.label() == s)
        .ok_or_else(|| format!("unknown op '{s}'"))
}

fn parse_app(s: &str) -> Result<AppBenchmark, String> {
    AppBenchmark::ALL
        .iter()
        .copied()
        .find(|b| b.label() == s)
        .ok_or_else(|| format!("unknown app '{s}'"))
}

#[derive(Debug, Default)]
struct Options {
    mode: Option<String>,
    op: Option<String>,
    app: Option<String>,
    iters: Option<u64>,
    granularity: Option<String>,
    script: Option<String>,
    markdown: bool,
    trace_out: Option<String>,
    trace_format: Option<String>,
    histograms: bool,
    report_json: Option<String>,
    metrics: Option<String>,
    forensics: bool,
    audit: bool,
    audit_every: Option<u64>,
    sanitize: bool,
    strict_telemetry: bool,
}

impl Options {
    /// Whether any flag needs the telemetry pipeline installed.
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some()
            || self.histograms
            || self.report_json.is_some()
            || self.forensics
            || self.strict_telemetry
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--mode" => opts.mode = Some(take("--mode")?),
            "--op" => opts.op = Some(take("--op")?),
            "--app" => opts.app = Some(take("--app")?),
            "--iters" => {
                opts.iters = Some(
                    take("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                )
            }
            "--granularity" => opts.granularity = Some(take("--granularity")?),
            "--script" => opts.script = Some(take("--script")?),
            "--markdown" => opts.markdown = true,
            "--trace-out" => opts.trace_out = Some(take("--trace-out")?),
            "--trace-format" => opts.trace_format = Some(take("--trace-format")?),
            "--histograms" => opts.histograms = true,
            "--report-json" => opts.report_json = Some(take("--report-json")?),
            "--metrics" => opts.metrics = Some(take("--metrics")?),
            "--forensics" => opts.forensics = true,
            "--audit" => opts.audit = true,
            "--sanitize" => opts.sanitize = true,
            "--strict-telemetry" => opts.strict_telemetry = true,
            other if other.starts_with("--audit=") => {
                let n: u64 = other["--audit=".len()..]
                    .parse()
                    .map_err(|e| format!("--audit=<N>: {e}"))?;
                if n == 0 {
                    return Err("--audit=<N>: N must be positive".into());
                }
                opts.audit = true;
                opts.audit_every = Some(n);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

fn run_workload(
    sys: &mut System,
    opts: &Options,
    mut recorder: Option<&mut MetricsRecorder>,
) -> Result<f64, String> {
    let iters = opts.iters.unwrap_or(100);
    if let Some(op) = &opts.op {
        let op = parse_op(op)?;
        // `--audit=<N>` and `--metrics` both break the run into
        // iteration chunks: the former re-audits the whole system
        // between chunks (pinning an invariant break to the chunk that
        // introduced it), the latter samples the windowed series.
        // `--audit=<N>` picks the chunk size; metrics alone samples
        // every iters/64 iterations.
        if opts.audit_every.is_some() || recorder.is_some() {
            let every = opts.audit_every.unwrap_or_else(|| (iters / 64).max(1));
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
                if opts.audit_every.is_some() {
                    let report = sys.audit_static();
                    if !report.is_clean() {
                        report_static_audit(&report);
                        return Err(format!(
                            "static audit failed after {done}/{iters} iterations"
                        ));
                    }
                }
            }
            let audited = opts
                .audit_every
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
    } else if let Some(app) = &opts.app {
        let app = parse_app(app)?;
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
fn new_recorder(sys: &System, opts: &Options) -> Option<MetricsRecorder> {
    opts.metrics.as_ref().map(|_| {
        let mut rec = MetricsRecorder::new(&MetricsConfig::default());
        rec.sample(sys.cycles(), &metric_samples(sys));
        rec
    })
}

/// Takes the final sample and writes the `--metrics` artifact.
fn write_metrics(
    sys: &System,
    opts: &Options,
    recorder: Option<MetricsRecorder>,
    mode: Mode,
) -> Result<(), String> {
    let (Some(path), Some(mut rec)) = (opts.metrics.as_ref(), recorder) else {
        return Ok(());
    };
    rec.sample(sys.cycles(), &metric_samples(sys));
    let doc = rec.finish(None, None, Some(&mode.to_string()));
    std::fs::write(path, doc.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    println!("metrics: {} window(s) -> {path}", doc.windows());
    Ok(())
}

/// Boots `mode`, with telemetry installed when any output flag needs it
/// and the ownership sanitizer armed when `--sanitize` asks for it.
fn boot(mode: Mode, opts: &Options) -> Result<System, String> {
    let mut builder = SystemBuilder::new(mode);
    if opts.wants_telemetry() {
        builder = builder.telemetry(DEFAULT_TELEMETRY_CAPACITY);
    }
    let mut sys = builder.build().map_err(|e| e.to_string())?;
    if opts.sanitize {
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

/// Writes the trace/histogram/report artifacts requested by `opts`.
fn export_telemetry(sys: &System, opts: &Options) -> Result<(), String> {
    // Truncation warning up front: a full ring silently understates
    // every trace-derived view, so say so once, for all of them.
    let dropped = sys.telemetry_dropped().unwrap_or(0);
    if dropped > 0 && opts.wants_telemetry() {
        if opts.strict_telemetry {
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
    if let Some(path) = &opts.trace_out {
        let events = sys.telemetry_events().ok_or("telemetry is not enabled")?;
        let text = match opts.trace_format.as_deref().unwrap_or("chrome") {
            "jsonl" => export::write_jsonl(&events),
            "chrome" => export::write_chrome_trace(&events, CYCLES_PER_US),
            other => return Err(format!("unknown trace format '{other}' (jsonl|chrome)")),
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {} events -> {path}", events.len());
    }
    if opts.histograms {
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
    if let Some(path) = &opts.report_json {
        let report = RunReport::capture(sys);
        std::fs::write(path, format!("{}\n", report.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("report: {path}");
    }
    if opts.forensics {
        let events = sys.telemetry_events().ok_or("telemetry is not enabled")?;
        let incidents = hypernel_analyze::reconstruct_incidents(&events);
        println!("\n{}", hypernel_analyze::forensics::render_text(&incidents));
    }
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let mode = parse_mode(opts.mode.as_deref().unwrap_or("hypernel"))?;
    let mut sys = boot(mode, opts)?;
    println!("booted: {mode}");
    let mut recorder = new_recorder(&sys, opts);
    run_workload(&mut sys, opts, recorder.as_mut())?;
    sys.service_interrupts().map_err(|e| e.to_string())?;
    if opts.audit {
        final_static_audit(&mut sys)?;
    }
    if opts.markdown {
        println!("\n{}", RunReport::capture(&sys).to_markdown());
    }
    write_metrics(&sys, opts, recorder, mode)?;
    export_telemetry(&sys, opts)
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let mut results = Vec::new();
    for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
        let mut sys = System::boot(mode).map_err(|e| e.to_string())?;
        print!("{mode:<12} ");
        results.push((mode, run_workload(&mut sys, opts, None)?));
    }
    let native = results[0].1;
    println!("\noverheads vs native:");
    for (mode, cost) in &results[1..] {
        println!("  {mode}: {:+.1}%", (cost / native - 1.0) * 100.0);
    }
    Ok(())
}

fn cmd_monitor(opts: &Options) -> Result<(), String> {
    let mode = match opts.granularity.as_deref().unwrap_or("word") {
        "word" => MonitorMode::SensitiveFields,
        "object" | "page" => MonitorMode::WholeObject,
        other => return Err(format!("unknown granularity '{other}' (word|object)")),
    };
    let mut sys = boot(Mode::Hypernel, opts)?;
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .arm_monitor_hooks(machine, hyp, MonitorHooks { mode })
            .map_err(|e| e.to_string())?;
    }
    sys.reset_mbm_stats();
    let mut recorder = new_recorder(&sys, opts);
    run_workload(&mut sys, opts, recorder.as_mut())?;
    sys.service_interrupts().map_err(|e| e.to_string())?;
    if opts.audit {
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
    write_metrics(&sys, opts, recorder, Mode::Hypernel)?;
    export_telemetry(&sys, opts)
}

fn cmd_replay(opts: &Options) -> Result<(), String> {
    use hypernel::workloads::replay;
    let path = opts
        .script
        .as_deref()
        .ok_or("replay needs --script <path>")?;
    let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let statements = replay::parse(&script).map_err(|e| format!("{path}: {e}"))?;
    let mode = parse_mode(opts.mode.as_deref().unwrap_or("hypernel"))?;
    let mut sys = boot(mode, opts)?;
    let recorder = new_recorder(&sys, opts);
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
    if opts.markdown {
        println!("\n{}", RunReport::capture(&sys).to_markdown());
    }
    write_metrics(&sys, opts, recorder, mode)?;
    export_telemetry(&sys, opts)
}

fn cmd_audit() -> Result<(), String> {
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
        Ok(())
    } else {
        outcome.and(Err(format!(
            "{} incremental violation(s)",
            report.violations.len()
        )))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "run" | "compare" | "monitor" | "replay" => match parse_options(rest) {
            Ok(opts) => match command {
                "run" => cmd_run(&opts),
                "compare" => cmd_compare(&opts),
                "replay" => cmd_replay(&opts),
                _ => cmd_monitor(&opts),
            },
            Err(e) => Err(e),
        },
        "audit" => cmd_audit(),
        other => Err(format!("unknown command '{other}' (try 'help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
