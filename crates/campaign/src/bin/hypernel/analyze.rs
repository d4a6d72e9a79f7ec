//! `hypernel analyze` — trace analytics and perf-regression commands.
//!
//! `compare` exits nonzero when a cost metric of a run report regressed
//! beyond the threshold; `bench` exits nonzero when an hbench run is
//! wrong, a simulated digest moved or a host-time metric crossed its
//! `BENCHMARK.json` bound, which is what the CI perf gate keys on (and,
//! with `--parent`, the paired A/B rule of a performance claim);
//! `coverage --against` exits nonzero when any feature covered by the
//! baseline atlas went uncovered, which is what the CI coverage gate
//! keys on.

use std::path::Path;
use std::process::ExitCode;

use hypernel::analyze::attribution::{attribute, collapsed_stacks};
use hypernel::analyze::bench::{gate, paired, point_json, read_bounds, read_point, read_run};
use hypernel::analyze::compare::compare_reports;
use hypernel::analyze::forensics::{incidents_to_json, reconstruct_incidents, render_text};
use hypernel::audit::report::ingest_report;
use hypernel_campaign::coverage::{diff_atlases, ingest_atlas, render_report};
use hypernel_campaign::record::{diff_campaigns, ingest_records, read_summary, summary_json};
use hypernel_campaign::staticcov::{
    ingest_static, render_diff, render_static, static_dynamic_diff,
};
use hypernel_telemetry::json::Json;
use hypernel_telemetry::reader::read_jsonl_lossy;
use hypernel_telemetry::Event;

use crate::args::{read_json, write_file, write_or_stdout, Args, Command};

pub const USAGE: &str = "\
hypernel analyze — trace analytics for the Hypernel simulation

USAGE:
  hypernel analyze attribution <trace.jsonl> [--collapsed <out>] [--top N]
      Per-span self-vs-nested cycle accounting; optionally writes
      collapsed stacks for flamegraph tooling.
  hypernel analyze forensics <trace.jsonl> [--json]
      Causal timeline of every MBM incident with detection latency.
  hypernel analyze compare <baseline.json> <current.json> [--threshold F] [--json]
      Diffs two run reports; exits 1 when a cost metric regressed
      beyond the threshold (default 0.05 = 5%).
  hypernel analyze bench <BENCHMARK.json> <hbench-output>...
                         [--baseline <BENCH_date.json> | --parent <dir>]
                         [--out <BENCH_date.json>]
      The host-time perf gate over the standard output of `--trace 0`
      hbench runs. Groups the runs by (workload, seed) and prints each
      end-to-end metric's median. Exits 1, listing every finding, when
      a run is not correct, runs of a group disagree on the simulated
      digest or, with --baseline (a committed point), a digest differs
      from the baseline's, a group has no baseline entry, or a median
      is worse than the baseline's by more than the metric's bound in
      BENCHMARK.json. --out writes the runs as the next point.
      --parent pairs each output with the file of the same name in
      <dir>, a run of the parent taken beside it, and prints per group
      and metric both sides' medians and quartiles, the change, the
      pairs won and a verdict: `gain` (at least 9 in 10 pairs won and
      a median gap past the parent's q3 - q1), `worse` (past the
      bound), `unresolved` (the parent spreads wider than the bound and
      not every change run beats every parent run) or `within bound`.
      Exits 1 on a `worse` verdict, an incorrect run, a larger share of
      failed units than the parent's or a digest that differs.
  hypernel analyze selftest
      End-to-end pipeline check over a synthetic trace; exits nonzero
      on any inconsistency.
  hypernel analyze campaign <campaign.jsonl> [--baseline <summary.json>]
                            [--out <summary.json>] [--threshold F] [--json]
      Aggregates adversarial campaign run records into a per-scenario
      summary; with --baseline also diffs against a previous summary
      and exits 1 on any regression (new unexpected violations,
      pass-rate drops, detection-latency growth beyond the threshold,
      default 0.10 = 10%). Exits 1 whenever unexpected violations are
      present.
  hypernel analyze audit <report.json>...
      Ingests one or more `hypernel audit` static-audit reports and
      prints a per-invariant finding breakdown for each; exits 1 when
      any report is not clean.
  hypernel analyze timeline <metrics.jsonl | blackbox.json> [--csv]
                            [--against <other>] [--threshold F]
      Renders a run's windowed time series (one row per window, derived
      hit-rate columns appended) as an aligned markdown table, or raw
      CSV with --csv. Accepts either a metrics.jsonl document or a
      blackbox.json flight-recorder dump (whose embedded metrics are
      extracted). --against diffs a second document and exits 1 when a
      gated tail series (FIFO high water, detection-latency max) grew
      beyond the threshold (default 0.10 = 10%).
  hypernel analyze coverage <coverage.json> [--against <baseline.json>]
      Renders a campaign coverage atlas (per-group coverage table, the
      unfired hypersec/rule/* table, and the uncovered tuple/feature
      lists). --against diffs a baseline atlas and exits 1 when any
      feature covered by the baseline is no longer covered.
  hypernel analyze staticcov <static-coverage.json> [--against <coverage.json>]
      Renders a `hypernel staticheck` static-coverage artifact
      (per-scenario prediction table, policy findings, reachable-rule
      frontier with guarding surfaces). --against diffs a dynamic
      coverage atlas: exits 1 when any fired contract key escaped the
      static prediction (a soundness breach), and lists the
      statically-possible-but-unfired keys — the rule slice is the
      steering input for `hypernel campaign explore --targets`.
";

pub const COMMANDS: &[Command] = &[
    Command::new("attribution", "<trace.jsonl>", cmd_attribution).options("collapsed top"),
    Command::new("forensics", "<trace.jsonl>", cmd_forensics).flags("json"),
    Command::new("compare", "<baseline.json> <current.json>", cmd_compare)
        .options("threshold")
        .flags("json"),
    Command::new("bench", "<BENCHMARK.json> <hbench-output>...", cmd_bench)
        .options("baseline parent out"),
    Command::new("campaign", "<campaign.jsonl>", cmd_campaign)
        .options("baseline out threshold")
        .flags("json"),
    Command::new("audit", "<report.json>...", cmd_audit),
    Command::new("timeline", "<metrics.jsonl|blackbox.json>", cmd_timeline)
        .options("against threshold")
        .flags("csv"),
    Command::new("coverage", "<coverage.json>", cmd_coverage).options("against"),
    Command::new("staticcov", "<static-coverage.json>", cmd_staticcov).options("against"),
    Command::new("selftest", "", cmd_selftest),
];

fn load_trace(path: &str) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let trace = read_jsonl_lossy(&text);
    if trace.skipped > 0 {
        eprintln!(
            "warning: skipped {} malformed line(s) in `{path}`:",
            trace.skipped
        );
        for (line, why) in &trace.skip_details {
            eprintln!("warning:   line {line}: {why}");
        }
        let undetailed = trace
            .skipped
            .saturating_sub(trace.skip_details.len() as u64);
        if undetailed > 0 {
            eprintln!("warning:   ... and {undetailed} more");
        }
    }
    if trace.events.is_empty() {
        return Err(format!("`{path}` contains no parseable telemetry events"));
    }
    Ok(trace.events)
}

fn cmd_attribution(args: &Args) -> Result<ExitCode, String> {
    let top: usize = args.num("top", 20)?;
    let events = load_trace(&args.positional()[0])?;
    let attribution = attribute(&events);
    print!("{}", attribution.render_table(top));
    if let Some(out) = args.get("collapsed") {
        let stacks = collapsed_stacks(&events);
        write_file(out, &stacks)?;
        println!(
            "wrote {} collapsed stack(s) to {out}",
            stacks.lines().count()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_forensics(args: &Args) -> Result<ExitCode, String> {
    let events = load_trace(&args.positional()[0])?;
    let incidents = reconstruct_incidents(&events);
    if args.flag("json") {
        println!("{}", incidents_to_json(&incidents));
    } else {
        print!("{}", render_text(&incidents));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let (baseline_path, current_path) = (&args.positional()[0], &args.positional()[1]);
    let threshold = args.threshold(0.05)?;
    let baseline = read_json(baseline_path)?;
    let current = read_json(current_path)?;
    let comparison = compare_reports(&baseline, &current, threshold);
    if args.flag("json") {
        println!("{}", comparison.to_json());
    } else {
        print!("{}", comparison.render_text());
    }
    Ok(if comparison.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let (spec_path, outputs) = args.positional().split_first().expect("declared");
    let bounds = read_bounds(&read_json(spec_path)?).map_err(|e| format!("`{spec_path}`: {e}"))?;
    let read = |path: &str| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        read_run(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let runs = outputs
        .iter()
        .map(|p| read(p))
        .collect::<Result<Vec<_>, _>>()?;
    let baseline = match args.get("baseline") {
        Some(path) => Some(read_point(&read_json(path)?).map_err(|e| format!("`{path}`: {e}"))?),
        None => None,
    };
    let parent = match args.get("parent") {
        Some(_) if baseline.is_some() => return Err("give --baseline or --parent, not both".into()),
        Some(dir) => Some(
            (outputs.iter())
                .map(|path| {
                    let name = Path::new(path).file_name().unwrap_or_default();
                    read(&Path::new(dir).join(name).to_string_lossy())
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        None => None,
    };
    if let Some(out) = args.get("out") {
        write_file(out, &format!("{}\n", point_json(&runs)))?;
        println!("wrote {} run(s) to {out}", runs.len());
    }
    let (verdict, counted) = match parent {
        Some(parent) => (paired(&bounds, &runs, &parent), "pair(s)"),
        None => (gate(&bounds, &runs, baseline.as_deref()), "run(s)"),
    };
    verdict.lines.iter().for_each(|line| println!("{line}"));
    for finding in &verdict.findings {
        println!("FAIL: {finding}");
    }
    let against = (args.get("baseline").or(args.get("parent")))
        .map_or(String::new(), |p| format!(" vs `{p}`"));
    let (runs, findings) = (runs.len(), verdict.findings.len());
    if findings == 0 {
        println!("perf gate: ok, {runs} {counted}{against}");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("perf gate: FAIL, {findings} finding(s){against}");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_campaign(args: &Args) -> Result<ExitCode, String> {
    let records_path = &args.positional()[0];
    let threshold = args.threshold(0.10)?;
    let text = std::fs::read_to_string(records_path)
        .map_err(|e| format!("cannot read `{records_path}`: {e}"))?;
    let (rows, skipped) = ingest_records(&text)?;
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} non-record line(s) in `{records_path}`");
    }

    let summary = summary_json(&rows);
    if let Some(path) = args.get("out") {
        write_or_stdout(Some(path), &format!("{summary}\n"), "campaign summary")?;
    }
    if args.flag("json") {
        println!("{summary}");
    } else {
        for row in &rows {
            println!("{row}");
        }
    }

    let mut failed = false;
    let unexpected: u64 = rows.iter().map(|r| r.unexpected_violations).sum();
    if unexpected > 0 {
        eprintln!("campaign has {unexpected} unexpected violation(s)");
        failed = true;
    }
    if let Some(baseline_path) = args.get("baseline") {
        let baseline = read_summary(&read_json(baseline_path)?)
            .map_err(|e| format!("`{baseline_path}`: {e}"))?;
        let findings = diff_campaigns(&baseline, &rows, threshold);
        for f in &findings {
            println!(
                "{} {}: {}",
                if f.regression { "REGRESSION" } else { "note" },
                f.scenario,
                f.detail
            );
        }
        if findings.iter().any(|f| f.regression) {
            failed = true;
        } else {
            println!("no regressions vs {baseline_path}");
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_timeline(args: &Args) -> Result<ExitCode, String> {
    use hypernel::analyze::timeline::{diff, ingest, render_csv, render_markdown};

    let path = &args.positional()[0];
    let load = |path: &str| -> Result<_, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        ingest(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let timeline = load(path)?;
    if args.flag("csv") {
        print!("{}", render_csv(&timeline));
    } else {
        print!("{}", render_markdown(&timeline));
    }
    if let Some(against_path) = args.get("against") {
        let threshold = args.threshold(0.10)?;
        let baseline = load(against_path)?;
        let delta = diff(&baseline.doc, &timeline.doc, threshold);
        for note in &delta.notes {
            println!("note: {note}");
        }
        for regression in &delta.regressions {
            println!("REGRESSION: {regression}");
        }
        if delta.has_regressions() {
            eprintln!("timeline gate: FAIL vs `{against_path}`");
            return Ok(ExitCode::FAILURE);
        }
        println!("timeline gate: ok vs `{against_path}`");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_coverage(args: &Args) -> Result<ExitCode, String> {
    let atlas_path = &args.positional()[0];
    let atlas =
        ingest_atlas(&read_json(atlas_path)?).map_err(|e| format!("`{atlas_path}`: {e}"))?;
    print!("{}", render_report(&atlas));
    if let Some(baseline_path) = args.get("against") {
        let baseline = ingest_atlas(&read_json(baseline_path)?)
            .map_err(|e| format!("`{baseline_path}`: {e}"))?;
        let diff = diff_atlases(&baseline, &atlas);
        for key in &diff.newly_covered {
            println!("newly covered: {key}");
        }
        for key in &diff.regressions {
            println!("REGRESSION: `{key}` covered in baseline, uncovered now");
        }
        if diff.has_regressions() {
            eprintln!(
                "coverage gate: FAIL ({} feature(s) lost vs `{baseline_path}`)",
                diff.regressions.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("coverage gate: ok vs `{baseline_path}`");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_staticcov(args: &Args) -> Result<ExitCode, String> {
    let static_path = &args.positional()[0];
    let sc =
        ingest_static(&read_json(static_path)?).map_err(|e| format!("`{static_path}`: {e}"))?;
    print!("{}", render_static(&sc));
    if let Some(atlas_path) = args.get("against") {
        let atlas =
            ingest_atlas(&read_json(atlas_path)?).map_err(|e| format!("`{atlas_path}`: {e}"))?;
        let diff = static_dynamic_diff(&sc, &atlas);
        print!("{}", render_diff(&diff));
        if diff.is_unsound() {
            eprintln!(
                "soundness gate: FAIL ({} fired key(s) outside the static prediction)",
                diff.unsound.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("soundness gate: ok vs `{atlas_path}`");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_audit(args: &Args) -> Result<ExitCode, String> {
    let paths = args.positional();
    let mut dirty = 0usize;
    for path in paths {
        let summary = ingest_report(&read_json(path)?).map_err(|e| format!("`{path}`: {e}"))?;
        println!("{path}:");
        for line in summary.render_text().lines() {
            println!("  {line}");
        }
        if !summary.clean {
            dirty += 1;
        }
    }
    if dirty > 0 {
        eprintln!("{dirty} of {} report(s) not clean", paths.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// A synthetic end-to-end run of the whole pipeline; used as a CI
/// health gate that needs no pre-existing artifacts.
fn cmd_selftest(_: &Args) -> Result<ExitCode, String> {
    use hypernel_telemetry::{PointKind, SpanKind, Track};

    // A tiny but representative trace: one syscall with a nested EL2
    // verify, and one full MBM incident trail.
    let events = vec![
        Event::begin(0, Track::El1, SpanKind::Syscall, 57),
        Event::begin(10, Track::El2, SpanKind::HypercallVerify, 3),
        Event::end(30, Track::El2, SpanKind::HypercallVerify, 0),
        Event::end(50, Track::El1, SpanKind::Syscall, 0),
        Event::mark(100, Track::Mbm, PointKind::MbmFifoPush, 0xdead_b000, 42),
        Event::begin(110, Track::Mbm, SpanKind::MbmDrain, 1),
        Event::mark(112, Track::Mbm, PointKind::MbmWatchHit, 0xdead_b000, 42),
        Event::end(118, Track::Mbm, SpanKind::MbmDrain, 1),
        Event::mark(120, Track::Mbm, PointKind::IrqRaised, 5, 0xdead_b000),
        Event::begin(130, Track::El1, SpanKind::MbmIrqService, 5),
        Event::begin(140, Track::El2, SpanKind::HypercallVerify, 9),
        Event::end(150, Track::El2, SpanKind::HypercallVerify, 0),
        Event::end(160, Track::El1, SpanKind::MbmIrqService, 0),
    ];
    let mut jsonl = String::new();
    for event in &events {
        jsonl.push_str(&hypernel_telemetry::export::event_to_json(event).to_string());
        jsonl.push('\n');
    }
    jsonl.push_str("{ this line is corrupted\n");

    let trace = read_jsonl_lossy(&jsonl);
    check(trace.skipped == 1, "lossy reader should skip 1 line")?;
    check(
        trace.events.len() == events.len(),
        "lossy reader should keep all valid events",
    )?;

    let attribution = attribute(&trace.events);
    check(!attribution.rows.is_empty(), "attribution produced rows")?;
    let self_sum: u64 = attribution.rows.iter().map(|r| r.self_cycles).sum();
    check(
        self_sum == attribution.accounted_cycles,
        "self cycles partition accounted time",
    )?;
    check(
        collapsed_stacks(&trace.events).lines().all(|l| {
            l.rsplit_once(' ')
                .is_some_and(|(_, n)| n.parse::<u64>().is_ok())
        }),
        "collapsed stacks are flamegraph-shaped",
    )?;

    let incidents = reconstruct_incidents(&trace.events);
    check(incidents.len() == 1, "exactly one MBM incident")?;
    check(
        incidents[0].detection_latency() == Some(60),
        "detection latency write@100 → service-end@160",
    )?;

    let report = Json::parse(
        r#"{"schema":1,"kind":"hypernel-run-report","cycles":160,
            "counters":{"hypercalls":2}}"#,
    )
    .map_err(|e| e.to_string())?;
    let comparison = compare_reports(&report, &report, 0.05);
    check(
        !comparison.has_regressions() && comparison.changed.is_empty(),
        "self-compare is clean",
    )?;

    println!("selftest ok: reader, attribution, forensics, compare all consistent");
    Ok(ExitCode::SUCCESS)
}

fn check(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("selftest failed: {what}"))
    }
}
