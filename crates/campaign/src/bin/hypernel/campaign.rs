//! `hypernel campaign` — adversarial campaign runner.
//!
//! `run` exits nonzero when any run fails an oracle the scenario did
//! not declare — the CI campaign-smoke gate keys on that.

use std::path::Path;
use std::process::ExitCode;

use hypernel_campaign::coverage::{atlas_json, CoverageMap};
use hypernel_campaign::explore::{explore, ExploreConfig, Steering};
use hypernel_campaign::record::{summarize, summary_json};
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::sweep::{run_sweep, run_sweep_with, SweepConfig};
use hypernel_campaign::{minimize, MinimizeError, RunRecord};

use crate::args::{write_file, write_or_stdout, Args, Command};

pub const USAGE: &str = "\
hypernel campaign — adversarial attack/fault campaigns for Hypernel

USAGE:
  hypernel campaign run --corpus <dir> [--seeds N] [--jobs N]
                        [--out <campaign.jsonl>] [--summary <file>]
                        [--scenario <name>] [--metrics <dir>]
                        [--blackbox <dir>] [--coverage <file>] [--watch]
      Sweeps every corpus scenario across seeds 0..N (default 16) on a
      worker pool (default 1 job). Writes one JSON record per run,
      sorted by (scenario, seed) — byte-identical regardless of --jobs.
      --metrics writes each run's windowed time series to
      <dir>/<scenario>-s<seed>.metrics.jsonl; --blackbox writes each
      failing run's flight-recorder dump to
      <dir>/<scenario>-s<seed>.blackbox.json; --coverage merges every
      run's structural coverage into one canonical coverage.json atlas
      (byte-identical at any --jobs); --watch prints one live progress
      line per finished run (arrival order — progress only, the
      artifacts are unaffected). Exits 1 when any run violates an
      oracle the scenario did not declare.
  hypernel campaign list --corpus <dir>
      Prints each scenario's name, mode, step count and fault count.
  hypernel campaign minimize --corpus <dir> --scenario <name> [--seed N]
                             [--blackbox <file>]
      Reduces the named scenario's fault schedule to a minimal set of
      single-occurrence faults that still masks detection. --blackbox
      writes the validation run's flight-recorder dump.
  hypernel campaign explore --corpus <dir> --out <dir> [--seeds N]
                            [--jobs N] [--max-emit M] [--targets T]
      Coverage-guided mutation: sweeps the corpus (seeds 0..N, default
      2) to learn which (outcome, fault, oracle, mode) tuples it covers,
      then probes deterministic mutants (mode flips, step swaps, fault
      substitutions, MBM pressure) and writes every mutant that runs
      clean, lints clean and reaches a new tuple — or fires a
      hypersec/rule/* denial the corpus never fired — to
      <out>/<name>.toml (at most M, default 4). --targets `auto` steers
      at every statically-reachable-but-unfired rule key (ranked by the
      hypernel staticheck analyzer); --targets k1,k2 steers at exactly
      those keys. Exits 1 when nothing novel is found.
  hypernel campaign lint <dir>
      Lints every scenario file in <dir>: each loader error (unknown
      keys, wrong-typed or out-of-range values), Hypernel-only knobs on
      baseline modes, unhittable latency bounds, undeclared masks,
      duplicate or drifting names.
      Exits 1 when anything is flagged.
  hypernel campaign selftest
      Runs a built-in scenario pair end to end; exits nonzero on any
      oracle violation.
";

pub const COMMANDS: &[Command] = &[
    Command::new("run", "", cmd_run)
        .options("corpus seeds jobs out summary scenario metrics blackbox coverage")
        .flags("watch"),
    Command::new("list", "", cmd_list).options("corpus"),
    Command::new("minimize", "", cmd_minimize).options("corpus scenario seed blackbox"),
    Command::new("explore", "", cmd_explore).options("corpus out seeds jobs max-emit targets"),
    Command::new("lint", "<dir>", cmd_lint),
    Command::new("selftest", "", cmd_selftest),
];

/// Writes one file per run record that carries a `content` document, as
/// `<dir>/<scenario>-s<seed>.<suffix>`; returns how many were written.
fn write_per_run(
    dir: &str,
    records: &[RunRecord],
    suffix: &str,
    content: impl Fn(&RunRecord) -> Option<String>,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let mut written = 0usize;
    for record in records {
        if let Some(text) = content(record) {
            let name = format!("{}-s{}.{suffix}", record.scenario, record.seed);
            write_file(Path::new(dir).join(name), &text)?;
            written += 1;
        }
    }
    Ok(written)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let watch = args.flag("watch");
    let seeds: u64 = args.num("seeds", 16)?;
    let jobs: usize = args.num("jobs", 1)?;
    let mut scenarios = args.corpus()?;
    if let Some(only) = args.get("scenario") {
        scenarios.retain(|s| s.name == only);
        if scenarios.is_empty() {
            let corpus = args.required("corpus")?;
            return Err(format!("no scenario named `{only}` in `{corpus}`"));
        }
    }

    let outcome = run_sweep_with(&scenarios, SweepConfig { seeds, jobs }, |p| {
        if watch {
            let status = match p.result {
                Ok(r) if r.passed => "ok".to_string(),
                Ok(r) => format!("FAIL ({} unexpected)", r.unexpected_violations().count()),
                Err(e) => format!("ERROR: {e}"),
            };
            eprintln!(
                "[{:>3}/{}] {:<28} seed {:<4} {status}",
                p.done, p.total, p.scenario, p.seed
            );
        }
    });

    if let Some(dir) = args.get("metrics") {
        let written = write_per_run(dir, &outcome.records, "metrics.jsonl", |r| {
            r.metrics.as_ref().map(|doc| doc.to_jsonl())
        })?;
        eprintln!("wrote {written} metrics series to {dir}");
    }
    if let Some(dir) = args.get("blackbox") {
        let written = write_per_run(dir, &outcome.records, "blackbox.json", |r| {
            r.blackbox.as_ref().map(|dump| format!("{dump}\n"))
        })?;
        eprintln!("wrote {written} blackbox dump(s) to {dir}");
    }

    let mut jsonl = String::new();
    for record in &outcome.records {
        jsonl.push_str(&record.to_json().to_string());
        jsonl.push('\n');
    }
    write_or_stdout(args.get("out"), &jsonl, "campaign records")?;

    let rows = summarize(&outcome.records);
    if let Some(path) = args.get("summary") {
        let summary = format!("{}\n", summary_json(&rows));
        write_or_stdout(Some(path), &summary, "campaign summary")?;
    }

    if let Some(path) = args.get("coverage") {
        let mut merged = CoverageMap::new();
        for record in &outcome.records {
            if let Some(cov) = &record.coverage {
                merged.merge(cov);
            }
        }
        let atlas = format!("{}\n", atlas_json(&merged, outcome.records.len() as u64));
        write_or_stdout(Some(path), &atlas, "coverage atlas")?;
    }

    for row in &rows {
        eprintln!("{row}");
    }
    for failure in &outcome.failures {
        eprintln!(
            "ERROR {} seed {}: {}",
            failure.scenario, failure.seed, failure.error
        );
    }
    let unexpected: u64 = outcome
        .records
        .iter()
        .map(|r| r.unexpected_violations().count() as u64)
        .sum();
    if !outcome.failures.is_empty() || unexpected > 0 {
        eprintln!(
            "campaign FAILED: {unexpected} unexpected violation(s), {} engine failure(s)",
            outcome.failures.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    eprintln!(
        "campaign passed: {} runs, {} scenario(s), seeds 0..{seeds}",
        outcome.records.len(),
        rows.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &Args) -> Result<ExitCode, String> {
    for scenario in args.corpus()? {
        println!(
            "{:<28} {:<10} steps {:>2}  faults {:>2}  {}",
            scenario.name,
            scenario.mode.to_string(),
            scenario.steps.len(),
            scenario.faults.specs.len(),
            scenario.description,
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_minimize(args: &Args) -> Result<ExitCode, String> {
    let name = args.required("scenario")?;
    let seed: u64 = args.num("seed", 0)?;
    let scenarios = args.corpus()?;
    let Some(scenario) = scenarios.iter().find(|s| s.name == name) else {
        let corpus = args.required("corpus")?;
        return Err(format!("no scenario named `{name}` in `{corpus}`"));
    };
    match minimize(scenario, seed) {
        Ok(outcome) => {
            println!(
                "minimized {} seed {seed}: {} injected event(s) -> {} (in {} probe runs)",
                scenario.name,
                outcome.original_events,
                outcome.schedule.len(),
                outcome.probes
            );
            for spec in &outcome.schedule {
                let param = if spec.param != 0 && spec.param != u64::MAX {
                    format!(" (param {})", spec.param)
                } else {
                    String::new()
                };
                println!("  {} at occurrence {}{param}", spec.kind, spec.at);
            }
            if let Some(path) = args.get("blackbox") {
                write_or_stdout(
                    Some(path),
                    &format!("{}\n", outcome.blackbox),
                    "blackbox dump",
                )?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(MinimizeError::NoDetectionGap) => {
            println!(
                "{} seed {seed}: every monitored write was detected; nothing to minimize",
                scenario.name
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    let out_dir = args.required("out")?;
    let steering = match args.get("targets") {
        None => Steering::Off,
        Some("auto") => Steering::Auto,
        Some(list) => Steering::Keys(list.split(',').map(str::to_string).collect()),
    };
    let config = ExploreConfig {
        seeds: args.num("seeds", 2)?,
        jobs: args.num("jobs", 1)?,
        max_emit: args.num("max-emit", 4)?,
        steering,
    };
    let scenarios = args.corpus()?;
    let outcome = explore(&scenarios, &config).map_err(|e| e.to_string())?;
    eprintln!(
        "explore: corpus covers {} tuple(s); probed {} candidate(s)",
        outcome.baseline_tuples, outcome.candidates_tried
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create `{out_dir}`: {e}"))?;
    for emitted in &outcome.emitted {
        let path = Path::new(out_dir).join(format!("{}.toml", emitted.name));
        write_file(&path, &emitted.toml)?;
        eprintln!("wrote {}:", path.display());
        for tuple in &emitted.new_tuples {
            eprintln!("  + {tuple}");
        }
        for rule in &emitted.new_rules {
            eprintln!("  + {rule} (steered)");
        }
    }
    if outcome.emitted.is_empty() {
        eprintln!("explore found nothing novel — the corpus already covers every reachable mutant tuple probed");
        return Ok(ExitCode::FAILURE);
    }
    eprintln!(
        "explore emitted {} novel scenario(s) to {out_dir}",
        outcome.emitted.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &Args) -> Result<ExitCode, String> {
    let dir = &args.positional()[0];
    let issues = hypernel_campaign::lint::lint_dir(Path::new(dir))?;
    for issue in &issues {
        eprintln!("lint: {issue}");
    }
    if issues.is_empty() {
        eprintln!("lint passed: `{dir}` is clean");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("lint FAILED: {} issue(s) in `{dir}`", issues.len());
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_selftest(_: &Args) -> Result<ExitCode, String> {
    use hypernel::Mode;
    use hypernel_campaign::scenario::StepExpect;
    use hypernel_kernel::AttackStep;
    use hypernel_machine::FaultSpec;

    let scenarios = vec![
        Scenario::new("selftest-cred", Mode::Hypernel)
            .background(2)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected),
        Scenario::new("selftest-drop", Mode::Hypernel)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
            .fault(FaultSpec::drop_irq(1, u64::MAX)),
        Scenario::new("selftest-native", Mode::Native).step(
            AttackStep::CredEscalation { pid: 1 },
            StepExpect::Undetected,
        ),
    ];
    let outcome = run_sweep(&scenarios, SweepConfig { seeds: 4, jobs: 2 });
    if !outcome.all_passed() {
        for r in &outcome.records {
            for v in r.unexpected_violations() {
                eprintln!(
                    "{} seed {}: [{}] {}",
                    r.scenario, r.seed, v.oracle, v.detail
                );
            }
        }
        return Err("selftest: unexpected oracle violations".to_string());
    }
    let min = minimize(&scenarios[1], 0).map_err(|e| format!("selftest minimize: {e}"))?;
    if min.schedule.is_empty() {
        return Err("selftest: minimizer returned an empty schedule".to_string());
    }
    println!(
        "selftest passed: {} runs, minimize {} -> {} event(s)",
        outcome.records.len(),
        min.original_events,
        min.schedule.len()
    );
    Ok(ExitCode::SUCCESS)
}
