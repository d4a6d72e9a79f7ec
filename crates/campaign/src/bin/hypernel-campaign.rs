//! `hypernel-campaign` — adversarial campaign runner.
//!
//! ```text
//! hypernel-campaign run --corpus <dir> [--seeds N] [--jobs N]
//!                       [--out <campaign.jsonl>] [--summary <file>]
//!                       [--scenario <name>] [--metrics <dir>]
//!                       [--blackbox <dir>] [--coverage <file>] [--watch]
//! hypernel-campaign list --corpus <dir>
//! hypernel-campaign minimize --corpus <dir> --scenario <name> [--seed N]
//!                            [--blackbox <file>]
//! hypernel-campaign explore --corpus <dir> --out <dir> [--seeds N]
//!                           [--jobs N] [--max-emit M]
//! hypernel-campaign lint <dir>
//! hypernel-campaign selftest
//! ```
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
use hypernel_campaign::{load_corpus, minimize, MinimizeError};

const USAGE: &str = "\
hypernel-campaign — adversarial attack/fault campaigns for Hypernel

USAGE:
  hypernel-campaign run --corpus <dir> [--seeds N] [--jobs N]
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
  hypernel-campaign list --corpus <dir>
      Prints each scenario's name, mode, step count and fault count.
  hypernel-campaign minimize --corpus <dir> --scenario <name> [--seed N]
                             [--blackbox <file>]
      Reduces the named scenario's fault schedule to a minimal set of
      single-occurrence faults that still masks detection. --blackbox
      writes the validation run's flight-recorder dump.
  hypernel-campaign explore --corpus <dir> --out <dir> [--seeds N]
                            [--jobs N] [--max-emit M] [--targets T]
      Coverage-guided mutation: sweeps the corpus (seeds 0..N, default
      2) to learn which (outcome, fault, oracle, mode) tuples it covers,
      then probes deterministic mutants (mode flips, step swaps, fault
      substitutions, MBM pressure) and writes every mutant that runs
      clean, lints clean and reaches a new tuple — or fires a
      hypersec/rule/* denial the corpus never fired — to
      <out>/<name>.toml (at most M, default 4). --targets `auto` steers
      at every statically-reachable-but-unfired rule key (ranked by the
      hypernel-staticheck analyzer); --targets k1,k2 steers at exactly
      those keys. Exits 1 when nothing novel is found.
  hypernel-campaign lint <dir>
      Lints every scenario file in <dir>: each loader error (unknown
      keys, wrong-typed or out-of-range values), Hypernel-only knobs on
      baseline modes, unhittable latency bounds, undeclared masks,
      duplicate or drifting names.
      Exits 1 when anything is flagged.
  hypernel-campaign selftest
      Runs a built-in scenario pair end to end; exits nonzero on any
      oracle violation.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "list" => cmd_list(rest),
        "minimize" => cmd_minimize(rest),
        "explore" => cmd_explore(rest),
        "lint" => cmd_lint(rest),
        "selftest" => cmd_selftest(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hypernel-campaign: {message}");
            ExitCode::FAILURE
        }
    }
}

type ParsedOptions = Vec<(String, String)>;

fn split_args(rest: &[String], flags: &[&str]) -> Result<ParsedOptions, String> {
    let mut options = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if !flags.contains(&name) {
            return Err(format!("unknown option `--{name}`"));
        }
        let value = iter
            .next()
            .cloned()
            .ok_or_else(|| format!("option `--{name}` needs a value"))?;
        options.push((name.to_string(), value));
    }
    Ok(options)
}

fn opt<'a>(options: &'a [(String, String)], name: &str) -> Option<&'a str> {
    options
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn opt_num<T: std::str::FromStr>(
    options: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match opt(options, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("option `--{name}`: invalid number `{text}`")),
    }
}

fn write_or_stdout(path: Option<&str>, content: &str, what: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            if let Some(parent) = Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
                }
            }
            std::fs::write(path, content)
                .map_err(|e| format!("cannot write {what} `{path}`: {e}"))?;
            eprintln!("wrote {what} to {path}");
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_run(rest: &[String]) -> Result<ExitCode, String> {
    // `--watch` is the one boolean flag; peel it off before the
    // value-taking parser sees it.
    let watch = rest.iter().any(|a| a == "--watch");
    let rest: Vec<String> = rest.iter().filter(|a| *a != "--watch").cloned().collect();
    let options = split_args(
        &rest,
        &[
            "corpus", "seeds", "jobs", "out", "summary", "scenario", "metrics", "blackbox",
            "coverage",
        ],
    )?;
    let corpus = opt(&options, "corpus").ok_or("`run` needs --corpus <dir>")?;
    let seeds: u64 = opt_num(&options, "seeds", 16)?;
    let jobs: usize = opt_num(&options, "jobs", 1)?;
    let mut scenarios = load_corpus(Path::new(corpus))?;
    if let Some(only) = opt(&options, "scenario") {
        scenarios.retain(|s| s.name == only);
        if scenarios.is_empty() {
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

    if let Some(dir) = opt(&options, "metrics") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
        let mut written = 0usize;
        for record in &outcome.records {
            if let Some(doc) = &record.metrics {
                let path = Path::new(dir).join(format!(
                    "{}-s{}.metrics.jsonl",
                    record.scenario, record.seed
                ));
                std::fs::write(&path, doc.to_jsonl())
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
                written += 1;
            }
        }
        eprintln!("wrote {written} metrics series to {dir}");
    }
    if let Some(dir) = opt(&options, "blackbox") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
        let mut written = 0usize;
        for record in &outcome.records {
            if let Some(dump) = &record.blackbox {
                let path = Path::new(dir).join(format!(
                    "{}-s{}.blackbox.json",
                    record.scenario, record.seed
                ));
                std::fs::write(&path, format!("{dump}\n"))
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
                written += 1;
            }
        }
        eprintln!("wrote {written} blackbox dump(s) to {dir}");
    }

    let mut jsonl = String::new();
    for record in &outcome.records {
        jsonl.push_str(&record.to_json().to_string());
        jsonl.push('\n');
    }
    write_or_stdout(opt(&options, "out"), &jsonl, "campaign records")?;

    let rows = summarize(&outcome.records);
    let summary = format!("{}\n", summary_json(&rows));
    if let Some(path) = opt(&options, "summary") {
        write_or_stdout(Some(path), &summary, "campaign summary")?;
    }

    if let Some(path) = opt(&options, "coverage") {
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
        let faults = row.faults.total();
        eprintln!(
            "{:<28} runs {:>3}  passed {:>3}  expected-violations {:>3}  unexpected {:>3}{}{}",
            row.scenario,
            row.runs,
            row.passed,
            row.expected_violations,
            row.unexpected_violations,
            row.max_latency
                .map(|l| format!("  max-latency {l}"))
                .unwrap_or_default(),
            if faults > 0 {
                format!("  fault-hits {faults}")
            } else {
                String::new()
            },
        );
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

fn cmd_list(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus"])?;
    let corpus = opt(&options, "corpus").ok_or("`list` needs --corpus <dir>")?;
    for scenario in load_corpus(Path::new(corpus))? {
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

fn cmd_minimize(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus", "scenario", "seed", "blackbox"])?;
    let corpus = opt(&options, "corpus").ok_or("`minimize` needs --corpus <dir>")?;
    let name = opt(&options, "scenario").ok_or("`minimize` needs --scenario <name>")?;
    let seed: u64 = opt_num(&options, "seed", 0)?;
    let scenarios = load_corpus(Path::new(corpus))?;
    let scenario = scenarios
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` in `{corpus}`"))?;
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
            if let Some(path) = opt(&options, "blackbox") {
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

fn cmd_explore(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(
        rest,
        &["corpus", "out", "seeds", "jobs", "max-emit", "targets"],
    )?;
    let corpus = opt(&options, "corpus").ok_or("`explore` needs --corpus <dir>")?;
    let out_dir = opt(&options, "out").ok_or("`explore` needs --out <dir>")?;
    let steering = match opt(&options, "targets") {
        None => Steering::Off,
        Some("auto") => Steering::Auto,
        Some(list) => Steering::Keys(list.split(',').map(str::to_string).collect()),
    };
    let config = ExploreConfig {
        seeds: opt_num(&options, "seeds", 2)?,
        jobs: opt_num(&options, "jobs", 1)?,
        max_emit: opt_num(&options, "max-emit", 4)?,
        steering,
    };
    let scenarios = load_corpus(Path::new(corpus))?;
    let outcome = explore(&scenarios, &config).map_err(|e| e.to_string())?;
    eprintln!(
        "explore: corpus covers {} tuple(s); probed {} candidate(s)",
        outcome.baseline_tuples, outcome.candidates_tried
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create `{out_dir}`: {e}"))?;
    for emitted in &outcome.emitted {
        let path = Path::new(out_dir).join(format!("{}.toml", emitted.name));
        std::fs::write(&path, &emitted.toml)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
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

fn cmd_lint(rest: &[String]) -> Result<ExitCode, String> {
    let [dir] = rest else {
        return Err("`lint` needs exactly one argument: the corpus directory".to_string());
    };
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

fn cmd_selftest() -> Result<ExitCode, String> {
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
