//! `hypernel staticheck` — the static reachability analyzer.

use std::process::ExitCode;

use hypernel::Mode;
use hypernel_campaign::staticheck::{
    impossible_expectations, predict_corpus_jobs, predict_scenario, ranked_targets,
    reachable_rules, remode, soundness_sweep, static_coverage_json, step_for_rule, Prediction,
};
use hypernel_telemetry::json::Json;

use crate::args::{read_json, write_file, Args, Command};

pub const USAGE: &str = "\
hypernel staticheck: abstract interpretation of attack scenarios
against the Hypernel protection model — no execution involved.

Usage:
  hypernel staticheck corpus --corpus <dir> [--out <file>] [--jobs N]
      Predicts every scenario and writes the `static-coverage.json`
      artifact (stdout without --out): per scenario, which
      hypersec/rule/*, oracle/* and kernel/attack/* coverage keys a
      dynamic run of any seed may produce, plus lint-grade policy
      findings and the reachable-rule frontier per mode. The bytes are
      identical at any --jobs (default 1) — the analysis is pure.
  hypernel staticheck scenario --corpus <dir> --scenario <name> [--mode <m>]
      Human-readable prediction for one scenario, optionally re-moded
      to <m> (hypernel | kvm | native) the same way explore re-modes.
      Also reports statically impossible declared expectations.
  hypernel staticheck soundness --corpus <dir> [--seeds N]
      The differential gate: runs every scenario x {hypernel, kvm,
      native} x seeds 0..N (default 8) and checks that every
      dynamically observed contract key is inside the static
      prediction. Exits 1 listing each breach — an analyzer soundness
      bug, or a real protection bug for the deliberately-impossible
      invariant keys. Exits 0 on a clean sweep.
  hypernel staticheck targets --corpus <dir> [--baseline <coverage.json>]
      Ranks statically-reachable-but-unfired `hypersec/rule/*` keys
      against a dynamic coverage atlas (default: the corpus baseline is
      assumed empty, so every reachable rule is a target), with the
      canonical attack step that fires each — the steering input
      `hypernel campaign explore --targets` consumes.
";

pub const COMMANDS: &[Command] = &[
    Command::new("corpus", "", cmd_corpus).options("corpus out jobs"),
    Command::new("scenario", "", cmd_scenario).options("corpus scenario mode"),
    Command::new("soundness", "", cmd_soundness).options("corpus seeds"),
    Command::new("targets", "", cmd_targets).options("corpus baseline"),
];

fn cmd_corpus(args: &Args) -> Result<ExitCode, String> {
    let corpus = args.corpus()?;
    let jobs: usize = args.num("jobs", 1)?;
    let artifact = static_coverage_json(&predict_corpus_jobs(&corpus, jobs)).to_string();
    match args.get("out") {
        Some(path) => {
            write_file(path, &artifact)?;
            eprintln!(
                "hypernel staticheck: wrote {} scenario predictions to {path}",
                corpus.len()
            );
        }
        None => println!("{artifact}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn render_prediction(p: &Prediction) -> String {
    let mut out = String::new();
    out.push_str(&format!("scenario: {}\nmode: {}\n", p.scenario, p.mode));
    out.push_str("steps:\n");
    for step in &p.steps {
        let outcomes: Vec<&str> = step.outcomes.iter().copied().collect();
        let rules: Vec<&str> = step.rules.iter().copied().collect();
        out.push_str(&format!(
            "  {:>2}. {:<24} outcomes [{}]",
            step.index,
            step.kind,
            outcomes.join(", ")
        ));
        if !rules.is_empty() {
            out.push_str(&format!("  rules [{}]", rules.join(", ")));
        }
        out.push('\n');
    }
    out.push_str("possible coverage keys:\n");
    for key in &p.possible {
        out.push_str(&format!("  {key}\n"));
    }
    if !p.findings.is_empty() {
        out.push_str("findings:\n");
        for finding in &p.findings {
            out.push_str(&format!("  [{}] {}\n", finding.kind, finding.detail));
        }
    }
    out
}

fn cmd_scenario(args: &Args) -> Result<ExitCode, String> {
    let corpus = args.corpus()?;
    let name = args.required("scenario")?;
    let base = corpus
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` in the corpus"))?;
    let scenario = match args.mode()? {
        Some(mode) => remode(base, mode),
        None => base.clone(),
    };
    print!("{}", render_prediction(&predict_scenario(&scenario)));
    let impossible = impossible_expectations(&scenario);
    if !impossible.is_empty() {
        println!("statically impossible expectations:");
        for (index, detail) in &impossible {
            println!("  step {index}: {detail}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_soundness(args: &Args) -> Result<ExitCode, String> {
    let corpus = args.corpus()?;
    let seeds: u64 = args.num("seeds", 8)?;
    let report = soundness_sweep(&corpus, seeds);
    for (name, mode, seed, error) in &report.skipped {
        eprintln!("  skipped `{name}` mode {mode:?} seed {seed}: {error}");
    }
    if report.breaches.is_empty() {
        println!(
            "soundness gate: {} scenarios x 3 modes x {seeds} seeds = {} runs \
             ({} non-executable skipped), all dynamic contract keys within the \
             static prediction",
            corpus.len(),
            report.runs,
            report.skipped.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "soundness gate FAILED: {} breaching runs out of {} — dynamic coverage \
         escaped the static prediction (analyzer soundness bug, or a real \
         protection bug for invariant keys):",
        report.breaches.len(),
        report.runs
    );
    for breach in &report.breaches {
        eprintln!(
            "  `{}` mode {:?} seed {}: {}",
            breach.scenario,
            breach.mode,
            breach.seed,
            breach.excess.join(", ")
        );
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_targets(args: &Args) -> Result<ExitCode, String> {
    let _corpus = args.corpus()?; // the corpus must at least load
    let fired = match args.get("baseline") {
        None => std::collections::BTreeSet::new(),
        Some(path) => {
            let atlas = read_json(path)?;
            let Some(Json::Object(features)) = atlas.get("features") else {
                return Err(format!("`{path}` has no `features` object"));
            };
            features.iter().map(|(k, _)| k.clone()).collect()
        }
    };
    let targets = ranked_targets(&fired);
    if targets.is_empty() {
        println!(
            "no targets: every statically reachable rule ({}) is already fired",
            reachable_rules(Mode::Hypernel).len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    println!("statically reachable but unfired rule keys (ranked):");
    for key in &targets {
        let rule = key.rsplit('/').next().unwrap_or_default();
        match step_for_rule(rule) {
            Some(step) => println!("  {key}  <- step `{}`", step.name()),
            None => println!("  {key}  (no single-step generator)"),
        }
    }
    Ok(ExitCode::SUCCESS)
}
