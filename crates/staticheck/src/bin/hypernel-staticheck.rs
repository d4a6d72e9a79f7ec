//! Static reachability analyzer CLI.
//!
//! ```text
//! hypernel-staticheck corpus --corpus <dir> [--out <file>] [--jobs N]
//! hypernel-staticheck scenario --corpus <dir> --scenario <name> [--mode <m>]
//! hypernel-staticheck soundness --corpus <dir> [--seeds N]
//! hypernel-staticheck targets --corpus <dir> [--baseline <coverage.json>]
//! ```

use std::path::Path;
use std::process::ExitCode;

use hypernel::Mode;
use hypernel_staticheck::{
    impossible_expectations, predict_corpus_jobs, predict_scenario, ranked_targets,
    reachable_rules, remode, soundness_sweep, static_coverage_json, step_for_rule, Prediction,
};
use hypernel_telemetry::json::Json;

const USAGE: &str = "\
hypernel-staticheck: abstract interpretation of attack scenarios
against the Hypernel protection model — no execution involved.

Usage:
  hypernel-staticheck corpus --corpus <dir> [--out <file>] [--jobs N]
      Predicts every scenario and writes the `static-coverage.json`
      artifact (stdout without --out): per scenario, which
      hypersec/rule/*, oracle/* and kernel/attack/* coverage keys a
      dynamic run of any seed may produce, plus lint-grade policy
      findings and the reachable-rule frontier per mode. The bytes are
      identical at any --jobs (default 1) — the analysis is pure.
  hypernel-staticheck scenario --corpus <dir> --scenario <name> [--mode <m>]
      Human-readable prediction for one scenario, optionally re-moded
      to <m> (hypernel | kvm | native) the same way explore re-modes.
      Also reports statically impossible declared expectations.
  hypernel-staticheck soundness --corpus <dir> [--seeds N]
      The differential gate: runs every scenario x {hypernel, kvm,
      native} x seeds 0..N (default 8) and checks that every
      dynamically observed contract key is inside the static
      prediction. Exits 1 listing each breach — an analyzer soundness
      bug, or a real protection bug for the deliberately-impossible
      invariant keys. Exits 0 on a clean sweep.
  hypernel-staticheck targets --corpus <dir> [--baseline <coverage.json>]
      Ranks statically-reachable-but-unfired `hypersec/rule/*` keys
      against a dynamic coverage atlas (default: the corpus baseline is
      assumed empty, so every reachable rule is a target), with the
      canonical attack step that fires each — the steering input
      `hypernel-campaign explore --targets` consumes.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "corpus" => cmd_corpus(rest),
        "scenario" => cmd_scenario(rest),
        "soundness" => cmd_soundness(rest),
        "targets" => cmd_targets(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hypernel-staticheck: {message}");
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

fn corpus_of(
    options: &ParsedOptions,
) -> Result<Vec<hypernel_campaign::scenario::Scenario>, String> {
    let dir = opt(options, "corpus").ok_or("missing required option `--corpus <dir>`")?;
    hypernel_staticheck::load_corpus(Path::new(dir))
}

fn parse_mode(text: &str) -> Result<Mode, String> {
    Mode::from_key(text).ok_or_else(|| {
        let keys: Vec<&str> = Mode::ALL.iter().map(|m| m.key()).collect();
        format!("unknown mode `{text}` (expected {})", keys.join(" | "))
    })
}

fn cmd_corpus(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus", "out", "jobs"])?;
    let corpus = corpus_of(&options)?;
    let jobs: usize = opt_num(&options, "jobs", 1)?;
    let artifact = static_coverage_json(&predict_corpus_jobs(&corpus, jobs)).to_string();
    match opt(&options, "out") {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
                }
            }
            std::fs::write(path, &artifact).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!(
                "hypernel-staticheck: wrote {} scenario predictions to {path}",
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

fn cmd_scenario(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus", "scenario", "mode"])?;
    let corpus = corpus_of(&options)?;
    let name = opt(&options, "scenario").ok_or("missing required option `--scenario <name>`")?;
    let base = corpus
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no scenario named `{name}` in the corpus"))?;
    let scenario = match opt(&options, "mode") {
        Some(mode) => remode(base, parse_mode(mode)?),
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

fn cmd_soundness(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus", "seeds"])?;
    let corpus = corpus_of(&options)?;
    let seeds: u64 = opt_num(&options, "seeds", 8)?;
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

fn cmd_targets(rest: &[String]) -> Result<ExitCode, String> {
    let options = split_args(rest, &["corpus", "baseline"])?;
    let _corpus = corpus_of(&options)?; // the corpus must at least load
    let fired = match opt(&options, "baseline") {
        None => std::collections::BTreeSet::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let atlas =
                Json::parse(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))?;
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
