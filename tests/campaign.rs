//! Integration tests for the adversarial campaign engine, run against
//! the shipped scenario corpus in `corpus/`.

use std::path::PathBuf;

use hypernel_campaign::engine::run_one;
use hypernel_campaign::minimize::minimize;
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::sweep::{run_sweep, SweepConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

fn load_corpus() -> Vec<Scenario> {
    hypernel_campaign::load_corpus(&corpus_dir()).unwrap_or_else(|e| panic!("{e}"))
}

fn find(scenarios: &[Scenario], name: &str) -> Scenario {
    scenarios
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("corpus is missing `{name}`"))
        .clone()
}

#[test]
fn corpus_parses_and_is_large_enough() {
    let scenarios = load_corpus();
    assert!(
        scenarios.len() >= 8,
        "the shipped corpus must hold at least 8 scenarios, found {}",
        scenarios.len()
    );
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.dedup();
    assert_eq!(
        names.len(),
        scenarios.len(),
        "scenario names must be unique"
    );
}

#[test]
fn corpus_sweep_has_zero_unexpected_violations() {
    let scenarios = load_corpus();
    let outcome = run_sweep(&scenarios, SweepConfig { seeds: 2, jobs: 2 });
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    for record in &outcome.records {
        let unexpected: Vec<_> = record.unexpected_violations().collect();
        assert!(
            unexpected.is_empty(),
            "{} seed {}: {unexpected:?}",
            record.scenario,
            record.seed
        );
    }
}

#[test]
fn same_scenario_and_seed_produce_byte_identical_records() {
    let scenario = find(&load_corpus(), "cred-escalation");
    let a = run_one(&scenario, 42).expect("run").to_json().to_string();
    let b = run_one(&scenario, 42).expect("run").to_json().to_string();
    assert_eq!(a, b);
    let c = run_one(&scenario, 43).expect("run").to_json().to_string();
    assert_ne!(a, c, "the seed must actually steer the run");
}

#[test]
fn parallel_sweep_output_is_independent_of_job_count() {
    let scenarios = vec![
        find(&load_corpus(), "cred-escalation"),
        find(&load_corpus(), "native-baseline"),
    ];
    let serial = run_sweep(&scenarios, SweepConfig { seeds: 3, jobs: 1 });
    let pooled = run_sweep(&scenarios, SweepConfig { seeds: 3, jobs: 8 });
    let a: Vec<String> = serial
        .records
        .iter()
        .map(|r| r.to_json().to_string())
        .collect();
    let b: Vec<String> = pooled
        .records
        .iter()
        .map(|r| r.to_json().to_string())
        .collect();
    assert_eq!(a, b, "scheduling must not leak into the artifact");
}

#[test]
fn drop_irq_corpus_scenario_is_flagged_by_the_detection_oracle() {
    let scenario = find(&load_corpus(), "fault-drop-irq");
    let record = run_one(&scenario, 0).expect("run");
    assert!(
        record.passed,
        "the mask is declared: {:?}",
        record.violations
    );
    let detection_flags: Vec<_> = record
        .violations
        .iter()
        .filter(|v| v.oracle == "detection")
        .collect();
    assert_eq!(detection_flags.len(), 1, "{:?}", record.violations);
    assert!(detection_flags[0].expected);
    assert!(
        record.faults.expect("fault counters").irqs_dropped > 0,
        "the fault actually fired"
    );
    assert_eq!(record.detections_total, 0, "the mask held");
}

#[test]
fn minimize_reduces_the_drop_irq_schedule_to_a_tiny_repro() {
    let scenario = find(&load_corpus(), "fault-drop-irq");
    let outcome = minimize(&scenario, 0).expect("minimizes");
    assert!(
        outcome.schedule.len() <= 3,
        "expected a <=3-event repro, got {:?}",
        outcome.schedule
    );
    assert!(!outcome.schedule.is_empty(), "no faults, no mask");
    // The reduced schedule still reproduces the miss.
    assert_eq!(outcome.record.detections_total, 0);
}

#[test]
fn overflow_scenario_attributes_the_miss_to_the_first_dropped_capture() {
    let scenario = find(&load_corpus(), "fifo-overflow");
    let record = run_one(&scenario, 0).expect("run");
    assert!(record.passed, "{:?}", record.violations);
    let mbm = record.mbm.expect("hypernel mode");
    assert!(mbm.fifo_dropped > 0, "pressure must actually overflow");
    let addr = mbm.first_dropped_addr.expect("first drop recorded");
    let excused: Vec<_> = record
        .violations
        .iter()
        .filter(|v| v.oracle == "detection" && v.expected)
        .collect();
    assert_eq!(excused.len(), 1, "{:?}", record.violations);
    assert!(
        excused[0].detail.contains(&format!("{:#x}", addr.raw())),
        "the violation names the dropped address: {}",
        excused[0].detail
    );
}

/// Hostile input is an error, never a panic: a `fifo-capacity = 0`
/// scenario (which would trip the MBM FIFO's non-zero assertion at
/// boot) stops `hypernel campaign run` at load time, with a message
/// naming the file and the key.
#[test]
fn run_rejects_an_out_of_range_scenario_with_a_message() {
    let dir = std::env::temp_dir().join(format!("hypernel-fifo-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source = "name = \"fifo-zero\"\nfifo-capacity = 0\n[[step]]\nkind = \"cred-escalation\"\n";
    std::fs::write(dir.join("fifo-zero.toml"), source).expect("written");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hypernel"))
        .args(["campaign", "run", "--seeds", "1", "--corpus"])
        .arg(&dir)
        .output()
        .expect("runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("fifo-zero.toml`: top level: `fifo-capacity` must be in 1..=65536"),
        "{stderr}"
    );
}

/// A compose section that `campaign lint` rejects (an unaligned region
/// `va`, a duplicate domain, a dangling endpoint) is a load error, so
/// `hypernel campaign run` stops before running anything.
#[test]
fn run_rejects_a_compose_description_lint_rejects() {
    let spoof = std::fs::read_to_string(corpus_dir().join("compose-spoof.toml")).expect("read");
    let edits = [
        spoof.replace("[\"server\"]", "[\"server\"]\nva = 0x10000123"),
        format!("{spoof}\n[[domain]]\nname = \"worker\"\n"),
        spoof.replace("to = \"worker\"", "to = \"ghost\""),
    ];
    let problems = [
        "region `scratch`: `va` 0x10000123 is not page-aligned",
        "domain `worker`: duplicate name",
        "channel `work`: `to` references unknown domain `ghost`",
    ];
    for (source, problem) in edits.iter().zip(problems) {
        let err = Scenario::from_toml(source).expect_err(problem);
        assert_eq!(err.problems, [format!("compose: {problem}")]);
    }
    let dir = std::env::temp_dir().join(format!("hypernel-bad-compose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("compose-spoof.toml"), &edits[0]).expect("written");
    let line = format!("campaign run --corpus {} --seeds 2 --jobs 1", dir.display());
    let (code, stdout, stderr) = hypernel(&line);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stdout, "", "nothing ran");
    assert!(stderr.contains("is not page-aligned"), "{stderr}");
}

/// A deeply nested JSON document is a parse error, not a stack
/// overflow, for every reader behind `hypernel analyze`.
#[test]
fn analyze_reports_deeply_nested_json_as_a_parse_error() {
    let path = std::env::temp_dir().join(format!("hypernel-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(100_000)).expect("written");
    let (code, stdout, stderr) = hypernel(&format!("analyze audit {}", path.display()));
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("nested too deep"), "{stderr}");
}

/// Runs `hypernel <line>` (arguments split on whitespace); returns the
/// exit code, stdout and stderr.
fn hypernel(line: &str) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hypernel"))
        .args(line.split_whitespace())
        .output()
        .expect("runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// The CLI surface: `help` prints the usage of the entry point and of
/// every tool; an unknown tool, command or option, and a positional
/// argument where a command takes none, exit 1 naming the culprit.
#[test]
fn cli_prints_usage_and_rejects_what_it_does_not_know() {
    let (code, usage, _) = hypernel("help");
    assert_eq!(code, Some(0));
    for tool in [
        "sim",
        "campaign",
        "audit",
        "staticheck",
        "analyze",
        "compose",
    ] {
        assert!(usage.contains(&format!("\n  {tool} ")), "{usage}");
        let (code, stdout, stderr) = hypernel(&format!("{tool} help"));
        assert_eq!(code, Some(0), "{tool}: {stderr}");
        assert!(stdout.starts_with(&format!("hypernel {tool}")), "{stdout}");
    }
    for (line, named) in [
        ("bogus", "unknown tool `bogus`"),
        ("campaign bogus", "unknown command `bogus`"),
        ("campaign run --bogus 1", "unknown option `--bogus`"),
        (
            "analyze attribution t.jsonl --json",
            "unknown option `--json`",
        ),
        ("campaign list extra", "unexpected argument `extra`"),
        ("sim run --op mmap --audit 10", "unexpected argument `10`"),
    ] {
        let (code, _, stderr) = hypernel(line);
        assert_eq!(code, Some(1), "{line}: {stderr}");
        assert!(stderr.contains(named), "{line} must name {named}: {stderr}");
    }
}

/// `sim compare` boots without telemetry or metrics, so the output
/// options it would ignore are a usage error.
#[test]
fn sim_compare_rejects_the_output_options_it_would_ignore() {
    let (code, _, stderr) =
        hypernel("sim compare --op mmap --iters 10 --metrics m.jsonl --report-json r.json");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown option `--metrics`"), "{stderr}");
}

/// `sim audit` takes no options at all.
#[test]
fn sim_audit_rejects_an_unknown_option() {
    let (code, _, stderr) = hypernel("sim audit --bogus");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown option `--bogus`"), "{stderr}");
}

/// Zero iterations would divide by zero (`NaN us/iter`, `NaN%`):
/// `--iters` must be at least 1, like `--audit=<N>`.
#[test]
fn sim_rejects_zero_iterations() {
    for line in [
        "sim run --op mmap --iters 0 --metrics m.jsonl",
        "sim compare --op mmap --iters 0",
        "sim run --op mmap --audit=0",
    ] {
        let (code, stdout, stderr) = hypernel(line);
        assert_eq!(code, Some(1), "{line}: {stdout}{stderr}");
        assert!(stderr.contains("must be at least 1"), "{line}: {stderr}");
    }
}

/// `analyze campaign --threshold` reads through the same accessor as
/// the other gates: NaN or infinity would switch the latency gate off,
/// so both are usage errors, while a finite threshold still flags the
/// latency regression.
#[test]
fn analyze_campaign_rejects_a_non_finite_threshold() {
    use hypernel_campaign::record::{summarize, summary_json};

    let dir = std::env::temp_dir().join(format!("hypernel-threshold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let record = run_one(&find(&load_corpus(), "cred-escalation"), 0).expect("runs");
    let mut baseline = summarize(std::slice::from_ref(&record));
    // A baseline latency well under half the run's.
    baseline[0].max_latency = baseline[0].max_latency.map(|latency| latency * 4 / 10);
    let (records, base) = (dir.join("c.jsonl"), dir.join("base.json"));
    std::fs::write(&records, format!("{}\n", record.to_json())).expect("written");
    std::fs::write(&base, summary_json(&baseline).to_string()).expect("written");
    let (records, base) = (records.display(), base.display());
    let gate = |threshold: &str| {
        hypernel(&format!(
            "analyze campaign {records} --baseline {base} --threshold {threshold}"
        ))
    };
    let (code, stdout, stderr) = gate("0.10");
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("REGRESSION cred-escalation"), "{stdout}");
    for threshold in ["nan", "inf", "-0.5"] {
        let (code, stdout, stderr) = gate(threshold);
        assert_eq!(code, Some(1), "--threshold {threshold}: {stdout}{stderr}");
        assert!(stderr.contains("--threshold"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A baseline summary row with a missing or mistyped count is an error
/// naming the scenario and the field. Read as 0, a missing `passed`
/// would make the baseline pass rate 0 and switch the pass-rate gate
/// off.
#[test]
fn analyze_campaign_rejects_a_malformed_baseline_row() {
    use hypernel_campaign::record::{summarize, summary_json};

    let dir = std::env::temp_dir().join(format!("hypernel-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = find(&load_corpus(), "cred-escalation");
    let records: Vec<_> = (0..2)
        .map(|seed| run_one(&scenario, seed).expect("runs"))
        .collect();
    let summary = summary_json(&summarize(&records)).to_string();
    // The current campaign fails one of the two runs.
    let lines: Vec<String> = records.iter().map(|r| r.to_json().to_string()).collect();
    let failed = lines[1].replace("\"passed\":true", "\"passed\":false");
    assert_ne!(failed, lines[1]);
    let jsonl = dir.join("c.jsonl");
    std::fs::write(&jsonl, format!("{}\n{failed}\n", lines[0])).expect("written");
    let gate = |baseline: &str| {
        let path = dir.join("base.json");
        std::fs::write(&path, baseline).expect("written");
        hypernel(&format!(
            "analyze campaign {} --baseline {}",
            jsonl.display(),
            path.display()
        ))
    };
    let (code, stdout, stderr) = gate(&summary);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(
        stdout.contains("REGRESSION cred-escalation: pass rate 1.00 -> 0.50"),
        "{stdout}"
    );
    let row_passed = "\"expected_violations\"";
    assert!(summary.contains(&format!("\"passed\":2,{row_passed}")));
    for edited in [
        summary.replace(&format!("\"passed\":2,{row_passed}"), row_passed),
        summary.replace(
            &format!("\"passed\":2,{row_passed}"),
            &format!("\"passed\":\"2\",{row_passed}"),
        ),
    ] {
        let (code, stdout, stderr) = gate(&edited);
        assert_eq!(code, Some(1), "{stdout}{stderr}");
        assert!(!stdout.contains("no regressions"), "{stdout}");
        assert!(
            stderr.contains("scenario `cred-escalation`") && stderr.contains("`passed`"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
