//! `hypernel audit` — static whole-system invariant auditor.
//!
//! Both commands run a campaign scenario to completion and then audit
//! the *final* state from scratch: every stage-1 table reachable from
//! the active and hypervisor-known roots is walked and the protected
//! invariants are checked statically, independent of the incremental
//! verdict Hypersec accumulated during the run (the two are compared —
//! any disagreement is a verifier bug and always fails).

use std::path::Path;
use std::process::ExitCode;

use hypernel::audit::StaticAuditReport;
use hypernel::Mode;
use hypernel_campaign::engine::{boot_system, run_one_full, EngineError};
use hypernel_campaign::load_corpus;
use hypernel_campaign::scenario::Scenario;

use crate::args::{write_or_stdout, Args, Command};

pub const USAGE: &str = "\
hypernel audit — static whole-system invariant auditor for Hypernel

USAGE:
  hypernel audit corpus <dir> [--seed N] [--sanitize]
      Runs every scenario in <dir> to completion and statically audits
      its final state. Under Hypernel any finding (or a differential
      disagreement with the incremental verifier, in any mode) fails;
      under native/kvm findings are reported as the attack's footprint.
      Exits 2 on failure.
  hypernel audit scenario <file> [--mode native|kvm|hypernel] [--seed N]
                                 [--sanitize] [--json <file>]
      Runs one scenario (optionally forcing the mode) and prints the
      full audit report as JSON. Exits 2 when the report is not clean.

  --sanitize  Enable the guest-memory ownership sanitizer before the
              run; its per-write verdicts land in the report.
";

pub const COMMANDS: &[Command] = &[
    Command::new("corpus", "<dir>", cmd_corpus)
        .options("seed")
        .flags("sanitize"),
    Command::new("scenario", "<file>", cmd_scenario)
        .options("seed mode json")
        .flags("sanitize"),
];

/// Runs `scenario` to completion and statically audits the final state.
fn audit_scenario(
    scenario: &Scenario,
    seed: u64,
    sanitize: bool,
) -> Result<StaticAuditReport, EngineError> {
    let mut sys = boot_system(scenario)?;
    if sanitize {
        sys.enable_sanitizer();
    }
    let (_record, _faults, mut sys) = run_one_full(sys, scenario, seed)?;
    Ok(sys.audit_static())
}

/// The gate: what fails a corpus audit. Under Hypernel the invariants
/// must hold outright; in the baseline modes findings are the expected
/// footprint of a successful attack, but a static-vs-incremental
/// disagreement is a verifier bug in any mode.
fn gate_failure(mode: Mode, report: &StaticAuditReport) -> Option<String> {
    if let Some(diff) = &report.differential {
        if !diff.agrees() {
            return Some(format!(
                "static/incremental disagreement: {}",
                diff.disagreements.join("; ")
            ));
        }
    }
    if mode == Mode::Hypernel && !report.is_clean() {
        let first = report
            .findings
            .first()
            .map(ToString::to_string)
            .unwrap_or_else(|| "sanitizer denial".to_string());
        return Some(format!(
            "{} finding(s) under Hypernel; first: {first}",
            report.findings.len()
        ));
    }
    None
}

fn summary_line(scenario: &Scenario, report: &StaticAuditReport) -> String {
    let differential = match &report.differential {
        Some(d) if d.agrees() => "  differential agrees",
        Some(_) => "  differential DISAGREES",
        None => "",
    };
    format!(
        "{:<28} {:<10} roots {:>2}  tables {:>3}  leaves {:>5}  findings {:>2}{differential}",
        scenario.name,
        scenario.mode.to_string(),
        report.roots_walked,
        report.tables_walked,
        report.leaves_checked,
        report.findings.len(),
    )
}

fn cmd_corpus(args: &Args) -> Result<ExitCode, String> {
    let dir = &args.positional()[0];
    let seed: u64 = args.num("seed", 0)?;
    let scenarios = load_corpus(Path::new(dir))?;
    let mut failures = 0usize;
    for scenario in &scenarios {
        let report = match audit_scenario(scenario, seed, args.flag("sanitize")) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{:<28} ERROR: {e}", scenario.name);
                failures += 1;
                continue;
            }
        };
        eprintln!("{}", summary_line(scenario, &report));
        if let Some(why) = gate_failure(scenario.mode, &report) {
            eprintln!("{:<28} FAILED: {why}", scenario.name);
            for finding in &report.findings {
                eprintln!("  {finding}");
            }
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "audit FAILED: {failures} of {} scenario(s)",
            scenarios.len()
        );
        return Ok(ExitCode::from(2));
    }
    eprintln!("audit passed: {} scenario(s), seed {seed}", scenarios.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_scenario(args: &Args) -> Result<ExitCode, String> {
    let file = &args.positional()[0];
    let seed: u64 = args.num("seed", 0)?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let mut scenario = Scenario::from_toml(&text).map_err(|e| format!("`{file}`: {e}"))?;
    if let Some(mode) = args.mode()? {
        scenario.mode = mode;
    }
    let report = audit_scenario(&scenario, seed, args.flag("sanitize"))
        .map_err(|e| format!("`{}`: {e}", scenario.name))?;
    eprintln!("{}", summary_line(&scenario, &report));
    for finding in &report.findings {
        eprintln!("  {finding}");
    }
    let json = format!("{}\n", report.to_json());
    write_or_stdout(args.get("json"), &json, "audit report")?;
    if report.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}
