//! `hypernel compose` — compile and lint declarative system
//! descriptions.
//!
//! `compile` parses a description, validates it, and prints the
//! deterministic lowering plan (what `apply` executes on a booted
//! kernel, including the derived watch set). `lint` validates one file
//! or every `*.toml` in a directory and exits nonzero when anything is
//! flagged — the `just compose-smoke` gate keys on that.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hypernel_compose::toml::toml_files;
use hypernel_compose::{lower, ComposeDoc};

use crate::args::{Args, Command};

pub const USAGE: &str = "\
hypernel compose — declarative multi-domain system composition

USAGE:
  hypernel compose compile <file.toml>
      Parses and validates a system description, then prints the
      deterministic lowering plan: domains spawned, channel slots,
      region mappings, and the automatically derived watch set.
  hypernel compose lint <file.toml | dir>
      Validates one description, or every `*.toml` in a directory.
      Prints each problem and exits 1 when anything is flagged.
";

pub const COMMANDS: &[Command] = &[
    Command::new("compile", "<file.toml>", cmd_compile),
    Command::new("lint", "<file.toml|dir>", cmd_lint),
];

fn cmd_compile(args: &Args) -> Result<ExitCode, String> {
    let path = &args.positional()[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = ComposeDoc::from_toml(&text).map_err(|e| format!("`{path}`: {e}"))?;
    println!(
        "{path}: {} domains, {} channels, {} regions (watch {})",
        doc.domains.len(),
        doc.channels.len(),
        doc.regions.len(),
        if doc.watch { "on" } else { "off" },
    );
    for (i, step) in lower::plan(&doc).iter().enumerate() {
        println!("  {}. {step}", i + 1);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &Args) -> Result<ExitCode, String> {
    let target = &args.positional()[0];
    let paths: Vec<PathBuf> = if std::fs::metadata(target)
        .map_err(|e| format!("cannot stat `{target}`: {e}"))?
        .is_dir()
    {
        toml_files(Path::new(target))?
    } else {
        vec![PathBuf::from(target)]
    };
    if paths.is_empty() {
        return Err(format!("no `*.toml` descriptions in `{target}`"));
    }
    let mut flagged = 0usize;
    for path in &paths {
        let problems = match std::fs::read_to_string(path) {
            Err(e) => vec![format!("cannot read: {e}")],
            Ok(text) => ComposeDoc::from_toml(&text)
                .err()
                .map_or(Vec::new(), |e| e.problems),
        };
        for p in &problems {
            eprintln!("{}: {p}", path.display());
        }
        flagged += problems.len();
    }
    if flagged > 0 {
        eprintln!(
            "hypernel compose lint: {flagged} problem{} in {} file{}",
            if flagged == 1 { "" } else { "s" },
            paths.len(),
            if paths.len() == 1 { "" } else { "s" },
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "hypernel compose lint: {} description{} clean",
        paths.len(),
        if paths.len() == 1 { "" } else { "s" },
    );
    Ok(ExitCode::SUCCESS)
}
