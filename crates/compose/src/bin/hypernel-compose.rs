//! `hypernel-compose` — compile and lint declarative system
//! descriptions.
//!
//! ```text
//! hypernel-compose compile <file.toml>
//! hypernel-compose lint <file.toml | dir>
//! ```
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

const USAGE: &str = "\
hypernel-compose — declarative multi-domain system composition

USAGE:
  hypernel-compose compile <file.toml>
      Parses and validates a system description, then prints the
      deterministic lowering plan: domains spawned, channel slots,
      region mappings, and the automatically derived watch set.
  hypernel-compose lint <file.toml | dir>
      Validates one description, or every `*.toml` in a directory.
      Prints each problem and exits 1 when anything is flagged.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hypernel-compose: {message}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<ComposeDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    ComposeDoc::from_toml(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn cmd_compile(rest: &[String]) -> Result<ExitCode, String> {
    let [path] = rest else {
        return Err("`compile` takes exactly one <file.toml>".to_string());
    };
    let doc = load(path)?;
    let problems = doc.validate();
    for p in &problems {
        eprintln!("{path}: {p}");
    }
    if !problems.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
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

fn cmd_lint(rest: &[String]) -> Result<ExitCode, String> {
    let [target] = rest else {
        return Err("`lint` takes exactly one <file.toml | dir>".to_string());
    };
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
            Ok(text) => match ComposeDoc::from_toml(&text) {
                Err(e) => e.problems,
                Ok(doc) => doc.validate(),
            },
        };
        for p in &problems {
            eprintln!("{}: {p}", path.display());
        }
        flagged += problems.len();
    }
    if flagged > 0 {
        eprintln!(
            "hypernel-compose lint: {flagged} problem{} in {} file{}",
            if flagged == 1 { "" } else { "s" },
            paths.len(),
            if paths.len() == 1 { "" } else { "s" },
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "hypernel-compose lint: {} description{} clean",
        paths.len(),
        if paths.len() == 1 { "" } else { "s" },
    );
    Ok(ExitCode::SUCCESS)
}
