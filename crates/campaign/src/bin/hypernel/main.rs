//! `hypernel` — the one command-line entry point of the reproduction:
//! `hypernel <tool> <command> [ARGS]`. Each tool lives in its own module
//! with its commands and usage text; every command's arguments go
//! through [`args::Args`].

#![forbid(unsafe_code)]

mod analyze;
mod args;
mod audit;
mod campaign;
mod compose;
mod sim;
mod staticheck;

use std::process::ExitCode;

use args::{Args, Command};

/// Every tool: its name, usage text and commands.
static TOOLS: [(&str, &str, &[Command]); 6] = [
    ("sim", sim::USAGE, sim::COMMANDS),
    ("campaign", campaign::USAGE, campaign::COMMANDS),
    ("audit", audit::USAGE, audit::COMMANDS),
    ("staticheck", staticheck::USAGE, staticheck::COMMANDS),
    ("analyze", analyze::USAGE, analyze::COMMANDS),
    ("compose", compose::USAGE, compose::COMMANDS),
];

const USAGE: &str = "\
hypernel — the Hypernel (DAC 2018) reproduction's command-line tools

USAGE:
  hypernel <tool> <command> [ARGS]
  hypernel <tool> help          lists the tool's commands

TOOLS:
  sim         drive the full-system simulation (Table 1, Figure 6)
  campaign    adversarial attack/fault campaigns over a scenario corpus
  audit       static whole-system invariant audit of scenario end states
  staticheck  static reachability analysis of scenarios (no execution)
  analyze     trace, report, campaign, coverage and bench analytics
  compose     compile and lint declarative system descriptions
";

/// The tool or command name `args` starts with. Without one, `usage`
/// goes to stderr; for `help`, to stdout; either way the `Err` is the
/// exit code.
fn word<'a>(args: &'a [String], usage: &str) -> Result<&'a str, ExitCode> {
    match args.first().map(String::as_str) {
        None => {
            eprint!("{usage}");
            Err(ExitCode::FAILURE)
        }
        Some("help" | "--help" | "-h") => {
            print!("{usage}");
            Err(ExitCode::SUCCESS)
        }
        Some(word) => Ok(word),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tool = match word(&args, USAGE) {
        Ok(tool) => tool,
        Err(code) => return code,
    };
    let Some((_, usage, commands)) = TOOLS.iter().find(|t| t.0 == tool) else {
        eprintln!("hypernel: unknown tool `{tool}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let name = match word(&args[1..], usage) {
        Ok(name) => name,
        Err(code) => return code,
    };
    let result = match commands.iter().find(|c| c.name == name) {
        Some(command) => Args::parse(command, &args[2..]).and_then(|args| (command.run)(&args)),
        None => Err(format!("unknown command `{name}`\n\n{usage}")),
    };
    result.unwrap_or_else(|message| {
        eprintln!("hypernel {tool}: {message}");
        ExitCode::FAILURE
    })
}
