//! The one argument parser behind every `hypernel` command.
//!
//! A [`Command`] declares its positional arguments, the `--name value`
//! options and the boolean `--name` flags it reads; [`Args::parse`]
//! rejects anything else, so no command silently ignores an argument.
//! An option is also accepted as `--name=value`; a name declared as
//! both a flag and an option is a flag that may carry a value that way
//! (`sim run --audit` and `--audit=<N>`).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use hypernel::Mode;
use hypernel_campaign::scenario::Scenario;
use hypernel_telemetry::json::Json;

/// The function that runs a command.
pub type Run = fn(&Args) -> Result<ExitCode, String>;

/// One command of a tool: what it accepts and the function that runs it.
pub struct Command {
    pub name: &'static str,
    /// Space-separated placeholders of the positional arguments; a last
    /// one ending in `...` takes one or more.
    args: &'static str,
    /// Space-separated names of the `--name value` options.
    options: &'static str,
    /// Space-separated names of the boolean `--name` flags.
    flags: &'static str,
    pub run: Run,
}

impl Command {
    /// A command taking the positional arguments `args` and no options.
    pub const fn new(name: &'static str, args: &'static str, run: Run) -> Command {
        Command {
            name,
            args,
            options: "",
            flags: "",
            run,
        }
    }

    /// Declares the `--name value` options, space-separated.
    pub const fn options(self, options: &'static str) -> Command {
        Command { options, ..self }
    }

    /// Declares the boolean `--name` flags, space-separated.
    pub const fn flags(self, flags: &'static str) -> Command {
        Command { flags, ..self }
    }
}

/// A command's arguments, checked against its declaration.
pub struct Args {
    command: &'static str,
    /// Every option and flag given, by name: an option's value (the
    /// last one given wins), or `None` for a flag.
    values: BTreeMap<&'static str, Option<String>>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `args` (everything after the command name) for `command`.
    pub fn parse(command: &'static Command, args: &[String]) -> Result<Args, String> {
        let (mut values, mut positional) = (BTreeMap::new(), Vec::new());
        let declared_args = command.args.split_whitespace().count();
        let variadic = command.args.ends_with("...");
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(body) = arg.strip_prefix("--") else {
                if positional.len() == declared_args && !variadic {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                positional.push(arg.clone());
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (body, None),
            };
            let option = declared(command.options, name);
            match declared(command.flags, name) {
                Some(flag) if inline.is_none() => values.insert(flag, None),
                _ => {
                    let option = option.ok_or_else(|| format!("unknown option `--{name}`"))?;
                    let value = inline.or_else(|| iter.next().cloned());
                    let value = value.ok_or_else(|| format!("option `--{name}` needs a value"))?;
                    values.insert(option, Some(value))
                }
            };
        }
        if positional.len() < declared_args {
            return Err(format!("`{}` needs {}", command.name, command.args));
        }
        Ok(Args {
            command: command.name,
            values,
            positional,
        })
    }

    /// The value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.as_deref())
    }

    /// The value of `--name`, which the command cannot do without.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("`{}` needs --{name}", self.command))
    }

    /// Whether the boolean flag `--name` was given (for a name that is
    /// also an option: in either form).
    pub fn flag(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The positional arguments, in order; as many as declared.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// `--name` as a number, `default` when absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("option `--{name}`: invalid number `{text}`")),
        }
    }

    /// `--name` as a count that must be at least 1, when given.
    pub fn count(&self, name: &str) -> Result<Option<u64>, String> {
        match self.get(name).map(|_| self.num(name, 0)).transpose()? {
            Some(0) => Err(format!("option `--{name}` must be at least 1")),
            count => Ok(count),
        }
    }

    /// `--name` as the member of `all` that displays as its value, when
    /// given (`--op`, `--app`).
    pub fn choice<T: Copy + Display>(&self, name: &str, all: &[T]) -> Result<Option<T>, String> {
        let find = |text| all.iter().copied().find(|x| x.to_string() == text);
        let parse = |text| find(text).ok_or_else(|| format!("unknown {name} '{text}'"));
        self.get(name).map(parse).transpose()
    }

    /// `--mode`, when given: one of [`Mode::key`].
    pub fn mode(&self) -> Result<Option<Mode>, String> {
        let keys = Mode::ALL.map(|m| m.key()).join(" | ");
        let parse = |text| {
            Mode::from_key(text).ok_or_else(|| format!("unknown mode `{text}` (expected {keys})"))
        };
        self.get("mode").map(parse).transpose()
    }

    /// `--threshold`: a finite, non-negative fraction, `default` when
    /// absent.
    pub fn threshold(&self, default: f64) -> Result<f64, String> {
        let Some(text) = self.get("threshold") else {
            return Ok(default);
        };
        text.parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--threshold wants a non-negative number, got `{text}`"))
    }

    /// The scenarios of the (required) `--corpus` directory.
    pub fn corpus(&self) -> Result<Vec<Scenario>, String> {
        hypernel_campaign::load_corpus(Path::new(self.required("corpus")?))
    }
}

/// The name in the space-separated `list` that equals `name`.
fn declared(list: &'static str, name: &str) -> Option<&'static str> {
    list.split_whitespace().find(|n| *n == name)
}

/// Reads and parses the JSON document at `path`.
pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))
}

/// Writes `content` to the file at `path`, creating its parent
/// directory first.
pub fn write_file(path: impl AsRef<Path>, content: &str) -> Result<(), String> {
    let path = path.as_ref();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

/// Writes `content` to `path` and says `wrote {what} to {path}` on
/// stderr, or prints it to stdout when there is no path.
pub fn write_or_stdout(path: Option<&str>, content: &str, what: &str) -> Result<(), String> {
    let Some(path) = path else {
        print!("{content}");
        return Ok(());
    };
    write_file(path, content)?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}
