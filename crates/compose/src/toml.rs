//! A dependency-free parser for the TOML subset compose descriptions
//! and campaign scenario files use.
//!
//! Supported: top-level `key = value` pairs, `[table]` sections,
//! `[[array-of-tables]]` sections, `#` comments, and the value forms
//! strings (`"..."`), integers (decimal, `0x` hex, `_` separators,
//! negative), booleans, and flat arrays. That is the whole schema of
//! both formats (see `docs/COMPOSE.md` and `docs/CAMPAIGN.md`);
//! anything fancier is a parse error, not silently misread. The
//! loaders read parsed tables through [`Fields`], which turns every
//! unread key, wrong-typed or out-of-range value into a [`LoadError`]
//! finding.

use std::cell::Cell;
use std::fmt;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// `"..."`.
    Str(String),
    /// Decimal or `0x` hex integer (underscore separators allowed).
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, ...]` of the scalar forms above.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Self::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|i| u64::try_from(i).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A table: scalar entries plus named sub-tables and arrays-of-tables,
/// in file order. Every lookup marks the entry it finds as read, so a
/// strict loader can list whatever it never asked for
/// ([`TomlTable::unread`]) — the loaders *are* the schema.
#[derive(Debug, Clone, Default)]
pub struct TomlTable {
    values: Vec<Entry<TomlValue>>,
    tables: Vec<Entry<TomlTable>>,
    arrays: Vec<Entry<Vec<TomlTable>>>,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    name: String,
    item: T,
    read: Cell<bool>,
}

impl<T> Entry<T> {
    fn new(name: &str, item: T) -> Self {
        Self {
            name: name.to_string(),
            item,
            read: Cell::new(false),
        }
    }
}

fn lookup<'a, T>(entries: &'a [Entry<T>], name: &str) -> Option<&'a T> {
    let entry = entries.iter().find(|e| e.name == name)?;
    entry.read.set(true);
    Some(&entry.item)
}

fn unread<T>(entries: &[Entry<T>]) -> impl Iterator<Item = &str> {
    entries
        .iter()
        .filter(|e| !e.read.get())
        .map(|e| e.name.as_str())
}

impl TomlTable {
    /// Scalar value for `key`.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        lookup(&self.values, key)
    }

    /// Sub-table `[name]`.
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        lookup(&self.tables, name)
    }

    /// Array-of-tables `[[name]]` (empty slice if absent).
    pub fn array(&self, name: &str) -> &[TomlTable] {
        lookup(&self.arrays, name).map_or(&[], Vec::as_slice)
    }

    /// One finding per entry no lookup has read, in file order within
    /// keys, then `[tables]`, then `[[arrays]]`.
    pub fn unread(&self) -> Vec<String> {
        unread(&self.values)
            .map(|k| format!("unknown key `{k}`"))
            .chain(unread(&self.tables).map(|t| format!("unknown section `[{t}]`")))
            .chain(unread(&self.arrays).map(|a| format!("unknown section `[[{a}]]`")))
            .collect()
    }
}

/// Everything wrong with one document: each finding carries its
/// location (``step 2: unknown key `pids` ``).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// The findings, in the order the loader met them.
    pub problems: Vec<String>,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.problems.join("; "))
    }
}

impl std::error::Error for LoadError {}

impl From<TomlError> for LoadError {
    fn from(e: TomlError) -> Self {
        Self {
            problems: vec![e.to_string()],
        }
    }
}

/// A strict loader's view of one table. Typed lookups note a finding —
/// prefixed with the table's location — for a missing, wrong-typed or
/// out-of-range value instead of stopping, so one pass reports
/// everything wrong with a document; [`Fields::finish`] adds every key
/// and section the loader never read.
pub struct Fields<'a, 'p> {
    table: &'a TomlTable,
    at: String,
    problems: &'p mut Vec<String>,
}

impl<'a, 'p> Fields<'a, 'p> {
    /// Reads `table`, reporting findings at `at` into `problems`.
    pub fn new(table: &'a TomlTable, at: impl Into<String>, problems: &'p mut Vec<String>) -> Self {
        Self {
            table,
            at: at.into(),
            problems,
        }
    }

    /// Notes a finding at this table's location.
    pub fn problem(&mut self, message: impl fmt::Display) {
        self.problems.push(format!("{}: {message}", self.at));
    }

    fn typed<T>(
        &mut self,
        key: &str,
        what: &str,
        cast: impl FnOnce(&'a TomlValue) -> Option<T>,
    ) -> Option<T> {
        let value = self.table.get(key)?;
        let out = cast(value);
        if out.is_none() {
            self.problem(format_args!("`{key}` must be {what}"));
        }
        out
    }

    /// String value of `key`.
    pub fn str(&mut self, key: &str) -> Option<&'a str> {
        self.typed(key, "a string", TomlValue::as_str)
    }

    /// Integer value of `key`.
    pub fn int(&mut self, key: &str) -> Option<i64> {
        self.typed(key, "an integer", TomlValue::as_int)
    }

    /// Non-negative integer value of `key`.
    pub fn u64(&mut self, key: &str) -> Option<u64> {
        self.typed(key, "a non-negative integer", TomlValue::as_u64)
    }

    /// Boolean value of `key`.
    pub fn bool(&mut self, key: &str) -> Option<bool> {
        self.typed(key, "`true` or `false`", TomlValue::as_bool)
    }

    /// Array-of-strings value of `key`.
    pub fn strings(&mut self, key: &str) -> Option<Vec<String>> {
        self.typed(key, "an array of strings", |v| match v {
            TomlValue::Array(items) => items
                .iter()
                .map(|item| item.as_str().map(str::to_string))
                .collect(),
            _ => None,
        })
    }

    /// Integer value of `key`, which must lie in `range`.
    pub fn u64_in(&mut self, key: &str, range: RangeInclusive<u64>) -> Option<u64> {
        let value = self.u64(key)?;
        if range.contains(&value) {
            return Some(value);
        }
        match *range.end() {
            u64::MAX => self.problem(format_args!("`{key}` must be ≥ {}", range.start())),
            end => self.problem(format_args!("`{key}` must be in {}..={end}", range.start())),
        }
        None
    }

    /// Notes a finding when the table lacks `key`.
    pub fn require(&mut self, key: &str) {
        if self.table.get(key).is_none() {
            self.problem(format_args!("missing `{key}`"));
        }
    }

    /// String value of a key the table must carry.
    pub fn required(&mut self, key: &str) -> String {
        self.require(key);
        self.str(key).unwrap_or_default().to_string()
    }

    /// The entry of `all` whose `name` the value of `key` is; an
    /// unknown name is reported together with every known one.
    pub fn choice<T: Clone>(
        &mut self,
        key: &str,
        all: &[T],
        name: impl Fn(&T) -> &'static str,
    ) -> Option<T> {
        let text = self.str(key)?;
        let found = all.iter().find(|v| name(v) == text).cloned();
        if found.is_none() {
            let names: Vec<&str> = all.iter().map(name).collect();
            self.problem(format_args!(
                "unknown {key} `{text}` ({})",
                names.join(" | ")
            ));
        }
        found
    }

    /// Notes every key and section of this table no lookup read.
    pub fn finish(mut self) {
        for finding in self.table.unread() {
            self.problem(finding);
        }
    }
}

/// Every `*.toml` file directly under `dir`, sorted by file name — the
/// stable order every corpus-derived artifact depends on.
///
/// # Errors
///
/// Returns a message naming `dir` when it cannot be read.
pub fn toml_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Strips a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_int(text: &str, line: usize) -> Result<i64, TomlError> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let (negative, digits) = match cleaned.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, cleaned.as_str()),
    };
    let (radix, digits) = match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) => (16, hex),
        None => (10, digits),
    };
    let magnitude = i128::from(
        u64::from_str_radix(digits, radix)
            .map_err(|_| err(line, format!("invalid integer `{text}`")))?,
    );
    i64::try_from(if negative { -magnitude } else { magnitude })
        .map_err(|_| err(line, format!("integer `{text}` is out of range")))
}

fn parse_scalar(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(err(line, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(err(line, "escapes and embedded quotes are not supported"));
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    parse_int(text, line).map(TomlValue::Int)
}

fn parse_value(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(err(line, "unterminated array"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlValue::Array(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(TomlValue::Array(items));
    }
    parse_scalar(text, line)
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Parses a scenario document.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for any construct
/// outside the supported subset.
pub fn parse(input: &str) -> Result<TomlTable, TomlError> {
    let mut root = TomlTable::default();
    // Where new `key = value` pairs go: the root, a `[table]`, or the
    // latest element of a `[[array]]`.
    enum Cursor {
        Root,
        Table(usize),
        Array(usize),
    }
    let mut cursor = Cursor::Root;

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(err(lineno, "malformed [[header]]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("invalid table name `{name}`")));
            }
            let pos = match root.arrays.iter().position(|e| e.name == name) {
                Some(pos) => pos,
                None => {
                    root.arrays.push(Entry::new(name, Vec::new()));
                    root.arrays.len() - 1
                }
            };
            root.arrays[pos].item.push(TomlTable::default());
            cursor = Cursor::Array(pos);
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(lineno, "malformed [header]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("invalid table name `{name}`")));
            }
            if root.tables.iter().any(|e| e.name == name) {
                return Err(err(lineno, format!("duplicate table `{name}`")));
            }
            root.tables.push(Entry::new(name, TomlTable::default()));
            cursor = Cursor::Table(root.tables.len() - 1);
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        if !valid_key(key) {
            return Err(err(lineno, format!("invalid key `{key}`")));
        }
        let value = parse_value(&line[eq + 1..], lineno)?;
        let target = match cursor {
            Cursor::Root => &mut root,
            Cursor::Table(pos) => &mut root.tables[pos].item,
            Cursor::Array(pos) => root.arrays[pos]
                .item
                .last_mut()
                .expect("array cursor points at a pushed element"),
        };
        if target.values.iter().any(|e| e.name == key) {
            return Err(err(lineno, format!("duplicate key `{key}`")));
        }
        target.values.push(Entry::new(key, value));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_of<'a>(t: &'a TomlTable, key: &str) -> Option<&'a str> {
        t.get(key).and_then(TomlValue::as_str)
    }

    #[test]
    fn full_scenario_shape() {
        let doc = parse(
            r#"
            # a scenario
            name = "drop-irq"
            seeds = 64            # trailing comment
            enabled = true
            bits = [1, 2, 0x10]

            [limits]
            latency-bound = 200_000

            [[step]]
            kind = "cred-escalation"
            pid = 1

            [[step]]
            kind = "text-patch"

            [[fault]]
            kind = "drop-irq"
            at = 1
            count = 1
            "#,
        )
        .expect("parses");
        assert_eq!(str_of(&doc, "name"), Some("drop-irq"));
        assert_eq!(doc.get("seeds"), Some(&TomlValue::Int(64)));
        assert_eq!(doc.get("enabled"), Some(&TomlValue::Bool(true)));
        assert_eq!(
            doc.get("bits"),
            Some(&TomlValue::Array(vec![
                TomlValue::Int(1),
                TomlValue::Int(2),
                TomlValue::Int(16)
            ]))
        );
        assert_eq!(
            doc.table("limits").unwrap().get("latency-bound"),
            Some(&TomlValue::Int(200_000))
        );
        let steps = doc.array("step");
        assert_eq!(steps.len(), 2);
        assert_eq!(str_of(&steps[0], "kind"), Some("cred-escalation"));
        assert_eq!(steps[0].get("pid").and_then(TomlValue::as_u64), Some(1));
        assert_eq!(str_of(&steps[1], "kind"), Some("text-patch"));
        assert_eq!(doc.array("fault").len(), 1);
        assert_eq!(doc.array("missing").len(), 0);
    }

    #[test]
    fn hex_and_negative_integers() {
        let doc = parse("a = 0xFF\nb = -3\nc = 1_000\nd = -0x8000_0000_0000_0000").expect("parses");
        assert_eq!(doc.get("a"), Some(&TomlValue::Int(255)));
        assert_eq!(doc.get("b"), Some(&TomlValue::Int(-3)));
        assert_eq!(doc.get("c"), Some(&TomlValue::Int(1000)));
        assert_eq!(doc.get("d"), Some(&TomlValue::Int(i64::MIN)));
        assert_eq!(
            doc.get("b").and_then(TomlValue::as_u64),
            None,
            "negative is not a u64"
        );
        for bad in [
            "x = 0x8000_0000_0000_0000",
            "x = --1",
            "x = -0x-1",
            "x = 0x",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse(r##"path = "/tmp/#x""##).expect("parses");
        assert_eq!(str_of(&doc, "path"), Some("/tmp/#x"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nnope").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("x = \"unterminated").is_err());
        assert!(parse("x = zzz").is_err());
        assert!(parse("[t]\n[t]").unwrap_err().message.contains("duplicate"));
        assert!(parse("x = 1\nx = 2").is_err());
    }

    #[test]
    fn unread_lists_what_no_lookup_touched() {
        let doc = parse("a = 1\nb = 2\n[t]\nc = 3\n[[s]]\n[[u]]").expect("parses");
        assert_eq!(doc.get("a"), Some(&TomlValue::Int(1)));
        let _ = doc.array("s");
        assert_eq!(
            doc.unread(),
            [
                "unknown key `b`",
                "unknown section `[t]`",
                "unknown section `[[u]]`"
            ]
        );
    }

    #[test]
    fn fields_report_every_finding_with_its_location() {
        let doc = parse("n = \"x\"\nk = -1\nr = 0\ns = [1]\nc = \"pink\"\nz = 1").expect("parses");
        let mut problems = Vec::new();
        let mut f = Fields::new(&doc, "here", &mut problems);
        assert_eq!(f.u64("n"), None);
        assert_eq!(f.u64("k"), None);
        assert_eq!(f.int("k"), Some(-1));
        assert_eq!(f.u64_in("r", 1..=u64::MAX), None);
        assert_eq!(f.strings("s"), None);
        assert_eq!(
            f.choice("c", &[true, false], |b| if *b { "red" } else { "blue" }),
            None
        );
        assert_eq!(f.required("name"), "");
        assert_eq!(f.bool("absent"), None, "absent keys are no finding");
        f.finish();
        assert_eq!(
            problems,
            [
                "here: `n` must be a non-negative integer",
                "here: `k` must be a non-negative integer",
                "here: `r` must be ≥ 1",
                "here: `s` must be an array of strings",
                "here: unknown c `pink` (red | blue)",
                "here: missing `name`",
                "here: unknown key `z`",
            ]
        );
    }
}
