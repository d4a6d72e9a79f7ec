//! The declarative system-description model.
//!
//! A [`ComposeDoc`] is the parsed form of the `[compose]` /
//! `[[domain]]` / `[[channel]]` / `[[region]]` sections of a
//! description file (either standalone or embedded in a campaign
//! scenario). The loader is strict and is the schema: a key it does
//! not read, a wrong-typed value or an out-of-range one is a load
//! error naming its location (``domain 1: unknown key `prio` ``), and one
//! error lists every such finding. A description whose fields load
//! is then checked for structural problems (dangling references,
//! duplicate names, overlaps) by [`ComposeDoc::validate`], and those
//! join the same error, so every loaded description lowers cleanly.
//! [`ComposeDoc::to_toml`] is the exact inverse of
//! [`ComposeDoc::from_doc`], so descriptions round-trip byte-for-byte
//! through the model.

use hypernel_kernel::compose::MAX_CHANNELS;
use hypernel_kernel::{layout, DomainRole};
use hypernel_machine::addr::PAGE_SIZE;

use crate::toml::{Fields, LoadError, TomlTable};

/// One declared protection domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecl {
    /// Unique domain name (referenced by channels and regions).
    pub name: String,
    /// Passive server or client task.
    pub role: DomainRole,
    /// Scheduling priority metadata.
    pub priority: u64,
    /// Number of kernel tasks backing the domain (≥ 1).
    pub tasks: u64,
}

/// One declared channel between two domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Unique channel name.
    pub name: String,
    /// Sending domain.
    pub from: String,
    /// Receiving domain.
    pub to: String,
    /// Declared queue capacity metadata (≥ 1).
    pub capacity: u64,
}

/// One declared shared memory region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDecl {
    /// Unique region name.
    pub name: String,
    /// Owning domain (maps the region writable-owned).
    pub owner: String,
    /// Domains the region is shared into (besides the owner).
    pub share: Vec<String>,
    /// Region size in pages (≥ 1).
    pub pages: u64,
    /// Whether the derived watch set covers the region.
    pub protect: bool,
    /// Explicit base virtual address, or `None` for automatic
    /// assignment from the compose window.
    pub va: Option<u64>,
}

/// A complete system description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposeDoc {
    /// Whether lowering arms the derived watch set (`[compose] watch`,
    /// default `true`; registration still requires the mode to have
    /// monitor hooks).
    pub watch: bool,
    /// Declared domains, in file order.
    pub domains: Vec<DomainDecl>,
    /// Declared channels, in file order.
    pub channels: Vec<ChannelDecl>,
    /// Declared regions, in file order.
    pub regions: Vec<RegionDecl>,
}

impl Default for ComposeDoc {
    fn default() -> Self {
        Self {
            watch: true,
            domains: Vec::new(),
            channels: Vec::new(),
            regions: Vec::new(),
        }
    }
}

/// A description parsing failure: every finding, each with its
/// location.
pub type ComposeError = LoadError;

/// The most pages one region may span: all of DRAM.
const MAX_REGION_PAGES: u64 = layout::DRAM_SIZE / PAGE_SIZE;

impl ComposeDoc {
    /// Extracts the compose sections from a parsed document, or `None`
    /// when the document declares nothing compose-related. Reads only
    /// those sections; whoever owns the rest of the document reports
    /// its unread top-level keys.
    ///
    /// # Errors
    ///
    /// Returns a [`ComposeError`] listing every missing required field,
    /// unknown key, wrong-typed value and out-of-range value, or, when
    /// there are none, every [`ComposeDoc::validate`] problem.
    pub fn from_doc(doc: &TomlTable) -> Result<Option<Self>, ComposeError> {
        let compose = doc.table("compose");
        let (domains, channels, regions) = (
            doc.array("domain"),
            doc.array("channel"),
            doc.array("region"),
        );
        if compose.is_none() && domains.is_empty() && channels.is_empty() && regions.is_empty() {
            return Ok(None);
        }
        let mut problems = Vec::new();
        let mut out = Self::default();
        if let Some(t) = compose {
            let mut f = Fields::new(t, "[compose]", &mut problems);
            out.watch = f.bool("watch").unwrap_or(true);
            f.finish();
        }
        for (i, t) in domains.iter().enumerate() {
            let mut f = Fields::new(t, format!("domain {}", i + 1), &mut problems);
            out.domains.push(DomainDecl {
                name: f.required("name"),
                role: f
                    .choice("role", &DomainRole::ALL, |r| r.name())
                    .unwrap_or(DomainRole::Client),
                priority: f.u64("priority").unwrap_or(0),
                tasks: f.u64("tasks").unwrap_or(1),
            });
            f.finish();
        }
        for (i, t) in channels.iter().enumerate() {
            let mut f = Fields::new(t, format!("channel {}", i + 1), &mut problems);
            out.channels.push(ChannelDecl {
                name: f.required("name"),
                from: f.required("from"),
                to: f.required("to"),
                capacity: f.u64("capacity").unwrap_or(16),
            });
            f.finish();
        }
        for (i, t) in regions.iter().enumerate() {
            let mut f = Fields::new(t, format!("region {}", i + 1), &mut problems);
            out.regions.push(RegionDecl {
                name: f.required("name"),
                owner: f.required("owner"),
                share: f.strings("share").unwrap_or_default(),
                pages: f.u64_in("pages", 1..=MAX_REGION_PAGES).unwrap_or(1),
                protect: f.bool("protect").unwrap_or(false),
                va: f.u64("va"),
            });
            f.finish();
        }
        if problems.is_empty() {
            problems = out
                .validate()
                .iter()
                .map(|p| format!("compose: {p}"))
                .collect();
        }
        if problems.is_empty() {
            Ok(Some(out))
        } else {
            Err(LoadError { problems })
        }
    }

    /// Parses a standalone description file, which must declare at
    /// least one compose section and nothing else.
    ///
    /// # Errors
    ///
    /// Returns a [`ComposeError`] for a syntax error, or listing every
    /// finding: missing compose sections, unknown top-level keys and
    /// sections, and every field error [`ComposeDoc::from_doc`] finds.
    pub fn from_toml(input: &str) -> Result<Self, ComposeError> {
        let doc = crate::toml::parse(input)?;
        let parsed = Self::from_doc(&doc);
        let mut problems = match &parsed {
            Ok(Some(_)) => Vec::new(),
            Ok(None) => vec!["no compose sections ([compose] / [[domain]] / ...)".to_string()],
            Err(e) => e.problems.clone(),
        };
        Fields::new(&doc, "top level", &mut problems).finish();
        match parsed {
            Ok(Some(out)) if problems.is_empty() => Ok(out),
            _ => Err(LoadError { problems }),
        }
    }

    /// Serializes the description back into its TOML form, emitting
    /// only keys the loader reads and only non-default values. Exact
    /// inverse of [`ComposeDoc::from_doc`], and a fixpoint:
    /// re-emitting a parsed emission reproduces it byte-for-byte.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[compose]");
        let _ = writeln!(out, "watch = {}", self.watch);
        for d in &self.domains {
            let _ = writeln!(out, "\n[[domain]]");
            let _ = writeln!(out, "name = {}", toml_str(&d.name));
            let _ = writeln!(out, "role = \"{}\"", d.role.name());
            if d.priority != 0 {
                let _ = writeln!(out, "priority = {}", d.priority);
            }
            if d.tasks != 1 {
                let _ = writeln!(out, "tasks = {}", d.tasks);
            }
        }
        for c in &self.channels {
            let _ = writeln!(out, "\n[[channel]]");
            let _ = writeln!(out, "name = {}", toml_str(&c.name));
            let _ = writeln!(out, "from = {}", toml_str(&c.from));
            let _ = writeln!(out, "to = {}", toml_str(&c.to));
            if c.capacity != 16 {
                let _ = writeln!(out, "capacity = {}", c.capacity);
            }
        }
        for r in &self.regions {
            let _ = writeln!(out, "\n[[region]]");
            let _ = writeln!(out, "name = {}", toml_str(&r.name));
            let _ = writeln!(out, "owner = {}", toml_str(&r.owner));
            if !r.share.is_empty() {
                let items: Vec<String> = r.share.iter().map(|s| toml_str(s)).collect();
                let _ = writeln!(out, "share = [{}]", items.join(", "));
            }
            if r.pages != 1 {
                let _ = writeln!(out, "pages = {}", r.pages);
            }
            if r.protect {
                let _ = writeln!(out, "protect = true");
            }
            if let Some(va) = r.va {
                let _ = writeln!(out, "va = 0x{va:X}");
            }
        }
        out
    }

    /// Structural validation: every problem found, in a stable order.
    /// An empty result means the description lowers cleanly on any
    /// booted kernel with enough frames.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.domains.is_empty() {
            problems.push("declares no domains".to_string());
        }
        check_duplicates(
            &mut problems,
            "domain",
            self.domains.iter().map(|d| &d.name),
        );
        check_duplicates(
            &mut problems,
            "channel",
            self.channels.iter().map(|c| &c.name),
        );
        check_duplicates(
            &mut problems,
            "region",
            self.regions.iter().map(|r| &r.name),
        );
        let known = |name: &str| self.domains.iter().any(|d| d.name == name);
        for d in &self.domains {
            if d.tasks == 0 {
                problems.push(format!("domain `{}`: `tasks` must be ≥ 1", d.name));
            }
        }
        if self.channels.len() > MAX_CHANNELS {
            problems.push(format!(
                "compose: {} channels exceed the {MAX_CHANNELS}-channel table",
                self.channels.len()
            ));
        }
        for c in &self.channels {
            for (end, domain) in [("from", &c.from), ("to", &c.to)] {
                if !known(domain) {
                    problems.push(format!(
                        "channel `{}`: `{end}` references unknown domain `{domain}`",
                        c.name
                    ));
                }
            }
            if c.capacity == 0 {
                problems.push(format!("channel `{}`: `capacity` must be ≥ 1", c.name));
            }
        }
        // Assign every region its VA interval (explicit, or automatic
        // from the compose window in declaration order — mirroring the
        // lowering exactly) and reject overlaps.
        let mut intervals: Vec<(u64, u64, &str)> = Vec::new();
        let mut next_auto = hypernel_kernel::compose::REGION_VA_BASE;
        for r in &self.regions {
            if !known(&r.owner) {
                problems.push(format!(
                    "region `{}`: `owner` references unknown domain `{}`",
                    r.name, r.owner
                ));
            }
            for s in &r.share {
                if !known(s) {
                    problems.push(format!(
                        "region `{}`: `share` references unknown domain `{s}`",
                        r.name
                    ));
                }
                if *s == r.owner {
                    problems.push(format!(
                        "region `{}`: `share` repeats the owner `{s}`",
                        r.name
                    ));
                }
            }
            if r.pages == 0 {
                problems.push(format!("region `{}`: `pages` must be ≥ 1", r.name));
                continue;
            }
            let base = match r.va {
                Some(va) => {
                    if va % PAGE_SIZE != 0 {
                        problems.push(format!(
                            "region `{}`: `va` 0x{va:X} is not page-aligned",
                            r.name
                        ));
                        continue;
                    }
                    if va == 0 {
                        problems.push(format!("region `{}`: `va` must be nonzero", r.name));
                        continue;
                    }
                    va
                }
                None => {
                    let va = next_auto;
                    next_auto += r.pages * PAGE_SIZE;
                    va
                }
            };
            let end = base + r.pages * PAGE_SIZE;
            for (other_base, other_end, other_name) in &intervals {
                if base < *other_end && *other_base < end {
                    problems.push(format!(
                        "region `{}`: overlaps region `{other_name}` at 0x{:X}",
                        r.name,
                        base.max(*other_base)
                    ));
                }
            }
            intervals.push((base, end, &r.name));
        }
        problems
    }
}

/// Quotes a TOML basic string (the subset has no escapes; embedded
/// quotes are replaced, matching the scenario serializer).
fn toml_str(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

fn check_duplicates<'a>(
    problems: &mut Vec<String>,
    kind: &str,
    names: impl Iterator<Item = &'a String>,
) {
    let mut seen: Vec<&str> = Vec::new();
    for name in names {
        if seen.contains(&name.as_str()) {
            problems.push(format!("{kind} `{name}`: duplicate name"));
        } else {
            seen.push(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ComposeDoc {
        ComposeDoc {
            watch: true,
            domains: vec![
                DomainDecl {
                    name: "fs".into(),
                    role: DomainRole::Server,
                    priority: 10,
                    tasks: 1,
                },
                DomainDecl {
                    name: "net".into(),
                    role: DomainRole::Server,
                    priority: 9,
                    tasks: 2,
                },
                DomainDecl {
                    name: "app".into(),
                    role: DomainRole::Client,
                    priority: 0,
                    tasks: 1,
                },
            ],
            channels: vec![
                ChannelDecl {
                    name: "app-fs".into(),
                    from: "app".into(),
                    to: "fs".into(),
                    capacity: 16,
                },
                ChannelDecl {
                    name: "app-net".into(),
                    from: "app".into(),
                    to: "net".into(),
                    capacity: 8,
                },
            ],
            regions: vec![RegionDecl {
                name: "shared".into(),
                owner: "fs".into(),
                share: vec!["app".into()],
                pages: 2,
                protect: true,
                va: None,
            }],
        }
    }

    #[test]
    fn to_toml_round_trips_exactly() {
        let doc = demo();
        let text = doc.to_toml();
        let reparsed = ComposeDoc::from_toml(&text).expect("parses");
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.to_toml(), text, "emission is a fixpoint");
    }

    #[test]
    fn validate_accepts_the_demo_and_catches_structural_problems() {
        assert_eq!(demo().validate(), Vec::<String>::new());
        let mut bad = demo();
        bad.channels[0].to = "ghost".into();
        bad.regions.push(RegionDecl {
            name: "shared".into(),
            owner: "app".into(),
            share: vec!["app".into()],
            pages: 1,
            va: Some(hypernel_kernel::compose::REGION_VA_BASE + PAGE_SIZE),
            protect: false,
        });
        let problems = bad.validate();
        assert!(problems
            .iter()
            .any(|p| p.contains("unknown domain `ghost`")));
        assert!(problems.iter().any(|p| p.contains("duplicate name")));
        assert!(problems.iter().any(|p| p.contains("repeats the owner")));
        assert!(problems.iter().any(|p| p.contains("overlaps region")));
    }

    #[test]
    fn absent_sections_mean_no_doc() {
        let doc = crate::toml::parse("name = \"x\"").expect("parses");
        assert_eq!(ComposeDoc::from_doc(&doc).expect("ok"), None);
    }

    #[test]
    fn defaults_match_the_schema() {
        let doc = ComposeDoc::from_toml("[compose]\n[[domain]]\nname = \"a\"").expect("parses");
        assert!(doc.watch);
        let d = &doc.domains[0];
        assert_eq!(
            (d.role, d.priority, d.tasks),
            (DomainRole::Client, 0, 1),
            "domain defaults"
        );
    }

    #[test]
    fn typos_and_bad_values_are_one_load_error() {
        let source = "[[domain]]\nname = \"a\"\nprio = 3\nrole = \"boss\"\n\
                      [[channel]]\nname = \"c\"\nfrom = \"a\"\nto = \"a\"\ndepth = 4\n\
                      [[region]]\nname = \"r\"\nshare = \"a\"\npages = 0\n[extra]";
        let e = ComposeDoc::from_toml(source).unwrap_err();
        assert_eq!(
            e.problems,
            [
                "domain 1: unknown role `boss` (server | client)",
                "domain 1: unknown key `prio`",
                "channel 1: unknown key `depth`",
                "region 1: missing `owner`",
                "region 1: `share` must be an array of strings",
                "region 1: `pages` must be in 1..=524288",
                "top level: unknown section `[extra]`",
            ]
        );
        let e = ComposeDoc::from_toml("name = \"x\"").unwrap_err();
        assert_eq!(
            e.problems,
            [
                "no compose sections ([compose] / [[domain]] / ...)",
                "top level: unknown key `name`",
            ]
        );
    }
}
