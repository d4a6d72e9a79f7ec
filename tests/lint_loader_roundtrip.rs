//! Lint/loader agreement: the scenario TOML loader is strict (a key or
//! section no parser reads is a load error), and `hypernel campaign
//! lint` reports each loader finding as its own message. These tests
//! pin the contract from both sides:
//!
//! * every key the loader does not read — at the top level, in
//!   `[metrics]`, in a `[[step]]`, in a `[[fault]]`, in the compose
//!   sections — fails the load with a finding that names it, and
//!   `lint_source` reports exactly the loader's findings;
//! * a fully keyed scenario loads, lints clean, and `to_toml`
//!   round-trips it.

use hypernel_campaign::{lint_source, Scenario};

/// A scenario body keying one step kind and one fault kind, with
/// `{top}`, `{metrics}`, `{step}` and `{fault}` injection points for
/// bogus keys.
fn source(top: &str, metrics: &str, step: &str, fault: &str) -> String {
    format!(
        r#"
name = "demo"
description = "round-trip probe"
mode = "hypernel"
monitor = "whole-object"
background-ops = 2
latency-bound = 60000
fifo-capacity = 8
drain-budget = 2
{top}

[metrics]
window-cycles = 50000
{metrics}

[[step]]
kind = "dentry-hijack"
path = "/bin/login"
rogue-inode = 4919
expect = "detected"
{step}

[[fault]]
kind = "delay-irq"
at = 1
count = 2
steps = 3
{fault}
"#
    )
}

/// The loader rejects the source with a finding naming `key`, and lint
/// reports exactly the loader's findings.
fn assert_rejected_and_flagged(source: &str, key: &str) {
    let e = Scenario::from_toml(source).expect_err("strict loader rejects");
    assert!(
        e.problems.iter().any(|p| p.contains(key)),
        "no finding names `{key}`: {e}"
    );
    assert_eq!(lint_source(Some("demo"), source), e.problems);
}

/// Lints clean, loads, and survives a serialize/parse round-trip.
fn assert_clean_round_trip(source: &str) {
    assert_eq!(lint_source(Some("demo"), source), Vec::<String>::new());
    let scenario = Scenario::from_toml(source).expect("loads");
    let reparsed = Scenario::from_toml(&scenario.to_toml()).expect("round-trip loads");
    assert_eq!(scenario, reparsed);
}

#[test]
fn every_loader_ignored_key_is_flagged_by_lint() {
    assert_clean_round_trip(&source("", "", "", ""));
    assert_rejected_and_flagged(&source("latency_bound = 1", "", "", ""), "latency_bound");
    assert_rejected_and_flagged(&source("", "window_cycles = 9", "", ""), "window_cycles");
    assert_rejected_and_flagged(&source("", "", "pidd = 7", ""), "pidd");
    assert_rejected_and_flagged(&source("", "", "", "stepss = 9"), "stepss");
    // Keys that belong to a *different* kind are just as unknown: a
    // dentry-hijack step has no `pid`, a delay-irq fault has no `bit`.
    assert_rejected_and_flagged(&source("", "", "pid = 7", ""), "pid");
    assert_rejected_and_flagged(&source("", "", "", "bit = 3"), "bit");
}

#[test]
fn unknown_sections_are_flagged_too() {
    let clean = source("", "", "", "");
    assert_rejected_and_flagged(&format!("{clean}\n[telemetry]\nring = 4096\n"), "telemetry");
    assert_rejected_and_flagged(&format!("{clean}\n[[probe]]\nkind = \"x\"\n"), "probe");
}

/// Compose sections obey the same contract: bogus keys fail the load
/// and lint dirty, and a fully keyed description lints clean and
/// round-trips exactly.
#[test]
fn compose_sections_are_pinned_both_ways() {
    fn compose_source(compose: &str, domain: &str, channel: &str, region: &str) -> String {
        format!(
            r#"
name = "demo"
mode = "hypernel"

[compose]
watch = true
{compose}

[[domain]]
name = "server"
role = "server"
priority = 3
tasks = 2
{domain}

[[domain]]
name = "client"

[[channel]]
name = "req"
from = "client"
to = "server"
capacity = 8
{channel}

[[region]]
name = "shared"
owner = "server"
share = ["client"]
pages = 2
protect = true
va = 0x60100000
{region}

[[step]]
kind = "shared-region-toctou"
region = "shared"
expect = "detected"
"#
        )
    }

    assert_clean_round_trip(&compose_source("", "", "", ""));
    for (src, key) in [
        (compose_source("watchdog = 1", "", "", ""), "watchdog"),
        (compose_source("", "prio = 3", "", ""), "prio"),
        (compose_source("", "", "depth = 4", ""), "depth"),
        (compose_source("", "", "", "frames = 2"), "frames"),
    ] {
        assert_rejected_and_flagged(&src, key);
    }
}
