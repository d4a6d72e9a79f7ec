//! Scenario-file linter: the semantic checks a loader cannot make.
//!
//! [`Scenario::from_toml`] is strict — an unknown key or section, a
//! wrong-typed or an out-of-range value is a load error — so the
//! linter reports each loader finding as its own message and, for a
//! scenario that loads, adds the semantic smells: a `latency-bound`
//! that can never be checked, Hypernel-only pressure knobs on baseline
//! modes, a `masked` step with nothing declared that could mask it, an
//! expectation the static analyzer proves impossible, scenario names
//! that drift from their file stems (the sweep artifact is keyed by
//! name), and attack steps that target compose entities the description
//! never declares. Structural compose problems (dangling channel
//! endpoints, overlapping shared regions) are load errors.

use std::path::Path;

use hypernel::Mode;
use hypernel_kernel::kernel::MonitorMode;
use hypernel_kernel::AttackStep;

use crate::scenario::{Scenario, StepExpect};
use crate::toml::toml_files;

/// Lints one scenario source. `stem` is the file stem (for the
/// name-matches-file check); pass `None` for sources without a file.
/// Returns one message per problem; empty means clean.
pub fn lint_source(stem: Option<&str>, source: &str) -> Vec<String> {
    let scenario = match Scenario::from_toml(source) {
        Ok(s) => s,
        Err(e) => return e.problems,
    };
    let mut out = Vec::new();

    if let Some(series) = scenario.metrics.as_ref().and_then(|m| m.series.as_ref()) {
        if series.is_empty() {
            out.push("[metrics]: `series = []` disables every series".to_string());
        }
    }
    if let Some(stem) = stem {
        if scenario.name != stem {
            out.push(format!(
                "name `{}` does not match the file stem `{stem}` (records are keyed by name)",
                scenario.name
            ));
        }
    }
    if scenario.mode != Mode::Hypernel {
        let hypernel_only = [
            ("monitor", scenario.monitor != MonitorMode::SensitiveFields),
            ("latency-bound", scenario.latency_bound.is_some()),
            ("fifo-capacity", scenario.fifo_capacity.is_some()),
            ("drain-budget", scenario.drain_budget.is_some()),
        ];
        for (key, set) in hypernel_only {
            if set {
                out.push(format!(
                    "`{key}` has no effect in `{}` mode (Hypernel-only knob)",
                    scenario.mode
                ));
            }
        }
        for (i, spec) in scenario.steps.iter().enumerate() {
            if matches!(spec.expect, StepExpect::Detected | StepExpect::Masked) {
                out.push(format!(
                    "step {}: expect `{}` needs a monitor, but mode `{}` has none",
                    i + 1,
                    spec.expect.name(),
                    scenario.mode
                ));
            }
        }
    }
    if scenario.latency_bound.is_some()
        && !scenario
            .steps
            .iter()
            .any(|s| s.expect == StepExpect::Detected)
    {
        out.push(
            "latency-bound is set but no step expects `detected`, so it can never be checked"
                .to_string(),
        );
    }
    for (i, spec) in scenario.steps.iter().enumerate() {
        let references: Vec<(&str, &str, &str)> = match &spec.step {
            AttackStep::CrossDomainCredTheft { attacker, victim } => vec![
                ("attacker", "domain", attacker.as_str()),
                ("victim", "domain", victim.as_str()),
            ],
            AttackStep::SharedRegionToctou { region } => {
                vec![("region", "region", region.as_str())]
            }
            AttackStep::ChannelSpoof { channel } => {
                vec![("channel", "channel", channel.as_str())]
            }
            _ => continue,
        };
        let Some(compose) = &scenario.compose else {
            out.push(format!(
                "step {}: `{}` targets a composed system, but the scenario declares none \
                 (add [[domain]] / [[channel]] / [[region]] sections)",
                i + 1,
                spec.step.name()
            ));
            continue;
        };
        for (key, kind, name) in references {
            let declared = match kind {
                "domain" => compose.domains.iter().any(|d| d.name == name),
                "channel" => compose.channels.iter().any(|c| c.name == name),
                _ => compose.regions.iter().any(|r| r.name == name),
            };
            if !declared {
                out.push(format!(
                    "step {}: `{key}` references undeclared {kind} `{name}`",
                    i + 1
                ));
            }
        }
    }
    let declared_mask = !scenario.faults.specs.is_empty()
        || scenario.fifo_capacity.is_some()
        || scenario.drain_budget.is_some();
    if !declared_mask {
        for (i, spec) in scenario.steps.iter().enumerate() {
            if spec.expect == StepExpect::Masked {
                out.push(format!(
                    "step {}: expect `masked` but the scenario declares no fault or FIFO pressure \
                     that could mask detection",
                    i + 1
                ));
            }
        }
    }
    // Static reachability: expectations the abstract interpreter
    // proves can never be met (a step that is always blocked cannot be
    // `detected`; one that nothing refuses cannot be `blocked`; a
    // watched clean write cannot stay `undetected`). Each one
    // guarantees an oracle violation on every seed.
    for (index, detail) in crate::staticheck::impossible_expectations(&scenario) {
        out.push(format!("step {}: {detail}", index + 1));
    }
    out
}

/// One linter complaint, attributed to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintIssue {
    /// Corpus file name (not the full path).
    pub file: String,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for LintIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.message)
    }
}

/// Lints every `*.toml` under `dir` (sorted by file name) plus the one
/// cross-file invariant: scenario names must be unique.
///
/// # Errors
///
/// Returns an error string when the directory or a file cannot be read
/// — I/O problems, not lint findings.
pub fn lint_dir(dir: &Path) -> Result<Vec<LintIssue>, String> {
    let mut issues = Vec::new();
    let mut names: Vec<(String, String)> = Vec::new();
    for path in &toml_files(dir)? {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned());
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        for message in lint_source(stem.as_deref(), &source) {
            issues.push(LintIssue {
                file: file.clone(),
                message,
            });
        }
        if let Ok(scenario) = Scenario::from_toml(&source) {
            if let Some((_, first)) = names.iter().find(|(n, _)| *n == scenario.name) {
                issues.push(LintIssue {
                    file: file.clone(),
                    message: format!(
                        "duplicate scenario name `{}` (also in {first})",
                        scenario.name
                    ),
                });
            } else {
                names.push((scenario.name.clone(), file.clone()));
            }
        }
    }
    Ok(issues)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = r#"
        name = "demo"
        mode = "hypernel"
        latency-bound = 250000

        [[step]]
        kind = "cred-escalation"
        pid = 1
        expect = "detected"
    "#;

    #[test]
    fn clean_scenario_has_no_findings() {
        assert_eq!(lint_source(Some("demo"), CLEAN), Vec::<String>::new());
    }

    #[test]
    fn unknown_keys_are_flagged_at_every_level() {
        let source = r#"
            name = "demo"
            latency_bound = 9     # typo: underscore
            [[step]]
            kind = "text-patch"
            pid = 1               # text-patch takes no pid
            expect = "blocked"
            [[fault]]
            kind = "drop-irq"
            bit = 3               # drop-irq has no param
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(
            issues.iter().any(|m| m.contains("`latency_bound`")),
            "{issues:?}"
        );
        assert!(issues
            .iter()
            .any(|m| m.contains("step 1") && m.contains("`pid`")));
        assert!(issues
            .iter()
            .any(|m| m.contains("fault 1") && m.contains("`bit`")));
    }

    #[test]
    fn semantic_smells_are_flagged() {
        let source = r#"
            name = "other"
            mode = "native"
            latency-bound = 100
            fifo-capacity = 4
            [[step]]
            kind = "cred-escalation"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(issues.iter().any(|m| m.contains("file stem")), "{issues:?}");
        assert!(issues.iter().any(|m| m.contains("`latency-bound`")));
        assert!(issues.iter().any(|m| m.contains("`fifo-capacity`")));
        assert!(issues.iter().any(|m| m.contains("needs a monitor")));
    }

    #[test]
    fn statically_impossible_expectations_are_flagged_two_ways() {
        // Two-way pin: an expectation the abstract interpreter proves
        // unreachable is flagged, and the corrected expectation on the
        // *same* step is clean — so the check can neither rot into
        // always-firing nor never-firing.
        let impossible = r#"
            name = "demo"
            mode = "hypernel"
            [[step]]
            kind = "ttbr-redirect"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), impossible);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("statically impossible") && m.contains("always blocked")),
            "{issues:?}"
        );

        let possible = r#"
            name = "demo"
            mode = "hypernel"
            [[step]]
            kind = "ttbr-redirect"
            expect = "blocked"
        "#;
        assert_eq!(lint_source(Some("demo"), possible), Vec::<String>::new());

        // The other direction: `blocked` on a step nothing refuses.
        let unblockable = r#"
            name = "demo"
            mode = "native"
            [[step]]
            kind = "cred-escalation"
            expect = "blocked"
        "#;
        let issues = lint_source(Some("demo"), unblockable);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("statically impossible") && m.contains("always completes")),
            "{issues:?}"
        );

        // A watched clean write cannot stay undetected under Hypernel.
        let guaranteed = r#"
            name = "demo"
            mode = "hypernel"
            [[step]]
            kind = "cred-escalation"
            expect = "undetected"
        "#;
        let issues = lint_source(Some("demo"), guaranteed);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("statically impossible")
                    && m.contains("no fault or FIFO pressure")),
            "{issues:?}"
        );
    }

    #[test]
    fn masked_without_declared_pressure_is_flagged() {
        let source = r#"
            name = "demo"
            [[step]]
            kind = "cred-escalation"
            expect = "masked"
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(issues.iter().any(|m| m.contains("masked")), "{issues:?}");
        // Declaring the fault clears it.
        let fixed = format!("{source}\n[[fault]]\nkind = \"drop-irq\"\n");
        assert!(lint_source(Some("demo"), &fixed).is_empty());
    }

    #[test]
    fn metrics_section_is_validated_not_flagged() {
        let clean = r#"
            name = "demo"
            [metrics]
            window-cycles = 10000
            series = ["hypercalls", "mbm-fifo-depth"]
            [[step]]
            kind = "cred-escalation"
            pid = 1
            expect = "detected"
        "#;
        assert_eq!(lint_source(Some("demo"), clean), Vec::<String>::new());

        let dirty = r#"
            name = "demo"
            [metrics]
            window_cycles = 10000   # typo: underscore
            series = ["hypercalls", "l0-hits"]
            [[step]]
            kind = "cred-escalation"
            pid = 1
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), dirty);
        assert!(
            issues.iter().any(|m| m.contains("`window_cycles`")),
            "{issues:?}"
        );
        assert!(issues
            .iter()
            .any(|m| m.contains("unknown series `l0-hits`")));

        let empty = r#"
            name = "demo"
            [metrics]
            series = []
            [[step]]
            kind = "cred-escalation"
            pid = 1
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), empty);
        assert!(
            issues.iter().any(|m| m.contains("disables every series")),
            "{issues:?}"
        );
    }

    const CLEAN_COMPOSE: &str = r#"
        name = "demo"
        mode = "hypernel"

        [compose]
        watch = true

        [[domain]]
        name = "server"
        role = "server"

        [[domain]]
        name = "client"

        [[channel]]
        name = "req"
        from = "client"
        to = "server"

        [[region]]
        name = "shared"
        owner = "server"
        share = ["client"]
        protect = true

        [[step]]
        kind = "cross-domain-cred-theft"
        attacker = "client"
        victim = "server"
        expect = "detected"

        [[step]]
        kind = "shared-region-toctou"
        region = "shared"
        expect = "detected"

        [[step]]
        kind = "channel-spoof"
        channel = "req"
        expect = "detected"
    "#;

    #[test]
    fn clean_compose_scenario_has_no_findings() {
        assert_eq!(
            lint_source(Some("demo"), CLEAN_COMPOSE),
            Vec::<String>::new()
        );
    }

    #[test]
    fn unknown_compose_keys_are_flagged() {
        let source = r#"
            name = "demo"
            [compose]
            watchdog = true       # typo: not `watch`
            [[domain]]
            name = "server"
            prio = 3              # typo: not `priority`
            [[channel]]
            name = "req"
            from = "server"
            to = "server"
            depth = 4             # typo: not `capacity`
            [[region]]
            name = "shared"
            owner = "server"
            sharing = ["server"]  # typo: not `share`
            [[step]]
            kind = "channel-spoof"
            channel = "req"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("[compose]") && m.contains("`watchdog`")),
            "{issues:?}"
        );
        assert!(issues
            .iter()
            .any(|m| m.contains("domain 1") && m.contains("`prio`")));
        assert!(issues
            .iter()
            .any(|m| m.contains("channel 1") && m.contains("`depth`")));
        assert!(issues
            .iter()
            .any(|m| m.contains("region 1") && m.contains("`sharing`")));
    }

    #[test]
    fn compose_semantic_problems_are_flagged() {
        let source = r#"
            name = "demo"
            [[domain]]
            name = "server"
            [[channel]]
            name = "req"
            from = "ghost"
            to = "server"
            [[region]]
            name = "a"
            owner = "server"
            va = 0x60000000
            [[region]]
            name = "b"
            owner = "server"
            va = 0x60000000
            [[step]]
            kind = "shared-region-toctou"
            region = "a"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("compose:") && m.contains("ghost")),
            "{issues:?}"
        );
        assert!(
            issues
                .iter()
                .any(|m| m.contains("compose:") && m.contains("overlap")),
            "{issues:?}"
        );
    }

    #[test]
    fn compose_steps_without_a_composed_system_are_flagged() {
        let source = r#"
            name = "demo"
            [[step]]
            kind = "shared-region-toctou"
            region = "shared"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), source);
        assert!(
            issues.iter().any(|m| m.contains("declares none")),
            "{issues:?}"
        );

        let dangling = r#"
            name = "demo"
            [[domain]]
            name = "server"
            [[step]]
            kind = "cross-domain-cred-theft"
            attacker = "client"
            victim = "server"
            expect = "detected"
        "#;
        let issues = lint_source(Some("demo"), dangling);
        assert!(
            issues
                .iter()
                .any(|m| m.contains("undeclared domain `client`")),
            "{issues:?}"
        );
    }

    #[test]
    fn the_shipped_corpus_is_clean() {
        for dir in ["corpus", "examples/scenarios"] {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(dir);
            let issues = lint_dir(&dir).expect("scenario dir readable");
            assert_eq!(issues, Vec::new(), "{} must lint clean", dir.display());
        }
    }
}
