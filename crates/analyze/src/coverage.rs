//! Coverage-atlas analytics: ingest the `coverage.json` artifact a
//! campaign sweep emits, render per-crate/per-feature tables with the
//! uncovered remainder, and diff two atlases for the CI coverage gate.
//!
//! Like the campaign module, this parses generic JSON instead of
//! linking `hypernel-campaign` (the dependency would be circular) —
//! which is exactly why the atlas embeds its own feature `universe`:
//! everything needed to compute "what was never reached" travels in the
//! artifact.

use std::collections::BTreeSet;

use hypernel_telemetry::json::Json;

/// `kind` tag of a coverage atlas artifact.
pub const COVERAGE_ATLAS_KIND: &str = "hypernel-coverage-atlas";

/// A parsed coverage atlas: feature hit counts plus the feature
/// universe they are measured against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atlas {
    /// Runs merged into the atlas.
    pub runs: u64,
    /// `(feature, hits)` pairs, sorted by feature; hits are never 0
    /// (uncovered features are simply absent).
    pub features: Vec<(String, u64)>,
    /// Every feature the instrumentation can emit, sorted.
    pub universe: Vec<String>,
}

impl Atlas {
    /// Hit count of one feature (0 when uncovered).
    pub fn count(&self, key: &str) -> u64 {
        self.features
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, n)| *n)
    }

    /// Whether the feature was reached at least once.
    pub fn covers(&self, key: &str) -> bool {
        self.count(key) > 0
    }

    /// Universe features never reached, in universe order.
    pub fn uncovered(&self) -> Vec<&str> {
        let covered: BTreeSet<&str> = self.features.iter().map(|(k, _)| k.as_str()).collect();
        self.universe
            .iter()
            .map(String::as_str)
            .filter(|k| !covered.contains(k))
            .collect()
    }
}

/// Parses a coverage atlas document.
///
/// # Errors
///
/// Returns a message when the document is not a coverage atlas or the
/// `features`/`universe` sections have the wrong shape.
pub fn ingest_atlas(doc: &Json) -> Result<Atlas, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(COVERAGE_ATLAS_KIND) {
        return Err(format!(
            "not a coverage atlas (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    let Some(Json::Object(fields)) = doc.get("features") else {
        return Err("atlas has no `features` object".to_string());
    };
    let mut features = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        let n = value
            .as_u64()
            .ok_or_else(|| format!("feature `{key}` has a non-integer count"))?;
        features.push((key.clone(), n));
    }
    let universe = doc
        .get("universe")
        .and_then(Json::as_array)
        .ok_or("atlas has no `universe` array")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "universe entries must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Atlas {
        runs: doc.get("runs").and_then(Json::as_u64).unwrap_or(0),
        features,
        universe,
    })
}

/// Coverage rollup for one key group (the first `/`-separated segment:
/// `machine`, `mbm`, `hypersec`, `kernel`, `oracle`, `tuple`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCoverage {
    /// Group name.
    pub group: String,
    /// Distinct features reached.
    pub covered: usize,
    /// Features the universe defines for this group.
    pub universe: usize,
    /// Total hits across the group's features.
    pub hits: u64,
}

fn group_of(key: &str) -> &str {
    key.split('/').next().unwrap_or(key)
}

/// Rolls the atlas up per key group, in universe order. Features
/// outside the universe (newer emitter than universe snapshot) still
/// count toward their group's `covered` and `hits`.
pub fn per_group(atlas: &Atlas) -> Vec<GroupCoverage> {
    let mut groups: Vec<GroupCoverage> = Vec::new();
    let group_mut = |name: &str, groups: &mut Vec<GroupCoverage>| -> usize {
        if let Some(pos) = groups.iter().position(|g| g.group == name) {
            return pos;
        }
        groups.push(GroupCoverage {
            group: name.to_string(),
            covered: 0,
            universe: 0,
            hits: 0,
        });
        groups.len() - 1
    };
    for key in &atlas.universe {
        let pos = group_mut(group_of(key), &mut groups);
        groups[pos].universe += 1;
    }
    for (key, hits) in &atlas.features {
        let pos = group_mut(group_of(key), &mut groups);
        groups[pos].covered += 1;
        groups[pos].hits += hits;
    }
    groups
}

/// How many uncovered keys a rendered report lists per section before
/// summarizing the rest by count (never silently).
const UNCOVERED_LIST_CAP: usize = 40;

/// Renders the atlas as an aligned markdown report: the per-group
/// rollup table, then the uncovered tuple list and the uncovered
/// non-tuple features (each capped at [`UNCOVERED_LIST_CAP`] lines with
/// an explicit remainder count).
pub fn render_report(atlas: &Atlas) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let groups = per_group(atlas);
    let covered: usize = groups.iter().map(|g| g.covered).sum();
    let universe: usize = groups.iter().map(|g| g.universe).sum();
    let _ = writeln!(out, "coverage atlas: {} run(s) merged", atlas.runs);
    let _ = writeln!(out);
    let _ = writeln!(out, "| group    | covered | universe |  pct   | hits |");
    let _ = writeln!(out, "|----------|--------:|---------:|-------:|-----:|");
    for g in &groups {
        let _ = writeln!(
            out,
            "| {:<8} | {:>7} | {:>8} | {:>5.1}% | {:>4} |",
            g.group,
            g.covered,
            g.universe,
            percent(g.covered, g.universe),
            g.hits,
        );
    }
    let total_hits: u64 = groups.iter().map(|g| g.hits).sum();
    let _ = writeln!(
        out,
        "| total    | {:>7} | {:>8} | {:>5.1}% | {:>4} |",
        covered,
        universe,
        percent(covered, universe),
        total_hits,
    );
    let uncovered = atlas.uncovered();
    let (tuples, rest): (Vec<&str>, Vec<&str>) =
        uncovered.iter().partition(|k| k.starts_with("tuple/"));
    let (unfired_rules, features): (Vec<&str>, Vec<&str>) =
        rest.iter().partition(|k| k.starts_with("hypersec/rule/"));
    let _ = writeln!(out);
    write_unfired_rules(&mut out, atlas, &unfired_rules);
    write_uncovered(&mut out, "uncovered tuples", &tuples);
    write_uncovered(&mut out, "uncovered features", &features);
    out
}

/// The dedicated unfired-rules table: every `hypersec/rule/*` key the
/// universe defines but no run fired, one row per rule, with the
/// fired/total headline. These are the protection surfaces the corpus
/// never provoked — the static analyzer ranks which of them an attack
/// step could actually reach (`hypernel staticheck targets`).
fn write_unfired_rules(out: &mut String, atlas: &Atlas, unfired: &[&str]) {
    use std::fmt::Write as _;
    let total = atlas
        .universe
        .iter()
        .filter(|k| k.starts_with("hypersec/rule/"))
        .count();
    let _ = writeln!(
        out,
        "unfired rules: {} (fired {} of {} in the universe)",
        unfired.len(),
        total - unfired.len(),
        total
    );
    if !unfired.is_empty() {
        let _ = writeln!(
            out,
            "| rule                 | key                                  |"
        );
        let _ = writeln!(
            out,
            "|----------------------|--------------------------------------|"
        );
        for key in unfired {
            let rule = key.rsplit('/').next().unwrap_or(key);
            let _ = writeln!(out, "| {rule:<20} | {key:<36} |");
        }
    }
    let _ = writeln!(out);
}

fn percent(covered: usize, universe: usize) -> f64 {
    if universe == 0 {
        100.0
    } else {
        covered as f64 * 100.0 / universe as f64
    }
}

fn write_uncovered(out: &mut String, what: &str, keys: &[&str]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{what}: {}", keys.len());
    for key in keys.iter().take(UNCOVERED_LIST_CAP) {
        let _ = writeln!(out, "  - {key}");
    }
    if keys.len() > UNCOVERED_LIST_CAP {
        let _ = writeln!(out, "  ... and {} more", keys.len() - UNCOVERED_LIST_CAP);
    }
}

/// Result of diffing a candidate atlas against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageDiff {
    /// Features covered in the baseline but not in the candidate —
    /// each one fails the gate.
    pub regressions: Vec<String>,
    /// Features the candidate covers that the baseline did not
    /// (informational).
    pub newly_covered: Vec<String>,
}

impl CoverageDiff {
    /// Whether the candidate lost coverage anywhere.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Diffs `candidate` against `baseline`: every feature reached by the
/// baseline must still be reached by the candidate.
pub fn diff_atlases(baseline: &Atlas, candidate: &Atlas) -> CoverageDiff {
    let base: BTreeSet<&str> = baseline.features.iter().map(|(k, _)| k.as_str()).collect();
    let cand: BTreeSet<&str> = candidate.features.iter().map(|(k, _)| k.as_str()).collect();
    CoverageDiff {
        regressions: base.difference(&cand).map(|k| k.to_string()).collect(),
        newly_covered: cand.difference(&base).map(|k| k.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atlas(features: &[(&str, u64)], universe: &[&str]) -> Atlas {
        Atlas {
            runs: 8,
            features: features.iter().map(|(k, n)| (k.to_string(), *n)).collect(),
            universe: universe.iter().map(|k| k.to_string()).collect(),
        }
    }

    fn sample() -> Atlas {
        atlas(
            &[
                ("machine/tlb/hit", 100),
                ("mbm/stage/snooped", 40),
                ("tuple/detected/none/none/hypernel", 8),
            ],
            &[
                "machine/tlb/hit",
                "machine/tlb/miss",
                "mbm/stage/snooped",
                "tuple/detected/none/none/hypernel",
                "tuple/detected/none/none/kvm",
            ],
        )
    }

    #[test]
    fn ingest_round_trips_the_artifact_shape() {
        let doc = Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(COVERAGE_ATLAS_KIND)),
            ("runs", Json::UInt(8)),
            (
                "features",
                Json::obj(vec![("machine/tlb/hit", Json::UInt(100))]),
            ),
            (
                "universe",
                Json::Array(vec![
                    Json::str("machine/tlb/hit"),
                    Json::str("machine/tlb/miss"),
                ]),
            ),
        ]);
        let parsed = ingest_atlas(&Json::parse(&doc.to_string()).expect("valid")).expect("atlas");
        assert_eq!(parsed.runs, 8);
        assert_eq!(parsed.count("machine/tlb/hit"), 100);
        assert!(!parsed.covers("machine/tlb/miss"));
        assert_eq!(parsed.uncovered(), vec!["machine/tlb/miss"]);
        assert!(ingest_atlas(&Json::obj(vec![("kind", Json::str("nope"))])).is_err());
    }

    #[test]
    fn groups_roll_up_covered_universe_and_hits() {
        let groups = per_group(&sample());
        let machine = groups.iter().find(|g| g.group == "machine").expect("m");
        assert_eq!(
            (machine.covered, machine.universe, machine.hits),
            (1, 2, 100)
        );
        let tuple = groups.iter().find(|g| g.group == "tuple").expect("t");
        assert_eq!((tuple.covered, tuple.universe), (1, 2));
        let report = render_report(&sample());
        assert!(report.contains("machine"), "{report}");
        assert!(report.contains("tuple/detected/none/none/kvm"), "{report}");
        assert!(report.contains("uncovered tuples: 1"), "{report}");
    }

    #[test]
    fn unfired_rules_get_their_own_table() {
        let atlas = atlas(
            &[("hypersec/rule/wxorx", 4), ("oracle/none", 8)],
            &[
                "hypersec/rule/wxorx",
                "hypersec/rule/frozen-sysreg",
                "hypersec/rule/not-a-table",
                "oracle/none",
            ],
        );
        let report = render_report(&atlas);
        assert!(
            report.contains("unfired rules: 2 (fired 1 of 3 in the universe)"),
            "{report}"
        );
        assert!(report.contains("| frozen-sysreg"), "{report}");
        assert!(report.contains("| not-a-table"), "{report}");
        // Rule keys live in their table, not the generic feature list.
        assert!(report.contains("uncovered features: 0"), "{report}");
    }

    #[test]
    fn diff_flags_lost_coverage_only() {
        let base = sample();
        let mut candidate = sample();
        candidate.features.retain(|(k, _)| k != "mbm/stage/snooped");
        candidate.features.push(("machine/tlb/miss".to_string(), 3));
        let diff = diff_atlases(&base, &candidate);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions, vec!["mbm/stage/snooped".to_string()]);
        assert_eq!(diff.newly_covered, vec!["machine/tlb/miss".to_string()]);
        assert!(!diff_atlases(&base, &base).has_regressions());
    }
}
