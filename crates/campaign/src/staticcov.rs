//! Static-coverage analytics: ingest the self-contained
//! `static-coverage.json` artifact `hypernel staticheck corpus` emits, render
//! the per-scenario prediction tables, and diff against a dynamic
//! coverage atlas — the static-vs-dynamic view the soundness gate and
//! the steering loop are built on. The writer is
//! [`crate::staticheck::static_coverage_json`].

use std::collections::BTreeSet;

use hypernel_telemetry::json::Json;

use crate::coverage::{string_array, Atlas};
use crate::staticheck::{contract_key, soundness_excess, STATIC_KIND};

/// One scenario's prediction as carried by the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPrediction {
    /// Scenario name.
    pub name: String,
    /// Mode analyzed.
    pub mode: String,
    /// Contract-namespace keys a dynamic run may produce.
    pub possible: Vec<String>,
    /// `(kind, detail)` lint-grade policy findings.
    pub findings: Vec<(String, String)>,
}

/// A parsed static-coverage artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticCov {
    /// Per-scenario predictions, artifact (name) order.
    pub scenarios: Vec<ScenarioPrediction>,
    /// Union of every scenario's possible keys.
    pub possible: BTreeSet<String>,
    /// `(mode, rule keys)` reachable-rule frontier.
    pub reachable: Vec<(String, Vec<String>)>,
    /// `(name, code, surface)` rule metadata.
    pub rules: Vec<(String, u64, String)>,
    /// The contract-namespace key universe.
    pub universe: Vec<String>,
}

/// Parses a static-coverage document.
///
/// # Errors
///
/// Returns a message when the document is not a static-coverage
/// artifact or a section has the wrong shape.
pub fn ingest_static(doc: &Json) -> Result<StaticCov, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(STATIC_KIND) {
        return Err(format!(
            "not a static-coverage artifact (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    let possible = string_array(doc, "possible")?.into_iter().collect();
    let universe = string_array(doc, "universe")?;
    let Some(Json::Object(scenario_fields)) = doc.get("scenarios") else {
        return Err("artifact has no `scenarios` object".to_string());
    };
    let mut scenarios = Vec::with_capacity(scenario_fields.len());
    for (name, body) in scenario_fields {
        let mode = body
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("scenario `{name}` has no `mode`"))?
            .to_string();
        let possible =
            string_array(body, "possible").map_err(|e| format!("scenario `{name}`: {e}"))?;
        let mut findings = Vec::new();
        if let Some(list) = body.get("findings").and_then(Json::as_array) {
            for f in list {
                let kind = f.get("kind").and_then(Json::as_str).unwrap_or("finding");
                let detail = f.get("detail").and_then(Json::as_str).unwrap_or_default();
                findings.push((kind.to_string(), detail.to_string()));
            }
        }
        scenarios.push(ScenarioPrediction {
            name: name.clone(),
            mode,
            possible,
            findings,
        });
    }
    let mut reachable = Vec::new();
    if let Some(Json::Object(modes)) = doc.get("reachable-rules") {
        for (mode, keys) in modes {
            let keys = keys
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            reachable.push((mode.clone(), keys));
        }
    }
    let mut rules = Vec::new();
    if let Some(list) = doc.get("rules").and_then(Json::as_array) {
        for r in list {
            let name = r.get("name").and_then(Json::as_str).unwrap_or_default();
            let code = r.get("code").and_then(Json::as_u64).unwrap_or(0);
            let surface = r.get("surface").and_then(Json::as_str).unwrap_or_default();
            rules.push((name.to_string(), code, surface.to_string()));
        }
    }
    Ok(StaticCov {
        scenarios,
        possible,
        reachable,
        rules,
        universe,
    })
}

/// Renders the artifact: per-scenario prediction rows (possible-key
/// counts and findings), the reachable-rule frontier, and the rule
/// metadata with guarding surfaces.
pub fn render_static(sc: &StaticCov) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "static coverage: {} scenario(s), {} possible key(s) of {} in the contract universe",
        sc.scenarios.len(),
        sc.possible.len(),
        sc.universe.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| scenario                     | mode     | possible | findings |"
    );
    let _ = writeln!(
        out,
        "|------------------------------|----------|---------:|---------:|"
    );
    for s in &sc.scenarios {
        let _ = writeln!(
            out,
            "| {:<28} | {:<8} | {:>8} | {:>8} |",
            s.name,
            s.mode,
            s.possible.len(),
            s.findings.len()
        );
    }
    let _ = writeln!(out);
    for s in &sc.scenarios {
        for (kind, detail) in &s.findings {
            let _ = writeln!(out, "finding `{}` [{kind}]: {detail}", s.name);
        }
    }
    for (mode, keys) in &sc.reachable {
        let _ = writeln!(out, "reachable rules under {mode}: {}", keys.len());
        for key in keys {
            let rule = key.rsplit('/').next().unwrap_or(key);
            let surface = sc
                .rules
                .iter()
                .find(|(name, _, _)| name == rule)
                .map(|(_, _, surface)| surface.as_str())
                .unwrap_or("?");
            let _ = writeln!(out, "  - {key}  ({surface})");
        }
    }
    out
}

/// The static-vs-dynamic diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticDynamicDiff {
    /// Dynamically fired contract keys the prediction did not allow —
    /// each one is a soundness breach and fails the gate.
    pub unsound: Vec<String>,
    /// Statically possible keys no dynamic run fired — the precision
    /// gap, and where rule keys appear, the steering targets.
    pub unfired: Vec<String>,
}

impl StaticDynamicDiff {
    /// Whether the dynamic atlas escaped the prediction anywhere.
    pub fn is_unsound(&self) -> bool {
        !self.unsound.is_empty()
    }
}

/// Diffs a dynamic coverage atlas against the static prediction:
/// every fired contract key must be predicted possible (soundness,
/// the same check as the per-run [`soundness_excess`]), and every
/// possible-but-unfired key is listed as the precision gap.
pub fn static_dynamic_diff(sc: &StaticCov, atlas: &Atlas) -> StaticDynamicDiff {
    StaticDynamicDiff {
        unsound: soundness_excess(&sc.possible, &atlas.features),
        unfired: sc
            .possible
            .iter()
            .filter(|k| !(contract_key(k) && atlas.features.covers(k)))
            .cloned()
            .collect(),
    }
}

/// Renders the diff as the soundness/precision tables the CI gate
/// prints.
pub fn render_diff(diff: &StaticDynamicDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if diff.unsound.is_empty() {
        let _ = writeln!(
            out,
            "soundness: every dynamically fired contract key was predicted possible"
        );
    } else {
        let _ = writeln!(
            out,
            "soundness BREACH: {} fired key(s) escaped the static prediction:",
            diff.unsound.len()
        );
        for key in &diff.unsound {
            let _ = writeln!(out, "  ! {key}");
        }
    }
    let _ = writeln!(
        out,
        "precision gap: {} statically possible key(s) never fired",
        diff.unfired.len()
    );
    let targets: Vec<&String> = diff
        .unfired
        .iter()
        .filter(|k| k.starts_with("hypersec/rule/"))
        .collect();
    if !targets.is_empty() {
        let _ = writeln!(out, "steering targets (unfired rules):");
        for key in targets {
            let _ = writeln!(out, "  - {key}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;

    fn sample() -> StaticCov {
        StaticCov {
            scenarios: vec![ScenarioPrediction {
                name: "wxorx".to_string(),
                mode: "hypernel".to_string(),
                possible: vec![
                    "hypersec/rule/wxorx".to_string(),
                    "kernel/attack/code-injection/blocked".to_string(),
                    "oracle/none".to_string(),
                ],
                findings: vec![("watch-gap".to_string(), "region r unwatched".to_string())],
            }],
            possible: [
                "hypersec/rule/wxorx",
                "kernel/attack/code-injection/blocked",
                "oracle/none",
            ]
            .map(String::from)
            .into(),
            reachable: vec![(
                "hypernel".to_string(),
                vec!["hypersec/rule/wxorx".to_string()],
            )],
            rules: vec![(
                "wxorx".to_string(),
                0x5004,
                "W^X over kernel mappings".to_string(),
            )],
            universe: vec![
                "hypersec/rule/wxorx".to_string(),
                "kernel/attack/code-injection/blocked".to_string(),
                "oracle/none".to_string(),
                "oracle/wx/unexpected".to_string(),
            ],
        }
    }

    fn dynamic(features: &[(&str, u64)]) -> Atlas {
        let mut map = CoverageMap::new();
        for (key, n) in features {
            map.record_n(*key, *n);
        }
        Atlas {
            runs: 4,
            features: map,
            universe: Vec::new(),
        }
    }

    #[test]
    fn ingest_rejects_wrong_kind_and_round_trips() {
        let doc = Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::str(STATIC_KIND)),
            (
                "possible",
                Json::Array(vec![Json::str("hypersec/rule/wxorx")]),
            ),
            (
                "scenarios",
                Json::obj(vec![(
                    "wxorx",
                    Json::obj(vec![
                        ("mode", Json::str("hypernel")),
                        (
                            "possible",
                            Json::Array(vec![Json::str("hypersec/rule/wxorx")]),
                        ),
                    ]),
                )]),
            ),
            ("universe", Json::Array(vec![Json::str("oracle/none")])),
        ]);
        let parsed = ingest_static(&Json::parse(&doc.to_string()).expect("valid")).expect("sc");
        assert_eq!(parsed.scenarios.len(), 1);
        assert_eq!(parsed.scenarios[0].mode, "hypernel");
        assert!(ingest_static(&Json::obj(vec![("kind", Json::str("nope"))])).is_err());
    }

    #[test]
    fn diff_splits_soundness_from_precision() {
        let sc = sample();
        // In-contract firing inside the prediction, plus a
        // non-contract machine counter (ignored).
        let clean = dynamic(&[("hypersec/rule/wxorx", 2), ("machine/trap/hypercall", 9)]);
        let diff = static_dynamic_diff(&sc, &clean);
        assert!(!diff.is_unsound());
        assert_eq!(
            diff.unfired,
            vec![
                "kernel/attack/code-injection/blocked".to_string(),
                "oracle/none".to_string(),
            ]
        );

        let breached = dynamic(&[("oracle/wx/unexpected", 1)]);
        let diff = static_dynamic_diff(&sc, &breached);
        assert!(diff.is_unsound());
        assert_eq!(diff.unsound, vec!["oracle/wx/unexpected".to_string()]);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("soundness BREACH"), "{rendered}");
    }

    #[test]
    fn rendering_carries_findings_and_surfaces() {
        let text = render_static(&sample());
        assert!(text.contains("watch-gap"), "{text}");
        assert!(text.contains("W^X over kernel mappings"), "{text}");
        assert!(text.contains("| wxorx"), "{text}");
    }
}
