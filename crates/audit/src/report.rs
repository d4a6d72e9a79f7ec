//! The static-audit report: typed findings, the differential verdict,
//! a deterministic JSON serialization, and the reader
//! ([`ingest_report`]) behind `hypernel analyze audit`.

use hypernel_machine::shadow::ShadowStats;
use hypernel_machine::TagViolation;
use hypernel_telemetry::json::Json;

use crate::graph::{chain_display, ChainLink};

/// Schema version stamped into every audit-report artifact.
pub const AUDIT_SCHEMA: u64 = 1;

/// `kind` tag of an audit-report artifact.
pub const REPORT_KIND: &str = "hypernel-audit-report";

/// Which invariant a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A stage-1 path reaches the secure region.
    SecureReachable,
    /// A leaf is writable and executable.
    WxMapping,
    /// A kernel-half leaf is not identity-mapped (double maps and ATRA
    /// aliases surface here).
    LinearIdentity,
    /// Kernel text is mapped writable somewhere.
    TextWritable,
    /// A live page-table page is mapped writable somewhere.
    TableWritable,
    /// A reachable table is not in the Hypersec-verified pool.
    UnverifiedTable,
    /// An active or kernel-known root is outside the trusted root set.
    RogueRoot,
    /// A registered sensitive word is not covered by the watch bitmap.
    WatchCoverage,
    /// A structurally malformed descriptor (table pointer at leaf
    /// level).
    Malformed,
}

impl CheckKind {
    /// Stable kebab-case name, used in diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::SecureReachable => "secure-reachable",
            CheckKind::WxMapping => "wx-mapping",
            CheckKind::LinearIdentity => "linear-identity",
            CheckKind::TextWritable => "text-writable",
            CheckKind::TableWritable => "table-writable",
            CheckKind::UnverifiedTable => "unverified-table",
            CheckKind::RogueRoot => "rogue-root",
            CheckKind::WatchCoverage => "watch-coverage",
            CheckKind::Malformed => "malformed",
        }
    }
}

/// One invariant violation found by the static pass, with the
/// descriptor chain that reaches the offending mapping (empty for
/// findings without a chain, e.g. a rogue root).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Violated invariant.
    pub check: CheckKind,
    /// Human-readable specifics.
    pub detail: String,
    /// Descriptor chain from a root to the offending descriptor.
    pub chain: Vec<ChainLink>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check.name(), self.detail)?;
        if !self.chain.is_empty() {
            write!(f, " (via {})", chain_display(&self.chain))?;
        }
        Ok(())
    }
}

impl Finding {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("check", Json::str(self.check.name())),
            ("detail", Json::str(&self.detail)),
        ];
        if !self.chain.is_empty() {
            fields.push(("chain", Json::str(&chain_display(&self.chain))));
        }
        Json::obj(fields)
    }
}

/// The static-vs-incremental comparison. Any disagreement means one of
/// the two analyses is wrong — by construction that is a verifier bug
/// (static found what the incremental verifier admitted) or an auditor
/// gap (the incremental runtime audit found what the static pass
/// missed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Findings of the static pass (count; the findings themselves live
    /// in [`StaticAuditReport::findings`]).
    pub static_findings: u64,
    /// Violations the incremental runtime audit reported.
    pub incremental_violations: Vec<String>,
    /// Explanations of each disagreement, offending chains included.
    pub disagreements: Vec<String>,
}

impl DifferentialReport {
    /// `true` when both sides reached the same verdict.
    pub fn agrees(&self) -> bool {
        self.disagreements.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("static_findings", Json::UInt(self.static_findings)),
            (
                "incremental_violations",
                Json::UInt(self.incremental_violations.len() as u64),
            ),
            ("agrees", Json::Bool(self.agrees())),
            (
                "disagreements",
                Json::Array(self.disagreements.iter().map(|d| Json::str(d)).collect()),
            ),
        ])
    }
}

/// Ownership-sanitizer section of the report (present when the shadow
/// tags were enabled on the machine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Counters at audit time.
    pub stats: ShadowStats,
    /// Retained typed violations (bounded; see
    /// [`hypernel_machine::shadow::MAX_VIOLATIONS`]).
    pub violations: Vec<TagViolation>,
}

impl SanitizerReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("checked", Json::UInt(self.stats.checked)),
            ("denied", Json::UInt(self.stats.denied)),
            (
                "violations",
                Json::Array(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("writer", Json::str(v.writer.name())),
                                ("pa", Json::UInt(v.pa.raw())),
                                ("value", Json::UInt(v.value)),
                                ("tag", Json::str(v.tag.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The complete result of one static audit pass.
#[derive(Clone, Debug, Default)]
pub struct StaticAuditReport {
    /// Roots walked.
    pub roots_walked: u64,
    /// Distinct table pages visited.
    pub tables_walked: u64,
    /// Leaves checked.
    pub leaves_checked: u64,
    /// Monitored regions whose watch coverage was checked.
    pub regions_checked: u64,
    /// Every invariant violation, in deterministic order.
    pub findings: Vec<Finding>,
    /// Static-vs-incremental comparison (Hypernel mode, post-LOCK).
    pub differential: Option<DifferentialReport>,
    /// Ownership-sanitizer section, when shadow tags are enabled.
    pub sanitizer: Option<SanitizerReport>,
}

impl StaticAuditReport {
    /// `true` when nothing is wrong: no findings, differential (if run)
    /// agrees, sanitizer (if enabled) saw no denial.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
            && self
                .differential
                .as_ref()
                .is_none_or(DifferentialReport::agrees)
            && self.sanitizer.as_ref().is_none_or(|s| s.stats.denied == 0)
    }

    /// Records a finding.
    pub fn finding(&mut self, check: CheckKind, detail: impl Into<String>, chain: Vec<ChainLink>) {
        self.findings.push(Finding {
            check,
            detail: detail.into(),
            chain,
        });
    }

    /// Serializes the report as one deterministic JSON object (`kind`
    /// [`REPORT_KIND`]).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::UInt(AUDIT_SCHEMA)),
            ("kind", Json::str(REPORT_KIND)),
            ("roots_walked", Json::UInt(self.roots_walked)),
            ("tables_walked", Json::UInt(self.tables_walked)),
            ("leaves_checked", Json::UInt(self.leaves_checked)),
            ("regions_checked", Json::UInt(self.regions_checked)),
            (
                "findings",
                Json::Array(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ];
        if let Some(diff) = &self.differential {
            fields.push(("differential", diff.to_json()));
        }
        if let Some(san) = &self.sanitizer {
            fields.push(("sanitizer", san.to_json()));
        }
        fields.push(("clean", Json::Bool(self.is_clean())));
        Json::obj(fields)
    }
}

/// One finding row of an ingested report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Invariant name (`wx-mapping`, `rogue-root`, ...).
    pub check: String,
    /// Human-readable specifics.
    pub detail: String,
    /// Rendered descriptor chain, when the finding has one.
    pub chain: Option<String>,
}

/// An ingested `hypernel-audit` report.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSummary {
    /// Translation roots walked.
    pub roots: u64,
    /// Distinct table pages visited.
    pub tables: u64,
    /// Leaves checked.
    pub leaves: u64,
    /// Monitored regions whose watch coverage was checked.
    pub regions: u64,
    /// Every finding, in report order.
    pub findings: Vec<AuditFinding>,
    /// Static-vs-incremental verdict (`None` when the differential did
    /// not run).
    pub differential_agrees: Option<bool>,
    /// `(checked, denied)` sanitizer counters, when enabled.
    pub sanitizer: Option<(u64, u64)>,
    /// The report's own overall verdict.
    pub clean: bool,
}

impl AuditSummary {
    /// Finding counts per invariant, in first-seen order.
    pub fn counts_by_check(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = Vec::new();
        for finding in &self.findings {
            match rows.iter_mut().find(|(check, _)| *check == finding.check) {
                Some((_, n)) => *n += 1,
                None => rows.push((finding.check.clone(), 1)),
            }
        }
        rows
    }

    /// Renders the summary as the human-facing text block.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "roots {}  tables {}  leaves {}  regions {}\n",
            self.roots, self.tables, self.leaves, self.regions
        );
        match self.differential_agrees {
            Some(true) => out.push_str("differential: static and incremental agree\n"),
            Some(false) => out.push_str("differential: DISAGREEMENT (verifier bug)\n"),
            None => {}
        }
        if let Some((checked, denied)) = self.sanitizer {
            out.push_str(&format!(
                "sanitizer: {checked} writes checked, {denied} denied\n"
            ));
        }
        if self.findings.is_empty() {
            out.push_str("no findings\n");
        } else {
            for (check, n) in self.counts_by_check() {
                out.push_str(&format!("{check:<18} {n:>3}\n"));
            }
            for f in &self.findings {
                let chain = f
                    .chain
                    .as_deref()
                    .map(|c| format!(" (via {c})"))
                    .unwrap_or_default();
                out.push_str(&format!("  [{}] {}{chain}\n", f.check, f.detail));
            }
        }
        out.push_str(if self.clean {
            "verdict: clean\n"
        } else {
            "verdict: NOT CLEAN\n"
        });
        out
    }
}

/// Ingests one audit-report document.
///
/// # Errors
///
/// Returns a message when the document is not a static-audit report.
pub fn ingest_report(doc: &Json) -> Result<AuditSummary, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(REPORT_KIND) {
        return Err(format!(
            "not a static-audit report (kind = {:?})",
            doc.get("kind").and_then(Json::as_str)
        ));
    }
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .map(|f| AuditFinding {
                    check: f
                        .get("check")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    detail: f
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    chain: f
                        .get("chain")
                        .and_then(Json::as_str)
                        .map(ToString::to_string),
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(AuditSummary {
        roots: count("roots_walked"),
        tables: count("tables_walked"),
        leaves: count("leaves_checked"),
        regions: count("regions_checked"),
        findings,
        differential_agrees: doc
            .get("differential")
            .and_then(|d| d.get("agrees"))
            .and_then(Json::as_bool),
        sanitizer: doc.get("sanitizer").map(|s| {
            (
                s.get("checked").and_then(Json::as_u64).unwrap_or(0),
                s.get("denied").and_then(Json::as_u64).unwrap_or(0),
            )
        }),
        clean: doc.get("clean").and_then(Json::as_bool).unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::addr::PhysAddr;

    #[test]
    fn clean_report_serializes_and_reports_clean() {
        let report = StaticAuditReport::default();
        assert!(report.is_clean());
        let json = report.to_json().to_string();
        let doc = Json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(REPORT_KIND));
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn findings_make_the_report_dirty() {
        let mut report = StaticAuditReport::default();
        report.finding(
            CheckKind::WxMapping,
            "writable+executable leaf at va 0x1000",
            vec![ChainLink {
                table: PhysAddr::new(0x2000),
                index: 1,
            }],
        );
        assert!(!report.is_clean());
        let rendered = report.findings[0].to_string();
        assert!(rendered.contains("wx-mapping"));
        assert!(rendered.contains("[1]"));
        let doc = Json::parse(&report.to_json().to_string()).expect("valid");
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn differential_disagreement_is_dirty() {
        let report = StaticAuditReport {
            differential: Some(DifferentialReport {
                static_findings: 1,
                incremental_violations: vec![],
                disagreements: vec!["static-only finding".to_string()],
            }),
            ..Default::default()
        };
        assert!(!report.is_clean());
    }

    const REPORT: &str = r#"{"schema":1,"kind":"hypernel-audit-report",
        "roots_walked":2,"tables_walked":971,"leaves_checked":491585,
        "regions_checked":43,
        "findings":[
            {"check":"wx-mapping","detail":"writable+executable leaf at va 0x817000","chain":"0x400000[0]"},
            {"check":"wx-mapping","detail":"writable+executable leaf at va 0x818000"},
            {"check":"rogue-root","detail":"active root 0x814000 is not trusted"}],
        "differential":{"static_findings":3,"incremental_violations":0,
                        "agrees":false,"disagreements":["static-only: x"]},
        "sanitizer":{"checked":100,"denied":2,"violations":[]},
        "clean":false}"#;

    #[test]
    fn ingests_and_aggregates_by_check() {
        let doc = Json::parse(REPORT).expect("valid");
        let summary = ingest_report(&doc).expect("ingests");
        assert_eq!(summary.roots, 2);
        assert_eq!(summary.tables, 971);
        assert_eq!(summary.findings.len(), 3);
        assert_eq!(summary.differential_agrees, Some(false));
        assert_eq!(summary.sanitizer, Some((100, 2)));
        assert!(!summary.clean);
        assert_eq!(
            summary.counts_by_check(),
            vec![("wx-mapping".to_string(), 2), ("rogue-root".to_string(), 1)]
        );
        let text = summary.render_text();
        assert!(text.contains("DISAGREEMENT"));
        assert!(text.contains("NOT CLEAN"));
        assert!(text
            .lines()
            .any(|l| l.starts_with("wx-mapping") && l.ends_with('2')));
    }

    #[test]
    fn clean_report_renders_clean() {
        let doc = Json::parse(
            r#"{"schema":1,"kind":"hypernel-audit-report","roots_walked":2,
                "tables_walked":9,"leaves_checked":10,"regions_checked":0,
                "findings":[],"clean":true}"#,
        )
        .expect("valid");
        let summary = ingest_report(&doc).expect("ingests");
        assert!(summary.clean);
        assert_eq!(summary.differential_agrees, None);
        assert!(summary.render_text().contains("verdict: clean"));
    }

    #[test]
    fn rejects_other_kinds() {
        let doc = Json::parse(r#"{"kind":"hypernel-run-report"}"#).expect("valid");
        assert!(ingest_report(&doc).is_err());
    }
}
