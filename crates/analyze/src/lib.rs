#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-analyze
//!
//! Turns the telemetry artifacts the simulation emits — JSONL event
//! traces (`hypernel sim run --trace-out t.jsonl --trace-format jsonl`) and
//! machine-readable run reports (`--report-json r.json`) — into the
//! analyses the paper's evaluation is built on:
//!
//! * [`attribution`] — per-span self-vs-nested cycle accounting over the
//!   reconstructed span tree (a poor-man's profiler for the cost model),
//!   rendered as a sorted table and as collapsed stacks loadable by
//!   flamegraph tooling.
//! * [`forensics`] — causal reconstruction of every MBM incident:
//!   watched-word write → FIFO entry → drain → IRQ → kernel service →
//!   EL2 verdict, with end-to-end detection latency in cycles (the
//!   paper's Table 2 shape).
//! * [`compare`] — structural diff of two run reports with a
//!   configurable regression threshold over the cost-like metrics, the
//!   perf gate CI runs on every push.
//! * [`bench`] — aggregation of `crates/bench` machine-readable
//!   summaries into dated `BENCH_<date>.json` trajectory artifacts.
//! * [`audit`] — ingestion of `hypernel-audit` static-audit reports
//!   with per-invariant finding breakdowns.
//! * [`coverage`] — coverage-atlas rendering (per-group tables,
//!   unfired-rule table, uncovered-feature lists) and the baseline
//!   diff the CI coverage gate fails on.
//! * [`staticcov`] — static-coverage artifact rendering and the
//!   static-vs-dynamic diff (soundness breaches, precision gap,
//!   steering targets) the CI soundness gate fails on.
//! * [`timeline`] — rendering and cross-run diffing of windowed
//!   `metrics.jsonl` time series, including the ones embedded in
//!   `blackbox.json` flight-recorder dumps.
//!
//! The `hypernel analyze` command fronts all of these; see `hypernel analyze help`.

pub mod attribution;
pub mod audit;
pub mod bench;
pub mod campaign;
pub mod compare;
pub mod coverage;
pub mod forensics;
pub mod staticcov;
pub mod timeline;

pub use attribution::{attribute, Attribution, AttributionRow};
pub use audit::{ingest_report, AuditFinding, AuditSummary};
pub use bench::{read_summaries_dir, trajectory_json, BenchEntry};
pub use campaign::{diff_campaigns, ingest_records, CampaignFinding, CampaignRow};
pub use compare::{compare_reports, flatten_metrics, Comparison, MetricDelta};
pub use coverage::{
    diff_atlases, ingest_atlas, per_group, render_report, Atlas, CoverageDiff, GroupCoverage,
};
pub use forensics::{reconstruct_incidents, Incident, IncidentKind};
pub use staticcov::{
    ingest_static, render_diff, render_static, static_dynamic_diff, StaticCov, StaticDynamicDiff,
};
pub use timeline::{
    diff as diff_timelines, ingest as ingest_timeline, render_csv, render_markdown, Timeline,
    TimelineDelta,
};

/// Modeled core clock, cycles per microsecond (1.15 GHz) — mirrors the
/// simulator's cost model for human-readable latency rendering.
pub const CYCLES_PER_US: f64 = 1150.0;
