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
//! * [`timeline`] — rendering and cross-run diffing of windowed
//!   `metrics.jsonl` time series, including the ones embedded in
//!   `blackbox.json` flight-recorder dumps.
//!
//! The readers of the campaign, coverage and static-coverage artifacts
//! live beside their writers in `hypernel-campaign`, and the
//! audit-report reader in `hypernel-audit`. The `hypernel analyze`
//! command fronts all of them; see `hypernel analyze help`.

pub mod attribution;
pub mod bench;
pub mod compare;
pub mod forensics;
pub mod timeline;

pub use attribution::{attribute, Attribution, AttributionRow};
pub use bench::{read_summaries_dir, trajectory_json, BenchEntry};
pub use compare::{compare_reports, flatten_metrics, Comparison, MetricDelta};
pub use forensics::{reconstruct_incidents, Incident, IncidentKind};
pub use timeline::{
    diff as diff_timelines, ingest as ingest_timeline, render_csv, render_markdown, Timeline,
    TimelineDelta,
};

/// Modeled core clock, cycles per microsecond (1.15 GHz) — mirrors the
/// simulator's cost model for human-readable latency rendering.
pub const CYCLES_PER_US: f64 = 1150.0;
