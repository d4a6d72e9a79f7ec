#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-analyze
//!
//! Turns the artifacts the simulation emits — JSONL event traces
//! (`hypernel sim run --trace-out t.jsonl --trace-format jsonl`),
//! machine-readable run reports (`--report-json r.json`) and the output
//! of the `hbench` host-time benchmark — into the analyses the paper's
//! evaluation and the perf gate are built on:
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
//!   configurable regression threshold over the cost-like metrics.
//! * [`bench`] — the host-time perf gate: reads hbench's output, checks
//!   each metric's median against a committed `BENCH_<date>.json` point
//!   within the bounds `BENCHMARK.json` declares, checks the simulated
//!   digests exactly, and writes the next point.
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
pub use bench::{gate, point_json, read_bounds, read_point, read_run, Bound, Gate, Run};
pub use compare::{compare_reports, flatten_metrics, Comparison, MetricDelta};
pub use forensics::{reconstruct_incidents, Incident, IncidentKind};
pub use timeline::{
    diff as diff_timelines, ingest as ingest_timeline, render_csv, render_markdown, Timeline,
    TimelineDelta,
};

/// Modeled core clock, cycles per microsecond (1.15 GHz) — mirrors the
/// simulator's cost model for human-readable latency rendering.
pub const CYCLES_PER_US: f64 = 1150.0;
