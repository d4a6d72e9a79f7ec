//! Unified telemetry for the Hypernel simulation.
//!
//! The paper's evaluation is built from counting privilege-boundary
//! events (hypercalls, TVM sysreg traps, MBM interrupts) and attributing
//! cycle overhead to them. This crate makes those events first-class:
//!
//! * [`counters`] — the counter-table row every stats struct declares
//!   its counters with, once: model or host, and the name each
//!   artifact gives it.
//! * [`event`] — cycle-stamped structured events spanning EL0/EL1/EL2 and
//!   the MBM, with span-style begin/end pairing.
//! * [`sink`] — [`RingSink`], the bounded raw-event ring.
//! * [`histogram`] — fixed-bucket log2 latency histograms with
//!   p50/p95/p99/max summaries.
//! * [`registry`] — the [`Telemetry`] recorder, the one pipeline every
//!   event takes: it keeps the raw events in its ring, pairs spans into
//!   latency histograms and counts point events, with a snapshot/diff
//!   API. The machine owns the one recorder of a run and lends it to
//!   its bus devices per transaction.
//! * [`export`] — JSONL and Chrome `trace_event` exporters (the latter
//!   loads directly into `chrome://tracing` / Perfetto).
//! * [`json`] — the dependency-free JSON writer/parser the exporters and
//!   round-trip tests build on.
//! * [`metrics`] / [`series`] / [`recorder`] — windowed time series: a
//!   catalog of always-simulated counters and gauges, a columnar
//!   per-cycle-window document (`metrics.jsonl`), and the polling
//!   recorder that buckets cumulative samples into windows.
//! * [`reader`] — the analysis-side entry point: lossy JSONL ingestion
//!   (skip-and-count, never abort) and the [`reader::SpanTree`] builder
//!   that reconstructs cross-EL span nesting from the flat stream.

#![forbid(unsafe_code)]

pub mod counters;
pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod reader;
pub mod recorder;
pub mod registry;
pub mod series;
pub mod sink;

pub use event::{Event, EventKind, PointKind, SpanKind, Track};
pub use histogram::{Histogram, HistogramSummary};
pub use metrics::{MetricDef, MetricsConfig, DEFAULT_WINDOW_CYCLES, STANDARD_METRICS};
pub use reader::{read_jsonl_lossy, LossyTrace, Mark, SpanNode, SpanTree};
pub use recorder::MetricsRecorder;
pub use registry::{Snapshot, Telemetry};
pub use series::{MetricsDoc, Series, SeriesKind, METRICS_KIND, METRICS_SCHEMA};
pub use sink::RingSink;
