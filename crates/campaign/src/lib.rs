//! Adversarial campaign engine for the Hypernel reproduction.
//!
//! The rest of the workspace asks "does the pipeline work?"; this crate
//! asks "when does it stop working?". A **scenario** declares an
//! attacker program (composed from `hypernel-kernel`'s attack
//! primitives), background workload noise, the protection mode, MBM
//! pressure overrides, and a schedule of injected hardware faults. A
//! **campaign** sweeps scenarios across many seeds in parallel, and
//! **oracles** judge every run: W⊕X must hold, the secure region must
//! stay unmapped, every surviving watched-word write must be detected
//! within the latency bound.
//!
//! The moving parts:
//!
//! - [`scenario`] — the declarative model (Rust builder + TOML loader);
//! - [`engine`] — one deterministic `(scenario, seed)` run;
//! - [`oracle`] — the invariant checks and their expected-violation
//!   escape hatch for declared fault masks;
//! - [`sweep`] — the multi-seed thread-pool sweep with deterministic,
//!   scheduling-independent output;
//! - [`minimize`] — reduction of a failing run's fault schedule to a
//!   minimal repro;
//! - [`blackbox`] — the always-on flight recorder and the
//!   `blackbox.json` post-mortem dump a failing run leaves behind;
//! - [`record`] — `campaign.jsonl` records, the one per-scenario
//!   summary aggregator, and the summary reader and baseline diff
//!   behind `hypernel analyze campaign`;
//! - [`coverage`] — structural coverage of a run (which model behaviors
//!   it exercised), merged across a sweep into the `coverage.json`
//!   atlas, plus the atlas reader `hypernel analyze coverage` renders
//!   and gates with;
//! - [`staticheck`] — static reachability analysis and the
//!   `static-coverage.json` writer; [`staticcov`] reads that artifact
//!   back for `hypernel analyze staticcov`;
//! - [`explore`] — the coverage-guided mutation loop: corpus mutants
//!   that reach new `(outcome, fault, oracle, mode)` tuples are emitted
//!   as ready-to-lint scenario TOMLs;
//! - [`lint`] — the corpus linter (the strict loader's findings, one
//!   message each, plus semantic smells);
//! - [`toml`] — the dependency-free parser for the scenario file
//!   subset (re-exported from `hypernel-compose`, which shares the
//!   same subset for system descriptions).
//!
//! Scenarios may also embed a `hypernel-compose` system description
//! (`[compose]` / `[[domain]]` / `[[channel]]` / `[[region]]`): the
//! engine lowers it right after boot, before any attack step runs, so
//! composed multi-domain systems flow through the same deterministic
//! `(scenario, seed)` pipeline.

#![forbid(unsafe_code)]

pub mod blackbox;
pub mod coverage;
pub mod engine;
pub mod explore;
pub mod lint;
pub mod minimize;
pub mod oracle;
pub mod record;
pub mod scenario;
pub mod staticcov;
pub mod staticheck;
pub mod sweep;

pub use hypernel_compose::toml;

pub use blackbox::{BLACKBOX_KIND, BLACKBOX_SCHEMA, FLIGHT_RING_CAPACITY};
pub use coverage::{
    atlas_json, coverage_of_run, known_features, CoverageMap, COVERAGE_KIND, COVERAGE_SCHEMA,
};
pub use engine::{boot_system, run_one, run_one_full, run_one_logged, EngineError};
pub use explore::{explore, EmittedScenario, ExploreConfig, ExploreError, ExploreOutcome};
pub use lint::{lint_dir, lint_source, LintIssue};
pub use minimize::{minimize, MinimizeError, MinimizeOutcome};
pub use oracle::{evaluate, OracleInput};
pub use record::{
    summarize, summary_json, RunRecord, ScenarioSummary, StepRecord, Violation, CAMPAIGN_SCHEMA,
    RECORD_KIND, SUMMARY_KIND,
};
pub use scenario::{load_corpus, MetricsSpec, Scenario, ScenarioError, StepExpect, StepSpec};
pub use sweep::{
    run_sweep, run_sweep_with, SweepConfig, SweepFailure, SweepOutcome, SweepProgress,
};
