//! Declarative attack/fault scenarios.
//!
//! A [`Scenario`] composes an attacker program from the kernel crate's
//! attack primitives ([`AttackStep`]) with seeded background workload,
//! a protection mode, optional MBM configuration pressure, and a
//! [`FaultPlan`] injected at the machine/MBM boundary. Scenarios are
//! built either in Rust (builder methods) or loaded from the TOML
//! subset in `corpus/*.toml` (see `docs/CAMPAIGN.md` for the schema).
//!
//! The loader is strict and is the schema: every key it does not read,
//! every wrong-typed value and every out-of-range value is a load
//! error, and one [`ScenarioError`] lists them all, each with its
//! location. Step and fault parameters come from the kind tables
//! beside their enums ([`AttackStep::params_mut`],
//! [`FaultKind::param`]), which [`Scenario::to_toml`] reads too.

use std::path::Path;

use hypernel::Mode;
use hypernel_compose::ComposeDoc;
use hypernel_kernel::kernel::MonitorMode;
use hypernel_kernel::{AttackStep, StepParam};
use hypernel_machine::{FaultKind, FaultPlan, FaultSpec};
use hypernel_telemetry::metrics::{self, MetricsConfig, DEFAULT_WINDOW_CYCLES};

use crate::toml::{self, Fields, LoadError, TomlTable};

/// What a step's outcome should look like under this scenario's mode —
/// the ground truth the `outcomes` and `detection` oracles check
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExpect {
    /// The protection must refuse the operation.
    Blocked,
    /// The write completes and the MBM pipeline must flag it.
    Detected,
    /// The write completes and nothing watches it (baseline modes).
    Undetected,
    /// The write completes but a *declared fault* masks detection: the
    /// detection oracle still flags the gap, marked expected, so the
    /// run passes while the record shows exactly what was missed.
    Masked,
    /// No expectation (exploratory steps).
    Any,
}

impl StepExpect {
    /// Every expectation, in declaration order.
    pub const ALL: [StepExpect; 5] = [
        Self::Blocked,
        Self::Detected,
        Self::Undetected,
        Self::Masked,
        Self::Any,
    ];

    /// Stable name used in scenario files and run records.
    pub fn name(self) -> &'static str {
        match self {
            Self::Blocked => "blocked",
            Self::Detected => "detected",
            Self::Undetected => "undetected",
            Self::Masked => "masked",
            Self::Any => "any",
        }
    }

    /// Inverse of [`StepExpect::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == s)
    }
}

/// Windowed-metrics recording configuration (the optional `[metrics]`
/// scenario section). The engine records the full standard catalog at
/// the default window width when the section is absent; this spec only
/// *tunes* recording, it never changes simulated results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSpec {
    /// Window width in simulated cycles (`window-cycles`, > 0).
    pub window_cycles: u64,
    /// Series subset to record (`series`), or `None` for the full
    /// standard catalog.
    pub series: Option<Vec<String>>,
}

impl Default for MetricsSpec {
    fn default() -> Self {
        Self {
            window_cycles: DEFAULT_WINDOW_CYCLES,
            series: None,
        }
    }
}

impl MetricsSpec {
    /// The recorder configuration this spec describes.
    pub fn to_config(&self) -> MetricsConfig {
        MetricsConfig {
            window_cycles: self.window_cycles,
            enabled: self.series.clone(),
        }
    }
}

/// One attacker action plus its expected outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// The attack primitive to run.
    pub step: AttackStep,
    /// Expected outcome under this scenario's mode.
    pub expect: StepExpect,
}

/// A complete adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name (record key; corpus file stem by convention).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Protection configuration the attack runs against.
    pub mode: Mode,
    /// Monitoring granularity (Hypernel mode).
    pub monitor: MonitorMode,
    /// Background workload operations interleaved before each attack
    /// step (seed-driven choice of operation).
    pub background_ops: u64,
    /// Upper bound, in cycles, on write→detection latency (checked by
    /// the `latency` oracle when a step is detected).
    pub latency_bound: Option<u64>,
    /// Override for the MBM snoop-FIFO capacity (overflow-pressure
    /// scenarios).
    pub fifo_capacity: Option<usize>,
    /// Override for the MBM translator drain budget per transaction.
    pub drain_budget: Option<usize>,
    /// The attacker program.
    pub steps: Vec<StepSpec>,
    /// Faults injected at the machine/MBM boundary.
    pub faults: FaultPlan,
    /// Windowed-metrics recording tuning (`[metrics]`), if the
    /// scenario overrides the defaults.
    pub metrics: Option<MetricsSpec>,
    /// Composed multi-domain system description (`[compose]` /
    /// `[[domain]]` / `[[channel]]` / `[[region]]`), lowered onto the
    /// kernel right after boot.
    pub compose: Option<ComposeDoc>,
}

impl Scenario {
    /// Starts a scenario running under `mode`.
    pub fn new(name: impl Into<String>, mode: Mode) -> Self {
        Self {
            name: name.into(),
            description: String::new(),
            mode,
            monitor: MonitorMode::SensitiveFields,
            background_ops: 0,
            latency_bound: None,
            fifo_capacity: None,
            drain_budget: None,
            steps: Vec::new(),
            faults: FaultPlan::new(),
            metrics: None,
            compose: None,
        }
    }

    /// Appends an attack step with its expected outcome.
    pub fn step(mut self, step: AttackStep, expect: StepExpect) -> Self {
        self.steps.push(StepSpec { step, expect });
        self
    }

    /// Interleaves `n` seeded background operations before each step.
    pub fn background(mut self, n: u64) -> Self {
        self.background_ops = n;
        self
    }

    /// Bounds write→detection latency (cycles).
    pub fn latency_bound(mut self, cycles: u64) -> Self {
        self.latency_bound = Some(cycles);
        self
    }

    /// Shrinks the MBM snoop FIFO (overflow pressure).
    pub fn fifo_capacity(mut self, entries: usize) -> Self {
        self.fifo_capacity = Some(entries);
        self
    }

    /// Caps MBM translations per bus transaction (translator pressure).
    pub fn drain_budget(mut self, per_txn: usize) -> Self {
        self.drain_budget = Some(per_txn);
        self
    }

    /// Adds a fault to the injection schedule.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.faults = self.faults.with(spec);
        self
    }

    /// Tunes windowed-metrics recording (window width, series subset).
    pub fn metrics(mut self, spec: MetricsSpec) -> Self {
        self.metrics = Some(spec);
        self
    }

    /// Attaches a composed multi-domain system description, lowered
    /// right after boot.
    pub fn compose(mut self, doc: ComposeDoc) -> Self {
        self.compose = Some(doc);
        self
    }

    /// Loads a scenario from its TOML form.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for a syntax error, or listing every
    /// finding: missing required fields, unknown kinds, keys and
    /// sections, wrong-typed values and out-of-range values.
    pub fn from_toml(input: &str) -> Result<Self, ScenarioError> {
        let doc = toml::parse(input)?;
        let mut problems = Vec::new();
        let scenario = Self::from_table(&doc, &mut problems);
        if problems.is_empty() {
            Ok(scenario)
        } else {
            Err(LoadError { problems })
        }
    }

    fn from_table(doc: &TomlTable, problems: &mut Vec<String>) -> Self {
        let mut top = Fields::new(doc, "top level", problems);
        let name = top.required("name");
        let mode = top.choice("mode", &Mode::ALL, |m| m.key());
        let mut scenario = Scenario::new(name, mode.unwrap_or(Mode::Hypernel));
        scenario.description = top.str("description").unwrap_or_default().to_string();
        scenario.monitor = top
            .choice("monitor", &MonitorMode::ALL, |m| m.name())
            .unwrap_or(MonitorMode::SensitiveFields);
        scenario.background_ops = top.u64("background-ops").unwrap_or(0);
        scenario.latency_bound = top.u64("latency-bound");
        scenario.fifo_capacity = top
            .u64_in("fifo-capacity", 1..=MAX_FIFO_CAPACITY)
            .map(|v| v as usize);
        scenario.drain_budget = top.u64("drain-budget").map(|v| v as usize);
        if doc.array("step").is_empty() {
            top.problem("a scenario needs at least one [[step]]");
        }

        for (i, t) in doc.array("step").iter().enumerate() {
            let mut f = Fields::new(t, format!("step {}", i + 1), problems);
            if let Some(spec) = parse_step(&mut f) {
                scenario.steps.push(spec);
                f.finish();
            }
        }
        for (i, t) in doc.array("fault").iter().enumerate() {
            let mut f = Fields::new(t, format!("fault {}", i + 1), problems);
            if let Some(spec) = parse_fault(&mut f) {
                scenario.faults = scenario.faults.with(spec);
                f.finish();
            }
        }
        if let Some(t) = doc.table("metrics") {
            let mut f = Fields::new(t, "[metrics]", problems);
            scenario.metrics = Some(parse_metrics(&mut f));
            f.finish();
        }
        match ComposeDoc::from_doc(doc) {
            Ok(compose) => scenario.compose = compose,
            Err(e) => problems.extend(e.problems),
        }
        Fields::new(doc, "top level", problems).finish();
        scenario
    }

    /// Serializes the scenario back into its TOML form, emitting only
    /// keys the loader reads, so `explore` mutants land on disk
    /// ready-to-lint. Inverse of [`Scenario::from_toml`]:
    /// `from_toml(&s.to_toml())` reproduces `s` (round-trip tested).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", toml_str(&self.description));
        }
        let _ = writeln!(out, "mode = \"{}\"", self.mode.key());
        if self.monitor != MonitorMode::SensitiveFields {
            let _ = writeln!(out, "monitor = \"{}\"", self.monitor.name());
        }
        if self.background_ops > 0 {
            let _ = writeln!(out, "background-ops = {}", self.background_ops);
        }
        if let Some(bound) = self.latency_bound {
            let _ = writeln!(out, "latency-bound = {bound}");
        }
        if let Some(capacity) = self.fifo_capacity {
            let _ = writeln!(out, "fifo-capacity = {capacity}");
        }
        if let Some(budget) = self.drain_budget {
            let _ = writeln!(out, "drain-budget = {budget}");
        }
        if let Some(metrics) = &self.metrics {
            let _ = writeln!(out, "\n[metrics]");
            let _ = writeln!(out, "window-cycles = {}", metrics.window_cycles);
            if let Some(series) = &metrics.series {
                let items: Vec<String> = series.iter().map(|s| toml_str(s)).collect();
                let _ = writeln!(out, "series = [{}]", items.join(", "));
            }
        }
        if let Some(compose) = &self.compose {
            let _ = write!(out, "\n{}", compose.to_toml());
        }
        for spec in &self.steps {
            let _ = writeln!(out, "\n[[step]]");
            let _ = writeln!(out, "kind = \"{}\"", spec.step.name());
            for (key, param) in spec.step.clone().params_mut() {
                let _ = match param {
                    StepParam::Int(v) => writeln!(out, "{key} = {v}"),
                    StepParam::Text(s) => writeln!(out, "{key} = {}", toml_str(s)),
                };
            }
            let _ = writeln!(out, "expect = \"{}\"", spec.expect.name());
        }
        for fault in &self.faults.specs {
            let _ = writeln!(out, "\n[[fault]]");
            let _ = writeln!(out, "kind = \"{}\"", fault.kind.name());
            let _ = writeln!(out, "at = {}", fault.at);
            if fault.count == u64::MAX {
                let _ = writeln!(out, "count = -1");
            } else {
                let _ = writeln!(out, "count = {}", fault.count);
            }
            if let Some((key, default)) = fault.kind.param() {
                // `call`'s default, "any" (u64::MAX), has no literal
                // TOML spelling — omit it to mean the same.
                if fault.param != default || i64::try_from(default).is_ok() {
                    let _ = writeln!(out, "{key} = {}", fault.param);
                }
            }
        }
        out
    }
}

/// The largest MBM snoop FIFO a scenario may ask for (the hardware
/// default is 16 entries).
const MAX_FIFO_CAPACITY: u64 = 1 << 16;

/// Loads every `*.toml` scenario under `dir`, sorted by file name so
/// every artifact derived from the corpus is stable.
///
/// # Errors
///
/// Returns a message naming the offending path when the directory is
/// unreadable or holds no scenarios, or a file is unreadable or fails
/// to load.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, String> {
    let paths = toml::toml_files(dir)?;
    if paths.is_empty() {
        return Err(format!("no `*.toml` scenarios in `{}`", dir.display()));
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            Scenario::from_toml(&text).map_err(|e| format!("`{}`: {e}", path.display()))
        })
        .collect()
}

/// Quotes a TOML basic string. The crate's TOML subset has no escape
/// sequences (the parser rejects embedded quotes outright), so any
/// scenario that *parsed* serializes cleanly; an embedded `"` from a
/// Rust-built scenario is replaced to keep the output parseable.
fn toml_str(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

fn parse_metrics(f: &mut Fields) -> MetricsSpec {
    let mut spec = MetricsSpec::default();
    if let Some(window) = f.u64_in("window-cycles", 1..=u64::MAX) {
        spec.window_cycles = window;
    }
    spec.series = f.strings("series");
    for name in spec.series.iter().flatten() {
        if metrics::metric(name).is_none() {
            let known: Vec<&str> = metrics::metric_names().collect();
            f.problem(format_args!(
                "unknown series `{name}`; known: {}",
                known.join(", ")
            ));
        }
    }
    spec
}

/// The step a `[[step]]` table declares, or `None` (with a finding)
/// when its kind is missing or unknown — its other keys are then
/// unknowable, so the caller skips the unread-key check.
fn parse_step(f: &mut Fields) -> Option<StepSpec> {
    let Some(mut step) = f.choice("kind", &AttackStep::defaults(), AttackStep::name) else {
        f.require("kind");
        return None;
    };
    for (key, param) in step.params_mut() {
        match param {
            StepParam::Int(v) => *v = f.u64(key).unwrap_or(*v),
            StepParam::Text(s) => {
                if let Some(text) = f.str(key) {
                    *s = text.to_string();
                }
            }
        }
    }
    let expect = f
        .choice("expect", &StepExpect::ALL, |e| e.name())
        .unwrap_or(StepExpect::Any);
    Some(StepSpec { step, expect })
}

/// The fault a `[[fault]]` table declares; `None` as for
/// [`parse_step`].
fn parse_fault(f: &mut Fields) -> Option<FaultSpec> {
    let Some(kind) = f.choice("kind", &FaultKind::ALL, |k| k.name()) else {
        f.require("kind");
        return None;
    };
    let at = f.u64_in("at", 1..=u64::MAX).unwrap_or(1);
    // `count = -1` reads as "every occurrence from `at` on".
    let count = match f.int("count") {
        None => 1,
        Some(-1) => u64::MAX,
        Some(n) => u64::try_from(n).unwrap_or_else(|_| {
            f.problem("`count` must be ≥ 0, or -1 for every occurrence from `at` on");
            1
        }),
    };
    let mut spec = FaultSpec::of_kind(kind, at, count);
    if let Some((key, _)) = kind.param() {
        spec.param = f.u64(key).unwrap_or(spec.param);
    }
    Some(spec)
}

/// A scenario loading failure: every finding, each with its location.
pub type ScenarioError = LoadError;

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn builder_and_toml_agree() {
        let toml = r#"
            name = "demo"
            description = "escalate then patch"
            mode = "hypernel"
            background-ops = 3
            latency-bound = 250000

            [[step]]
            kind = "cred-escalation"
            pid = 1
            expect = "detected"

            [[step]]
            kind = "text-patch"
            expect = "blocked"

            [[fault]]
            kind = "drop-irq"
            at = 1
            count = 1
        "#;
        let parsed = Scenario::from_toml(toml).expect("parses");
        let built = Scenario {
            description: "escalate then patch".into(),
            ..Scenario::new("demo", Mode::Hypernel)
        }
        .background(3)
        .latency_bound(250_000)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
        .step(AttackStep::TextPatch, StepExpect::Blocked)
        .fault(FaultSpec::drop_irq(1, 1));
        assert_eq!(parsed, built);
    }

    #[test]
    fn fault_params_map_per_kind() {
        let toml = r#"
            name = "faults"
            [[step]]
            kind = "ttbr-redirect"
            [[fault]]
            kind = "delay-irq"
            at = 2
            count = -1
            steps = 7
            [[fault]]
            kind = "flip-snoop-addr"
            bit = 5
            [[fault]]
            kind = "lose-hypercall"
            call = 0x130
        "#;
        let s = Scenario::from_toml(toml).expect("parses");
        assert_eq!(s.faults.specs.len(), 3);
        assert_eq!(s.faults.specs[0], FaultSpec::delay_irq(2, u64::MAX, 7));
        assert_eq!(s.faults.specs[1], FaultSpec::flip_snoop_addr(1, 1, 5));
        assert_eq!(s.faults.specs[2], FaultSpec::lose_hypercall(1, 1, 0x130));
    }

    #[test]
    fn metrics_section_parses_and_rejects_bad_shapes() {
        let toml = r#"
            name = "m"
            [[step]]
            kind = "ttbr-redirect"
            [metrics]
            window-cycles = 20000
            series = ["hypercalls", "mbm-fifo-depth"]
        "#;
        let s = Scenario::from_toml(toml).expect("parses");
        let spec = s.metrics.expect("metrics spec");
        assert_eq!(spec.window_cycles, 20_000);
        assert_eq!(
            spec.series.as_deref(),
            Some(&["hypercalls".to_string(), "mbm-fifo-depth".to_string()][..])
        );
        assert_eq!(spec.to_config().window_cycles, 20_000);

        // Absent section → None; engine falls back to defaults.
        let bare = Scenario::from_toml("name = \"x\"\n[[step]]\nkind = \"text-patch\"").unwrap();
        assert_eq!(bare.metrics, None);

        for bad in [
            "[metrics]\nwindow-cycles = 0",
            "[metrics]\nwindow-cycles = \"wide\"",
            "[metrics]\nseries = 7",
            "[metrics]\nseries = [1, 2]",
        ] {
            let text = format!("name = \"x\"\n[[step]]\nkind = \"text-patch\"\n{bad}");
            let e = Scenario::from_toml(&text).unwrap_err();
            assert!(e.to_string().contains("[metrics]"), "{e}");
        }
    }

    #[test]
    fn to_toml_round_trips() {
        let full = Scenario {
            description: "every knob at once".into(),
            ..Scenario::new("round-trip", Mode::Hypernel)
        }
        .background(5)
        .latency_bound(250_000)
        .fifo_capacity(4)
        .drain_budget(1)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
        .step(
            AttackStep::DentryHijack {
                path: "/bin/sh".to_string(),
                rogue_inode: 0xBAD,
            },
            StepExpect::Masked,
        )
        .step(AttackStep::TtbrRedirect, StepExpect::Blocked)
        .fault(FaultSpec::delay_irq(2, u64::MAX, 7))
        .fault(FaultSpec::lose_hypercall(1, 1, u64::MAX))
        .metrics(MetricsSpec {
            window_cycles: 20_000,
            series: Some(vec!["hypercalls".to_string()]),
        });
        let reparsed = Scenario::from_toml(&full.to_toml()).expect("round-trips");
        assert_eq!(reparsed, full);

        // Every shipped scenario and description must survive the round
        // trip too.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for dir in ["corpus", "examples/scenarios"] {
            for loaded in load_corpus(&root.join(dir)).expect("shipped scenarios load") {
                let again = Scenario::from_toml(&loaded.to_toml())
                    .unwrap_or_else(|e| panic!("{} re-parses: {e}", loaded.name));
                assert_eq!(again, loaded, "{} round-trips", loaded.name);
            }
        }
        for path in toml::toml_files(&root.join("examples/compose")).expect("readable") {
            let source = std::fs::read_to_string(&path).expect("readable");
            let doc = ComposeDoc::from_toml(&source).expect("description loads");
            assert_eq!(doc.validate(), Vec::<String>::new(), "{}", path.display());
            assert_eq!(ComposeDoc::from_toml(&doc.to_toml()), Ok(doc));
        }
    }

    #[test]
    fn rejects_unknowns_with_context() {
        assert!(Scenario::from_toml("name = \"x\"").is_err(), "no steps");
        let e =
            Scenario::from_toml("name = \"x\"\n[[step]]\nkind = \"warp-core-breach\"").unwrap_err();
        assert!(e.to_string().contains("step 1"), "{e}");
        assert!(e.to_string().contains("warp-core-breach"));
        let e =
            Scenario::from_toml("name = \"x\"\nmode = \"xen\"\n[[step]]\nkind = \"text-patch\"")
                .unwrap_err();
        assert!(e.to_string().contains("xen"));
    }

    /// Compose sections carrying every compose key off its default,
    /// with the names the test steps' parameters (each kind's default
    /// with `2` appended) reference.
    const COMPOSE: &str = r#"
        [compose]
        watch = false
        [[domain]]
        name = "server2"
        role = "server"
        priority = 3
        tasks = 2
        [[domain]]
        name = "client2"
        [[channel]]
        name = "chan2"
        from = "client2"
        to = "server2"
        capacity = 8
        [[region]]
        name = "shared2"
        owner = "server2"
        share = ["client2"]
        pages = 2
        protect = true
        va = 0x60100000
    "#;

    /// Every step kind × every fault kind, each parameter off its
    /// default: `to_toml` writes every key the kind tables declare, the
    /// loader reads each one back (round trip), the result lints clean,
    /// and any key the kind does not declare — a typo, or another
    /// kind's parameter — is a load error naming its location.
    #[test]
    fn every_step_and_fault_kind_round_trips_and_rejects_foreign_keys() {
        let compose = ComposeDoc::from_toml(COMPOSE).expect("parses");
        let step_keys: BTreeSet<&str> = AttackStep::defaults()
            .iter_mut()
            .flat_map(|s| s.params_mut().into_iter().map(|(key, _)| key))
            .chain(["pids"])
            .collect();
        let fault_keys: BTreeSet<&str> = FaultKind::ALL
            .iter()
            .filter_map(|k| k.param().map(|(key, _)| key))
            .chain(["stepss"])
            .collect();
        for default in AttackStep::defaults() {
            for kind in FaultKind::ALL {
                let mut step = default.clone();
                let mut own_step_keys = BTreeSet::new();
                for (key, param) in step.params_mut() {
                    own_step_keys.insert(key);
                    match param {
                        StepParam::Int(v) => *v += 1,
                        StepParam::Text(s) => s.push('2'),
                    }
                }
                let mut fault = FaultSpec::of_kind(kind, 2, 3);
                if kind.param().is_some() {
                    fault.param = fault.param.wrapping_add(1);
                }
                let scenario = Scenario::new("demo", Mode::Hypernel)
                    .compose(compose.clone())
                    .step(step, StepExpect::Any)
                    .fault(fault);
                let text = scenario.to_toml();
                assert_eq!(Scenario::from_toml(&text), Ok(scenario), "{text}");
                assert_eq!(
                    crate::lint::lint_source(Some("demo"), &text),
                    Vec::<String>::new()
                );

                for key in step_keys.difference(&own_step_keys) {
                    let dirty = text.replace("expect = ", &format!("{key} = 1\nexpect = "));
                    let e = Scenario::from_toml(&dirty).unwrap_err();
                    assert_eq!(e.problems, [format!("step 1: unknown key `{key}`")]);
                }
                let own_fault_key = kind.param().map(|(key, _)| key);
                for key in fault_keys.iter().filter(|k| Some(**k) != own_fault_key) {
                    let dirty = text.replace("at = 2", &format!("at = 2\n{key} = 1"));
                    let e = Scenario::from_toml(&dirty).unwrap_err();
                    assert_eq!(e.problems, [format!("fault 1: unknown key `{key}`")]);
                }
            }
        }
    }

    #[test]
    fn unknown_keys_and_sections_are_load_errors_at_every_level() {
        let clean = format!(
            "name = \"demo\"\nbackground-ops = 2\n[metrics]\nwindow-cycles = 50000\n\
             {COMPOSE}\n[[step]]\nkind = \"text-patch\"\n[[fault]]\nkind = \"drop-irq\""
        );
        Scenario::from_toml(&clean).expect("clean loads");
        for (after, typo, finding) in [
            (
                "background-ops = 2",
                "latency_bound = 1",
                "top level: unknown key `latency_bound`",
            ),
            (
                "window-cycles = 50000",
                "window_cycles = 9",
                "[metrics]: unknown key `window_cycles`",
            ),
            (
                "watch = false",
                "watchdog = 1",
                "[compose]: unknown key `watchdog`",
            ),
            (
                "role = \"server\"",
                "prio = 3",
                "domain 1: unknown key `prio`",
            ),
            (
                "to = \"server2\"",
                "depth = 4",
                "channel 1: unknown key `depth`",
            ),
            (
                "share = [\"client2\"]",
                "frames = 2",
                "region 1: unknown key `frames`",
            ),
            (
                "kind = \"drop-irq\"",
                "[telemetry]\nring = 1",
                "top level: unknown section `[telemetry]`",
            ),
            (
                "kind = \"drop-irq\"",
                "[[probe]]\nkind = \"x\"",
                "top level: unknown section `[[probe]]`",
            ),
        ] {
            let dirty = clean.replacen(after, &format!("{after}\n{typo}"), 1);
            let e = Scenario::from_toml(&dirty).unwrap_err();
            assert_eq!(e.problems, [finding], "{dirty}");
        }
    }

    #[test]
    fn wrong_typed_and_out_of_range_values_are_load_errors_naming_the_key() {
        for (top, section, finding) in [
            (
                "background-ops = \"6\"",
                "",
                "top level: `background-ops` must be a non-negative integer",
            ),
            (
                "fifo-capacity = 0",
                "",
                "top level: `fifo-capacity` must be in 1..=65536",
            ),
            ("mode = 3", "", "top level: `mode` must be a string"),
            (
                "",
                "[[step]]\nkind = \"cred-escalation\"\npid = \"2\"",
                "step 2: `pid` must be a non-negative integer",
            ),
            (
                "",
                "[[step]]\nkind = \"atra-dentry\"\npath = 7",
                "step 2: `path` must be a string",
            ),
            ("", "[[step]]\nexpect = \"any\"", "step 2: missing `kind`"),
            (
                "",
                "[[fault]]\nkind = \"delay-irq\"\nsteps = \"2\"",
                "fault 1: `steps` must be a non-negative integer",
            ),
            (
                "",
                "[[fault]]\nkind = \"drop-irq\"\ncount = -3",
                "fault 1: `count` must be ≥ 0, or -1 for every occurrence from `at` on",
            ),
            (
                "",
                "[[fault]]\nkind = \"drop-irq\"\nat = 0",
                "fault 1: `at` must be ≥ 1",
            ),
            (
                "",
                "[[region]]\nname = \"r\"\nowner = \"d\"\npages = 0",
                "region 1: `pages` must be in 1..=524288",
            ),
            (
                "",
                "[metrics]\nseries = [\"l0-hits\"]",
                "[metrics]: unknown series `l0-hits`",
            ),
        ] {
            let text = format!("name = \"x\"\n{top}\n[[step]]\nkind = \"text-patch\"\n{section}");
            let e = Scenario::from_toml(&text).unwrap_err();
            assert_eq!(e.problems.len(), 1, "{e}");
            assert!(e.problems[0].starts_with(finding), "{e}");
        }
        // One error lists every finding, in document order.
        let text = "mode = \"xen\"\nfifo-capacity = 0\n[[step]]\nkind = \"text-patch\"\npids = 1";
        let e = Scenario::from_toml(text).unwrap_err();
        assert_eq!(e.problems.len(), 4, "{e}");
        assert_eq!(e.problems[0], "top level: missing `name`");
        assert!(
            e.problems[1].starts_with("top level: unknown mode `xen` (hypernel | kvm | native)")
        );
        assert_eq!(e.problems[3], "step 1: unknown key `pids`");
    }
}
