//! Run reports: consolidated statistics snapshots, latency summaries
//! and machine-readable (JSON) run artifacts.

use hypernel_kernel::kernel::KernelStats;
use hypernel_machine::cache::CacheStats;
use hypernel_machine::cost::CostModel;
use hypernel_machine::fault::FaultStats;
use hypernel_machine::machine::MachineStats;
use hypernel_machine::tlb::TlbStats;
use hypernel_mbm::MbmStats;
use hypernel_telemetry::counters::{json_object, samples};
use hypernel_telemetry::json::Json;
use hypernel_telemetry::{HistogramSummary, Snapshot};

use crate::system::{Mode, System};

/// Schema version stamped into every JSON run artifact. Bump when a
/// field is renamed or its meaning changes; additions are
/// backwards-compatible and do not bump it. `hypernel analyze compare`
/// warns when two reports disagree on this.
pub const REPORT_SCHEMA: u64 = 1;

/// `kind` tag stamped into every JSON run artifact, so downstream
/// tooling can tell a run report from a bench summary or trajectory.
pub const REPORT_KIND: &str = "hypernel-run-report";

/// A consolidated statistics snapshot of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Which configuration produced it.
    pub mode: Mode,
    /// Elapsed cycles at snapshot time.
    pub cycles: u64,
    /// Machine event counters.
    pub machine: MachineStats,
    /// Kernel event counters.
    pub kernel: KernelStats,
    /// Main-TLB statistics.
    pub tlb: TlbStats,
    /// Data-cache statistics.
    pub cache: CacheStats,
    /// MBM statistics (Hypernel mode only).
    pub mbm: Option<MbmStats>,
    /// Injected-fault counters (only when the system was built with a
    /// [`crate::system::SystemBuilder::fault_plan`]).
    pub faults: Option<FaultStats>,
    /// Telemetry aggregates (only when the system has telemetry
    /// enabled): latency histograms per span and point-event counters.
    pub telemetry: Option<Snapshot>,
    /// Events the bounded telemetry trace ring had to drop (only when
    /// telemetry is enabled). Deterministic — the ring records
    /// simulated events — so it belongs in the artifact: a nonzero
    /// value means the trace understates what happened.
    pub trace_dropped: Option<u64>,
}

impl RunReport {
    /// Captures the current state of `system`.
    pub fn capture(system: &System) -> Self {
        Self {
            mode: system.mode(),
            cycles: system.cycles(),
            machine: system.machine().stats(),
            kernel: system.kernel().stats(),
            tlb: system.machine().tlb().stats(),
            cache: system.machine().data_cache().stats(),
            mbm: system.mbm_stats(),
            faults: system.fault_stats(),
            telemetry: system.telemetry_snapshot(),
            trace_dropped: system.telemetry_dropped(),
        }
    }

    /// Elapsed microseconds at the modeled clock.
    pub fn micros(&self) -> f64 {
        CostModel::cycles_to_us(self.cycles)
    }

    /// The `counters` group: every machine, kernel, TLB and cache counter
    /// with a report key, in table order.
    fn counter_fields(&self) -> Vec<(&'static str, u64)> {
        samples(MachineStats::COUNTERS, &self.machine, |n| n.report)
            .chain(samples(KernelStats::COUNTERS, &self.kernel, |n| n.report))
            .chain(samples(TlbStats::COUNTERS, &self.tlb, |n| n.report))
            .chain(samples(CacheStats::COUNTERS, &self.cache, |n| n.report))
            .collect()
    }

    /// The `mbm` group's counters (empty outside Hypernel mode).
    fn mbm_fields(&self) -> Vec<(&'static str, u64)> {
        self.mbm.as_ref().map_or_else(Vec::new, |mbm| {
            samples(MbmStats::COUNTERS, mbm, |n| n.report).collect()
        })
    }

    /// Renders the report as a GitHub-flavored markdown table, ready to
    /// paste into an experiment log. A counter's row is its report key
    /// with spaces for underscores.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### {} — {} cycles ({:.1} µs)

",
            self.mode,
            self.cycles,
            self.micros()
        ));
        out.push_str(
            "| counter | value |
|---|---|
",
        );
        let counters = self.counter_fields().into_iter();
        let counters = counters.map(|(key, n)| (key.to_string(), n));
        let mbm = self.mbm_fields().into_iter();
        let mbm = mbm.map(|(key, n)| (format!("MBM {key}"), n));
        for (key, value) in counters.chain(mbm) {
            let name = key.replace('_', " ");
            out.push_str(&format!(
                "| {name} | {value} |
"
            ));
        }
        if let Some(dropped) = self.trace_dropped {
            out.push_str(&format!(
                "| trace records dropped | {dropped} |
"
            ));
        }
        if let Some(snap) = &self.telemetry {
            if !snap.spans.is_empty() {
                out.push_str(
                    "
#### Span latencies (cycles)

| span | track | count | p50 | p95 | p99 | max |
|---|---|---|---|---|---|---|
",
                );
                for ((track, span), s) in &snap.spans {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} | {} | {} |
",
                        span.name(),
                        track.name(),
                        s.count,
                        s.p50,
                        s.p95,
                        s.p99,
                        s.max
                    ));
                }
            }
            if snap.open_spans > 0 || snap.unmatched_ends > 0 {
                out.push_str(&format!(
                    "
{} span(s) still open, {} unmatched end(s).
",
                    snap.open_spans, snap.unmatched_ends
                ));
            }
        }
        out
    }

    /// Serializes the full report as a JSON object — the machine-readable
    /// run artifact. Counters mirror [`RunReport::to_markdown`]; when
    /// telemetry is enabled, a `latencies` array carries per-span
    /// summaries (count/min/max/mean/p50/p95/p99 in cycles) and a
    /// `points` array the point-event counts.
    pub fn to_json(&self) -> Json {
        fn summary(track: &str, span: &str, s: &HistogramSummary) -> Json {
            Json::obj(vec![
                ("span", Json::str(span)),
                ("track", Json::str(track)),
                ("count", Json::UInt(s.count)),
                ("min", Json::UInt(s.min)),
                ("max", Json::UInt(s.max)),
                ("mean", Json::UInt(s.mean)),
                ("p50", Json::UInt(s.p50)),
                ("p95", Json::UInt(s.p95)),
                ("p99", Json::UInt(s.p99)),
            ])
        }
        let mut fields = vec![
            ("schema", Json::UInt(REPORT_SCHEMA)),
            ("kind", Json::str(REPORT_KIND)),
            ("mode", Json::str(&self.mode.to_string())),
            ("cycles", Json::UInt(self.cycles)),
            ("micros", Json::Float(self.micros())),
            ("counters", json_object(self.counter_fields())),
        ];
        if let Some(mbm) = self.mbm {
            let mut mbm_fields = self.mbm_fields();
            let addr = mbm
                .first_dropped_addr
                .map(|a| ("first_dropped_addr", a.raw()));
            mbm_fields.extend(addr);
            fields.push(("mbm", json_object(mbm_fields)));
        }
        if let Some(dropped) = self.trace_dropped {
            fields.push(("trace_dropped", Json::UInt(dropped)));
        }
        if let Some(f) = self.faults {
            let mut counters: Vec<_> = samples(FaultStats::COUNTERS, &f, |n| n.report).collect();
            counters.push(("total", f.total()));
            fields.push(("faults", json_object(counters)));
        }
        if let Some(snap) = &self.telemetry {
            let latencies: Vec<Json> = snap
                .spans
                .iter()
                .map(|((track, span), s)| summary(track.name(), span.name(), s))
                .collect();
            let points: Vec<Json> = snap
                .counters
                .iter()
                .map(|((track, point), n)| {
                    Json::obj(vec![
                        ("point", Json::str(point.name())),
                        ("track", Json::str(track.name())),
                        ("count", Json::UInt(*n)),
                    ])
                })
                .collect();
            fields.push((
                "telemetry",
                Json::obj(vec![
                    ("latencies", Json::Array(latencies)),
                    ("points", Json::Array(points)),
                    ("open_spans", Json::UInt(snap.open_spans)),
                    ("unmatched_ends", Json::UInt(snap.unmatched_ends)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// A measured latency: cycles for `iterations` repetitions of an
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    /// Total cycles across all iterations.
    pub total_cycles: u64,
    /// Number of iterations measured.
    pub iterations: u64,
}

impl Latency {
    /// Mean cycles per iteration.
    pub fn cycles_per_iter(&self) -> f64 {
        self.total_cycles as f64 / self.iterations.max(1) as f64
    }

    /// Mean microseconds per iteration at the modeled clock.
    pub fn micros_per_iter(&self) -> f64 {
        CostModel::cycles_to_us(self.total_cycles) / self.iterations.max(1) as f64
    }

    /// Overhead of `self` relative to `baseline`, as a fraction
    /// (`0.05` = 5 % slower).
    pub fn overhead_vs(&self, baseline: &Latency) -> f64 {
        self.cycles_per_iter() / baseline.cycles_per_iter() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_telemetry::counter;
    use hypernel_telemetry::counters::{Counter, Scope};

    #[test]
    fn latency_math() {
        let base = Latency {
            total_cycles: 1000,
            iterations: 10,
        };
        let slower = Latency {
            total_cycles: 1150,
            iterations: 10,
        };
        assert_eq!(base.cycles_per_iter(), 100.0);
        assert!((slower.overhead_vs(&base) - 0.15).abs() < 1e-12);
        // 100 cycles at 1.15 GHz ≈ 0.087 µs.
        assert!((base.micros_per_iter() - 100.0 / 1150.0).abs() < 1e-9);
    }

    #[test]
    fn capture_snapshot() {
        let sys = System::boot(Mode::Native).expect("boot");
        let report = RunReport::capture(&sys);
        assert_eq!(report.mode, Mode::Native);
        assert!(report.mbm.is_none());
        assert!(report.micros() >= 0.0);
    }

    #[test]
    fn markdown_rendering_contains_the_counters() {
        let mut sys = System::boot(Mode::Hypernel).expect("boot");
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let md = RunReport::capture(&sys).to_markdown();
        assert!(md.contains("### Hypernel"));
        assert!(md.contains("| hypercalls |"));
        assert!(md.contains("| MBM events matched |"));
        assert!(md.starts_with("###"));
    }

    #[test]
    fn json_report_includes_span_percentiles() {
        use crate::system::SystemBuilder;
        let mut sys = SystemBuilder::new(Mode::Hypernel)
            .telemetry(1 << 14)
            .build()
            .expect("boot");
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let report = RunReport::capture(&sys);
        let text = report.to_json().to_string();
        // The artifact must survive a parse round-trip…
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_u64),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some(REPORT_KIND));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("Hypernel"));
        let counters = doc.get("counters").expect("counters");
        assert!(counters.get("hypercalls").and_then(Json::as_u64).unwrap() > 0);
        // …and carry p50/p95/p99 for the headline spans.
        let latencies = doc
            .get("telemetry")
            .and_then(|t| t.get("latencies"))
            .and_then(Json::as_array)
            .expect("latencies");
        let find = |name: &str| {
            latencies
                .iter()
                .find(|l| l.get("span").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {name} summary"))
        };
        for span in ["hypercall-verify", "stage2-check", "sysreg-verify"] {
            let s = find(span);
            let p50 = s.get("p50").and_then(Json::as_u64).expect("p50");
            let p95 = s.get("p95").and_then(Json::as_u64).expect("p95");
            let p99 = s.get("p99").and_then(Json::as_u64).expect("p99");
            assert!(p50 <= p95 && p95 <= p99, "{span} quantiles out of order");
            assert!(s.get("count").and_then(Json::as_u64).unwrap() > 0);
        }
        // Markdown mirrors the latency table.
        let md = report.to_markdown();
        assert!(md.contains("#### Span latencies"));
        assert!(md.contains("| hypercall-verify |"));
    }

    #[test]
    fn json_report_without_telemetry_omits_it() {
        let sys = System::boot(Mode::Native).expect("boot");
        let doc = Json::parse(&RunReport::capture(&sys).to_json().to_string()).unwrap();
        assert!(doc.get("telemetry").is_none());
        assert!(doc.get("mbm").is_none());
    }

    #[test]
    fn host_fastpath_counters_stay_out_of_the_artifact() {
        let mut sys = System::boot(Mode::Hypernel).expect("boot");
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let report = RunReport::capture(&sys);

        // The deterministic artifacts must not mention the host
        // fast-path counters (L0 micro-TLB, MBM filter, line runs'
        // `PlanStats`): they differ under HYPERNEL_NO_FASTPATH, and the
        // run artifact is required to be byte-identical with fast paths
        // on or off.
        let json = report.to_json().to_string();
        assert!(!json.contains("l0_"), "l0 counters leaked into JSON");
        assert!(
            !json.contains("page_filter_skips"),
            "filter counter leaked into JSON"
        );
        assert!(
            !json.contains("plan") && !json.contains("compiled"),
            "line-run counters leaked into JSON"
        );
        let md = report.to_markdown();
        assert!(!md.contains("L0"), "l0 counters leaked into markdown");
        assert!(
            !md.contains("filter skips"),
            "filter counter leaked into markdown"
        );
        assert!(
            !md.contains("compiled plan"),
            "line-run counters leaked into markdown"
        );
    }

    /// What keeps `table` from listing every counter field of `S`
    /// exactly once: a field two rows write, or a numeric field (one
    /// that reads `0` in `S::default()`'s `Debug` form) no row writes.
    fn table_problems<S: Default + std::fmt::Debug>(table: &[Counter<S>]) -> Vec<String> {
        let name = std::any::type_name::<S>().rsplit("::").next().unwrap_or("");
        let mut stats = S::default();
        let rows: Vec<&Counter<S>> = table
            .iter()
            .filter(|c| c.slot(&mut stats).is_some())
            .collect();
        for (i, c) in (1..).zip(&rows) {
            *c.slot(&mut stats).expect("field row") = i;
        }
        let mut problems: Vec<String> = (1..)
            .zip(&rows)
            .filter(|(i, c)| *c.slot(&mut stats).expect("field row") != *i)
            .map(|(_, c)| format!("`{name}::{}` has more than one row", c.field))
            .collect();
        let debug = format!("{stats:?}");
        let fields = debug.split_once('{').map_or("", |(_, rest)| rest);
        for field in fields.trim_end_matches('}').split(", ") {
            if let Some((field, "0")) = field.trim().split_once(": ") {
                problems.push(format!("`{name}::{field}` has no row"));
            }
        }
        problems
    }

    #[derive(Debug, Default)]
    struct Toy {
        a: u64,
        b: u64,
        c: Option<u64>,
    }

    #[test]
    fn table_problems_finds_a_missing_or_doubled_row() {
        let complete: &[Counter<Toy>] = &[counter!(a), counter!(host b)];
        assert!(table_problems(complete).is_empty());
        let missing: &[Counter<Toy>] = &[counter!(a)];
        assert_eq!(table_problems(missing), ["`Toy::b` has no row"]);
        let doubled: &[Counter<Toy>] = &[counter!(a), counter!(b), counter!(a, report = "x")];
        assert_eq!(table_problems(doubled), ["`Toy::a` has more than one row"]);
        assert!(Toy::default().c.is_none());
    }

    #[test]
    fn every_counter_field_has_exactly_one_row() {
        use hypernel_hypersec::HypersecStats;
        use hypernel_kernel::ComposeStats;

        fn hosts<S>(table: &[Counter<S>]) -> impl Iterator<Item = &'static str> + '_ {
            table
                .iter()
                .filter(|c| c.scope == Scope::Host)
                .map(|c| c.field)
        }
        let problems = [
            table_problems(MachineStats::COUNTERS),
            table_problems(TlbStats::COUNTERS),
            table_problems(CacheStats::COUNTERS),
            table_problems(MbmStats::COUNTERS),
            table_problems(HypersecStats::COUNTERS),
            table_problems(KernelStats::COUNTERS),
            table_problems(ComposeStats::COUNTERS),
            table_problems(FaultStats::COUNTERS),
        ]
        .concat();
        assert!(problems.is_empty(), "{problems:#?}");
        // The host counters, and only they, differ with the fast paths.
        let host: Vec<&str> = hosts(TlbStats::COUNTERS)
            .chain(hosts(MbmStats::COUNTERS))
            .chain(hosts(MachineStats::COUNTERS))
            .chain(hosts(CacheStats::COUNTERS))
            .chain(hosts(HypersecStats::COUNTERS))
            .chain(hosts(KernelStats::COUNTERS))
            .chain(hosts(ComposeStats::COUNTERS))
            .chain(hosts(FaultStats::COUNTERS))
            .collect();
        assert_eq!(host, ["l0_hits", "l0_misses", "page_filter_skips"]);
    }

    #[test]
    fn dropped_trace_events_are_surfaced_in_the_artifact() {
        use crate::system::SystemBuilder;
        // A 4-event ring overflows immediately under a real workload…
        let mut sys = SystemBuilder::new(Mode::Hypernel)
            .telemetry(4)
            .build()
            .expect("boot");
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let report = RunReport::capture(&sys);
        let dropped = report.trace_dropped.expect("telemetry is on");
        assert!(dropped > 0, "tiny ring must drop");
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("trace_dropped").and_then(Json::as_u64),
            Some(dropped)
        );
        assert!(report.to_markdown().contains("| trace records dropped |"));

        // …and a run without telemetry reports nothing rather than 0.
        let silent = RunReport::capture(&System::boot(Mode::Native).expect("boot"));
        assert!(silent.trace_dropped.is_none());
        assert!(Json::parse(&silent.to_json().to_string())
            .unwrap()
            .get("trace_dropped")
            .is_none());
    }
}
