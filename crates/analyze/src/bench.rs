//! The host-time perf gate: hbench output in, a verdict and a
//! trajectory point out.
//!
//! `hbench` (the repository benchmark, `hbench/README.md`) prints, for
//! one `--trace 0` run, a header line naming the workload, seed and
//! window, a `simulated digest` line and, last, one JSON result line
//! holding the end-to-end metrics. [`read_run`] reads those three
//! lines. [`gate`] groups runs by (workload, seed), takes each metric's
//! median and checks it against a baseline point in the direction and
//! within the bound `BENCHMARK.json` declares for it ([`read_bounds`]):
//! the rule the benchmark pipeline applies to a change. It also demands
//! correct runs and one simulated digest per group, equal to the
//! baseline's. A point ([`point_json`], committed as
//! `benchmarks/BENCH_<date>.json`) holds every run, so the next change
//! gates against it ([`read_point`]).

use hypernel_telemetry::json::Json;
use std::collections::BTreeMap;

/// Schema version of a trajectory point.
pub const POINT_SCHEMA: u64 = 2;
/// `kind` tag of a trajectory point.
pub const POINT_KIND: &str = "hypernel-bench-point";

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name, as hbench reports it.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The largest relative change in the worse direction that passes.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document: the one
/// definition of a host-time regression.
///
/// # Errors
///
/// Names the first entry that lacks a field or has a bad one.
pub fn read_bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let list = doc.get("end_to_end").and_then(Json::as_array);
    let entry = |(m, i): (&Json, usize)| {
        let bad = |what: &str| format!("end_to_end entry {i}: bad `{what}`");
        let text = |key| m.get(key).and_then(Json::as_str).ok_or_else(|| bad(key));
        Ok(Bound {
            name: text("name")?.to_string(),
            unit: text("unit")?.to_string(),
            higher_is_better: match text("better")? {
                "higher" => true,
                "lower" => false,
                _ => return Err(bad("better")),
            },
            bound: (m.get("bound").and_then(Json::as_f64))
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or_else(|| bad("bound"))?,
        })
    };
    let list = list.ok_or("no `end_to_end` list")?;
    list.iter().zip(1..).map(entry).collect()
}

/// One `--trace 0` hbench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name (`campaign-corpus`, `untar-steady`, `paper-tables`).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Timed window, host seconds.
    pub seconds: f64,
    /// Digest of the simulated counters, as printed (`0x…`).
    pub digest: String,
    /// Whether every unit and every check passed.
    pub correct: bool,
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// End-to-end metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)));
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::UInt(self.seed)),
            ("seconds", Json::Float(self.seconds)),
            ("digest", Json::str(&self.digest)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics.collect())),
        ])
    }

    /// Reads a run object; `metric` reads one metric's value, which a
    /// point stores bare and hbench as `{"value": …, "unit": …}`.
    fn from_json(doc: &Json, metric: fn(&Json) -> Option<f64>) -> Result<Run, String> {
        let bad = |key: &str| format!("no valid `{key}`");
        let text = |key| doc.get(key).and_then(Json::as_str).ok_or_else(|| bad(key));
        let uint = |key| doc.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        let Some(Json::Object(fields)) = doc.get("metrics") else {
            return Err(bad("metrics"));
        };
        let mut metrics = BTreeMap::new();
        for (name, value) in fields {
            let value = metric(value).filter(|v| v.is_finite());
            let value = value.ok_or_else(|| format!("metric `{name}` has no finite value"))?;
            metrics.insert(name.clone(), value);
        }
        let digest = text("digest")?;
        let hex = digest.strip_prefix("0x").unwrap_or("");
        if hex.is_empty() || u64::from_str_radix(hex, 16).is_err() {
            return Err(format!("digest `{digest}` is not a 0x-prefixed hex word"));
        }
        Ok(Run {
            workload: text("workload")?.to_string(),
            seed: uint("seed")?,
            seconds: (doc.get("seconds").and_then(Json::as_f64))
                .filter(|s| s.is_finite())
                .ok_or_else(|| bad("seconds"))?,
            digest: digest.to_string(),
            correct: (doc.get("correct").and_then(Json::as_bool)).ok_or_else(|| bad("correct"))?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }
}

/// Reads the standard output of one hbench run: its header line
/// (`hbench: workload=… seed=… seconds=… trace=0`), its
/// `simulated digest` line and its last line, the result object.
///
/// # Errors
///
/// Says what is missing or malformed; a `--trace 1` run is refused,
/// since it reports per-layer metrics, not the end-to-end ones.
pub fn read_run(text: &str) -> Result<Run, String> {
    let header = text
        .lines()
        .find(|line| line.starts_with("hbench: workload="))
        .ok_or("no `hbench: workload=…` header line")?;
    let fields: BTreeMap<&str, &str> = header
        .split_whitespace()
        .filter_map(|token| token.split_once('='))
        .collect();
    let field = |key: &str| match fields.get(key) {
        Some(v) => Ok(Json::parse(v).unwrap_or_else(|_| Json::str(v))),
        None => Err(format!("no `{key}=` in the header")),
    };
    if field("trace")? != Json::UInt(0) {
        return Err("a `--trace 1` run has no end-to-end metrics to gate".to_string());
    }
    let digest = text
        .lines()
        .find_map(|line| line.strip_prefix("hbench: simulated digest "))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no `hbench: simulated digest` line")?;
    let last = text.lines().rev().find(|l| !l.trim().is_empty());
    let Ok(Json::Object(mut doc)) = Json::parse(last.unwrap_or("")) else {
        return Err("the last line is not the result object".to_string());
    };
    for key in ["workload", "seed", "seconds"] {
        doc.push((key.to_string(), field(key)?));
    }
    doc.push(("digest".to_string(), Json::str(digest)));
    let value = |metric: &Json| metric.get("value").and_then(Json::as_f64);
    Run::from_json(&Json::Object(doc), value)
}

/// A trajectory point holding `runs`.
pub fn point_json(runs: &[Run]) -> Json {
    Json::obj(vec![
        ("schema", Json::UInt(POINT_SCHEMA)),
        ("kind", Json::str(POINT_KIND)),
        ("runs", Json::Array(runs.iter().map(Run::to_json).collect())),
    ])
}

/// Reads the runs of a trajectory point.
///
/// # Errors
///
/// Rejects another kind of document and names the first bad run.
pub fn read_point(doc: &Json) -> Result<Vec<Run>, String> {
    if doc.get("kind").and_then(Json::as_str) != Some(POINT_KIND) {
        return Err(format!("not a `{POINT_KIND}` document"));
    }
    let runs = doc.get("runs").and_then(Json::as_array);
    (runs.ok_or("no `runs` list")?.iter().zip(1..))
        .map(|(run, i)| Run::from_json(run, Json::as_f64).map_err(|e| format!("run {i}: {e}")))
        .collect()
}

/// The gate's verdict over a set of runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gate {
    /// One line per (workload, seed, metric): the median and the spread
    /// of the runs and, against a baseline, its median, the change and
    /// the bound.
    pub lines: Vec<String>,
    /// Every reason the gate fails; empty means it passes.
    pub findings: Vec<String>,
}

/// The median of `values` and their spread, (max − min) / median;
/// `None` for no values.
fn median_spread(mut values: Vec<f64>) -> Option<(f64, f64)> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let median = (values.get((n.max(1) - 1) / 2)? + values[n / 2]) / 2.0;
    Some((median, (values[n - 1] - values[0]) / median.abs()))
}

/// The distinct digests of `runs`, sorted.
fn digests<'a>(runs: &[&'a Run]) -> Vec<&'a str> {
    let mut out: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Groups `runs` by (workload, seed).
fn groups(runs: &[Run]) -> BTreeMap<(&str, u64), Vec<&Run>> {
    let mut out: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for run in runs {
        let key = (run.workload.as_str(), run.seed);
        out.entry(key).or_default().push(run);
    }
    out
}

/// Checks `runs`: every run correct, one digest per (workload, seed)
/// and, against a `baseline` point, the same digest, a baseline entry
/// for every group and every metric's median within its bound.
pub fn gate(bounds: &[Bound], runs: &[Run], baseline: Option<&[Run]>) -> Gate {
    let mut gate = Gate::default();
    let base_groups = baseline.map(groups);
    for ((workload, seed), group) in groups(runs) {
        let at = format!("{workload} seed {seed}");
        let mut fail = |finding: String| gate.findings.push(format!("{at}: {finding}"));
        for run in group.iter().filter(|r| !r.correct || r.failed > 0) {
            let (failed, attempted) = (run.failed, run.attempted);
            fail(format!(
                "a run is not correct ({failed} of {attempted} units failed)"
            ));
        }
        let distinct = digests(&group);
        let digest = distinct.join(", ");
        if distinct.len() > 1 {
            fail(format!("runs disagree on the simulated digest ({digest})"));
        }
        let base = base_groups.as_ref().map(|g| g.get(&(workload, seed)));
        match base {
            Some(None) => fail("no baseline entry".to_string()),
            Some(Some(base)) if digests(base).join(", ") != digest => fail(format!(
                "simulated digest {digest} differs from the baseline's {}",
                digests(base).join(", ")
            )),
            _ => {}
        }
        for b in bounds {
            let values = |g: &[&Run]| {
                median_spread(
                    g.iter()
                        .filter_map(|r| r.metrics.get(&b.name))
                        .copied()
                        .collect(),
                )
            };
            let Some((value, spread)) = values(&group) else {
                fail(format!("no `{}` value", b.name));
                continue;
            };
            let (name, unit, bound) = (&b.name, &b.unit, b.bound * 100.0);
            let mut line = format!(
                "{at}: {name} {value:.4} {unit} (spread {:.1}%)",
                spread * 100.0
            );
            let was = base.flatten().and_then(|g| values(g));
            if let Some((was, _)) = was {
                let change = 100.0 * (value / was - 1.0);
                let worse = if b.higher_is_better { -change } else { change };
                line += &format!(" vs {was:.4}: {change:+.1}%, bound {bound:.0}%");
                if worse > bound {
                    fail(format!(
                        "`{name}` median {value:.4} is {change:+.1}% from the baseline's \
                         {was:.4}, past its {bound:.0}% bound"
                    ));
                }
            }
            gate.lines.push(line);
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run's hbench output, in hbench's exact line shapes.
    fn run(seed: u64, digest: &str, correct: bool, rate: f64) -> Run {
        read_run(&output(seed, digest, correct, rate)).expect("valid output")
    }

    fn output(seed: u64, digest: &str, correct: bool, rate: f64) -> String {
        format!(
            "hbench: workload=campaign-corpus seed={seed} held-out-seed=90001 seconds=30 trace=0\n\
             hbench: simulated digest {digest} over the first 17 units\n\
             hbench: 255 units in 30.012 s\n\
             {{\"correct\": {correct}, \"attempted\": 255, \"failed\": {}, \"metrics\": \
             {{\"runs_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\"}}, \
             \"peak_rss_mb\": {{\"value\": 150.5, \"unit\": \"MB\"}}}}}}\n",
            u64::from(!correct)
        )
    }

    fn gate_of(runs: &[Run], baseline: Option<&[Run]>) -> Gate {
        let spec = r#"{"end_to_end": [
            {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.12}]}"#;
        let bounds = read_bounds(&Json::parse(spec).unwrap()).unwrap();
        gate(&bounds, runs, baseline)
    }

    #[test]
    fn entry_parses_and_rejects_foreign_documents() {
        let r = run(1, "0xc5ca46a455b0facf", true, 143.8);
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds),
            ("campaign-corpus", 1, 30.0)
        );
        assert_eq!(
            (r.digest.as_str(), r.attempted, r.failed),
            ("0xc5ca46a455b0facf", 255, 0)
        );
        assert_eq!(r.metrics["runs_per_s"], 143.8);
        let good = output(1, "0x1", true, 1.0);
        for (broken, why) in [
            (good.replace("trace=0", "trace=1"), "--trace 1"),
            (good.replace("hbench: workload=", "hbench: w="), "header"),
            (
                good.replace("simulated digest", "digest"),
                "simulated digest",
            ),
            (good.replace("0x1 over", "0xzz over"), "hex"),
            (good.replace("seed=1", "seed=-1"), "seed"),
            (format!("{good}trailing words\n"), "result object"),
            (
                good.replace("\"value\": 1,", "\"value\": \"1\","),
                "runs_per_s",
            ),
        ] {
            let err = read_run(&broken).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
        let report = Json::parse(r#"{"schema":1,"kind":"hypernel-run-report"}"#).unwrap();
        assert!(read_point(&report).is_err());
        let spec = r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "up", "bound": 1}]}"#;
        let err = read_bounds(&Json::parse(spec).unwrap()).unwrap_err();
        assert_eq!(err, "end_to_end entry 1: bad `better`");
    }

    #[test]
    fn a_point_round_trips_and_passes_against_itself() {
        let runs = [(1, 140.0), (1, 150.0), (90001, 145.0)].map(|(s, r)| run(s, "0xab", true, r));
        let text = point_json(&runs).to_string();
        let back = read_point(&Json::parse(&text).unwrap()).expect("point reads back");
        assert_eq!(back, runs);
        let g = gate_of(&runs, Some(&back[..]));
        assert_eq!(g.findings, Vec::<String>::new());
        assert_eq!(g.lines.len(), 4);
        assert_eq!(
            g.lines[0],
            "campaign-corpus seed 1: runs_per_s 145.0000 1/s (spread 6.9%) \
             vs 145.0000: +0.0%, bound 24%"
        );
    }

    #[test]
    fn each_failure_is_a_finding() {
        let split = [run(1, "0xab", true, 140.0), run(1, "0xac", false, 140.0)];
        assert_eq!(
            gate_of(&split, None).findings,
            [
                "campaign-corpus seed 1: a run is not correct (1 of 255 units failed)",
                "campaign-corpus seed 1: runs disagree on the simulated digest (0xab, 0xac)",
            ]
        );
        let base = [run(1, "0xab", true, 100.0)];
        let moved = [run(1, "0xac", true, 100.0), run(7, "0xab", true, 100.0)];
        assert_eq!(
            gate_of(&moved, Some(&base[..])).findings,
            [
                "campaign-corpus seed 1: simulated digest 0xac differs from the baseline's 0xab",
                "campaign-corpus seed 7: no baseline entry",
            ]
        );
        // Medians of 77 (-23%, inside the 24% bound) and 200 (better)
        // pass; 75 (-25%) fails.
        let at =
            |rates: [f64; 3]| gate_of(&rates.map(|r| run(1, "0xab", true, r)), Some(&base[..]));
        assert!(at([77.0, 50.0, 90.0]).findings.is_empty());
        assert!(at([200.0, 200.0, 200.0]).findings.is_empty());
        assert_eq!(
            at([75.0, 75.0, 120.0]).findings,
            [
                "campaign-corpus seed 1: `runs_per_s` median 75.0000 is -25.0% from the \
              baseline's 100.0000, past its 24% bound"
            ]
        );
    }
}
