//! Hostile input must produce an error, never a panic. Arbitrary bytes,
//! and truncations and byte splices of every shipped scenario and
//! description and of real JSON artifacts, are fed to both TOML loaders,
//! the linter and every JSON and JSONL reader; value rewrites of the
//! TOML files to the loaders and the linter. Each call must return
//! (`Ok` or `Err`), never unwind.

use std::path::Path;
use std::sync::OnceLock;

use hypernel::analyze::bench::{read_bounds, read_point, read_run};
use hypernel::analyze::timeline;
use hypernel::audit::report::ingest_report;
use hypernel::telemetry::json::Json;
use hypernel::telemetry::{read_jsonl_lossy, MetricsDoc};
use hypernel_campaign::coverage::ingest_atlas;
use hypernel_campaign::record::{ingest_records, read_summary, summarize, summary_json};
use hypernel_campaign::scenario::Scenario;
use hypernel_campaign::staticcov::ingest_static;
use hypernel_campaign::toml::toml_files;
use hypernel_campaign::{blackbox, engine, lint_source};
use hypernel_compose::ComposeDoc;
use proptest::prelude::*;

/// Every shipped TOML file: the corpus, the example scenarios and the
/// example compose descriptions.
fn shipped() -> &'static [Vec<u8>] {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        ["corpus", "examples/scenarios", "examples/compose"]
            .iter()
            .flat_map(|dir| toml_files(&root.join(dir)).expect("shipped dir readable"))
            .map(|path| std::fs::read(path).expect("readable"))
            .collect()
    })
}

/// One of the shipped TOML files or the JSON seeds.
fn pick(index: usize) -> &'static [u8] {
    let (toml, json) = (shipped(), json_seeds());
    let i = index % (toml.len() + json.len());
    toml.get(i).unwrap_or_else(|| &json[i - toml.len()])
}

/// Feeds one input to every parser entry point; returning is the test.
fn feed(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Scenario::from_toml(&text);
    let _ = ComposeDoc::from_toml(&text);
    let _ = lint_source(Some("hostile"), &text);
    let _ = read_jsonl_lossy(&text);
    let _ = MetricsDoc::parse_jsonl(&text);
    let _ = ingest_records(&text);
    let _ = timeline::ingest(&text);
    let _ = read_run(&text);
    if let Ok(doc) = Json::parse(&text) {
        let _ = read_summary(&doc);
        let _ = ingest_atlas(&doc);
        let _ = ingest_static(&doc);
        let _ = ingest_report(&doc);
        let _ = read_point(&doc);
        let _ = read_bounds(&doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        feed(&bytes);
    }

    #[test]
    fn truncated_shipped_files_never_panic(file in any::<usize>(), cut in any::<usize>()) {
        let source = pick(file);
        feed(&source[..cut % (source.len() + 1)]);
    }

    #[test]
    fn spliced_shipped_files_never_panic(
        host in any::<usize>(),
        at in any::<usize>(),
        donor in any::<usize>(),
        from in any::<usize>(),
        len in 0usize..128,
    ) {
        let (host, donor) = (pick(host), pick(donor));
        let at = at % (host.len() + 1);
        let from = from % (donor.len() + 1);
        let chunk = &donor[from..(from + len).min(donor.len())];
        feed(&[&host[..at], chunk, &host[at..]].concat());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rewrites each `key = value` line of every shipped file, one at a
    /// time, with an arbitrary integer — the shape that reaches range
    /// checks and the arithmetic behind them rather than the syntax
    /// check.
    #[test]
    fn rewritten_values_never_panic(value in any::<i64>()) {
        for source in shipped() {
            let text = String::from_utf8_lossy(source);
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let Some((key, _)) = line.split_once('=') else {
                    continue;
                };
                let value_line = format!("{key}= {value}");
                let mut rewritten = lines.clone();
                rewritten[i] = &value_line;
                feed(rewritten.join("\n").as_bytes());
            }
        }
    }
}

/// The shape of one `--trace 0` hbench run's standard output.
const HBENCH_OUTPUT: &str = "\
hbench: workload=campaign-corpus seed=1 held-out-seed=90001 seconds=30 trace=0
hbench: simulated digest 0xc5ca46a455b0facf over the first 17 units
{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
{\"runs_per_s\": {\"value\": 143.8, \"unit\": \"1/s\"}}}
";

/// Real JSON and JSONL inputs: the committed coverage baseline, bench
/// points and benchmark spec, an hbench output, and the artifacts of
/// one corpus run generated here: its record line, campaign summary,
/// `metrics.jsonl`, static-audit report and `blackbox.json` dump.
fn json_seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: &Path| std::fs::read(path).expect("readable");
        let mut seeds = vec![
            read(&root.join("BENCHMARK.json")),
            HBENCH_OUTPUT.as_bytes().to_vec(),
        ];
        for entry in std::fs::read_dir(root.join("benchmarks")).expect("benchmarks dir") {
            seeds.push(read(&entry.expect("dir entry").path()));
        }
        let source = std::fs::read_to_string(root.join("corpus/fifo-overflow.toml"));
        let scenario = Scenario::from_toml(&source.expect("readable")).expect("loads");
        let sys = engine::boot_system(&scenario).expect("boots");
        let (record, faults, mut sys) = engine::run_one_full(sys, &scenario, 0).expect("runs");
        let metrics = record
            .metrics
            .as_ref()
            .expect("campaign runs record metrics");
        let dump = blackbox::capture(&sys, &scenario, 0, "hostile", &[], &faults, Some(metrics));
        let artifacts = [
            format!("{}\n", record.to_json()),
            summary_json(&summarize(std::slice::from_ref(&record))).to_string(),
            metrics.to_jsonl(),
            sys.audit_static().to_json().to_string(),
            dump.to_string(),
        ];
        seeds.extend(artifacts.map(String::into_bytes));
        seeds
    })
}

#[test]
fn json_seeds_read_and_deep_nesting_is_an_error() {
    json_seeds().iter().for_each(|seed| feed(seed));
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        feed(deep.as_bytes());
        feed(format!("{}\n", open.repeat(20_000)).repeat(3).as_bytes());
    }
}
