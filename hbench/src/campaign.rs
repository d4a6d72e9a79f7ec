//! `campaign-corpus`: the shipped scenario corpus swept over seeds the
//! way a `--jobs 1` sweep worker runs it — each scenario's template is
//! booted once with `engine::boot_system`, and each run forks it and
//! calls `engine::run_one_full`. Round `r` runs every scenario with
//! seed `base + r`.

use std::path::PathBuf;
use std::time::Instant;

use hypernel::System;
use hypernel_campaign::coverage::coverage_of_run;
use hypernel_campaign::engine;
use hypernel_campaign::oracle::{self, OracleInput};
use hypernel_campaign::record::RunRecord;
use hypernel_campaign::scenario::Scenario;
use hypernel_machine::FaultHit;

use crate::counters::{sim_digest, Counters, Fnv};
use crate::trace::Tracer;
use crate::{Knobs, Probe, Unit, Workload};

const CORPUS: &str = "corpus";

pub struct Campaign {
    scenarios: Vec<Scenario>,
    templates: Vec<System>,
    boot_ms: f64,
    seed: u64,
}

fn load_corpus() -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(CORPUS)
        .map_err(|e| format!("cannot read `{CORPUS}`: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no scenarios in `{CORPUS}`"));
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

impl Workload for Campaign {
    fn setup(seed: u64) -> Result<Self, String> {
        let scenarios = load_corpus()?;
        let start = Instant::now();
        let templates = scenarios
            .iter()
            .map(|s| engine::boot_system(s).map_err(|e| format!("boot `{}`: {e}", s.name)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            boot_ms: start.elapsed().as_secs_f64() * 1e3 / scenarios.len() as f64,
            scenarios,
            templates,
            seed,
        })
    }

    fn round(&self) -> usize {
        self.scenarios.len()
    }

    /// A round lasts seconds, longer than many slow spells of the host,
    /// so the host speed is probed around every run.
    fn slice(&self) -> usize {
        1
    }

    fn begin_pass(&mut self, _knobs: Knobs) -> Result<(), String> {
        Ok(())
    }

    fn boot_ms(&self) -> f64 {
        self.boot_ms
    }

    fn unit(&mut self, index: usize, knobs: Knobs, tracer: &mut Tracer) -> Unit {
        let k = index % self.scenarios.len();
        let scenario = &self.scenarios[k];
        let template = &self.templates[k];
        let seed = self
            .seed
            .wrapping_add((index / self.scenarios.len()) as u64);
        let id = index as u64;
        let ((ran, fork_ms, work_ms), ms) = tracer.span("run", "bench", id, |t| {
            let (sys, fork_ms) = if knobs.warm_fork {
                let (sys, ms) = t.span("System::fork", "core", id, |_| template.fork());
                (Ok(sys), ms)
            } else {
                t.span("boot_system", "campaign", id, |_| {
                    engine::boot_system(scenario)
                })
            };
            let mut sys = match sys {
                Ok(sys) => sys,
                Err(e) => return (Err(e), fork_ms, 0.0),
            };
            knobs.apply(&mut sys);
            let before = Counters::of(&sys);
            let (ran, work_ms) = t.span("run_one_full", "campaign", id, |_| {
                engine::run_one_full(sys, scenario, seed)
            });
            (ran.map(|r| (r, before)), fork_ms, work_ms)
        });
        let ((record, log, mut sys), before) = match ran {
            Ok(r) => r,
            Err(e) => return Unit::failed(index, format!("{} seed {seed}: {e}", scenario.name)),
        };
        let digest = Fnv::default()
            .bytes(&record.to_json().to_string())
            .word(sim_digest(&sys))
            .finish();
        let counters = Counters::of(&sys).delta(before);
        let mut passed = record.passed;
        if !passed {
            eprintln!(
                "hbench: {} seed {seed}: undeclared oracle violation",
                scenario.name
            );
        }
        let probe = tracer.enabled().then(|| {
            let (probe, consistent) = tracer
                .span("probes", "bench", id, |t| {
                    probe(t, id, &mut sys, scenario, &record, &log)
                })
                .0;
            if !consistent {
                eprintln!(
                    "hbench: {} seed {seed}: probes disagree with the record",
                    scenario.name
                );
                passed = false;
            }
            probe
        });
        Unit {
            ms,
            fork_ms,
            work_ms,
            digest,
            counters,
            passed,
            probe,
            measurement: None,
        }
    }
}

/// Re-invokes the post-run analyses on the finished system, timing each,
/// and checks they reproduce what the record says.
fn probe(
    t: &mut Tracer,
    id: u64,
    sys: &mut System,
    scenario: &Scenario,
    record: &RunRecord,
    log: &[FaultHit],
) -> (Probe, bool) {
    let (audit, static_ms) = t.span("audit_static", "audit", id, |_| sys.audit_static());
    let (hypersec, hypersec_ms) =
        t.span("audit_hypersec", "hypersec", id, |_| sys.audit_hypersec());
    let (violations, oracle_ms) = t.span("oracle::evaluate", "campaign", id, |_| {
        oracle::evaluate(&OracleInput {
            scenario,
            steps: &record.steps,
            audit: hypersec.as_ref(),
            static_audit: Some(&audit),
            mbm: sys.mbm_stats(),
            faults: sys.fault_stats(),
        })
    });
    let (coverage, coverage_ms) = t.span("coverage_of_run", "campaign", id, |_| {
        coverage_of_run(sys, scenario, &record.steps, &record.violations, log)
    });
    let consistent = violations == record.violations
        && record.coverage.as_ref() == Some(&coverage)
        && record
            .audit
            .is_some_and(|a| a.leaves == audit.leaves_checked && a.tables == audit.tables_walked);
    let probe = Probe {
        static_ms,
        hypersec_ms,
        oracle_us: oracle_ms * 1e3,
        coverage_us: coverage_ms * 1e3,
        leaves: audit.leaves_checked,
        tables: audit.tables_walked,
    };
    (probe, consistent)
}
