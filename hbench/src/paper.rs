//! `paper-tables`: all nine Table 1 operations and all five Figure 6
//! applications under native, KVM and Hypernel — 42 cells per round.
//! As in the paper harness, every cell runs on a fresh system: set-up
//! boots one template per mode (and prepares one per mode and app), and
//! each cell forks its template, which is observationally identical to
//! booting afresh. The first round yields the tables, and
//! `paper_err_pp` compares their overheads with the paper's.

use std::time::Instant;

use hypernel::{Mode, System};
use hypernel_bench::LMBENCH_ITERS;
use hypernel_workloads::{apps, lmbench, AppBenchmark, LmbenchOp, Measurement};

use crate::calib::Footprint;
use crate::counters::{sim_digest, Counters, Fnv};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::{ratio, Knobs, Pass, Unit, Workload};

const MODES: [Mode; 3] = [Mode::Native, Mode::KvmGuest, Mode::Hypernel];

/// Paper §7.1.2: Figure 6's average overheads, KVM-guest and Hypernel (%).
const PAPER_FIG6_AVG: [f64; 2] = [13.5, 3.1];

/// A correct model stays within this mean error of the paper.
const MAX_ERR_PP: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
enum Row {
    Table1(LmbenchOp),
    Fig6(AppBenchmark),
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    mode: usize,
    row: Row,
}

pub struct Paper {
    cells: Vec<Cell>,
    /// One booted template per mode.
    booted: Vec<System>,
    /// One prepared template per mode and app, in `AppBenchmark::ALL` order.
    prepared: Vec<Vec<System>>,
    boot_ms: f64,
    seed: u64,
}

fn boot(mode: Mode) -> Result<System, String> {
    System::boot(mode).map_err(|e| format!("boot {mode}: {e}"))
}

fn prepare(sys: &mut System, app: AppBenchmark) -> Result<(), String> {
    let (kernel, machine, hyp) = sys.parts();
    apps::prepare(kernel, machine, hyp, app).map_err(|e| format!("prepare {app}: {e}"))
}

impl Paper {
    fn fresh(&self, cell: Cell, warm_fork: bool) -> Result<System, String> {
        let app_index = |app| AppBenchmark::ALL.iter().position(|&a| a == app);
        match (cell.row, warm_fork) {
            (Row::Table1(_), true) => Ok(self.booted[cell.mode].fork()),
            (Row::Fig6(app), true) => {
                Ok(self.prepared[cell.mode][app_index(app).expect("listed app")].fork())
            }
            (Row::Table1(_), false) => boot(MODES[cell.mode]),
            (Row::Fig6(app), false) => {
                let mut sys = boot(MODES[cell.mode])?;
                prepare(&mut sys, app)?;
                Ok(sys)
            }
        }
    }

    /// Mean absolute error (percentage points) of the 18 Table 1
    /// overhead cells and the 2 Figure 6 averages against the paper,
    /// from the first round of `pass`.
    fn paper_err_pp(&self, pass: &Pass) -> Option<f64> {
        let cycles = |mode: usize, row: usize| -> Option<f64> {
            let index = mode * self.cells.len() / MODES.len() + row;
            pass.units[index].measurement.map(|m| m.cycles_per_iter())
        };
        let rows = LmbenchOp::ALL.len();
        let mut errors = Vec::new();
        for (r, op) in LmbenchOp::ALL.iter().enumerate() {
            let native = cycles(0, r)?;
            for (mode, paper_us) in [(1, op.paper_kvm_us()), (2, op.paper_hypernel_us())] {
                let measured = 100.0 * (cycles(mode, r)? / native - 1.0);
                let paper = 100.0 * (paper_us / op.paper_native_us() - 1.0);
                errors.push((measured - paper).abs());
            }
        }
        for (mode, paper) in [(1, PAPER_FIG6_AVG[0]), (2, PAPER_FIG6_AVG[1])] {
            let mut sum = 0.0;
            for a in 0..AppBenchmark::ALL.len() {
                sum += cycles(mode, rows + a)? / cycles(0, rows + a)? - 1.0;
            }
            let measured = 100.0 * sum / AppBenchmark::ALL.len() as f64;
            errors.push((measured - paper).abs());
        }
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

impl Workload for Paper {
    const FOOTPRINT: Footprint = Footprint::Mixed;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut cells = Vec::new();
        for mode in 0..MODES.len() {
            cells.extend(LmbenchOp::ALL.iter().map(|&op| Cell {
                mode,
                row: Row::Table1(op),
            }));
            cells.extend(AppBenchmark::ALL.iter().map(|&app| Cell {
                mode,
                row: Row::Fig6(app),
            }));
        }
        let start = Instant::now();
        let booted = MODES
            .iter()
            .map(|&m| boot(m))
            .collect::<Result<Vec<_>, _>>()?;
        let boot_ms = start.elapsed().as_secs_f64() * 1e3 / MODES.len() as f64;
        let prepared = booted
            .iter()
            .map(|template| {
                AppBenchmark::ALL
                    .iter()
                    .map(|&app| {
                        let mut sys = template.fork();
                        prepare(&mut sys, app).map(|()| sys)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            cells,
            booted,
            prepared,
            boot_ms,
            seed,
        })
    }

    fn round(&self) -> usize {
        self.cells.len()
    }

    fn begin_pass(&mut self, _knobs: Knobs) -> Result<(), String> {
        Ok(())
    }

    fn boot_ms(&self) -> f64 {
        self.boot_ms
    }

    fn unit(&mut self, index: usize, knobs: Knobs, tracer: &mut Tracer) -> Unit {
        let cell = self.cells[index % self.cells.len()];
        let id = index as u64;
        let seed = self.seed;
        let ((ran, fork_ms, work_ms), ms) = tracer.span("cell", "bench", id, |t| {
            let (sys, fork_ms) = if knobs.warm_fork {
                t.span("System::fork", "core", id, |_| self.fresh(cell, true))
            } else {
                t.span("System::boot", "core", id, |_| self.fresh(cell, false))
            };
            let mut sys = match sys {
                Ok(sys) => sys,
                Err(e) => return (Err(e), fork_ms, 0.0),
            };
            knobs.apply(&mut sys);
            let before = Counters::of(&sys);
            let (measured, work_ms) = {
                let (kernel, machine, hyp) = sys.parts();
                match cell.row {
                    Row::Table1(op) => t.span("lmbench::run_op", "workloads", id, |_| {
                        lmbench::run_op(kernel, machine, hyp, op, LMBENCH_ITERS)
                    }),
                    Row::Fig6(app) => t.span("apps::run", "workloads", id, |_| {
                        apps::run(kernel, machine, hyp, app, 1, seed)
                    }),
                }
            };
            let ran = measured
                .map(|m| (m, Counters::of(&sys).delta(before), sim_digest(&sys)))
                .map_err(|e| e.to_string());
            (ran, fork_ms, work_ms)
        });
        let (measurement, counters, digest) = match ran {
            Ok(r) => r,
            Err(e) => return Unit::failed(index, format!("{cell:?}: {e}")),
        };
        Unit {
            ms,
            fork_ms,
            work_ms,
            digest: Fnv::default()
                .word(digest)
                .word(measurement.total_cycles)
                .word(measurement.iterations)
                .finish(),
            counters,
            passed: true,
            probe: None,
            measurement: Some(measurement),
        }
    }

    /// Every round re-runs the same cells from the same templates, so
    /// each cell's digest must repeat exactly; and the tables must stay
    /// near the paper.
    fn check(&self, pass: &Pass) -> Result<(), String> {
        let n = self.cells.len();
        if let Some(i) =
            (n..pass.units.len()).find(|&i| pass.units[i].digest != pass.units[i % n].digest)
        {
            return Err(format!(
                "cell {:?} is not deterministic (unit {i})",
                self.cells[i % n]
            ));
        }
        match self.paper_err_pp(pass) {
            Some(err) if err <= MAX_ERR_PP => Ok(()),
            Some(err) => Err(format!("paper error {err:.2} pp exceeds {MAX_ERR_PP} pp")),
            None => Err("a cell of the first round failed".to_string()),
        }
    }

    fn layer_metrics(&self, traced: &Pass, m: &mut Metrics) {
        let err = self.paper_err_pp(traced).unwrap_or(0.0);
        println!("hbench: paper_err_pp {err:.4} (18 Table 1 overhead cells + 2 Figure 6 averages)");
        m.set("paper_err_pp", err);
        for (mode, name) in ["native", "kvm", "hypernel"].iter().enumerate() {
            let (mut t1_ms, mut t1_iters, mut f6_ms, mut f6_runs) = (0.0, 0u64, 0.0, 0u64);
            for (unit, cell) in traced.units.iter().zip(self.cells.iter().cycle()) {
                if cell.mode != mode {
                    continue;
                }
                match cell.row {
                    Row::Table1(_) => {
                        t1_ms += unit.work_ms;
                        t1_iters += unit.measurement.map_or(0, |x: Measurement| x.iterations);
                    }
                    Row::Fig6(_) => {
                        f6_ms += unit.work_ms;
                        f6_runs += 1;
                    }
                }
            }
            m.set(
                &format!("workloads.table1_us.{name}"),
                ratio(t1_ms * 1e3, t1_iters as f64),
            );
            m.set(
                &format!("workloads.fig6_ms.{name}"),
                ratio(f6_ms, f6_runs as f64),
            );
        }
    }
}
