//! **Table 2** — Comparison of the number of trap events under
//! page-granularity vs word-granularity kernel monitoring.
//!
//! Reproduces the paper's §7.2 experiment: two versions of the security
//! solution monitor the `cred` and `dentry` objects on Hypernel — one
//! watching only the sensitive fields (word granularity), one watching
//! every field of the objects. The second count estimates what a
//! page-granularity (read-only page) scheme would pay, because slab
//! packing aggregates the objects into dedicated pages (paper's
//! estimation method). The MBM's matched-event counter is the "number of
//! interrupts generated".
//!
//! Our workloads run ~10× smaller than the paper's for untar/apache
//! (counts scale linearly; the ratio — the paper's claim — does not).
//!
//! Run with `cargo bench -p hypernel-bench --bench table2_traps`.

use hypernel_bench::{rule, trap_events};
use hypernel_kernel::kernel::MonitorMode;
use hypernel_workloads::AppBenchmark;

fn main() {
    println!("Table 2: Comparison of the number of trap events");
    println!("(page-granularity estimated by whole-object monitoring, as in the paper)");
    rule(108);
    println!(
        "{:<11} | {:>12} {:>10} {:>8} | {:>12} {:>10} {:>8} | {:>7}",
        "benchmark", "page-gran", "word-gran", "ratio", "p:page", "p:word", "p:ratio", "scale"
    );
    rule(108);

    let mut ratios = Vec::new();
    let mut paper_ratios = Vec::new();
    for &bench in AppBenchmark::ALL {
        let page = trap_events(bench, MonitorMode::WholeObject).expect("whole-object run");
        let word = trap_events(bench, MonitorMode::SensitiveFields).expect("sensitive-field run");
        let ratio = word as f64 / page.max(1) as f64;
        let p_page = bench.paper_page_granularity_events();
        let p_word = bench.paper_word_granularity_events();
        let p_ratio = p_word as f64 / p_page as f64;
        ratios.push(ratio);
        paper_ratios.push(p_ratio);
        println!(
            "{:<11} | {:>12} {:>10} {:>7.1}% | {:>12} {:>10} {:>7.1}% | {:>6.0}x",
            bench.label(),
            page,
            word,
            ratio * 100.0,
            p_page,
            p_word,
            p_ratio * 100.0,
            bench.paper_scale_factor(),
        );
    }
    rule(108);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average word/page ratio: measured {:.1}%  |  paper {:.1}% (\"about 6.2% of trap events\")",
        avg(&ratios) * 100.0,
        avg(&paper_ratios) * 100.0
    );
}
