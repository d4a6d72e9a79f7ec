//! **Figure 6** — Application benchmark results: normalized execution
//! time of whetstone, dhrystone, untar, iozone and apache under the
//! Native, KVM-guest and Hypernel configurations.
//!
//! The paper reports the figure's summary statistics in §7.1.2: "On
//! average, KVM-guest and Hypernel incur 13.5% and 3.1% of the
//! performance overhead, respectively," with compute-bound benchmarks
//! near native and the kernel-heavy ones (untar, apache) carrying the
//! overhead.
//!
//! Run with `cargo bench -p hypernel-bench --bench figure6_apps`.

use hypernel::Mode;
use hypernel_bench::{app_on, pct, rule};
use hypernel_workloads::AppBenchmark;

fn main() {
    let [paper_kvm, paper_hyp] = AppBenchmark::PAPER_AVG_OVERHEAD.map(pct);
    println!("Figure 6: Application benchmarks — normalized execution time");
    println!("(1.00 = native; paper reports the averages: KVM {paper_kvm}, Hypernel {paper_hyp})");
    rule(78);
    println!(
        "{:<11} | {:>12} | {:>8} {:>8} | {:>9} {:>9}",
        "benchmark", "native (Mcy)", "kvm", "hyperN", "kvm ovh", "hyp ovh"
    );
    rule(78);

    let mut kvm_overheads = Vec::new();
    let mut hyp_overheads = Vec::new();
    for &bench in AppBenchmark::ALL {
        let native = app_on(Mode::Native, bench).expect("native run");
        let kvm = app_on(Mode::KvmGuest, bench).expect("kvm run");
        let hypernel = app_on(Mode::Hypernel, bench).expect("hypernel run");
        let kvm_norm = kvm.total_cycles as f64 / native.total_cycles as f64;
        let hyp_norm = hypernel.total_cycles as f64 / native.total_cycles as f64;
        kvm_overheads.push(kvm_norm - 1.0);
        hyp_overheads.push(hyp_norm - 1.0);
        println!(
            "{:<11} | {:>12.2} | {:>8.3} {:>8.3} | {:>9} {:>9}",
            bench.label(),
            native.total_cycles as f64 / 1e6,
            kvm_norm,
            hyp_norm,
            pct(kvm_norm - 1.0),
            pct(hyp_norm - 1.0),
        );
    }
    rule(78);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "{:<11} | {:>12} | {:>8} {:>8} | {:>9} {:>9}",
        "average",
        "",
        "",
        "",
        pct(avg(&kvm_overheads)),
        pct(avg(&hyp_overheads)),
    );
    println!();
    println!("paper:    KVM-guest {paper_kvm}, Hypernel {paper_hyp} (average)");
    println!(
        "measured: KVM-guest {}, Hypernel {}",
        pct(avg(&kvm_overheads)),
        pct(avg(&hyp_overheads))
    );
}
