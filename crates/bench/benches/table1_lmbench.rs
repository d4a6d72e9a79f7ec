//! **Table 1** — Execution time of kernel operations (µs) under the
//! Native, KVM-guest and Hypernel configurations.
//!
//! Regenerates the paper's Table 1 rows: nine LMbench kernel operations,
//! measured per-iteration in modeled microseconds at 1.15 GHz, with the
//! paper's own numbers printed alongside for shape comparison.
//!
//! Run with `cargo bench -p hypernel-bench --bench table1_lmbench`.

use hypernel::Mode;
use hypernel_bench::{lmbench_on, pct, rule};
use hypernel_workloads::LmbenchOp;

fn main() {
    println!("Table 1: Execution time of kernel operations (us)");
    println!("(measured = this simulation; paper = DAC'18 Table 1)");
    rule(118);
    println!(
        "{:<15} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "test",
        "native",
        "kvm",
        "hyperN",
        "p:native",
        "p:kvm",
        "p:hyperN",
        "kvm ovh",
        "p:kvm",
        "hyp ovh",
        "p:hyp"
    );
    rule(118);

    let mut kvm_overheads = Vec::new();
    let mut hyp_overheads = Vec::new();
    let mut paper_kvm = Vec::new();
    let mut paper_hyp = Vec::new();

    for &op in LmbenchOp::ALL {
        let native = lmbench_on(Mode::Native, op).expect("native run");
        let kvm = lmbench_on(Mode::KvmGuest, op).expect("kvm run");
        let hypernel = lmbench_on(Mode::Hypernel, op).expect("hypernel run");

        let kvm_ovh = kvm.overhead_vs(&native);
        let hyp_ovh = hypernel.overhead_vs(&native);
        let p_kvm = op.paper_kvm_us() / op.paper_native_us() - 1.0;
        let p_hyp = op.paper_hypernel_us() / op.paper_native_us() - 1.0;
        kvm_overheads.push(kvm_ovh);
        hyp_overheads.push(hyp_ovh);
        paper_kvm.push(p_kvm);
        paper_hyp.push(p_hyp);

        println!(
            "{:<15} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} | {:>9} {:>9} | {:>9} {:>9}",
            op.label(),
            native.micros_per_iter(),
            kvm.micros_per_iter(),
            hypernel.micros_per_iter(),
            op.paper_native_us(),
            op.paper_kvm_us(),
            op.paper_hypernel_us(),
            pct(kvm_ovh),
            pct(p_kvm),
            pct(hyp_ovh),
            pct(p_hyp),
        );
    }
    rule(118);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "{:<15} | {:>26} | {:>26} | {:>9} {:>9} | {:>9} {:>9}",
        "average",
        "",
        "",
        pct(avg(&kvm_overheads)),
        pct(avg(&paper_kvm)),
        pct(avg(&hyp_overheads)),
        pct(avg(&paper_hyp)),
    );
    println!();
    println!(
        "paper: \"the kernel gets slower by 15.5% and 8.8%, respectively with KVM and Hypernel\""
    );
    println!(
        "measured: {} (KVM), {} (Hypernel)",
        pct(avg(&kvm_overheads)),
        pct(avg(&hyp_overheads))
    );
}
