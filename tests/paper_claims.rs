//! The paper's numbers, pinned: every cell of Table 1, Figure 6,
//! Table 2 and the §6.3 bitmap-cache ablation as an exact golden value,
//! plus a band around each headline average the paper reports.
//!
//! The cells come from the drivers the printing benches use
//! (`hypernel_bench::{lmbench_on, app_on, trap_events,
//! bitmap_cache_ablation}`), so a change
//! that moves any simulated cycle or trap count fails here, in either
//! direction. On a mismatch the test prints every cell as got/want and
//! the measured table as source, so a deliberate re-pin is a
//! copy-paste; nothing rewrites the golden values by itself. The bands
//! then check that a re-pinned table still tells the paper's story.
//! One test per table, so the four run in parallel.

use hypernel::Mode;
use hypernel_bench::{app_on, bitmap_cache_ablation, lmbench_on, trap_events};
use hypernel_kernel::kernel::MonitorMode;
use hypernel_workloads::{AppBenchmark, LmbenchOp};

const MODES: [Mode; 3] = [Mode::Native, Mode::KvmGuest, Mode::Hypernel];

/// Table 1: total cycles of `hypernel_bench::LMBENCH_ITERS` (100)
/// iterations on a fresh system, native / KVM guest / Hypernel.
const TABLE1: [(LmbenchOp, [u64; 3]); 9] = [
    (LmbenchOp::SyscallStat, [219926, 219926, 219926]),
    (LmbenchOp::SignalInstall, [78190, 78478, 78238]),
    (LmbenchOp::SignalOverhead, [338718, 338958, 339228]),
    (LmbenchOp::PipeLatency, [1150000, 1310000, 1242000]),
    (LmbenchOp::SocketLatency, [1570000, 1890000, 1662000]),
    (LmbenchOp::ForkExit, [31227758, 38354879, 35260960]),
    (LmbenchOp::ForkExecve, [32771880, 41764427, 38831738]),
    (LmbenchOp::PageFault, [180760, 236815, 230100]),
    (LmbenchOp::Mmap, [2841438, 3387281, 3245496]),
];

/// Figure 6: total cycles of one run of each application on a fresh,
/// prepared system, native / KVM guest / Hypernel.
const FIGURE6: [(AppBenchmark, [u64; 3]); 5] = [
    (AppBenchmark::Whetstone, [5017386, 5425237, 5119266]),
    (AppBenchmark::Dhrystone, [6340239, 6695299, 6442119]),
    (AppBenchmark::Untar, [74332296, 109688029, 74434382]),
    (AppBenchmark::Iozone, [6130571, 6764207, 6213021]),
    (AppBenchmark::Apache, [71695931, 79770814, 74081207]),
];

/// Table 2: MBM events matched under Hypernel, whole-object (the
/// paper's page-granularity estimate) / sensitive-field (word
/// granularity) monitoring.
const TABLE2: [(AppBenchmark, [u64; 2]); 5] = [
    (AppBenchmark::Whetstone, [393, 38]),
    (AppBenchmark::Dhrystone, [270, 23]),
    (AppBenchmark::Untar, [126746, 9608]),
    (AppBenchmark::Iozone, [2617, 113]),
    (AppBenchmark::Apache, [8936, 193]),
];

/// The §6.3 ablation: the MBM's bitmap lookups and its DRAM fetches of
/// bitmap words over 400 monitored file create/write/stat cycles, with
/// the bitmap cache disabled and at 4, 16, 64 and 256 words. Every
/// lookup misses a disabled cache.
const ABLATION: [(Option<usize>, [u64; 2]); 5] = [
    (None, [64410, 64410]),
    (Some(4), [64410, 2686]),
    (Some(16), [64410, 1089]),
    (Some(64), [64410, 991]),
    (Some(256), [64410, 963]),
];

/// Table 1's averages may sit within 2 percentage points of the
/// paper's +15.5% (KVM) and +8.8% (Hypernel); they read +15.0% and
/// +9.7%.
const TABLE1_BAND_PP: f64 = 2.0;
/// Figure 6's averages may sit within 4 percentage points of the
/// paper's +13.5% and +3.1%; they read +16.6% and +1.7%, the known
/// residual of modelling untar as one process.
const FIGURE6_BAND_PP: f64 = 4.0;
/// Table 2's mean word/page ratio may sit within 1 percentage point of
/// the paper's 6.2%; it reads 6.4%.
const TABLE2_BAND_PP: f64 = 1.0;

/// Measures every row of `pinned` with `measure` and fails, listing
/// every moved cell and the measured table as source, unless all of
/// them equal their pin. Returns the measured rows.
fn assert_pinned<K: Copy + std::fmt::Debug, const N: usize>(
    table: &str,
    columns: [&str; N],
    pinned: &[(K, [u64; N])],
    measure: impl Fn(K, usize) -> u64,
) -> Vec<[u64; N]> {
    let got: Vec<[u64; N]> = pinned
        .iter()
        .map(|&(row, _)| std::array::from_fn(|col| measure(row, col)))
        .collect();
    let mut moved = String::new();
    let mut source = String::new();
    for ((row, want), got) in pinned.iter().zip(&got) {
        for col in 0..N {
            if got[col] != want[col] {
                moved += &format!(
                    "  {row:?} {}: got {}, want {}\n",
                    columns[col], got[col], want[col]
                );
            }
        }
        let cells: Vec<String> = got.iter().map(u64::to_string).collect();
        let ty = std::any::type_name::<K>().rsplit("::").next().unwrap_or("");
        source += &format!("    ({ty}::{row:?}, [{}]),\n", cells.join(", "));
    }
    assert!(
        moved.is_empty(),
        "{table} moved off its pin (got/want):\n{moved}measured table, to re-pin:\n{source}"
    );
    got
}

/// The mean of `f` over `rows`, as a percentage.
fn mean_pct<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    100.0 * rows.iter().map(f).sum::<f64>() / rows.len() as f64
}

fn assert_band(what: &str, avg: f64, paper: f64, band_pp: f64) {
    assert!(
        (avg - paper).abs() <= band_pp,
        "{what}: measured {avg:.2}% is more than {band_pp} pp from the paper's {paper:.2}%"
    );
}

#[test]
fn table1_lmbench_cycles_are_pinned() {
    let got = assert_pinned(
        "Table 1",
        ["native", "kvm", "hypernel"],
        &TABLE1,
        |op, mode| lmbench_on(MODES[mode], op).expect("run").total_cycles,
    );
    let ops = TABLE1.map(|(op, _)| op);
    assert_eq!(&ops[..], LmbenchOp::ALL, "every Table 1 row is pinned");
    for (mode, name, paper_us) in [
        (1, "KVM", LmbenchOp::paper_kvm_us as fn(LmbenchOp) -> f64),
        (2, "Hypernel", LmbenchOp::paper_hypernel_us),
    ] {
        let what = format!("Table 1 {name} average");
        let avg = mean_pct(&got, |c| c[mode] as f64 / c[0] as f64 - 1.0);
        let paper = mean_pct(&ops, |&op| paper_us(op) / op.paper_native_us() - 1.0);
        assert_band(&what, avg, paper, TABLE1_BAND_PP);
    }
}

#[test]
fn figure6_app_cycles_are_pinned() {
    let got = assert_pinned(
        "Figure 6",
        ["native", "kvm", "hypernel"],
        &FIGURE6,
        |app, mode| app_on(MODES[mode], app).expect("app run").total_cycles,
    );
    let apps = FIGURE6.map(|(app, _)| app);
    assert_eq!(&apps[..], AppBenchmark::ALL, "every Figure 6 row is pinned");
    for (mode, name) in [(1, "KVM"), (2, "Hypernel")] {
        let what = format!("Figure 6 {name} average");
        let avg = mean_pct(&got, |c| c[mode] as f64 / c[0] as f64 - 1.0);
        let paper = 100.0 * AppBenchmark::PAPER_AVG_OVERHEAD[mode - 1];
        assert_band(&what, avg, paper, FIGURE6_BAND_PP);
    }
}

#[test]
fn table2_trap_events_are_pinned() {
    let granularity = [MonitorMode::WholeObject, MonitorMode::SensitiveFields];
    let got = assert_pinned(
        "Table 2",
        ["whole-object", "sensitive-field"],
        &TABLE2,
        |app, col| trap_events(app, granularity[col]).expect("monitored run"),
    );
    let apps = TABLE2.map(|(app, _)| app);
    assert_eq!(&apps[..], AppBenchmark::ALL, "every Table 2 row is pinned");
    let avg = mean_pct(&got, |c| c[1] as f64 / c[0] as f64);
    let paper = mean_pct(&apps, |app| {
        app.paper_word_granularity_events() as f64 / app.paper_page_granularity_events() as f64
    });
    assert_band("Table 2 mean word/page ratio", avg, paper, TABLE2_BAND_PP);
}

#[test]
fn bitmap_cache_ablation_is_pinned() {
    let runs: Vec<_> = ABLATION
        .iter()
        .map(|&(words, _)| bitmap_cache_ablation(words).expect("ablation run"))
        .collect();
    assert_pinned(
        "Bitmap-cache ablation",
        ["lookups", "DRAM fetches"],
        &ABLATION,
        |words, col| {
            let (mbm, _) = runs[ABLATION.iter().position(|r| r.0 == words).expect("row")];
            [mbm.bitmap_lookups, mbm.device_reads][col]
        },
    );
    // The hit-rate column shares the lookups column's base: the bitmap
    // cache counts exactly the monitor's lookups, and each miss is one
    // DRAM fetch.
    for (&(words, _), (mbm, cache)) in ABLATION.iter().zip(&runs) {
        assert_eq!(cache.hits + cache.misses, mbm.bitmap_lookups, "{words:?}");
        assert_eq!(cache.misses, mbm.device_reads, "{words:?}");
    }
}
