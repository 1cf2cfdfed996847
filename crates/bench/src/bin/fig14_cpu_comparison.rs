//! Figure 14: T1 / T2.16CB / T3.8SA speedup and energy savings over the
//! CPU baseline across the nine workloads (32 GB devices).
//!
//! Paper shape: T1 gives 1.01–3.8× for 8 of 9 benchmarks; T2.16CB reaches
//! 3.74–76.62× (avg ~55×); T3.8SA reaches up to 404× (avg 210–326×) with
//! energy savings up to ~94×.

use sieve_bench::runner;
use sieve_bench::table::{ratio, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::SieveConfig;

fn main() {
    println!("Figure 14: comparison with the CPU baseline\n");
    let mut t = Table::new([
        "Workload",
        "T1 speedup",
        "T2.16CB speedup",
        "T3.8SA speedup",
        "T1 energy",
        "T2.16CB energy",
        "T3.8SA energy",
    ]);
    let mut avg = [0.0f64; 6];
    let workloads = Workload::FIG13;
    for workload in workloads {
        let built = build(workload, BenchScale::default());
        let cpu = runner::run_cpu(&built);
        let t1 = runner::run_sieve(SieveConfig::type1(), &built);
        // T2.16CB and T3.8SA lay the references out alike.
        let device = runner::load_sieve(SieveConfig::type3(8), &built);
        let t2 = runner::run_loaded(&device, SieveConfig::type2(16), &built);
        let t3 = runner::run_loaded(&device, SieveConfig::type3(8), &built);
        let row = [
            t1.speedup_over(&cpu.report),
            t2.speedup_over(&cpu.report),
            t3.speedup_over(&cpu.report),
            t1.energy_saving_over(&cpu.report),
            t2.energy_saving_over(&cpu.report),
            t3.energy_saving_over(&cpu.report),
        ];
        for (a, r) in avg.iter_mut().zip(row) {
            *a += r;
        }
        t.row([
            workload.name(),
            ratio(row[0]),
            ratio(row[1]),
            ratio(row[2]),
            ratio(row[3]),
            ratio(row[4]),
            ratio(row[5]),
        ]);
    }
    let n = workloads.len() as f64;
    t.row([
        "AVERAGE".to_string(),
        ratio(avg[0] / n),
        ratio(avg[1] / n),
        ratio(avg[2] / n),
        ratio(avg[3] / n),
        ratio(avg[4] / n),
        ratio(avg[5] / n),
    ]);
    t.emit("fig14_cpu_comparison");
    println!("Paper: T1 1.01-3.8x; T2.16CB avg ~55x; T3.8SA up to 404x speedup;");
    println!("energy savings up to ~94x (T3).");
}
