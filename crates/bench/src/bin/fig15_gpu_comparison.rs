//! Figure 15: speedup and energy savings over the GPU baseline for the
//! three CLARK timing workloads (32 GB devices).
//!
//! Paper shape: T1 is 3–5× *slower* than the GPU but more energy
//! efficient; T2.16CB is modestly faster (2.59–9.43×); T3.8SA is 33–55×
//! faster with 84–141× energy savings.

use sieve_bench::runner;
use sieve_bench::table::{ratio, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::SieveConfig;

fn main() {
    println!("Figure 15: comparison with the GPU baseline\n");
    let mut t = Table::new([
        "Workload",
        "T1 speedup",
        "T2.16CB speedup",
        "T3.8SA speedup",
        "T1 energy",
        "T2.16CB energy",
        "T3.8SA energy",
    ]);
    for workload in Workload::FIG15 {
        let built = build(workload, BenchScale::default());
        let gpu = runner::run_gpu(&built);
        let t1 = runner::run_sieve(SieveConfig::type1(), &built);
        // T2.16CB and T3.8SA lay the references out alike.
        let device = runner::load_sieve(SieveConfig::type3(8), &built);
        let t2 = runner::run_loaded(&device, SieveConfig::type2(16), &built);
        let t3 = runner::run_loaded(&device, SieveConfig::type3(8), &built);
        t.row([
            workload.name(),
            ratio(t1.speedup_over(&gpu)),
            ratio(t2.speedup_over(&gpu)),
            ratio(t3.speedup_over(&gpu)),
            ratio(t1.energy_saving_over(&gpu)),
            ratio(t2.energy_saving_over(&gpu)),
            ratio(t3.energy_saving_over(&gpu)),
        ]);
    }
    t.emit("fig15_gpu_comparison");
    println!("Paper: T1 0.2-0.33x (slower but greener); T2 2.59-9.43x; T3 33-55x");
    println!("with 83.77-141.15x energy savings.");
}
