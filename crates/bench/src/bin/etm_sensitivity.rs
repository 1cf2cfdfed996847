//! §VI-C ETM sensitivity: the adversarial case where early termination
//! never helps (modelled by switching ETM off in Type-2/3).
//!
//! Paper result: even without ETM, Type-2/3 remain 1.34–155× faster and
//! 4.15–36× more energy efficient than the CPU, and 1.3–9.54× faster than
//! the GPU.

use sieve_bench::runner;
use sieve_bench::table::{ratio, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::SieveConfig;

fn main() {
    println!("ETM sensitivity: Type-2/3 with ETM disabled\n");
    let mut t = Table::new([
        "Workload",
        "T2.16CB vs CPU",
        "T3.8SA vs CPU",
        "T2.16CB vs GPU",
        "T3.8SA vs GPU",
        "T3 energy vs CPU",
    ]);
    for workload in [Workload::FIG13[0], Workload::FIG13[4], Workload::FIG13[8]] {
        let built = build(workload, BenchScale::default());
        let cpu = runner::run_cpu(&built);
        let gpu = runner::run_gpu(&built);
        // T2.16CB and T3.8SA lay the references out alike.
        let device = runner::load_sieve(SieveConfig::type3(8), &built);
        let t2 = runner::run_loaded(&device, SieveConfig::type2(16).with_etm(false), &built);
        let t3 = runner::run_loaded(&device, SieveConfig::type3(8).with_etm(false), &built);
        t.row([
            workload.name(),
            ratio(t2.speedup_over(&cpu.report)),
            ratio(t3.speedup_over(&cpu.report)),
            ratio(t2.speedup_over(&gpu)),
            ratio(t3.speedup_over(&gpu)),
            ratio(t3.energy_saving_over(&cpu.report)),
        ]);
    }
    t.emit("etm_sensitivity");
    println!("Paper: without ETM, T2/3 stay 1.34-155x over CPU and 1.3-9.54x over GPU.");
}
