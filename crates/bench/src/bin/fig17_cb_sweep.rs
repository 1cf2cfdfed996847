//! Figure 17: the Type-2 compute-buffer sweep — speedup over CPU, area
//! overhead, and energy savings for T1, T2 with 1–128 CBs, and T3.1SA.
//!
//! Paper shape: T2.1CB is 1.39–1.94× faster than T1; speedup and energy
//! efficiency grow with CBs; area grows with CBs; T2.128CB slightly trails
//! T3.1SA, which costs the most area.

use sieve_bench::runner;
use sieve_bench::table::{pct, ratio, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::area::AreaModel;
use sieve_core::{DeviceKind, SieveConfig};

fn main() {
    println!("Figure 17: compute-buffer sweep (averaged over three workloads)\n");
    let area = AreaModel::paper();
    let picks = [Workload::FIG13[0], Workload::FIG13[4], Workload::FIG13[8]];

    let mut configs: Vec<(String, SieveConfig)> = vec![("T1".to_string(), SieveConfig::type1())];
    for cb in [1u32, 2, 4, 8, 16, 32, 64, 128] {
        configs.push((format!("T2.{cb}CB"), SieveConfig::type2(cb)));
    }
    configs.push(("T3.1SA".to_string(), SieveConfig::type3(1)));

    let mut t = Table::new([
        "Design",
        "Speedup over CPU",
        "Energy saving over CPU",
        "Area overhead",
    ]);
    // Per design, its mean speedup and energy saving over the workloads.
    let mut means = vec![(0.0, 0.0); configs.len()];
    for workload in picks {
        let built = build(
            workload,
            BenchScale {
                reads: 500,
                ..BenchScale::default()
            },
        );
        let cpu = runner::run_cpu(&built);
        // Every Type-2 and Type-3 point shares one layout; Type-1 has its own.
        let t23 = runner::load_sieve(SieveConfig::type3(1), &built);
        for ((_, config), (speedup, energy)) in configs.iter().zip(&mut means) {
            let run = match config.device {
                DeviceKind::Type1 => runner::run_sieve(config.clone(), &built),
                _ => runner::run_loaded(&t23, config.clone(), &built),
            };
            *speedup += run.speedup_over(&cpu.report) / picks.len() as f64;
            *energy += run.energy_saving_over(&cpu.report) / picks.len() as f64;
        }
    }
    for ((label, config), (speedup, energy)) in configs.into_iter().zip(means) {
        let overhead = area.overhead(config.device);
        t.row([label, ratio(speedup), ratio(energy), pct(overhead)]);
    }
    t.emit("fig17_cb_sweep");
    println!("Paper shape: speedup/energy rise with CBs; T2.1CB is 1.39-1.94x of T1;");
    println!("T2.128CB slightly trails T3.1SA; area grows with CB count.");
}
