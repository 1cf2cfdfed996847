//! §IV-C system integration: DIMM vs PCIe deployment feasibility, peak
//! power, thermal verdict, and one-time database load cost per design.
//!
//! Paper claims encoded here: a typical DDR4 DIMM (~0.37 W/GB, 25 GB/s) is
//! sufficient for Type-1; Type-2 needs at least PCIe 3.0 ×8 and Type-3 at
//! least PCIe 4.0 ×16; database loading is a one-time cost amortized by
//! long-lived databases.

use sieve_bench::runner::bench_geometry;
use sieve_bench::table::Table;
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::thermal::ThermalVerdict;
use sieve_core::{SieveApi, SieveConfig, Transport};

fn main() {
    let built = build(Workload::FIG13[0], BenchScale::default());
    println!("Deployment feasibility and load cost (paper-scale power figures)\n");
    let mut t = Table::new([
        "Design",
        "Peak power (32 GB)",
        "DIMM?",
        "PCIe?",
        "Thermal (PCIe)",
        "Load time (ms)",
        "Queries to 1% load overhead",
    ]);
    for config in [
        SieveConfig::type1(),
        SieveConfig::type2(16),
        SieveConfig::type3(8),
    ] {
        // Power at paper scale (the full 32 GB module).
        let peak = SieveApi::peak_power_w(&config);
        let bench_config = config.clone().with_geometry(bench_geometry());
        // The check `deploy` runs before it loads anything; the PCIe
        // deploy below shows that the layout builds.
        let dimm_ok = Transport::dimm()
            .validate(&bench_config, SieveApi::peak_power_w(&bench_config))
            .is_ok();
        let api = SieveApi::deploy(
            bench_config,
            Transport::pcie_gen4_x16(),
            built.dataset.entries.clone(),
        )
        .expect("PCIe deploys every design");
        let verdict = match api.thermal_verdict() {
            ThermalVerdict::Nominal => "nominal",
            ThermalVerdict::RefreshDerated => "refresh x2",
            ThermalVerdict::OverLimit => "OVER LIMIT",
        };
        let load = api.load_report();
        t.row([
            config.device.label(),
            format!("{peak:.1} W"),
            if dimm_ok { "yes" } else { "no" }.to_string(),
            "yes".to_string(),
            verdict.to_string(),
            format!("{:.2}", load.total_ps() as f64 / 1e9),
            format!("{:.1e}", load.amortization_queries(1e8, 0.01) as f64),
        ]);
    }
    t.emit("deployment_table");
    println!("Paper: DIMM power (~0.37 W/GB) suffices for Type-1 only; Type-2 needs");
    println!(">= PCIe 3.0 x8, Type-3 >= PCIe 4.0 x16. Database loading is one-time");
    println!("and amortizes over the long lifetimes of standard reference databases.");
}
