//! The paper's stated future work (§VII): Sieve on 3D-stacked DRAM and on
//! NVM. We project Type-3 across technology presets.
//!
//! * **HBM2 (3D-stacked)**: shorter wires tighten the row cycle and cut
//!   activation energy roughly in half; TSV power delivery widens the
//!   activation window (more useful SALP).
//! * **ReRAM NVM**: ~2× slower reads, but no refresh, far lower background
//!   power, and a *persistent* database — the one-time load cost survives
//!   power cycles.

use sieve_bench::runner;
use sieve_bench::table::Table;
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::SieveConfig;
use sieve_dram::{EnergyParams, TimingParams};

fn main() {
    let built = build(Workload::FIG13[0], BenchScale::default());
    // The presets change timing and energy, not the layout: load once.
    let device = runner::load_sieve(SieveConfig::type3(8), &built);
    println!("Future-work projection: Type-3 (8 SA) across memory technologies\n");
    let mut t = Table::new([
        "Technology",
        "Row cycle (ns)",
        "Throughput (Mq/s)",
        "Energy/query (nJ)",
        "Notes",
    ]);
    let variants: [(&str, TimingParams, EnergyParams, &str); 3] = [
        (
            "DDR4 (paper)",
            TimingParams::ddr4_paper(),
            EnergyParams::ddr4_paper(),
            "the evaluated design",
        ),
        (
            "HBM2 (3D-stacked)",
            TimingParams::hbm2(),
            EnergyParams::hbm2(),
            "shorter wires, TSV power",
        ),
        (
            "ReRAM NVM",
            TimingParams::nvm_reram(),
            EnergyParams::nvm_reram(),
            "no refresh; persistent DB",
        ),
    ];
    for (label, timing, energy, notes) in variants {
        let mut config = SieveConfig::type3(8);
        config.timing = timing;
        config.energy = energy;
        let report = runner::run_loaded(&device, config, &built).report;
        t.row([
            label.to_string(),
            format!("{}", timing.row_cycle() / 1000),
            format!("{:.1}", report.throughput_qps() / 1e6),
            format!("{:.1}", report.energy_per_query_nj()),
            notes.to_string(),
        ]);
    }
    t.emit("future_variants");
    println!("HBM trades capacity for speed and energy; NVM trades lookup latency");
    println!("for standby power and persistence — both preserve Sieve's layout, ETM");
    println!("and indexing unchanged (only the substrate presets differ).");
}
