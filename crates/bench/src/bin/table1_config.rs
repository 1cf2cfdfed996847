//! Table I: the workstation configuration used for the CPU/GPU baselines.

use sieve_baselines::cpu::CpuConfig;
use sieve_baselines::gpu::GpuConfig;
use sieve_bench::table::Table;

fn main() {
    let cpu = CpuConfig::xeon_e5_2658v4();
    let gpu = GpuConfig::titan_x_pascal();
    println!("Table I: workstation configuration\n");
    let mut t = Table::new(["Parameter", "Value"]);
    t.row(["CPU Model", "Intel(R) Xeon(R) E5-2658 v4 (modelled)"]);
    t.row([
        "Core / Thread / Frequency".to_string(),
        format!("{} / 24 / 2.8 GHz", cpu.cores),
    ]);
    t.row(["L1 / L2 / L3", "32 KB / 256 KB / 35 MB"]);
    t.row(["Main Memory", "DDR4-2400, 32 GB, 2 channels, 2 ranks"]);
    t.row([
        "Modelled MLP / probes / TLB".to_string(),
        format!(
            "{} overlapped misses, >= {} probes/lookup, {} ns TLB",
            cpu.mlp, cpu.min_probes_per_lookup, cpu.tlb_miss_ns
        ),
    ]);
    t.row([
        "GPU Model".to_string(),
        format!(
            "Pascal NVIDIA Titan X (modelled: {:.0} GB/s peak, {:.0}% random eff.)",
            gpu.peak_bw_bytes_per_s / 1e9,
            gpu.random_efficiency * 100.0
        ),
    ]);
    t.emit("table1_config");
}
