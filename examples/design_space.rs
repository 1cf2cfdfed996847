//! Explore the Sieve design space (the paper's §IV/VI trade-off): Type-1
//! (area-optimized) vs Type-2 sweeps (balanced) vs Type-3 (throughput-
//! optimized), on one workload.
//!
//! Run with: `cargo run --example design_space --release`

use sieve::core::area::AreaModel;
use sieve::core::{SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::synth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = synth::make_dataset_with(16, 8192, 31, 5);
    let (reads, _) = synth::simulate_reads(&dataset, synth::ReadSimConfig::default(), 300, 6);
    let queries: Vec<_> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, kmer)| kmer))
        .collect();
    let geometry = Geometry::new(1, 2, 128, 512, 8192)?;
    let area = AreaModel::paper();

    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "design", "throughput", "energy/query", "area"
    );
    // Type-1 has its own layout; every Type-2 and Type-3 point shares one.
    let load = |config: SieveConfig| {
        SieveDevice::new(config.with_geometry(geometry), dataset.entries.clone())
    };
    let (t1, t23) = (load(SieveConfig::type1())?, load(SieveConfig::type3(1))?);
    let mut runs = vec![(&t1, SieveConfig::type1())];
    for cb in [1u32, 16, 128] {
        runs.push((&t23, SieveConfig::type2(cb)));
    }
    for salp in [1u32, 8, 64] {
        runs.push((&t23, SieveConfig::type3(salp)));
    }
    for (device, config) in runs {
        let config = config.with_geometry(geometry);
        let out = device.run_as(&config, &queries)?;
        println!(
            "{:<10} {:>11.2} Mq/s {:>11.2} nJ {:>9.2}%",
            out.report.device,
            out.report.throughput_qps() / 1e6,
            out.report.energy_per_query_nj(),
            100.0 * area.overhead(config.device),
        );
    }
    println!("\nThe paper's conclusion: Type-1 is cheap but slow; Type-2 trades hop");
    println!("latency against buffer area; Type-3 pays ~11% area for subarray-level");
    println!("parallelism and wins on throughput.");
    Ok(())
}
