//! Quickstart: build a reference k-mer database, load it into a Type-3
//! Sieve device, and look up a batch of query k-mers.
//!
//! Run with: `cargo run --example quickstart --release`

use sieve::core::{SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::synth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a small reference: 8 bacterial genomes, k = 31.
    let dataset = synth::make_dataset_with(8, 4096, 31, 42);
    println!(
        "reference: {} genomes, {} distinct 31-mers",
        dataset.genomes.len(),
        dataset.entries.len()
    );

    // 2. Load it into a throughput-optimized Type-3 device (8 concurrent
    //    subarrays per bank), on a scaled-down geometry.
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let device = SieveDevice::new(config, dataset.entries.clone())?;
    println!(
        "device: {} | {} occupied subarrays | index table {} bytes",
        device.config().device.label(),
        device.layout().occupied_subarrays(),
        device.layout().index_table_bytes(),
    );

    // 3. Query it: sequencing reads become streams of k-mers.
    let (reads, _) = synth::simulate_reads(&dataset, synth::ReadSimConfig::default(), 100, 7);
    let queries: Vec<_> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, kmer)| kmer))
        .collect();
    let out = device.run(&queries)?;

    // 4. Inspect the results and the simulation report.
    println!(
        "\n{} queries  →  {} hits ({:.2}% hit rate)",
        out.report.queries,
        out.report.hits,
        100.0 * out.report.hits as f64 / out.report.queries as f64
    );
    println!(
        "makespan {:.1} µs | {:.1} M queries/s | {:.2} nJ/query",
        out.report.makespan_ps as f64 / 1e6,
        out.report.throughput_qps() / 1e6,
        out.report.energy_per_query_nj()
    );
    println!(
        "row activations: {} ({} without ETM → {:.1}% pruned)",
        out.report.row_activations,
        out.report.rows_without_etm,
        100.0 * out.report.etm_savings()
    );
    Ok(())
}
