//! The paper's scalability claims (§I, §IV-D): matching throughput scales
//! linearly with storage capacity, and the k-mer → subarray index table
//! stays under 2 MB even at 500 GB.

use sieve_bench::table::Table;
use sieve_core::{SieveConfig, SieveDevice, ENTRY_BYTES};
use sieve_dram::Geometry;
use sieve_genomics::synth;

fn main() {
    println!("Capacity scaling: throughput and index-table size\n");
    let mut t = Table::new([
        "Banks (device)",
        "Occupied subarrays",
        "Throughput (Mq/s)",
        "vs smallest",
        "Index table (KB)",
    ]);
    let mut base = None;
    for (banks, taxa) in [(2u32, 24usize), (4, 48), (8, 96), (16, 192)] {
        let ds = synth::make_dataset_with(taxa, 8192, 31, 31337);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 400, 7);
        let queries: Vec<_> = reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect();
        let geometry = Geometry::new(1, banks, 128, 512, 8192).expect("valid");
        let device = SieveDevice::new(
            SieveConfig::type3(8).with_geometry(geometry),
            ds.entries.clone(),
        )
        .expect("fits");
        let report = device.run(&queries).expect("valid").report;
        let qps = report.throughput_qps();
        let base_qps = *base.get_or_insert(qps);
        t.row([
            banks.to_string(),
            device.layout().occupied_subarrays().to_string(),
            format!("{:.1}", qps / 1e6),
            format!("{:.2}x", qps / base_qps),
            format!("{:.1}", device.layout().index_table_bytes() as f64 / 1024.0),
        ]);
    }
    t.emit("capacity_scaling");
    // The 500 GB index-table claim (§IV-D: "well under 2 MB"), analytically.
    // Granularity matters: §IV-D notes Type-2 can index at bank granularity
    // ("a query needs to be checked against every subarray in that bank").
    let subarrays_500gb = (500u64 << 30) / (512 * 1024);
    let banks_500gb = subarrays_500gb / 512;
    println!(
        "Index table at 500 GB: subarray-granular = {} entries x {} B = {:.1} MB;",
        subarrays_500gb,
        ENTRY_BYTES,
        subarrays_500gb as f64 * ENTRY_BYTES as f64 / (1024.0 * 1024.0)
    );
    println!(
        "                       bank-granular     = {} entries x {} B = {:.1} KB.",
        banks_500gb,
        ENTRY_BYTES,
        banks_500gb as f64 * ENTRY_BYTES as f64 / 1024.0
    );
    println!("The paper's < 2 MB sits between the two granularities; either way the");
    println!("table scales with capacity, not with k (the point of §IV-D).");
    println!("Paper claim: processing power scales linearly with storage capacity.");
}
