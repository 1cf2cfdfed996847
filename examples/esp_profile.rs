//! Profile the Expected Shared Prefix of a query stream against a loaded
//! device — the statistic behind Sieve's Early Termination Mechanism
//! (paper §III, Figure 6).
//!
//! Run with: `cargo run --example esp_profile --release`

use sieve::core::etm::RowTable;
use sieve::core::{DeviceLayout, SieveConfig};
use sieve::dram::Geometry;
use sieve::genomics::synth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = synth::make_dataset_with(16, 8192, 31, 77);
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let layout = DeviceLayout::build(dataset.entries.clone(), &config)?;

    let (reads, _) = synth::simulate_reads(&dataset, synth::ReadSimConfig::default(), 300, 78);
    // Route and resolve every query k-mer as the device's match pass
    // does: a search of all the reference keys gives each query's rank,
    // which names its subarray and its neighbours there.
    let keys: Vec<u64> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, q)| q.bits()))
        .collect();
    let mut ranks = vec![0; keys.len()];
    layout.ranks(&keys, &mut ranks);
    let table = RowTable::new(62, true, 1);
    let mut rows_hist = vec![0u64; 63];
    let mut total_rows = 0u64;
    for (&key, &g) in keys.iter().zip(&ranks) {
        let rows = layout.resolve(key, g, &table).outcome.rows;
        rows_hist[rows as usize] += 1;
        total_rows += u64::from(rows);
    }
    let queries = keys.len() as u64;

    println!("rows-activated distribution over {queries} lookups (62 = full scan):\n");
    let max = *rows_hist.iter().max().unwrap_or(&1);
    for (rows, &count) in rows_hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat((count * 48 / max.max(1)) as usize);
        println!("{rows:>3} rows | {bar} {count}");
    }
    let avg = total_rows as f64 / queries as f64;
    println!(
        "\naverage: {avg:.1} of 62 rows  →  ETM prunes {:.1}%",
        100.0 * (1.0 - avg / 62.0)
    );
    println!("(the mode sits near log2(|DB|)+2 bits — the shared prefix with the");
    println!(" query's nearest sorted neighbours; hits and near-misses reach 62)");
    Ok(())
}
