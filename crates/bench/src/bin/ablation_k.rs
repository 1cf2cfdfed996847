//! Ablation: k-mer length sensitivity. The paper fixes k = 31 (§V); Sieve
//! supports any k ≤ 32, with Region 1 holding 2k rows — shorter k means
//! fewer rows per lookup but a denser k-mer space (more accidental hits).

use sieve_bench::runner::bench_geometry;
use sieve_bench::table::{pct, ratio, Table};
use sieve_core::{SieveConfig, SieveDevice};
use sieve_genomics::synth;

fn main() {
    println!("Ablation: k-mer length (Type-3, 8 SA)\n");
    let mut t = Table::new([
        "k",
        "Region-1 rows",
        "Avg rows/lookup",
        "ETM savings",
        "Hit rate",
        "Throughput vs k=31",
    ]);
    let mut rows = Vec::new();
    for k in [15usize, 21, 25, 31] {
        let ds = synth::make_dataset_with(32, 8192, k, 999);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 500, 1000);
        let queries: Vec<_> = reads
            .iter()
            .flat_map(|r| r.kmers(k).map(|(_, km)| km))
            .collect();
        let device = SieveDevice::new(
            SieveConfig::type3(8)
                .with_geometry(bench_geometry())
                .with_k(k),
            ds.entries.clone(),
        )
        .expect("fits");
        let report = device.run(&queries).expect("valid").report;
        let qps = report.throughput_qps();
        rows.push((k, report, qps));
    }
    let k31_qps = rows.last().expect("k=31 present").2;
    for (k, report, qps) in rows {
        t.row([
            k.to_string(),
            (2 * k).to_string(),
            format!(
                "{:.1}",
                report.row_activations as f64 / report.queries as f64
            ),
            pct(report.etm_savings()),
            pct(report.hits as f64 / report.queries as f64),
            ratio(qps / k31_qps),
        ]);
    }
    t.emit("ablation_k");
    println!("Shorter k: fewer rows per lookup but denser space (longer shared");
    println!("prefixes relative to 2k, higher hit rates). k=31 is the paper's choice.");
}
