//! Figure 6: characterization of mismatches between k-mers (Expected
//! Shared Prefix).
//!
//! Paper result (MiniKraken 4 GB vs Ancestor-R1.fastq): 96.9 % of first
//! mismatches between a query and the reference k-mers it is compared with
//! occur within the first five bases (10 bits); only 0.17 % of lookups
//! must activate every Region-1 row.
//!
//! Two distributions are reported:
//! * **pairwise** — the first-mismatch bit over every (query, reference)
//!   comparison inside the routed subarray: this is what Figure 6 plots
//!   and what determines how fast *individual latches* die;
//! * **per-lookup max** — the row at which the *last* latch dies, which is
//!   what the ETM actually waits for. For a reference set of N k-mers the
//!   nearest sorted neighbour shares ≈ log2(N) bits, so this distribution
//!   shifts right as the database grows (see EXPERIMENTS.md).

use sieve_bench::runner::bench_geometry;
use sieve_bench::table::{pct, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::etm::RowTable;
use sieve_core::{DeviceLayout, SieveConfig};

fn main() {
    let built = build(
        Workload::FIG13[0],
        BenchScale {
            reads: 500,
            ..BenchScale::default()
        },
    );
    let config = SieveConfig::type3(8).with_geometry(bench_geometry());
    let layout = DeviceLayout::build(built.dataset.entries.clone(), &config)
        .expect("workload fits bench device");

    let bit_len = 62usize;
    let rows = RowTable::new(bit_len, true, 1);
    let mut pairwise = vec![0u64; bit_len + 1];
    let mut lookup_max = vec![0u64; bit_len + 1];
    let mut full_scans = 0u64;

    // Route and resolve every query as the device does, from its rank
    // among all the reference keys.
    let queries: Vec<u64> = built.queries.iter().map(|q| q.bits()).collect();
    let mut ranks = vec![0; queries.len()];
    layout.ranks(&queries, &mut ranks);
    for (&q, &g) in queries.iter().zip(&ranks) {
        let routed = layout.resolve(q, g, &rows);
        // Pairwise distribution: sample every 16th reference for speed.
        // A pair's LCP is where its 62-bit packings first differ, counted
        // from the top (62 when they are equal).
        for &key in layout.subarray(routed.subarray).keys().iter().step_by(16) {
            pairwise[(key ^ q).leading_zeros() as usize - (64 - bit_len)] += 1;
        }
        lookup_max[routed.outcome.max_lcp] += 1;
        if routed.outcome.rows as usize >= bit_len {
            full_scans += 1;
        }
    }
    let lookups = queries.len() as u64;

    let total_pairs: u64 = pairwise.iter().sum();
    let cum = |hist: &[u64], upto: usize| -> f64 {
        let total: u64 = hist.iter().sum();
        hist[..=upto].iter().sum::<u64>() as f64 / total as f64
    };

    println!(
        "Figure 6: first-mismatch characterization ({} lookups)\n",
        lookups
    );
    let mut t = Table::new([
        "Bits checked (bases)",
        "Pairwise first-mismatch <= here",
        "Per-lookup max-LCP <= here",
    ]);
    for bases in [1usize, 2, 3, 4, 5, 8, 12, 16, 24, 31] {
        let bits = 2 * bases;
        t.row([
            format!("{bits:>2} bits ({bases} bases)"),
            pct(cum(&pairwise, bits.min(bit_len))),
            pct(cum(&lookup_max, bits.min(bit_len))),
        ]);
    }
    t.emit("fig06_esp");
    println!(
        "Pairwise mismatches within 10 bits (5 bases): {}   [paper: 96.9%]",
        pct(cum(&pairwise, 10))
    );
    println!(
        "Lookups activating all {} rows: {}   [paper: 0.17%]",
        bit_len,
        pct(full_scans as f64 / lookups as f64)
    );
    println!("(pairs sampled: {total_pairs})");
}
