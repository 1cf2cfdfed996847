//! Figure 16: average cycles to process the CPU benchmarks on Type-3, as a
//! function of subarray-level parallelism (1–128 SA) and device capacity
//! (4/8/16/32 GB).
//!
//! Paper shape: cycles fall with more concurrent subarrays and with more
//! capacity (more banks), and the SALP benefit plateaus after ~8
//! subarrays. In this scaled run every workload flattens from 16 SA,
//! also those with more occupied subarrays per bank than that: a bank's
//! four-activation window (tFAW) caps its activation rate, not the
//! subarray count (EXPERIMENTS.md, Figure 16).

use sieve_bench::table::Table;
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::{SieveConfig, SieveDevice};
use sieve_dram::Geometry;

fn main() {
    println!("Figure 16: average cycles (thousands) vs SALP degree and capacity\n");
    // Capacity labels mirror the paper's 4/8/16/32 GB; the bench device
    // scales banks 1:8 from those (the DB scales along).
    let capacities: [(u32, &str, usize); 4] = [
        (1, "T3.4GB", 1),
        (2, "T3.8GB", 2),
        (4, "T3.16GB", 4),
        (8, "T3.32GB", 8),
    ];
    let salp_values = [1u32, 2, 4, 8, 16, 32, 64, 128];
    let mut header: Vec<String> = vec!["SALP".to_string()];
    header.extend(capacities.iter().map(|(_, label, _)| (*label).to_string()));
    let mut t = Table::new(header);

    // Three representative workloads (one per reference), averaged.
    let picks = [Workload::FIG13[0], Workload::FIG13[4], Workload::FIG13[8]];
    let mut cycles = vec![vec![0.0f64; capacities.len()]; salp_values.len()];

    for (ci, (banks, _, ref_mult)) in capacities.iter().enumerate() {
        let geometry = Geometry::new(1, *banks * 2, 128, 512, 8192).expect("valid sweep geometry");
        for workload in picks {
            let built = build(
                workload,
                BenchScale {
                    reference_taxa_multiplier: *ref_mult,
                    reads: 500,
                    ..BenchScale::default()
                },
            );
            // Every SALP degree lays the references out alike: load once.
            let device = SieveDevice::new(
                SieveConfig::type3(1).with_geometry(geometry),
                built.dataset.entries.clone(),
            )
            .expect("fits");
            for (si, salp) in salp_values.iter().enumerate() {
                let config = SieveConfig::type3(*salp).with_geometry(geometry);
                let out = device.run_as(&config, &built.queries).expect("valid");
                let clocks = config.timing.clocks(out.report.makespan_ps);
                cycles[si][ci] += clocks as f64 / picks.len() as f64;
            }
        }
    }

    for (si, salp) in salp_values.iter().enumerate() {
        let mut row = vec![format!("{salp}SA")];
        row.extend(cycles[si].iter().map(|c| format!("{:.0}", c / 1_000.0)));
        t.row(row);
    }
    t.emit("fig16_salp_sweep");
    println!("Paper shape: monotone decrease, plateau after ~8 concurrent subarrays;");
    println!("larger capacity (more banks) lowers cycles at every SALP degree.");
}
