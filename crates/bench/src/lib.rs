//! # sieve-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! Sieve paper's evaluation (see DESIGN.md §4 for the experiment index).
//! Each `src/bin/*.rs` binary prints one table/figure as text and writes a
//! CSV under `results/`:
//!
//! | binary | paper result |
//! |--------|--------------|
//! | `fig01_breakdown` | Fig. 1 — execution-time breakdown of six apps |
//! | `table1_config` | Table I — workstation configuration |
//! | `table2_queries` | Table II — query-file summary |
//! | `fig06_esp` | Fig. 6 — expected-shared-prefix characterization |
//! | `table3_components` | Table III — component energy/latency |
//! | `area_table` | §VI-A — area overheads |
//! | `table_rowop_latency` | §III — row-operation latencies (Figs. 4–5) |
//! | `fig13_row_vs_col` | Fig. 13 — row-major vs ComputeDRAM vs Sieve |
//! | `fig14_cpu_comparison` | Fig. 14 — T1/T2.16CB/T3.8SA vs CPU |
//! | `fig15_gpu_comparison` | Fig. 15 — vs GPU |
//! | `fig16_salp_sweep` | Fig. 16 — SALP × capacity sweep |
//! | `fig17_cb_sweep` | Fig. 17 — compute-buffer sweep |
//! | `etm_sensitivity` | §VI-C — ETM off |
//! | `pcie_overhead` | §VI-C — PCIe overhead |
//!
//! Run everything with `cargo run -p sieve-bench --bin <name> --release`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runner;
pub mod table;
pub mod workloads;
