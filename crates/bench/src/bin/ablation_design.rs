//! Ablations over Sieve's design constants (the choices DESIGN.md §5 calls
//! out): ETM segment length, pattern-group size, ETM flush cycles, and the
//! Type-2 hop delay.
//!
//! These are *not* paper figures; they probe how sensitive the headline
//! results are to the paper's specific constants (576-column groups,
//! 256-latch segments, 1 flush cycle, ~4 ns hops).

use sieve_bench::runner::{self};
use sieve_bench::table::{ratio, Table};
use sieve_bench::workloads::{build, BenchScale, Workload};
use sieve_core::SieveConfig;

fn main() {
    let built = build(
        Workload::FIG13[0],
        BenchScale {
            reads: 500,
            ..BenchScale::default()
        },
    );
    let cpu = runner::run_cpu(&built);
    // Only the group sweep changes the layout: one load serves the rest.
    let device = runner::load_sieve(SieveConfig::type3(8), &built);
    let base = runner::run_loaded(&device, SieveConfig::type3(8), &built);
    let base_speedup = base.speedup_over(&cpu.report);

    println!("Ablation: ETM segment length (T3.8SA; affects hit-identify time)\n");
    let mut t = Table::new([
        "Segment latches",
        "Segments/row",
        "Speedup vs CPU",
        "vs default",
    ]);
    for seg in [64u32, 128, 256, 512, 1024] {
        let mut config = SieveConfig::type3(8);
        config.etm_segment_len = seg;
        let run = runner::run_loaded(&device, config, &built);
        let s = run.speedup_over(&cpu.report);
        t.row([
            seg.to_string(),
            (8192 / seg).to_string(),
            ratio(s),
            format!("{:+.2}%", 100.0 * (s / base_speedup - 1.0)),
        ]);
    }
    t.emit("ablation_etm_segment");

    println!("Ablation: ETM flush cycles (detection lag after functional death)\n");
    let mut t = Table::new(["Flush cycles", "Speedup vs CPU", "vs default"]);
    for flush in [0u32, 1, 2, 4, 8] {
        let mut config = SieveConfig::type3(8);
        config.etm_flush_cycles = flush;
        let run = runner::run_loaded(&device, config, &built);
        let s = run.speedup_over(&cpu.report);
        t.row([
            flush.to_string(),
            ratio(s),
            format!("{:+.2}%", 100.0 * (s / base_speedup - 1.0)),
        ]);
    }
    t.emit("ablation_flush");

    println!("Ablation: pattern-group size (group = refs + 64 query slots)\n");
    let mut t = Table::new([
        "Group cols",
        "Refs/subarray",
        "Setup writes/batch",
        "Speedup vs CPU",
    ]);
    for group in [288u32, 576, 1152, 2048] {
        let mut config = SieveConfig::type3(8);
        config.pattern_group_cols = group;
        if config.validate().is_err() {
            continue;
        }
        let run = runner::run_sieve(config.clone(), &built);
        t.row([
            group.to_string(),
            config.refs_per_subarray().to_string(),
            config.batch_replacement_writes().to_string(),
            ratio(run.speedup_over(&cpu.report)),
        ]);
    }
    t.emit("ablation_pattern_group");

    println!("Ablation: Type-2 hop delay (T2.16CB; relay cost per subarray crossed)\n");
    let mut t = Table::new(["Hop delay (ns)", "Speedup vs CPU"]);
    for hop_ns in [1u64, 2, 4, 8, 16] {
        let mut config = SieveConfig::type2(16);
        config.hop_delay_ps = hop_ns * 1000;
        let run = runner::run_loaded(&device, config, &built);
        t.row([hop_ns.to_string(), ratio(run.speedup_over(&cpu.report))]);
    }
    t.emit("ablation_hop_delay");
    println!("Defaults: 256-latch segments, 1 flush cycle, 576-col groups, 4 ns hops.");
}
