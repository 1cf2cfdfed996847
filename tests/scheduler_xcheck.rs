//! End-to-end cross-validation: the aggregate scheduler's makespan for a
//! real Type-3 run must agree with the event-driven simulator fed the same
//! resolved work, and the cadence it assumes must be JEDEC-legal.

use sieve::core::{engine, xcheck, DeviceLayout, SieveConfig, SieveDevice};
use sieve::dram::trace::TraceValidator;
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

fn setup() -> (SieveConfig, synth::SyntheticDataset, Vec<Kmer>) {
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let ds = synth::make_dataset_with(16, 8192, 31, 1234);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 300, 5);
    let queries = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    (config, ds, queries)
}

/// Rebuilds the per-subarray work a run resolves, through public APIs
/// only and independently of the device's rank router: each query goes to
/// the largest subarray whose first key is at most it (0 below all of
/// them), the paper's index-table pick, and [`engine::lookup`] resolves
/// it there.
fn resolve_work(
    config: &SieveConfig,
    layout: &DeviceLayout,
    queries: &[Kmer],
) -> Vec<xcheck::SubarrayWork> {
    let banks = config.geometry.total_banks();
    let firsts: Vec<u64> = layout.subarrays().map(|sa| sa.keys()[0]).collect();
    let mut per_sub: Vec<Vec<u32>> = vec![Vec::new(); layout.occupied_subarrays()];
    for q in queries {
        let sub = firsts
            .partition_point(|&first| first <= q.bits())
            .saturating_sub(1);
        let outcome = engine::lookup(
            &layout.subarray(sub),
            *q,
            config.etm_enabled,
            config.etm_flush_cycles,
        );
        per_sub[sub].push(outcome.rows);
    }
    per_sub
        .into_iter()
        .enumerate()
        .map(|(i, query_rows)| xcheck::SubarrayWork {
            bank: i % banks,
            query_rows,
        })
        .collect()
}

#[test]
fn aggregate_makespan_matches_event_driven_ground_truth() {
    let (config, ds, queries) = setup();
    let device = SieveDevice::new(config.clone(), ds.entries.clone()).unwrap();
    let report = device.run(&queries).unwrap().report;
    // Hits are rare (~1%) and add identification/payload time the event
    // model does not track; keep them out of the comparison noise budget.
    assert!(report.hits < report.queries / 20);

    let work = resolve_work(&config, device.layout(), &queries);
    let event = xcheck::event_driven_type3_makespan(&config, &work, 8);
    // The aggregate model adds refresh stretch (~4.7 %) and hit overheads;
    // the event model is batch-granular (can be tighter than whole-subarray
    // LPT). Demand agreement within 15 %.
    let ratio = report.makespan_ps as f64 / event as f64;
    assert!(
        ratio > 0.95 && ratio < 1.15,
        "aggregate {} vs event {} (ratio {ratio:.3})",
        report.makespan_ps,
        event
    );
}

#[test]
fn assumed_cadence_is_timing_legal_for_every_occupied_subarray() {
    let (config, ds, queries) = setup();
    let device = SieveDevice::new(config.clone(), ds.entries.clone()).unwrap();
    let work = resolve_work(&config, device.layout(), &queries);
    let validator = TraceValidator::new(config.timing);
    let mut checked = 0;
    for w in work.iter().filter(|w| !w.query_rows.is_empty()).take(8) {
        let bank = config.geometry.bank(w.bank);
        let trace = xcheck::emit_subarray_trace(&config, bank, &w.query_rows);
        let violations = validator.validate(&trace);
        assert!(
            violations.is_empty(),
            "illegal cadence: {:?}",
            violations.first()
        );
        checked += 1;
    }
    assert!(checked > 0, "no occupied subarrays checked");
}
