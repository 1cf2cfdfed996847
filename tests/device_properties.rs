//! Device-level behavioural properties: ETM transparency, parallelism
//! monotonicity, energy accounting sanity, and failure handling.

use proptest::prelude::*;
use sieve::core::{SieveConfig, SieveDevice, SieveError};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

fn built() -> (synth::SyntheticDataset, Vec<Kmer>) {
    let ds = synth::make_dataset_with(8, 2048, 31, 909);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 910);
    let queries = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    (ds, queries)
}

fn run(
    config: SieveConfig,
    ds: &synth::SyntheticDataset,
    queries: &[Kmer],
) -> sieve::core::RunOutput {
    SieveDevice::new(
        config.with_geometry(Geometry::scaled_medium()),
        ds.entries.clone(),
    )
    .expect("fits")
    .run(queries)
    .expect("valid")
}

#[test]
fn etm_is_functionally_transparent_on_all_designs() {
    let (ds, queries) = built();
    for config in [
        SieveConfig::type1(),
        SieveConfig::type2(8),
        SieveConfig::type3(8),
    ] {
        let with = run(config.clone().with_etm(true), &ds, &queries);
        let without = run(config.with_etm(false), &ds, &queries);
        assert_eq!(with.results, without.results);
        assert!(with.report.makespan_ps <= without.report.makespan_ps);
        assert!(with.report.energy.total_fj() < without.report.energy.total_fj());
    }
}

#[test]
fn salp_monotonically_improves_makespan() {
    let (ds, queries) = built();
    let mut prev = u64::MAX;
    for salp in [1u32, 2, 4, 8, 16, 32] {
        let report = run(SieveConfig::type3(salp), &ds, &queries).report;
        assert!(
            report.makespan_ps <= prev,
            "salp {salp} regressed: {} > {prev}",
            report.makespan_ps
        );
        prev = report.makespan_ps;
    }
}

#[test]
fn compute_buffers_monotonically_improve_makespan() {
    let (ds, queries) = built();
    let mut prev = u64::MAX;
    for cb in [1u32, 2, 4, 8, 16, 32, 64] {
        let report = run(SieveConfig::type2(cb), &ds, &queries).report;
        assert!(
            report.makespan_ps <= prev,
            "cb {cb} regressed: {} > {prev}",
            report.makespan_ps
        );
        prev = report.makespan_ps;
    }
}

#[test]
fn energy_ledger_is_complete() {
    let (ds, queries) = built();
    let report = run(SieveConfig::type3(8), &ds, &queries).report;
    let e = &report.energy;
    assert!(e.activation_fj > 0, "row activations must cost energy");
    assert!(
        e.write_fj > 0,
        "query-batch replacement writes must cost energy"
    );
    assert!(e.component_fj > 0, "matcher/ETM overhead must be charged");
    assert!(
        e.static_fj > 0,
        "static power over the makespan must be charged"
    );
    // The 6 % matcher overhead claim: component ≈ 6 % of activation energy
    // (plus per-hit finders, which are small at ~1 % hit rate).
    let ratio = e.component_fj as f64 / e.activation_fj as f64;
    assert!(
        ratio > 0.03 && ratio < 0.12,
        "component overhead out of band: {ratio:.3}"
    );
}

#[test]
fn esp_override_only_reduces_rows_never_changes_results() {
    let (ds, queries) = built();
    let exact = run(SieveConfig::type3(8), &ds, &queries);
    let capped = run(SieveConfig::type3(8).with_esp_override(10), &ds, &queries);
    assert_eq!(exact.results, capped.results);
    assert!(capped.report.row_activations <= exact.report.row_activations);
    assert!(capped.report.makespan_ps <= exact.report.makespan_ps);
}

#[test]
fn oversized_database_is_rejected() {
    let ds = synth::make_dataset_with(16, 8192, 31, 3);
    let tiny = Geometry::scaled_small(); // 8,192 k-mers of capacity
    let err = SieveDevice::new(
        SieveConfig::type3(4).with_geometry(tiny),
        ds.entries.clone(),
    )
    .unwrap_err();
    assert!(matches!(err, SieveError::CapacityExceeded { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cluster_sharding_is_functionally_transparent(devices in 1usize..6) {
        let (ds, queries) = built();
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let single = SieveDevice::new(config.clone(), ds.entries.clone())
            .expect("fits")
            .run(&queries)
            .expect("valid");
        let cluster = sieve::core::SieveCluster::new(config, devices, ds.entries.clone())
            .expect("builds");
        let out = cluster.run(&queries).expect("valid");
        prop_assert_eq!(out.results, single.results);
        prop_assert_eq!(out.hits, single.report.hits);
        prop_assert_eq!(out.device_reports.len(), devices.min(cluster.len()));
    }

    /// Shuffling a batch reorders the queries inside every shard (the
    /// plan keeps arrival order), yet each query's result and the whole
    /// modeled report — Type-1's per-batch ETM included — must come out
    /// the same on every design point.
    #[test]
    fn query_order_never_affects_functional_results(seed in 0u64..1000) {
        let (ds, queries) = built();
        // Deterministic shuffle: `order[i]` is the original position of
        // the i-th shuffled query.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let shuffled: Vec<Kmer> = order.iter().map(|&i| queries[i]).collect();
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(8),
            SieveConfig::type3(8),
        ] {
            let device = SieveDevice::new(
                config.with_geometry(Geometry::scaled_medium()),
                ds.entries.clone(),
            )
            .expect("fits");
            let baseline = device.run(&queries).expect("valid");
            let permuted = device.run(&shuffled).expect("valid");
            let mut results = vec![None; queries.len()];
            for (&i, &r) in order.iter().zip(&permuted.results) {
                results[i] = r;
            }
            prop_assert_eq!(&results, &baseline.results);
            prop_assert_eq!(&permuted.report, &baseline.report);
        }
    }
}
