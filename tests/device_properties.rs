//! Device-level behavioural properties: ETM transparency, parallelism
//! monotonicity, energy accounting sanity, and failure handling.

use proptest::prelude::*;
use sieve::core::{PcieConfig, SieveApi, SieveConfig, SieveDevice, SieveError, Transport};
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
    for config in [
        SieveConfig::type1(),
        SieveConfig::type2(8),
        SieveConfig::type3(8),
    ] {
        let label = config.device.label();
        let exact = run(config.clone(), &ds, &queries);
        let capped = run(config.with_esp_override(10), &ds, &queries);
        assert_eq!(exact.results, capped.results, "{label}");
        // The cap charges a miss the rows of at most 10 shared bits, and
        // this batch holds misses that share more with a reference.
        assert!(
            capped.report.row_activations < exact.report.row_activations,
            "{label}: {} rows capped, {} exact",
            capped.report.row_activations,
            exact.report.row_activations
        );
        assert!(
            capped.report.makespan_ps <= exact.report.makespan_ps,
            "{label}"
        );
    }
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

/// A link the transfer and wire-time formulas would divide by zero on,
/// or whose packet cannot hold its header and one request, is a typed
/// error wherever it enters: its own check, the device and the deploy.
#[test]
fn degenerate_links_are_rejected() {
    let ds = synth::make_dataset_with(4, 2048, 31, 9);
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let rejects = |want: &str, result: Result<(), SieveError>| matches!(result, Err(SieveError::InvalidConfig { field, .. }) if field == want);
    let gen4 = PcieConfig::gen4_x16();
    for link in [
        PcieConfig {
            bandwidth_bytes_per_s: 999_999,
            ..gen4
        },
        PcieConfig {
            request_bytes: 0,
            ..gen4
        },
        PcieConfig {
            packet_payload_bytes: 8,
            ..gen4
        },
        PcieConfig {
            packet_payload_bytes: 20,
            ..gen4
        },
    ] {
        let linked = config.clone().with_pcie(link);
        assert!(rejects("pcie", link.validate()), "{link:?}");
        assert!(rejects("pcie", linked.validate()), "{link:?}");
        let device = SieveDevice::new(linked, ds.entries.clone());
        assert!(rejects("pcie", device.map(drop)), "{link:?}");
        let api = SieveApi::deploy(config.clone(), Transport::Pcie(link), ds.entries.clone());
        assert!(rejects("pcie", api.map(drop)), "{link:?}");
    }
    let slow_dimm = Transport::Dimm {
        power_w_per_gb: 0.37,
        bandwidth_bytes_per_s: 999_999,
    };
    let type1 = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
    assert!(rejects("transport", slow_dimm.validate(&type1, 0.0)));
    let api = SieveApi::deploy(type1, slow_dimm, ds.entries.clone());
    assert!(rejects("transport", api.map(drop)));
    // The paper's link, and the smallest packet that holds one 12-byte
    // request, deploy and answer.
    let one_request = PcieConfig {
        packet_payload_bytes: 28,
        ..gen4
    };
    assert_eq!(one_request.requests_per_packet(), 1);
    for link in [gen4, one_request] {
        link.validate().expect("a sound link passes its check");
        let mut api = SieveApi::deploy(config.clone(), Transport::Pcie(link), ds.entries.clone())
            .expect("a sound link deploys");
        let queries: Vec<Kmer> = ds.entries.iter().take(64).map(|&(k, _)| k).collect();
        assert_eq!(api.query(&queries).expect("valid batch").report.hits, 64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
